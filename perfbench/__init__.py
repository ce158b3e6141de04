"""curvelang's benchmark: workloads, span tracing and metrics (see README.md)."""
