"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gauss-l16 --seed 1 --seconds 15 --trace 0

Run it from the repository root; curvelang is imported from ``src/``.
The workload runs in this single process with BLAS and OpenMP limited to
one thread.  Human-readable lines come first: the environment, every
metric with its unit and sample count, and the failed-operation ratio
with its base.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the workload runs twice, untraced and
then traced, and ``metrics`` holds the per-layer metrics and the tracing
overhead (traced minus untraced) on each end-to-end metric.

Result files and the spans of a traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("gauss-l16", "masked-varlen", "curves")
# the end-to-end metrics every workload reports (BENCHMARK.json)
GATED = ("setup_s", "op_ms_mean", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ROOT, "src", "curvelang", "__init__.py")):
        print(f"perfbench: no curvelang sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # numpy is first imported here, after the thread variables are set
    from perfbench import spans, workloads

    env = environment()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        plain = workloads.Pass()
        workloads.run(args.workload, plain, args.seed, args.seconds, workdir)
        e2e = workloads.end_to_end(args.workload, plain)
        passes = [plain]
        layer = {}
        if args.trace:
            rec = spans.SpanRecorder()
            traced = workloads.Pass(rec)
            with spans.traced(rec):
                cache = workloads.run(args.workload, traced, args.seed, args.seconds, workdir)
            traced_e2e = workloads.end_to_end(args.workload, traced)
            rec.save(stem + "-spans.npz")
            table = spans.SpanTable.from_recorder(rec)
            layer = workloads.per_layer(table, rec, traced, cache)
            for name, (value, unit, _) in e2e.items():
                if value is not None and traced_e2e[name][0] is not None:
                    layer[f"trace_overhead.{name}"] = (traced_e2e[name][0] - value, unit)
            passes.append(traced)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in e2e.items():
        print(f"  {name} = {_fmt(value)} {unit} (n={n})")
    print(f"  ops_failed_ratio = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    for name, (value, unit) in layer.items():
        print(f"  {name} = {_fmt(value)} {unit}")

    missing = [name for name in GATED if e2e[name][0] is None]
    if missing:
        print(f"perfbench: too few samples for {missing}", file=sys.stderr)
        return 1
    if args.trace:
        # the overhead of the workload's own extra metrics stays in the lines above
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer.items()
            if not name.startswith("trace_overhead.") or name.split(".", 1)[1] in GATED
        }
    else:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in GATED}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "end_to_end": e2e, "per_layer": layer, "times_s": plain.times, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
