"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload curves --seeds 1-10 [--seconds 15] [--trace 0]

Runs are made one after another, each in its own process.  For every
metric the median over seeds is printed with the spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name}: median {median:.6g} spread {spread:.4f}" + (f" bound {bound} (third {bound / 3:.4f})" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
