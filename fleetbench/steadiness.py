#!/usr/bin/env python3
"""Steadiness check for the fleet benchmark.

Run from the root of a checkout:

    python3 fleetbench/steadiness.py                 # every workload, 10 seeds
    python3 fleetbench/steadiness.py --workloads chaotic_ckpt --runs 5

Runs each workload --runs times through fleetbench/run.py, each time with
another seed, and prints for every end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A spread
at or above the bound is flagged; the aim is a spread below a third of it.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "fleetbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads:
        values = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failures {failed}")
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound:
                flag = "  OVER BOUND"
                steady = False
            elif bound is not None and spread >= bound / 3:
                flag = "  above bound/3"
            print(f"  {name:20s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        if failed:
            steady = False
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
