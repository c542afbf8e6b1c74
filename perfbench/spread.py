#!/usr/bin/env python3
"""Measures the benchmark's own run-to-run spread.

Runs the benchmark once per seed on each named workload, untraced, and prints
for every end-to-end metric the median and the distance between the first
and third quartile as a share of the median, with the quartiles taken as
statistics.quantiles(values, n=4) gives them. Run it from the repository
root:

    python3 perfbench/spread.py --workloads quick-window,hosts-100k --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-10", help="inclusive seed range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=30, help="--seconds passed to each run")
    ap.add_argument("--out", help="append every run's result as a JSON line to this file")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if len(seeds) < 2:
        sys.exit("need at least two seeds for quartiles")

    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{workload:14s} {name:12s} n={len(vals)} median={med:.4g} "
                  f"q1={q1:.4g} q3={q3:.4g} spread={(q3 - q1) / med:.4f}", flush=True)


if __name__ == "__main__":
    main()
