#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs every workload back to back, once per seed, and prints for each
end-to-end metric the median over seeds and the interquartile spread
(Q3 - Q1, as a share of the median) next to the metric's bound. A spread
below a third of the bound is what the benchmark aims for; a spread
above the bound means the metric cannot resolve a regression of that
size.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its output checks:\n{out.stdout}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':<14} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, s = spread(values[name])
            worst = max(worst, s / bound)
            verdict = ("steady" if s < bound / 3
                       else "within bound" if s <= bound else "TOO WIDE")
            print(f"  {name:<14} {med:>14.6g} {s:>8.2%} {bound:>6.2f}  {verdict}")
        print(flush=True)
    print(f"largest spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
