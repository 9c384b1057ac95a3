#!/usr/bin/env python3
"""Takes a baseline: runs each workload on several seeds through run.py and
prints, per end-to-end metric, the median, the quartile spread
(IQR / median, as statistics.quantiles(values, n=4) gives the quartiles)
and the bound from BENCHMARK.json, plus the failed share of operations.

    python3 perfbench/baseline.py [--workloads train,serve,cluster]
        [--seeds 1-10] [--out baseline.jsonl]

Every run's result line is appended to --out (one JSON object per line,
with the workload and seed added) so two baselines can be compared later.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,serve,cluster")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    worst = 0
    for workload in args.workloads.split(","):
        values, shares = {}, set()
        for seed in parse_seeds(args.seeds):
            start = time.time()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.time() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})")
                worst = 1
                continue
            result = json.loads(lines[-1])
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          **result}) + "\n")
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:5.1f} s  " + "  ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"{workload}: failed/attempted per run: {sorted(shares)}")
        print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            print(f"{name:14s} {median:12.6g} {(q3 - q1) / median:8.4f} "
                  f"{bounds.get(name, float('nan')):6.2f}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
