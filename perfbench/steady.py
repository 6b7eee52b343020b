#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and prints the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 101

Run from the repository root. The workloads and the run length are the
ones BENCHMARK.json names, and every run is untraced. Round r runs every
workload once with seed first_seed + r, alternating workloads so that a
slow spell of the host lands on all of them. For each workload and metric
it prints the median, the quartiles (statistics.quantiles(n=4)), the
spread (Q3 - Q1) / median and the metric's bound. A run that fails,
reports correct = false or counts a failed operation is printed and makes
the script exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    ok = True
    for r in range(args.runs):
        seed = args.first_seed + r
        for w in workloads:
            result = run_once(w, seed, spec["run_seconds"])
            if (result is None or not result["correct"]
                    or result["failed"] != 0):
                print(f"{w} seed {seed}: bad run: {result}")
                ok = False
                continue
            runs[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)

    for w in workloads:
        if len(runs[w]) < 2:
            continue
        print(f"\n{w}: {len(runs[w])} runs")
        for name in runs[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:28s} median {q2:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {(q3 - q1) / q2:7.2%}  "
                  f"bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
