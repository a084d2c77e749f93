#!/usr/bin/env python3
"""Runs the end-to-end pass on ten seeds per workload and prints, for every
metric, the median and the quartile spread (Q3 - Q1) / median: the number the
driver holds against each bound of BENCHMARK.json.

    cargo build --release --manifest-path benchmark/Cargo.toml
    python3 benchmark/tools/spread.py [FIRST_SEED] [SECONDS] > table.txt

Run it from the repo root, on an otherwise idle host.
"""
import json
import statistics
import subprocess
import sys

first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
contract = json.load(open("BENCHMARK.json"))
seconds = sys.argv[2] if len(sys.argv) > 2 else str(contract["run_seconds"])
exe = "benchmark/target/release/kfds-benchmark"

for workload in (w["name"] for w in contract["workloads"]):
    runs = []
    for seed in range(first, first + 10):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        done = subprocess.run([exe] + args, capture_output=True, text=True, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    failed = sum(r["failed"] for r in runs)
    print(f"{workload}: seeds {first}..{first + 9}, {seconds} s each, {failed} failed operations")
    for metric in contract["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        print(
            f"  {metric['name']:<16} median {median:<12.6g} spread {(q3 - q1) / median:.4f}"
            f"  bound {metric['bound']}  min {min(values):.6g}  max {max(values):.6g}"
        )
