#!/usr/bin/env python3
"""Prints, for each workload of a trace.json, the median set-up time and the
share of it each stage span takes (the remainder is the set-up span's own
time: glue, and on serve_closed_loop everything inside the service).

    python3 benchmark/tools/shares.py [benchmark/results/trace.json]
"""
import collections
import json
import statistics
import sys

path = sys.argv[1] if len(sys.argv) > 1 else "benchmark/results/trace.json"
spans = json.load(open(path))["spans"]
children = collections.defaultdict(list)
for span in spans:
    if span["parent"] is not None:
        children[span["parent"]].append(span)


def below(span):
    for child in children[span["id"]]:
        yield child
        yield from below(child)


def seconds(span):
    return (span["end"] - span["start"]) / 1e6


for workload in dict.fromkeys(s["workload"] for s in spans):
    setups = [s for s in spans if s["workload"] == workload and s["name"] == "setup"]
    total = statistics.median(seconds(s) for s in setups)
    stages = collections.defaultdict(list)
    for setup in setups:
        for span in below(setup):
            if span["name"] != "serve.setup_build":  # a wrapper, not a stage
                stages[span["name"]].append(seconds(span))
    print(f"{workload}: set-up {total:.3f} s, median of {len(setups)} traced repetitions")
    covered = 0.0
    for name, values in stages.items():
        stage = statistics.median(values)
        covered += stage
        print(f"  {name:<18} {stage:.3f} s  {100 * stage / total:3.0f} %")
    print(f"  {'(remainder)':<18} {total - covered:.3f} s  {100 * (total - covered) / total:3.0f} %")
