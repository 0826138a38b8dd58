#!/usr/bin/env python3
"""Spread report: run each workload N times, each with its own seed, and
print the median, quartiles and interquartile range (as a share of the
median) of every end-to-end metric next to the bound BENCHMARK.json
gives it. This is the evidence a bound rests on.

Usage (from the repository root):
    python3 simbench/spread.py [--runs 10] [--first-seed 1]
                               [--workloads a,b] [--seconds S] [--out FILE]

--seconds defaults to BENCHMARK.json's run_seconds. The benchmark is
built first into $CARGO_TARGET_DIR (default .bench_build). --out writes
every raw value as JSON.
"""

import argparse
import json
import os

import benchlib


def main():
    spec = benchlib.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR",
                            os.path.join(benchlib.ROOT, ".bench_build"))
    binary = benchlib.build(benchlib.ROOT, target)
    metrics = spec["end_to_end"]
    raw = {}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = benchlib.run_once(binary, workload, seed, args.seconds)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        raw[workload] = values
        print(f"{workload}: {args.runs} runs, {args.seconds:g} s each")
        print(f"  {'metric':<14} {'q1':>14} {'median':>14} {'q3':>14} "
              f"{'IQR/median':>10} {'bound':>6}  verdict")
        for m in metrics:
            v = values[m["name"]]
            q1, q2, q3 = benchlib.quartiles(v)
            s = benchlib.spread(v)
            bound = m["bound"]
            if s <= bound / 3:
                verdict = "steady (< bound/3)"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            print(f"  {m['name']:<14} {q1:>14.6g} {q2:>14.6g} {q3:>14.6g} "
                  f"{s:>10.4f} {bound:>6.3g}  {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
