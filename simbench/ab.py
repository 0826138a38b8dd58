#!/usr/bin/env python3
"""Interleaved A/B of the simulator: a parent revision against the change.

Exports the parent revision with `git archive` into a clean tree, lays
this checkout's simbench/ over it (both sides run identical benchmark
code and settings), builds both offline, then runs pairs: pair i runs
both sides at seed first_seed + i, the parent first in even pairs and
the change first in odd ones. For every end-to-end metric of every
workload it prints each side's median and quartiles, the median change,
the share of pairs the change won (ties count for neither) and a
verdict by the rule of the choosing-metrics guide: a gain needs at least
nine tenths of the pairs won and a median difference wider than the
parent's own interquartile range; a regression is a median worse than
the parent's by more than the metric's bound; a parent spread wider than
the bound leaves the metric unresolved.

Usage (from the repository root):
    python3 simbench/ab.py <parent-rev> [--change <rev>] [--pairs 10]
                           [--first-seed 1] [--workloads a,b]
                           [--seconds S] [--workdir DIR]

Without --change the change side is this checkout's working tree.
--workdir (default .bench_build/ab) holds the exported trees and the
two target directories.
"""

import argparse
import os
import shutil
import subprocess

import benchlib


def export(rev, dest):
    """Write the tree of git revision `rev` to `dest`, with this
    checkout's simbench/ laid over it."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", benchlib.ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.copytree(os.path.join(benchlib.ROOT, "simbench"),
                    os.path.join(dest, "simbench"), dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    return dest


def verdict(metric, base, change, won_share):
    """Classify one metric's A/B by the guide's rule."""
    b1, b2, b3 = benchlib.quartiles(base)
    _, c2, _ = benchlib.quartiles(change)
    lower = metric["better"] == "lower"
    worse = (c2 - b2) / b2 if lower else (b2 - c2) / b2
    if won_share >= 0.9 and abs(c2 - b2) > (b3 - b1):
        return "GAIN"
    if worse > metric["bound"]:
        return "REGRESSION"
    if (b3 - b1) / b2 > metric["bound"]:
        return "unresolved (parent spread wider than bound)"
    return "no change beyond bound"


def main():
    spec = benchlib.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workdir",
                    default=os.path.join(benchlib.ROOT, ".bench_build", "ab"))
    args = ap.parse_args()

    work = os.path.abspath(args.workdir)
    parent_tree = export(args.parent, os.path.join(work, "parent"))
    change_tree = (export(args.change, os.path.join(work, "change"))
                   if args.change else benchlib.ROOT)
    binaries = {
        "parent": benchlib.build(parent_tree, os.path.join(work, "target-parent")),
        "change": benchlib.build(change_tree, os.path.join(work, "target-change")),
    }
    metrics = spec["end_to_end"]
    for workload in args.workloads.split(","):
        values = {side: {m["name"]: [] for m in metrics} for side in binaries}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result = benchlib.run_once(binaries[side], workload, seed,
                                           args.seconds)
                for m in metrics:
                    values[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
            print(f"  {workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                  f"{order[0]} first) done", flush=True)
        print(f"{workload}: {args.pairs} pairs, {args.seconds:g} s per run")
        print(f"  {'metric':<14} {'parent q1/med/q3':>36} "
              f"{'change q1/med/q3':>36} {'median':>8} {'won':>5}  verdict")
        for m in metrics:
            base = values["parent"][m["name"]]
            change = values["change"][m["name"]]
            lower = m["better"] == "lower"
            won = sum(1 for b, c in zip(base, change)
                      if (c < b if lower else c > b))
            share = won / len(base)
            b = benchlib.quartiles(base)
            c = benchlib.quartiles(change)
            delta = (c[1] - b[1]) / b[1] if b[1] else 0.0
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)  # noqa: E731
            print(f"  {m['name']:<14} {fmt(b):>36} {fmt(c):>36} "
                  f"{delta:>+8.2%} {share:>5.0%}  "
                  f"{verdict(m, base, change, share)}")


if __name__ == "__main__":
    main()
