"""Shared helpers of the benchmark's Python tools (spread.py, ab.py).

Reads BENCHMARK.json from the repository root, runs a benchmark binary
and parses its last output line, and summarises samples with the same
quartiles the benchmark's acceptance rule uses
(statistics.quantiles(values, n=4)).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("simbench", "Cargo.toml")
BINARY = "lockgran-simbench"


def load_spec():
    """BENCHMARK.json as a dict."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build(tree, target_dir):
    """Build the benchmark of source tree `tree` offline into `target_dir`
    and return the path of its executable."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, MANIFEST)],
        check=True, env=env)
    return os.path.join(target_dir, "release", BINARY)


def run_once(binary, workload, seed, seconds, trace=0):
    """Run one measurement; return its parsed result line. Raises when the
    run fails or reports incorrect output."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(
            f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value stands for all three."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
