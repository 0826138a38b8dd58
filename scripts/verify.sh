#!/usr/bin/env bash
# Offline verification gate: formatting, clippy, policy lint, build, tests.
#
# Everything runs with --offline — the workspace has no external
# dependencies by policy (see DESIGN.md §5), so a bare toolchain with no
# registry access must be able to pass this script end to end.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Run every test binary on four threads whatever the host's core count,
# so a race between tests of one binary (shared process-global state)
# shows on a 1-core machine too instead of only on wider CI hosts.
export RUST_TEST_THREADS=4

# Lints for library code only (DESIGN.md §7): no panics, exact float
# compares or wildcard arms over enums. `--lib --bins` compiles no
# `#[cfg(test)]` module, `tests/`, `benches/` or `examples/`, so test code
# stays free to unwrap and assert exactly. This array is the one place
# the list is kept: the root tests/rule_fixtures.rs reads it to check the
# rule fixtures with the same flags.
library_lints=(
    -D clippy::unwrap_used
    -D clippy::expect_used
    -D clippy::float_cmp
    -D clippy::wildcard_enum_match_arm
    -D clippy::match_wildcard_for_single_variants
)

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy, all targets (warnings denied; clippy.toml bans hash containers, wall clocks, raw threads)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo clippy, library code (no panics, exact float compares or enum wildcards)"
cargo clippy --offline --workspace --lib --bins -- -D warnings "${library_lints[@]}"

echo "== clippy rule fixtures (clippy flags exactly each fixture's VIOLATION lines)"
cargo test --offline -q -p lockgran --test rule_fixtures

echo "== simbench clippy, all targets"
# simbench/ is its own workspace and measures host time with raw threads
# by design, so the clippy.toml bans it inherits from the root are off.
simbench_allow=(-A clippy::disallowed_types -A clippy::disallowed_methods)
cargo clippy --offline --manifest-path simbench/Cargo.toml --all-targets -- \
    -D warnings "${simbench_allow[@]}"

echo "== simbench clippy, binaries (library-code lints)"
cargo clippy --offline --manifest-path simbench/Cargo.toml --bins -- \
    -D warnings "${simbench_allow[@]}" "${library_lints[@]}"

echo "== lockgran-lint (lock protocol, determinism flow, hot-path maps, front removals)"
if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    # Under Actions, emit workflow commands so findings show up as
    # inline annotations on the PR diff (same exit status either way).
    cargo run --offline -q -p lockgran-lint -- --github
else
    cargo run --offline -q -p lockgran-lint
fi

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== differential property tests (lock table and waits-for graph vs ordered-map oracles, quick profile)"
# QUICK_PROP trims the seed sweep (24 → 4 seeds per shape) so the
# cross-checks run early and fast; the full sweeps still run as part of
# the workspace test pass below.
QUICK_PROP=1 cargo test --offline -q -p lockgran-lockmgr --test prop_difftable --test prop_waitsfor

echo "== cargo test"
cargo test --offline --workspace -q

echo "== simbench build + tests (its own workspace, so the steps above skip it)"
# simbench/ depends on the library crates by path but is not a workspace
# member: without this step a library API change that breaks the
# benchmark would pass the gate.
cargo test --offline -q --manifest-path simbench/Cargo.toml

echo "== simbench digests (one short pass per workload at seed 0)"
# The step above never runs a workload. One pass per workload checks
# every run's output against its pinned digest (simbench/digests.txt),
# its consistency, and its bit-identity under arena reuse; the binary
# exits non-zero if any run fails. --seconds 1 keeps it to one timed pass.
for workload in paper_sweep lock_contention capacity; do
    simbench_out=$(cargo run --offline -q --release --manifest-path simbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0) \
        || { echo "$simbench_out"; echo "simbench $workload failed its correctness checks"; exit 1; }
    tail -n 1 <<<"$simbench_out"
done

echo "== determinism under parallelism (jobs = 1/2/8 byte-identical)"
cargo test --offline -q --test parallel_determinism

echo "== twophase smoke (incremental 2PL end to end: deadlocks detected, victims replayed)"
# Contended single run in the new conflict mode, then a quick extI
# figure pass (explicit vs twophase under an 80/20 hot spot). Both are
# cheap; the figure's own unit tests carry the shape assertions.
# Capture, then grep: `grep -q` exits on first match and closes the
# pipe mid-print, which the binary reports as a broken-pipe panic.
twophase_out=$(cargo run --offline -q --release --bin lockgran -- run --conflict twophase \
    --ltot 10 --ntrans 50 --maxtransize 50 --placement random --tmax 1000 --seed 7)
grep -q "deadlocks" <<<"$twophase_out" || { echo "twophase run smoke failed"; exit 1; }
cargo run --offline -q --release --bin lockgran -- extI --quick --jobs 2 > /dev/null

echo "== capacity smoke (scaled-down bench_capacity, single pass per point)"
# One iteration of each capacity point at the quick scale: proves the
# 10⁷-entity code paths (arena reuse, ln-gamma Yao routing, batch-means
# collection) still complete, independent of the timing smoke below.
LOCKGRAN_BENCH_QUICK=1 cargo bench --offline -p lockgran-bench --bench bench_capacity -- --test

echo "== bench smoke (quick scale, diff vs committed baseline)"
LOCKGRAN_BENCH_QUICK=1 LOCKGRAN_BENCH_THRESHOLD=10000 scripts/bench.sh

echo "verify: OK"
