#!/usr/bin/env bash
# Offline verification gate: formatting, clippy, build, goldens, tests.
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
# compares, wildcard arms over enums or `#[allow]` (a suppression is an
# `#[expect]` with a reason). `--lib --bins` compiles no
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
    -D clippy::allow_attributes
)

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy, all targets (warnings denied; clippy.toml bans hash containers, wall clocks, raw threads)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo clippy, library code (no panics, exact float compares, enum wildcards or #[allow])"
cargo clippy --offline --workspace --lib --bins -- -D warnings "${library_lints[@]}"

echo "== rule fixtures (clippy and the source-policy scan flag exactly each fixture's VIOLATION lines)"
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

echo "== cargo doc (rustdoc warnings denied: broken, ambiguous or private intra-doc links)"
# --lib: the root library and the lockgran binary would both write
# doc/lockgran/index.html, and the binary's docs are not read.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --lib

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== goldens (lockgran all + ext regenerate every results/ artifact byte-identically)"
# The committed artifacts are the contract a refactor must keep; a moved
# number here is a semantic change, to be re-pinned on purpose or fixed.
golden_dir=$(mktemp -d "${TMPDIR:-/tmp}/lockgran-goldens.XXXXXX")
trap 'rm -rf "$golden_dir"' EXIT
for set in all ext; do
    golden_log=$(cargo run --offline -q --release --bin lockgran -- "$set" --out "$golden_dir" 2>&1 >/dev/null) \
        || { echo "$golden_log"; echo "lockgran $set failed"; exit 1; }
done
diff -r --exclude=bench "$golden_dir" results

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
# The pass's wall_s (host seconds scaled to the reference host speed, on
# the last JSON line) must stay under a ceiling far above every
# workload's few seconds: a smoke test against a pathological slowdown,
# not a perf gate (simbench/ab.py is that). Its peak_rss_mb must stay
# under a memory ceiling too. A terminal waiting for an MPL slot is only
# its (serial, arrival) pair, so capacity's 10^5 terminals behind MPL 64
# peak at about 10 MB and the other two workloads at about 3.5 MB; a
# drawn transaction kept per waiting terminal (about 50 MB on capacity)
# fails here.
wall_ceiling_s=30
rss_ceiling_mb=24
# The value of end-to-end metric $1 on the JSON result line $2.
metric_value() {
    sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p" <<<"$2"
}
for workload in paper_sweep lock_contention capacity; do
    simbench_out=$(cargo run --offline -q --release --manifest-path simbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0) \
        || { echo "$simbench_out"; echo "simbench $workload failed its correctness checks"; exit 1; }
    result=$(tail -n 1 <<<"$simbench_out")
    echo "$result"
    wall_s=$(metric_value wall_s "$result")
    awk -v w="$wall_s" -v max="$wall_ceiling_s" 'BEGIN { exit !(w != "" && w + 0 <= max) }' \
        || { echo "simbench $workload: wall_s ${wall_s:-missing} is over ${wall_ceiling_s} s"; exit 1; }
    rss_mb=$(metric_value peak_rss_mb "$result")
    awk -v m="$rss_mb" -v max="$rss_ceiling_mb" 'BEGIN { exit !(m != "" && m + 0 <= max) }' \
        || { echo "simbench $workload: peak_rss_mb ${rss_mb:-missing} is over ${rss_ceiling_mb} MB"; exit 1; }
done

echo "== twophase smoke (incremental 2PL end to end: deadlocks detected, victims replayed)"
# One contended single run in the incremental conflict mode; extI's own
# unit tests carry the figure's shape assertions, and the golden step
# regenerates it in full. The run must break deadlocks, and with the
# failure extension off every abort is a deadlock victim's.
twophase_out=$(cargo run --offline -q --release --bin lockgran -- run --conflict twophase \
    --ltot 10 --ntrans 50 --maxtransize 50 --placement random --tmax 1000 --seed 7) \
    || { echo "$twophase_out"; echo "twophase run smoke failed"; exit 1; }
report_value() {
    sed -n "s/^$1 *= *\([0-9][0-9]*\)\$/\1/p" <<<"$2"
}
deadlocks=$(report_value deadlocks "$twophase_out")
aborts=$(report_value aborts "$twophase_out")
echo "deadlocks = ${deadlocks:-missing}, aborts = ${aborts:-missing}"
[[ -n "$deadlocks" && -n "$aborts" && "$deadlocks" -gt 0 && "$deadlocks" -eq "$aborts" ]] \
    || { echo "$twophase_out"; echo "twophase run smoke: expected deadlocks > 0 and deadlocks == aborts"; exit 1; }

echo "== micro benches (each body once, untimed, so none can rot)"
cargo bench --offline -q -p lockgran-bench -- --test

echo "verify: OK"
