//! Micro-bench: the lock table and the conservative protocol on it.
//!
//! The paper's granularity sweeps keep up to `ltot` granule entries live
//! in the table at once. This bench pins per-request cost at ltot ∈
//! {10^2, 10^4, 10^6} so the container's scaling — the hash-indexed slab
//! is O(1) per probe where an ordered map pays O(log n) pointer-chasing —
//! is visible in isolation from the rest of the simulator. Beside it: the
//! X-mode grant/release cycle on an empty table at paper-scale lock
//! counts, and the conservative all-at-once request.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_lockmgr::{ConservativeScheduler, GranuleId, LockMode, LockTable, TxnId};

/// Resident holder transactions the populated table is spread across.
const HOLDERS: u64 = 16;
/// Granules the probe transaction touches per iteration.
const PROBE: u64 = 64;

/// A table with `ltot` granule entries resident, S-held by persistent
/// holder transactions that never release.
fn resident_table(ltot: u64) -> LockTable {
    let mut lt = LockTable::new();
    let mut blockers = Vec::new();
    for g in 0..ltot {
        let _ = lt.lock_into(TxnId(g % HOLDERS), GranuleId(g), LockMode::S, &mut blockers);
    }
    lt
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_locktable");

    for &ltot in &[100u64, 10_000, 1_000_000] {
        // Acquire/release cycle strided across the resident set: pure
        // index probe + compatible grant + release at table size ltot.
        group.bench_with_input(
            BenchmarkId::new("grant_release", ltot),
            &ltot,
            |b, &ltot| {
                let mut lt = resident_table(ltot);
                let step = (ltot / PROBE).max(1);
                let probes = PROBE.min(ltot);
                let (mut blockers, mut woken) = (Vec::new(), Vec::new());
                let mut serial = HOLDERS;
                let mut offset = 0u64;
                b.iter(|| {
                    let txn = TxnId(serial);
                    serial += 1;
                    offset = (offset + 1) % step;
                    for i in 0..probes {
                        let g = (i * step + offset) % ltot;
                        black_box(lt.lock_into(txn, GranuleId(g), LockMode::S, &mut blockers));
                    }
                    lt.release_all_into(txn, &mut woken);
                    black_box(woken.len());
                });
            },
        );

        // Conflict-queue churn on one hot granule while ltot entries stay
        // resident: block + wake + promote cost at table size ltot.
        group.bench_with_input(BenchmarkId::new("queue_churn", ltot), &ltot, |b, &ltot| {
            let mut lt = resident_table(ltot);
            let hot = GranuleId(ltot); // fresh granule: pure X convoy
            let (mut blockers, mut woken) = (Vec::new(), Vec::new());
            let mut head = HOLDERS;
            let mut tail = HOLDERS;
            for _ in 0..32 {
                let _ = lt.lock_into(TxnId(tail), hot, LockMode::X, &mut blockers);
                tail += 1;
            }
            b.iter(|| {
                lt.unlock_into(TxnId(head), hot, &mut woken);
                black_box(woken.len());
                head += 1;
                let _ = lt.lock_into(TxnId(tail), hot, LockMode::X, &mut blockers);
                tail += 1;
            });
        });
    }

    for &locks_per_txn in &[5usize, 50, 250] {
        group.bench_with_input(
            BenchmarkId::new("uncontended_x_cycle", locks_per_txn),
            &locks_per_txn,
            |b, &k| {
                let mut lt = LockTable::new();
                let (mut blockers, mut woken) = (Vec::new(), Vec::new());
                let mut serial = 0u64;
                b.iter(|| {
                    let txn = TxnId(serial);
                    serial += 1;
                    for g in 0..k as u64 {
                        black_box(lt.lock_into(txn, GranuleId(g), LockMode::X, &mut blockers));
                    }
                    lt.release_all_into(txn, &mut woken);
                    black_box(woken.len());
                });
            },
        );
    }

    group.bench_function("conservative_request_all_50", |b| {
        let mut s = ConservativeScheduler::new();
        let locks: Vec<(GranuleId, LockMode)> =
            (0..50).map(|g| (GranuleId(g), LockMode::X)).collect();
        let mut woken = Vec::new();
        let mut serial = 0u64;
        b.iter(|| {
            let txn = TxnId(serial);
            serial += 1;
            black_box(s.request_all(txn, &locks));
            s.release_into(txn, &mut woken);
            black_box(woken.len());
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
