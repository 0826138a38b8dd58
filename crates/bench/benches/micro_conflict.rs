//! Micro-bench: the probabilistic conflict model's hot paths.
//!
//! `try_acquire` scans the active set's cached cumulative fractions once
//! per lock request — at high multiprogramming levels that scan is the
//! simulator's per-event inner loop. `release` rebuilds the prefix tail
//! and wakes waiters. Both are measured at a high steady-state MPL.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_core::conflict::{ConcurrencyControl, ConflictDecision, ProbabilisticConflict};
use lockgran_sim::SimRng;

const LTOT: u64 = 5000;
const LOCKS_PER_TXN: u64 = 4;

/// A model at steady state with `mpl` active lock holders. Admission is
/// probabilistic, so blocked attempts are simply retried with the next
/// serial until the target MPL is reached (the stragglers stay parked as
/// waiters, as they would mid-run).
fn populated(mpl: u64) -> ProbabilisticConflict {
    let mut m = ProbabilisticConflict::new(LTOT);
    let mut rng = SimRng::new(0xC0F);
    let mut txn = 0u64;
    while (m.active_count() as u64) < mpl {
        txn += 1;
        let _ = m.try_acquire(txn, LOCKS_PER_TXN, &[], &mut rng);
    }
    m
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict");
    for &mpl in &[64u64, 256] {
        let base = populated(mpl);
        group.bench_with_input(BenchmarkId::new("try_acquire", mpl), &mpl, |b, &_mpl| {
            b.iter_with_setup(
                || (base.clone(), SimRng::new(0xACE)),
                |(mut m, mut rng)| {
                    // A burst of fresh arrivals against the standing MPL;
                    // grants and blocks both exercise the prefix scan.
                    for txn in 0..128u64 {
                        let d = m.try_acquire(1_000_000 + txn, LOCKS_PER_TXN, &[], &mut rng);
                        black_box(&d);
                    }
                    m
                },
            );
        });
        group.bench_with_input(BenchmarkId::new("release_rewake", mpl), &mpl, |b, &mpl| {
            // One blocked waiter per releasing holder, so every release
            // pays the prefix-tail rebuild plus a wake.
            let mut seeded = base.clone();
            let mut rng = SimRng::new(0xACE);
            let mut waiters = Vec::new();
            for txn in 0..4 * mpl {
                if let ConflictDecision::BlockedBy(holder) =
                    seeded.try_acquire(2_000_000 + txn, LOCKS_PER_TXN, &[], &mut rng)
                {
                    // Each holder released once; skip double-blocks.
                    if !waiters.contains(&holder) {
                        waiters.push(holder);
                    }
                    if waiters.len() >= 8 {
                        break;
                    }
                }
            }
            assert!(!waiters.is_empty(), "no blocks at mpl={mpl}");
            b.iter_with_setup(
                || (seeded.clone(), Vec::new()),
                |(mut m, mut woken)| {
                    for &holder in &waiters {
                        woken.clear();
                        m.release(holder, &mut woken);
                        black_box(woken.len());
                    }
                    m
                },
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
