//! Micro-bench: the incremental 2PL scheduler's hot paths.
//!
//! Every transaction in twophase mode claims its granules one
//! `acquire` call at a time, so the per-lock grant is the inner loop of
//! the extI sweeps; the contended paths — block/wake on a release, and
//! waits-for cycle detection with a victim abort — price the protocol's
//! deadlock machinery.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_lockmgr::{
    AcquireEffects, AcquireStatus, GranuleId, LockMode, RetryOutcome, TwoPhaseScheduler, TxnId,
};

const LTOT: u64 = 5000;

/// Disjoint granule runs, one per transaction, so every claim is granted.
fn granule_run(txn: u64, locks: u64) -> Vec<u64> {
    let start = (txn * locks) % (LTOT - locks);
    (start..start + locks).collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("twophase");

    for &locks in &[4u64, 32] {
        group.bench_with_input(
            BenchmarkId::new("incremental_cycle", locks),
            &locks,
            |b, &locks| {
                // Uncontended claim-as-needed lifecycle: `locks` grants
                // one at a time, then one release.
                let mut s = TwoPhaseScheduler::new();
                let (mut fx, mut granted) = (AcquireEffects::default(), Vec::new());
                let mut serial = 0u64;
                b.iter(|| {
                    let txn = TxnId(serial);
                    serial += 1;
                    for g in granule_run(serial, locks) {
                        black_box(s.acquire_into(txn, GranuleId(g), LockMode::X, &mut fx));
                    }
                    s.release_into(txn, &mut granted);
                    black_box(granted.len());
                });
            },
        );
    }

    group.bench_function("blocked_wake", |b| {
        // A holder pins a granule; a waiter queues behind it and is
        // granted at release — the block/wake path of the protocol.
        let (mut fx, mut granted) = (AcquireEffects::default(), Vec::new());
        let mut serial = 0u64;
        b.iter(|| {
            let mut s = TwoPhaseScheduler::new();
            let holder = TxnId(serial);
            let waiter = TxnId(serial + 1);
            serial += 2;
            let g = GranuleId(7);
            black_box(s.acquire_into(holder, g, LockMode::X, &mut fx));
            black_box(s.acquire_into(waiter, g, LockMode::X, &mut fx));
            s.release_into(holder, &mut granted);
            debug_assert_eq!(granted, vec![waiter]);
            s.release_into(waiter, &mut granted);
            black_box(granted.len());
        });
    });

    group.bench_function("deadlock_detect_abort", |b| {
        // Two transactions claim the same pair in opposite orders: the
        // second claim of the younger closes a cycle, it self-aborts and
        // the survivor is granted. Prices edge insertion, cycle search
        // and the victim teardown.
        let (mut fx, mut granted) = (AcquireEffects::default(), Vec::new());
        let mut serial = 0u64;
        b.iter(|| {
            let mut s = TwoPhaseScheduler::new();
            let old = TxnId(serial);
            let young = TxnId(serial + 1);
            serial += 2;
            let (ga, gb) = (GranuleId(0), GranuleId(1));
            black_box(s.acquire_into(old, ga, LockMode::X, &mut fx));
            black_box(s.acquire_into(young, gb, LockMode::X, &mut fx));
            black_box(s.acquire_into(old, gb, LockMode::X, &mut fx)); // old waits on young
            let out = s.acquire_into(young, ga, LockMode::X, &mut fx); // closes the cycle
            debug_assert_eq!(
                out,
                AcquireStatus::Deadlock {
                    retry: RetryOutcome::SelfAborted
                }
            );
            black_box(out);
            s.release_into(old, &mut granted);
            black_box(granted.len());
        });
    });

    for &k in &[8u64, 32] {
        group.bench_with_input(BenchmarkId::new("queue_tail", k), &k, |b, &k| {
            // A holder plus k−1 waiters queue on one granule: every new
            // waiter gets edges to all earlier ones, and nobody waits on
            // it, so no cycle can close. The holder's release then drains
            // the queue one grant at a time.
            let mut s = TwoPhaseScheduler::new();
            let (mut fx, mut granted) = (AcquireEffects::default(), Vec::new());
            let mut serial = 0u64;
            b.iter(|| {
                let first = serial;
                serial += k;
                for txn in first..serial {
                    black_box(s.acquire_into(TxnId(txn), GranuleId(0), LockMode::X, &mut fx));
                }
                for txn in first..serial {
                    s.release_into(TxnId(txn), &mut granted);
                    black_box(granted.len());
                }
            });
        });
    }

    for &k in &[8u64, 32] {
        group.bench_with_input(BenchmarkId::new("deadlock_chain", k), &k, |b, &k| {
            // Member i holds granule i and then waits on member i−1's
            // granule; the oldest member closes the k-long chain by
            // requesting the youngest's granule. The search walks the
            // whole chain, the youngest aborts, and its teardown removes
            // its in-edge; the survivors then commit oldest first.
            let mut s = TwoPhaseScheduler::new();
            let (mut fx, mut granted) = (AcquireEffects::default(), Vec::new());
            let mut serial = 0u64;
            b.iter(|| {
                let first = serial;
                serial += k;
                for i in 0..k {
                    black_box(s.acquire_into(TxnId(first + i), GranuleId(i), LockMode::X, &mut fx));
                }
                for i in 1..k {
                    black_box(s.acquire_into(
                        TxnId(first + i),
                        GranuleId(i - 1),
                        LockMode::X,
                        &mut fx,
                    ));
                }
                let out = s.acquire_into(TxnId(first), GranuleId(k - 1), LockMode::X, &mut fx);
                debug_assert_eq!(
                    out,
                    AcquireStatus::Deadlock {
                        retry: RetryOutcome::Granted
                    }
                );
                debug_assert_eq!(fx.victims, vec![TxnId(serial - 1)]);
                black_box(out);
                for txn in first..serial - 1 {
                    s.release_into(TxnId(txn), &mut granted);
                    black_box(granted.len());
                }
            });
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
