//! Micro-bench: the locking engine's hierarchical preset.
//!
//! Every admitted transaction in hierarchical mode pays an intent chain —
//! escalation pass over the declared leaves, then IX intents on the
//! database and the covering areas, then the X leaf locks — and its
//! release wakes waiters through the same tree. These cycles are the
//! per-transaction inner loop of the extG/extH sweeps. `resident_root`
//! runs that cycle beside resident transactions, whose IX locks fill the
//! root's granted group as they do at a multiprogramming level of 64.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_core::conflict::{ConcurrencyControl, ConflictDecision};
use lockgran_core::{ConflictMode, HierarchySpec, LockingCC, ModelConfig};
use lockgran_sim::SimRng;

const LTOT: u64 = 5000;
const AREAS: u64 = 16;
/// Transactions resident under the root in `resident_root`: `capacity`'s
/// multiprogramming level.
const RESIDENTS: u64 = 64;
/// The simulator slot a cycle's transaction takes. Slots are dense and
/// reused once a transaction completes, as in a run: the engine keeps
/// its records in a vector indexed by slot.
const SLOT: u64 = 0;

fn model(threshold: Option<u64>) -> LockingCC {
    let cfg = ModelConfig::table1()
        .with_conflict(ConflictMode::Hierarchical)
        .with_ltot(LTOT)
        .with_hierarchy(Some(
            HierarchySpec::default()
                .with_areas(AREAS)
                .with_escalation_threshold(threshold),
        ));
    LockingCC::new(&cfg)
}

/// Disjoint leaf runs, one per transaction, so every cycle is granted.
fn granule_run(txn: u64, locks: u64) -> Vec<u64> {
    let start = (txn * locks) % (LTOT - locks);
    (start..start + locks).collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy");

    for &locks in &[4u64, 32] {
        group.bench_with_input(
            BenchmarkId::new("intent_chain_cycle", locks),
            &locks,
            |b, &locks| {
                // Never escalate: the full intent chain is paid each time.
                let mut m = model(None);
                let mut rng = SimRng::new(0xBEEF);
                let mut woken = Vec::new();
                let mut serial = 0u64;
                b.iter(|| {
                    let set = granule_run(serial, locks);
                    serial += 1;
                    black_box(&m.try_acquire(SLOT, locks, &set, &mut rng));
                    woken.clear();
                    m.release(SLOT, &mut woken);
                    black_box(woken.len());
                });
            },
        );
    }

    group.bench_with_input(
        BenchmarkId::new("resident_root", RESIDENTS),
        &RESIDENTS,
        |b, &residents| {
            // `residents` transactions hold their intent chains, so the
            // root's granted group has that many IX holders; each cycle
            // admits and releases one more, in an area no resident
            // touches — the shape of `capacity`'s hierarchical point.
            let mut m = model(None);
            let mut rng = SimRng::new(0xBEEF);
            for txn in 0..residents {
                let set = granule_run(txn, 4);
                let admitted = m.try_acquire(txn, 4, &set, &mut rng);
                assert_eq!(admitted, ConflictDecision::Granted);
            }
            let set: Vec<u64> = (LTOT - 4..LTOT).collect();
            let mut woken = Vec::new();
            b.iter(|| {
                black_box(&m.try_acquire(residents, 4, &set, &mut rng));
                woken.clear();
                m.release(residents, &mut woken);
                black_box(woken.len());
            });
        },
    );

    group.bench_function("escalated_cycle_32", |b| {
        // Threshold 4 with 32 contiguous leaves: the declared set
        // collapses to area locks, so the escalation pass dominates.
        let mut m = model(Some(4));
        let mut rng = SimRng::new(0xBEEF);
        let mut woken = Vec::new();
        let mut serial = 0u64;
        b.iter(|| {
            let set = granule_run(serial, 32);
            serial += 1;
            black_box(&m.try_acquire(SLOT, 32, &set, &mut rng));
            woken.clear();
            m.release(SLOT, &mut woken);
            black_box(woken.len());
        });
    });

    group.bench_function("blocked_retry_wake", |b| {
        // A holder pins an area; a waiter blocks on it, is woken at
        // release, and retries — the contended path of the model.
        let (holder, waiter) = (SLOT, SLOT + 1);
        b.iter(|| {
            let mut m = model(None);
            let mut rng = SimRng::new(0xBEEF);
            let set: Vec<u64> = (0..8).collect();
            black_box(&m.try_acquire(holder, 8, &set, &mut rng));
            black_box(&m.try_acquire(waiter, 8, &set, &mut rng));
            let mut woken = Vec::new();
            m.release(holder, &mut woken);
            black_box(&m.try_acquire(waiter, 8, &[], &mut rng));
            woken.clear();
            m.release(waiter, &mut woken);
            black_box(woken.len());
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
