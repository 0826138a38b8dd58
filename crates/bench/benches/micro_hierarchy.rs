//! Micro-bench: the locking engine's hierarchical preset.
//!
//! Every admitted transaction in hierarchical mode pays an intent chain —
//! escalation pass over the declared leaves, then IX intents on the
//! database and the covering areas, then the X leaf locks — and its
//! release wakes waiters through the same tree. These cycles are the
//! per-transaction inner loop of the extG/extH sweeps.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_core::conflict::ConcurrencyControl;
use lockgran_core::{ConflictMode, HierarchySpec, LockingCC, ModelConfig};
use lockgran_sim::SimRng;

const LTOT: u64 = 5000;
const AREAS: u64 = 16;

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
                    let txn = serial;
                    serial += 1;
                    let set = granule_run(txn, locks);
                    black_box(&m.try_acquire(txn, locks, &set, &mut rng));
                    woken.clear();
                    m.release(txn, &mut woken);
                    black_box(woken.len());
                });
            },
        );
    }

    group.bench_function("escalated_cycle_32", |b| {
        // Threshold 4 with 32 contiguous leaves: the declared set
        // collapses to area locks, so the escalation pass dominates.
        let mut m = model(Some(4));
        let mut rng = SimRng::new(0xBEEF);
        let mut woken = Vec::new();
        let mut serial = 0u64;
        b.iter(|| {
            let txn = serial;
            serial += 1;
            let set = granule_run(txn, 32);
            black_box(&m.try_acquire(txn, 32, &set, &mut rng));
            woken.clear();
            m.release(txn, &mut woken);
            black_box(woken.len());
        });
    });

    group.bench_function("blocked_retry_wake", |b| {
        // A holder pins an area; a waiter blocks on it, is woken at
        // release, and retries — the contended path of the model.
        let mut serial = 0u64;
        b.iter(|| {
            let mut m = model(None);
            let mut rng = SimRng::new(0xBEEF);
            let holder = serial;
            let waiter = serial + 1;
            serial += 2;
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
