//! Micro-bench: the lock table.
//!
//! Grant/release cycles at paper-scale granule counts, with and without
//! contention, plus the conservative all-at-once protocol.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_lockmgr::{ConservativeScheduler, GranuleId, LockMode, LockTable, TxnId};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_table");

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

    group.bench_function("contended_queue_churn", |b| {
        // One holder, a convoy of waiters, continuous release/grant.
        let mut lt = LockTable::new();
        let (mut blockers, mut woken) = (Vec::new(), Vec::new());
        let g = GranuleId(0);
        for t in 0..32u64 {
            let _ = lt.lock_into(TxnId(t), g, LockMode::X, &mut blockers);
        }
        let mut head = 0u64;
        let mut tail = 32u64;
        b.iter(|| {
            lt.unlock_into(TxnId(head), g, &mut woken);
            black_box(woken.len());
            head += 1;
            let _ = lt.lock_into(TxnId(tail), g, LockMode::X, &mut blockers);
            tail += 1;
        });
    });

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

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
