//! Micro-bench: Yao's formula, direct vs memoized.
//!
//! `Placement::Random` evaluates Yao's running product in `O(nu)`
//! multiplications per call; the workload generator asks once per
//! spawned transaction over at most `maxtransize` distinct sizes, so
//! [`LocksMemo`] answers repeats with an array load. This bench pins the
//! gap between the two on a generator-like request stream.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_sim::SimRng;
use lockgran_workload::{LocksMemo, Placement};

const DBSIZE: u64 = 5000;
const LTOT: u64 = 200;
const MAXTRANSIZE: u64 = 500;

/// The sizes a run would draw: uniform over `[1, maxtransize]`.
fn request_stream(n: usize) -> Vec<u64> {
    let mut rng = SimRng::new(0x1A0);
    (0..n)
        .map(|_| rng.uniform_inclusive(1, MAXTRANSIZE))
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("yao");
    for &n in &[256usize, 4096] {
        let sizes = request_stream(n);
        group.bench_with_input(BenchmarkId::new("direct", n), &sizes, |b, sizes| {
            b.iter(|| {
                let mut acc = 0u64;
                for &nu in sizes {
                    acc = acc.wrapping_add(Placement::Random.locks_required(nu, LTOT, DBSIZE));
                }
                black_box(acc)
            });
        });
        group.bench_with_input(BenchmarkId::new("memoized", n), &sizes, |b, sizes| {
            // The memo is reused across iterations, as it is across one
            // run's transactions — steady-state is all table hits.
            let mut memo = LocksMemo::new(Placement::Random, LTOT, DBSIZE, MAXTRANSIZE);
            b.iter(|| {
                let mut acc = 0u64;
                for &nu in sizes {
                    acc = acc.wrapping_add(memo.locks_required(nu));
                }
                black_box(acc)
            });
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
