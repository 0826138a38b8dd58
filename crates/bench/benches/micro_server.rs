//! Micro-bench: the preemptive-resume server.

use lockgran_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use lockgran_sim::{Class, CompletionOutcome, Dur, Job, JobId, Server, Time};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");

    group.bench_function("submit_complete_cycle", |b| {
        let mut s = Server::new();
        let mut now = Time::ZERO;
        b.iter(|| {
            let c = s
                .submit(
                    now,
                    Job {
                        id: JobId(1),
                        demand: Dur::from_ticks(10),
                        class: Class::Transaction,
                    },
                )
                .expect("idle server starts immediately");
            now = c.at;
            match s.on_completion(now, c.token) {
                CompletionOutcome::Finished { job, .. } => black_box(job),
                CompletionOutcome::Stale => unreachable!(),
            };
        });
    });

    group.bench_function("preemption_cycle", |b| {
        let mut s = Server::new();
        let mut now = Time::ZERO;
        b.iter(|| {
            // Long transaction job, preempted by a lock job, both drained.
            let c1 = s
                .submit(
                    now,
                    Job {
                        id: JobId(1),
                        demand: Dur::from_ticks(100),
                        class: Class::Transaction,
                    },
                )
                .unwrap();
            let c2 = s
                .submit(
                    now + Dur::from_ticks(10),
                    Job {
                        id: JobId(2),
                        demand: Dur::from_ticks(5),
                        class: Class::Lock,
                    },
                )
                .unwrap();
            let _ = black_box(s.on_completion(c1.at, c1.token)); // stale
            if let CompletionOutcome::Finished { next: Some(c3), .. } =
                s.on_completion(c2.at, c2.token)
            {
                let _ = black_box(s.on_completion(c3.at, c3.token));
                now = c3.at;
            } else {
                unreachable!("transaction job must resume");
            }
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
