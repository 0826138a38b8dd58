//! Micro-bench: the future-event list.
//!
//! Push/pop throughput at the queue sizes the model actually reaches
//! (tens to a few thousands of pending events) — the simulator's hottest
//! data structure — plus two traffic shapes of the model: a lock
//! request's fan-out onto shared ticks, and the capacity point's
//! start-up pattern (10⁵ staggered arrivals appended in time order, then
//! drained).

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_sim::{CalendarQueue, Dur, EventQueue, Time};

/// Initial arrivals per start-up, as at the capacity point (`ntrans`).
const ARRIVALS: u64 = 100_000;

/// Clear `q`, append [`ARRIVALS`] events one time unit apart — through
/// the sorted lane or as plain pushes — then drain the queue under
/// push/pop churn: every popped event with id below `3 * ARRIVALS`
/// schedules a follow-on up to 20 units ahead, the way a spawned
/// transaction's server completions follow its arrival. Returns the
/// number of events popped.
fn append_and_drain(q: &mut CalendarQueue<u64>, sorted: bool) -> u64 {
    q.clear();
    for i in 0..ARRIVALS {
        let at = Time::from_ticks(i * 1_000);
        if sorted {
            q.push_sorted(at, i);
        } else {
            q.push(at, i);
        }
    }
    let mut popped = 0;
    while let Some((at, v)) = q.pop() {
        popped += 1;
        if v < 3 * ARRIVALS {
            let delay = Dur::from_ticks(1 + v.wrapping_mul(7_919) % 20_000);
            q.push(at + delay, v + ARRIVALS);
        }
    }
    popped
}

/// Pops per `fanout` iteration.
const FANOUT_POPS: u64 = 600;

/// The queue operations the fan-out case drives, for both FELs.
trait Fel {
    fn clear(&mut self);
    fn push(&mut self, at: Time, v: u64);
    fn pop(&mut self) -> Option<(Time, u64)>;
}

impl Fel for EventQueue<u64> {
    fn clear(&mut self) {
        EventQueue::clear(self);
    }
    fn push(&mut self, at: Time, v: u64) {
        EventQueue::push(self, at, v);
    }
    fn pop(&mut self) -> Option<(Time, u64)> {
        EventQueue::pop(self)
    }
}

impl Fel for CalendarQueue<u64> {
    fn clear(&mut self) {
        CalendarQueue::clear(self);
    }
    fn push(&mut self, at: Time, v: u64) {
        CalendarQueue::push(self, at, v);
    }
    fn pop(&mut self) -> Option<(Time, u64)> {
        CalendarQueue::pop(self)
    }
}

/// Push one lock request's shares on `k` processors, as the model does:
/// `k` CPU shares 10 ticks after `now` and `k` I/O shares 200 ticks
/// after it, each group on one tick.
fn fan_out(q: &mut impl Fel, now: Time, k: u64) {
    for share in 0..k {
        q.push(now + Dur::from_ticks(10), share);
    }
    for share in 0..k {
        q.push(now + Dur::from_ticks(200), k + share);
    }
}

/// Clear `q`, fan out once at time zero, then take [`FANOUT_POPS`]
/// steps: each pops one event, and every `k`-th pop fans out again from
/// the popped event's time. Returns the time of the last pop.
fn fanout_steps(q: &mut impl Fel, k: u64) -> Time {
    q.clear();
    fan_out(q, Time::ZERO, k);
    let mut now = Time::ZERO;
    for step in 1..=FANOUT_POPS {
        let Some((at, _)) = q.pop() else { break };
        now = at;
        if step % k == 0 {
            fan_out(q, now, k);
        }
    }
    now
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[64usize, 1024, 16384] {
        group.bench_with_input(BenchmarkId::new("push_pop_cycle", n), &n, |b, &n| {
            // Pre-fill to steady-state size, then measure a push+pop churn.
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Time::from_ticks((i as u64) * 7 % 10_000), i as u64);
            }
            let mut t = 10_000u64;
            b.iter(|| {
                let (at, v) = q.pop().expect("non-empty");
                t += 13;
                q.push(Time::from_ticks(t), v);
                black_box(at);
            });
        });
    }
    for &n in &[64usize, 1024, 16384] {
        group.bench_with_input(
            BenchmarkId::new("calendar_push_pop_cycle", n),
            &n,
            |b, &n| {
                let mut q = CalendarQueue::new();
                for i in 0..n {
                    q.push(Time::from_ticks((i as u64) * 7 % 10_000), i as u64);
                }
                let mut t = 10_000u64;
                b.iter(|| {
                    let (at, v) = q.pop().expect("non-empty");
                    t += 13;
                    q.push(Time::from_ticks(t), v);
                    black_box(at);
                });
            },
        );
    }
    for &k in &[10u64, 30] {
        group.bench_with_input(BenchmarkId::new("fanout/heap", k), &k, |b, &k| {
            let mut q = EventQueue::new();
            b.iter(|| black_box(fanout_steps(&mut q, k)));
        });
        group.bench_with_input(BenchmarkId::new("fanout/calendar", k), &k, |b, &k| {
            let mut q = CalendarQueue::new();
            b.iter(|| black_box(fanout_steps(&mut q, k)));
        });
    }
    for (label, sorted) in [("push", false), ("sorted", true)] {
        group.bench_with_input(
            BenchmarkId::new("calendar_append_drain", label),
            &sorted,
            |b, &sorted| {
                // One queue across iterations, cleared each time, as a
                // `RunArena` reuses its executor.
                let mut q = CalendarQueue::new();
                b.iter(|| black_box(append_and_drain(&mut q, sorted)));
            },
        );
    }
    group.bench_function("drain_4096", |b| {
        b.iter_with_setup(
            || {
                let mut q = EventQueue::new();
                for i in 0..4096u64 {
                    q.push(Time::from_ticks(i.wrapping_mul(2_654_435_761) % 100_000), i);
                }
                q
            },
            |mut q| {
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
        );
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
