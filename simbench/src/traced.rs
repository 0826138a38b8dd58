//! The traced pass: where one workload's host time goes, layer by layer.
//!
//! Every run of the workload is made three times, one after another on
//! one thread:
//!
//! 1. untraced, on a fresh executor and `System` (the reference, and the
//!    denominator of `trace.overhead_ratio`);
//! 2. through [`Timed`], a `Model` wrapper that times `System::handle`
//!    per event kind, inside a timed `Executor::run` (engine self time is
//!    run time minus handle time);
//! 3. through `sim::run_traced`, whose protocol trace gives the exact
//!    sequence of conflict-layer calls.
//!
//! Then the workload layer is timed by replaying the run's spawns through
//! a standalone `WorkloadGenerator`, and the conflict layer by replaying
//! the traced call sequence into a standalone
//! `build_concurrency_control(cfg)` fed the run's own access and conflict
//! streams. A replay that does not reproduce every traced decision is
//! not timed: its times are reported missing.
//!
//! Last, each group executes once more through its worker pool over
//! `RunArena`s with a clock around each task (the pool and arena
//! metrics).
//!
//! Clock probes cost tens of nanoseconds, a large share of a short
//! handler, so their calibrated cost is subtracted from every timed call.
//! The runs of 2 and 3 and the pool pass must be bit-identical to run 1.

use lockgran_core::sim::{run_traced, RunArena};
use lockgran_core::system::{Event, System};
use lockgran_core::{
    build_concurrency_control, ConflictDecision, ModelConfig, RunMetrics, TraceEvent, VecTracer,
};
use lockgran_sim::{Executor, FelKind, Model, SimRng, Time, WorkerPool};
use lockgran_workload::{TransactionSpec, WorkloadGenerator};

use crate::check::{metrics_text, Reference};
use crate::clock::{ProbeCost, Stopwatch};
use crate::hostspeed;
use crate::report::Report;
use crate::stats::{max, median, Digest};
use crate::workloads::Workload;

/// Event kinds timed separately (the workloads schedule no others).
const KINDS: [&str; 3] = ["arrive", "cpu_done", "io_done"];

/// `Model` wrapper that times each `System::handle` call by event kind.
struct Timed<'a> {
    sys: &'a mut System,
    ns: [u64; 4],
    calls: [u64; 4],
    max_pending: usize,
}

impl Model for Timed<'_> {
    type Event = Event;

    #[inline]
    fn handle(&mut self, now: Time, event: Event, ex: &mut Executor<Event>) {
        let k = match event {
            Event::Arrive => 0,
            Event::CpuDone { .. } => 1,
            Event::IoDone { .. } => 2,
            Event::WarmupReached
            | Event::SampleTick
            | Event::Fail { .. }
            | Event::Repair { .. } => 3,
        };
        let t = Stopwatch::start();
        self.sys.handle(now, event, ex);
        self.ns[k] += t.ns();
        self.calls[k] += 1;
        self.max_pending = self.max_pending.max(ex.pending());
    }
}

/// What the traced trace says the system asked of its conflict layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Granted,
    BlockedBy(u64),
    Aborted,
}

/// One conflict-layer call, in system call order.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `register_access` for a freshly spawned transaction.
    Register { slot: u32, serial: u64 },
    /// `try_acquire` (plus `drain_deadlock_effects`) and the decision the
    /// system received.
    Acquire { slot: u32, expect: Expect },
    /// `release` at completion.
    Release { slot: u32 },
}

/// Where a transaction stands, as far as its conflict-layer calls go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Waiting,
    Requesting,
    Blocked,
}

/// Decode the conflict-layer call sequence from a protocol trace,
/// reproducing the system's slot recycling (LIFO free list, slots freed
/// at completion). Returns the calls and the number of spawns.
fn decode(trace: &VecTracer) -> Result<(Vec<Op>, u64), String> {
    let mut ops = Vec::new();
    let mut slot_of: Vec<u32> = Vec::new();
    let mut phase: Vec<Phase> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut next_slot = 0u32;
    let slot = |slot_of: &[u32], serial: u64| {
        slot_of
            .get(serial as usize)
            .copied()
            .ok_or_else(|| format!("trace names transaction {serial} before its arrival"))
    };
    for (_, ev) in &trace.events {
        match *ev {
            TraceEvent::Arrived { serial } => {
                if serial as usize != slot_of.len() {
                    return Err(format!("arrival of {serial} out of serial order"));
                }
                let s = free.pop().unwrap_or_else(|| {
                    next_slot += 1;
                    next_slot - 1
                });
                slot_of.push(s);
                phase.push(Phase::Waiting);
                ops.push(Op::Register { slot: s, serial });
            }
            TraceEvent::LockRequested { serial, .. } => {
                slot(&slot_of, serial)?;
                phase[serial as usize] = Phase::Requesting;
            }
            TraceEvent::Granted { serial } => {
                let s = slot(&slot_of, serial)?;
                phase[serial as usize] = Phase::Waiting;
                ops.push(Op::Acquire {
                    slot: s,
                    expect: Expect::Granted,
                });
            }
            TraceEvent::Denied { serial, blocker } => {
                let s = slot(&slot_of, serial)?;
                phase[serial as usize] = Phase::Blocked;
                ops.push(Op::Acquire {
                    slot: s,
                    expect: Expect::BlockedBy(blocker),
                });
            }
            TraceEvent::DeadlockAborted { serial } => {
                let s = slot(&slot_of, serial)?;
                // The requester's own verdict; a blocked victim was
                // aborted inside someone else's `try_acquire`.
                if phase[serial as usize] == Phase::Requesting {
                    ops.push(Op::Acquire {
                        slot: s,
                        expect: Expect::Aborted,
                    });
                }
                phase[serial as usize] = Phase::Waiting;
            }
            TraceEvent::Completed { serial } | TraceEvent::Aborted { serial } => {
                let s = slot(&slot_of, serial)?;
                if matches!(ev, TraceEvent::Completed { .. }) {
                    free.push(s);
                }
                ops.push(Op::Release { slot: s });
            }
            TraceEvent::Woken { .. }
            | TraceEvent::SubIoDone { .. }
            | TraceEvent::SubCpuDone { .. }
            | TraceEvent::Failed { .. }
            | TraceEvent::Repaired { .. } => {}
        }
    }
    Ok((ops, slot_of.len() as u64))
}

/// Conflict-layer counts and replay times of one or more runs.
#[derive(Clone, Copy, Debug, Default)]
struct Cc {
    register_calls: u64,
    register_ns: u64,
    acquire_calls: u64,
    acquire_ns: u64,
    release_calls: u64,
    release_ns: u64,
    grants: u64,
    denials: u64,
    aborts: u64,
    deadlocks: u64,
    escalations: u64,
    intent_locks: u64,
    matched: u64,
    /// Runs whose replay reproduced every decision and final counter.
    runs_ok: u64,
    runs: u64,
}

impl Cc {
    fn add(&mut self, o: &Cc) {
        self.register_calls += o.register_calls;
        self.register_ns += o.register_ns;
        self.acquire_calls += o.acquire_calls;
        self.acquire_ns += o.acquire_ns;
        self.release_calls += o.release_calls;
        self.release_ns += o.release_ns;
        self.grants += o.grants;
        self.denials += o.denials;
        self.aborts += o.aborts;
        self.deadlocks += o.deadlocks;
        self.escalations += o.escalations;
        self.intent_locks += o.intent_locks;
        self.matched += o.matched;
        self.runs_ok += o.runs_ok;
        self.runs += o.runs;
    }

    fn calls(&self) -> u64 {
        self.register_calls + self.acquire_calls + self.release_calls
    }

    fn ns(&self) -> u64 {
        self.register_ns + self.acquire_ns + self.release_ns
    }

    fn replay_match(&self) -> f64 {
        self.matched as f64 / self.acquire_calls.max(1) as f64
    }

    fn all_matched(&self) -> bool {
        self.runs_ok == self.runs
    }
}

/// Replay `ops` into a fresh conflict layer for `(cfg, seed)`, timing
/// every call. `specs[serial]` is `(entities, locks)` of each spawn.
fn replay_cc(cfg: &ModelConfig, seed: u64, ops: &[Op], specs: &[(u64, u64)], m: &RunMetrics) -> Cc {
    let root = SimRng::new(seed);
    let mut access = root.split("access");
    let mut conflict = root.split("conflict");
    let mut cc = build_concurrency_control(cfg);
    let mut granules: Vec<Vec<u64>> = Vec::new();
    let mut locks: Vec<u64> = Vec::new();
    let mut occupant: Vec<u64> = Vec::new();
    let (mut aborted, mut woken, mut wake) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Cc {
        runs: 1,
        ..Cc::default()
    };
    for op in ops {
        match *op {
            Op::Register { slot, serial } => {
                let s = slot as usize;
                if granules.len() <= s {
                    granules.resize_with(s + 1, Vec::new);
                    locks.resize(s + 1, 0);
                    occupant.resize(s + 1, 0);
                }
                let (entities, l) = specs[serial as usize];
                let t = Stopwatch::start();
                cc.register_access(&mut access, entities, &mut granules[s]);
                out.register_ns += t.ns();
                out.register_calls += 1;
                locks[s] = l;
                occupant[s] = serial;
            }
            Op::Acquire { slot, expect } => {
                let s = slot as usize;
                let t = Stopwatch::start();
                let d = cc.try_acquire(u64::from(slot), locks[s], &granules[s], &mut conflict);
                cc.drain_deadlock_effects(&mut aborted, &mut woken);
                out.acquire_ns += t.ns();
                out.acquire_calls += 1;
                let got = match d {
                    ConflictDecision::Granted => {
                        out.grants += 1;
                        Expect::Granted
                    }
                    ConflictDecision::BlockedBy(b) => {
                        out.denials += 1;
                        Expect::BlockedBy(occupant.get(b as usize).copied().unwrap_or(u64::MAX))
                    }
                    ConflictDecision::Aborted => {
                        out.aborts += 1;
                        Expect::Aborted
                    }
                };
                out.aborts += aborted.len() as u64;
                out.matched += u64::from(got == expect);
                aborted.clear();
                woken.clear();
            }
            Op::Release { slot } => {
                let t = Stopwatch::start();
                cc.release(u64::from(slot), &mut wake);
                out.release_ns += t.ns();
                out.release_calls += 1;
                wake.clear();
            }
        }
    }
    let st = cc.stats();
    out.deadlocks = st.deadlocks;
    out.escalations = st.escalations;
    out.intent_locks = st.intent_locks;
    let counters_match = st.deadlocks == m.deadlocks
        && st.escalations == m.escalations
        && st.intent_locks == m.intent_locks
        && out.aborts == m.aborts;
    out.runs_ok = u64::from(out.matched == out.acquire_calls && counters_match);
    out
}

/// Host time and counts of the whole workload, summed over its runs.
#[derive(Default)]
struct Totals {
    untraced_run_ns: u64,
    traced_run_ns: u64,
    handle_ns: [u64; 4],
    calls: [u64; 4],
    events: u64,
    max_pending: usize,
    new_ms: Vec<f64>,
    reset_ms: Vec<f64>,
    spawns: u64,
    workload_ns: u64,
    totcom: u64,
    cc: Cc,
}

/// Time the workload layer: the run's `spawns` draws from a standalone
/// generator seeded as the system seeds its own. Also returns each
/// spawn's `(entities, locks)` for the conflict replay.
fn replay_workload(cfg: &ModelConfig, seed: u64, spawns: u64) -> (u64, Vec<(u64, u64)>) {
    let root = SimRng::new(seed);
    let mut spec = TransactionSpec {
        entities: 0,
        locks: 0,
        processors: Vec::new(),
    };
    let mut generator = WorkloadGenerator::new(cfg.workload_params(), &root);
    let t = Stopwatch::start();
    for _ in 0..spawns {
        generator.next_spec_into(&mut spec);
        std::hint::black_box(&spec);
    }
    let ns = t.ns();
    let mut generator = WorkloadGenerator::new(cfg.workload_params(), &root);
    let specs = (0..spawns)
        .map(|_| {
            generator.next_spec_into(&mut spec);
            (spec.entities, spec.locks)
        })
        .collect();
    (ns, specs)
}

/// One run's traced measurements, added into `tot` and `group_cc`.
/// Returns the fresh run's metrics text, or why the run failed.
fn trace_run(
    cfg: &ModelConfig,
    seed: u64,
    tot: &mut Totals,
    group_cc: &mut Cc,
) -> Result<String, String> {
    // 1. Untraced reference.
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    let horizon = system.tmax();
    let t = Stopwatch::start();
    let end = ex.run(&mut system, horizon);
    tot.untraced_run_ns += t.ns();
    let reference = system.finish(end);
    reference.check_consistency(cfg.npros)?;
    let text = metrics_text(&reference);
    drop((ex, system));

    // 2. Handle timing.
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let t = Stopwatch::start();
    let mut system = System::new(cfg, seed, &mut ex);
    tot.new_ms.push(t.ns() as f64 / 1e6);
    let mut timed = Timed {
        sys: &mut system,
        ns: [0; 4],
        calls: [0; 4],
        max_pending: ex.pending(),
    };
    let t = Stopwatch::start();
    let end = ex.run(&mut timed, horizon);
    tot.traced_run_ns += t.ns();
    let (ns, calls, max_pending) = (timed.ns, timed.calls, timed.max_pending);
    for k in 0..4 {
        tot.handle_ns[k] += ns[k];
        tot.calls[k] += calls[k];
    }
    tot.events += ex.events_processed();
    tot.max_pending = tot.max_pending.max(max_pending);
    if metrics_text(&system.finish(end)) != text {
        return Err("timed run is not bit-identical to the untraced run".into());
    }
    ex.reset();
    let t = Stopwatch::start();
    system.reset(cfg, seed, &mut ex);
    tot.reset_ms.push(t.ns() as f64 / 1e6);
    drop((ex, system));

    // 3. Protocol trace, then the layer replays.
    let (traced, trace) = run_traced(cfg, seed);
    if metrics_text(&traced) != text {
        return Err("traced run is not bit-identical to the untraced run".into());
    }
    let (ops, spawns) = decode(&trace)?;
    drop(trace);
    let (wl_ns, specs) = replay_workload(cfg, seed, spawns);
    tot.spawns += spawns;
    tot.workload_ns += wl_ns;
    tot.totcom += reference.totcom;
    let cc = replay_cc(cfg, seed, &ops, &specs, &reference);
    tot.cc.add(&cc);
    group_cc.add(&cc);
    Ok(text)
}

/// Run every group through its worker pool with per-task timing,
/// checking each output against the reference. Returns (Σ task seconds,
/// Σ workers × pool wall seconds, per-task milliseconds).
fn pool_pass(w: &Workload, reference: &Reference, report: &mut Report) -> (f64, f64, Vec<f64>) {
    let (mut busy, mut capacity, mut task_ms) = (0.0, 0.0, Vec::new());
    let mut outputs = Vec::with_capacity(w.run_count());
    for g in &w.groups {
        let tasks: Vec<_> = g
            .runs
            .iter()
            .map(|(cfg, seed)| {
                move |arena: &mut RunArena| {
                    let t = Stopwatch::start();
                    let m = arena.run(cfg, *seed);
                    (m, t.secs())
                }
            })
            .collect();
        let t = Stopwatch::start();
        let results = WorkerPool::new(g.workers).try_run_with_state(RunArena::new, tasks);
        capacity += g.workers as f64 * t.secs();
        for r in results {
            outputs.push(r.ok().map(|(m, secs)| {
                busy += secs;
                task_ms.push(secs * 1e3);
                m
            }));
        }
    }
    report.failed += reference.compare(&outputs, &mut report.problems);
    report.attempted += w.run_count();
    (busy, capacity, task_ms)
}

/// Measure `w` layer by layer.
pub fn measure(w: &Workload) -> Result<Report, String> {
    let mut report = Report::new(w);
    let probe = ProbeCost::calibrate(15, 20_000);
    report.note(format!(
        "clock probe: {:.1} ns inside, {:.1} ns outside each timed call (subtracted); \
         host ran at {:.3}x the reference speed",
        probe.inside,
        probe.outside,
        hostspeed::REFERENCE_S / hostspeed::measure(1)
    ));

    let mut tot = Totals::default();
    let mut digest = Digest::default();
    let mut expected = Vec::with_capacity(w.run_count());
    for g in &w.groups {
        let mut group_cc = Cc::default();
        for (cfg, seed) in &g.runs {
            report.attempted += 1;
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                trace_run(cfg, *seed, &mut tot, &mut group_cc)
            }))
            .unwrap_or_else(|_| Err("run panicked".to_string()));
            match r {
                Ok(text) => {
                    digest.update(text.as_bytes());
                    expected.push(Some(text));
                }
                Err(e) => {
                    digest.update(b"failed");
                    report.failed += 1;
                    report
                        .problems
                        .push(format!("{} ltot={} seed={seed}: {e}", g.label, cfg.ltot));
                    expected.push(None);
                }
            }
            digest.update(b"\n");
        }
        report.note(format!(
            "{}: {} try_acquire ({} denied, {} aborts), replay match {:.6}, {:.1} ns/try_acquire",
            g.label,
            group_cc.acquire_calls,
            group_cc.denials,
            group_cc.aborts,
            group_cc.replay_match(),
            (group_cc.acquire_ns as f64 / group_cc.acquire_calls.max(1) as f64 - probe.inside)
                .max(0.0)
        ));
    }
    report.check_digest(digest)?;
    let reference = Reference::from_texts(expected);
    let (busy, capacity, task_ms) = pool_pass(w, &reference, &mut report);

    let n = tot.events.max(1) as f64;
    let per = |ns: f64, calls: u64, probes: u64| {
        ((ns - probes as f64 * probe.inside) / calls.max(1) as f64).max(0.0)
    };
    let handle_ns: u64 = tot.handle_ns.iter().sum();
    let handle_true = handle_ns as f64 - n * probe.inside;
    let engine_self = (tot.traced_run_ns as f64 - handle_ns as f64 - n * probe.outside).max(0.0);
    let cc_true = (tot.cc.ns() as f64 - tot.cc.calls() as f64 * probe.inside).max(0.0);
    let workload_true = tot.workload_ns as f64;
    let system_self = (handle_true - workload_true - cc_true).max(0.0);
    let probes = n * (probe.inside + probe.outside);
    let run_ns = tot.traced_run_ns.max(1) as f64;
    // The probe-corrected layer times should add up to the run as it
    // takes untraced; the remainder is what the attribution misses
    // (negative: the probes slow the code around them beyond their own
    // calibrated cost, and the layers are over-charged).
    let untraced_ns = tot.untraced_run_ns.max(1) as f64;
    let attributed = engine_self + system_self + workload_true + cc_true;
    let unexplained = (untraced_ns - attributed) / untraced_ns;

    report.metric("engine.events", tot.events as f64, "count");
    report.metric("engine.max_pending", tot.max_pending as f64, "count");
    report.metric("engine.self_ns_per_event", engine_self / n, "ns");
    for (k, kind) in KINDS.iter().enumerate() {
        let calls = tot.calls[k];
        report.metric(&format!("system.{kind}.calls"), calls as f64, "count");
        report.metric(
            &format!("system.{kind}.ns_per_call"),
            per(tot.handle_ns[k] as f64, calls, calls),
            "ns",
        );
    }
    report.metric("system.self_ns_per_event", system_self / n, "ns");
    report.metric("system.new_ms", median(&tot.new_ms), "ms");
    report.metric("system.reset_ms", median(&tot.reset_ms), "ms");
    report.metric("workload.spawns", tot.spawns as f64, "count");
    report.metric(
        "workload.ns_per_spawn",
        workload_true / tot.spawns.max(1) as f64,
        "ns",
    );
    let cc = &tot.cc;
    report.metric("cc.attempts", cc.acquire_calls as f64, "count");
    report.metric("cc.denials", cc.denials as f64, "count");
    report.metric(
        "cc.grant_ratio",
        cc.grants as f64 / cc.acquire_calls.max(1) as f64,
        "ratio",
    );
    report.metric(
        "cc.attempts_per_txn",
        cc.acquire_calls as f64 / tot.totcom.max(1) as f64,
        "count",
    );
    report.metric("cc.aborts", cc.aborts as f64, "count");
    report.metric("cc.deadlocks", cc.deadlocks as f64, "count");
    report.metric("cc.escalations", cc.escalations as f64, "count");
    report.metric("cc.intent_locks", cc.intent_locks as f64, "count");
    let cc_times = [
        (
            "cc.register_access.ns_per_call",
            cc.register_ns,
            cc.register_calls,
        ),
        (
            "cc.try_acquire.ns_per_call",
            cc.acquire_ns,
            cc.acquire_calls,
        ),
        ("cc.release.ns_per_call", cc.release_ns, cc.release_calls),
    ];
    for (name, ns, calls) in cc_times {
        if cc.all_matched() {
            report.metric(name, per(ns as f64, calls, calls), "ns");
        } else {
            report.missing(
                name,
                format!(
                    "conflict replay reproduced {} of {} runs",
                    cc.runs_ok, cc.runs
                ),
            );
        }
    }
    report.metric("cc.replay_match", cc.replay_match(), "ratio");
    report.metric("pool.tasks", task_ms.len() as f64, "count");
    report.metric(
        "pool.busy_ratio",
        busy / capacity.max(f64::MIN_POSITIVE),
        "ratio",
    );
    report.metric("arena.run_ms_p50", median(&task_ms), "ms");
    report.metric("arena.run_ms_max", max(&task_ms), "ms");
    report.metric("trace.overhead_ratio", run_ns / untraced_ns, "ratio");
    report.metric("trace.unexplained_ratio", unexplained, "ratio");
    report.note(format!(
        "Executor::run untraced {:.3} s, traced {:.3} s of which clock probes {:.3} s; \
         shares of the untraced run: engine {:.1}%, system self {:.1}%, workload {:.1}%, \
         conflict {:.1}%, unexplained {:.1}%",
        untraced_ns / 1e9,
        run_ns / 1e9,
        probes / 1e9,
        100.0 * engine_self / untraced_ns,
        100.0 * system_self / untraced_ns,
        100.0 * workload_true / untraced_ns,
        100.0 * cc_true / untraced_ns,
        100.0 * unexplained
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fresh_run;
    use lockgran_core::ConflictMode;
    use lockgran_workload::{HotSpot, Placement};

    fn replay_matches(cfg: &ModelConfig, seed: u64) -> Cc {
        let (m, trace) = run_traced(cfg, seed);
        let (ops, spawns) = decode(&trace).unwrap();
        let (_, specs) = replay_workload(cfg, seed, spawns);
        replay_cc(cfg, seed, &ops, &specs, &m)
    }

    #[test]
    fn conflict_replay_reproduces_every_protocol() {
        let base = ModelConfig::table1()
            .with_ntrans(30)
            .with_maxtransize(50)
            .with_placement(Placement::Random)
            .with_tmax(2_000.0);
        for mode in [
            ConflictMode::Probabilistic,
            ConflictMode::Explicit,
            ConflictMode::Hierarchical,
            ConflictMode::Twophase,
        ] {
            for ltot in [10, 1_000] {
                let mut cfg = base.clone().with_conflict(mode).with_ltot(ltot);
                if mode != ConflictMode::Probabilistic {
                    cfg = cfg.with_hot_spot(Some(HotSpot::eighty_twenty()));
                }
                let cc = replay_matches(&cfg, 42);
                assert!(cc.acquire_calls > 0);
                assert!(cc.all_matched(), "{mode:?} ltot={ltot}: {cc:?}");
            }
        }
    }

    #[test]
    fn twophase_replay_sees_deadlocks() {
        let w = Workload::new("lock_contention", 1).unwrap();
        let (cfg, seed) = &w.groups[1].runs[0];
        let cc = replay_matches(&cfg.clone().with_tmax(5_000.0), *seed);
        assert!(cc.all_matched(), "{cc:?}");
        assert!(cc.deadlocks > 0 && cc.aborts >= cc.deadlocks, "{cc:?}");
    }

    #[test]
    fn timed_wrapper_is_bit_identical() {
        let cfg = ModelConfig::table1().with_tmax(500.0);
        let mut tot = Totals::default();
        let mut cc = Cc::default();
        let text = trace_run(&cfg, 3, &mut tot, &mut cc).unwrap();
        assert_eq!(text, metrics_text(&fresh_run(&cfg, 3).0));
        assert_eq!(tot.events, fresh_run(&cfg, 3).1);
        assert_eq!(tot.calls.iter().sum::<u64>(), tot.events);
        assert!(cc.all_matched());
    }
}
