//! The event-driven system model.
//!
//! Implements the paper's Figure 1 machinery:
//!
//! 1. Transactions arrive one time unit apart into the pending queue; a
//!    transaction leaving the pending queue issues its lock request.
//!    It is drawn (size, lock count, processors, granules) when it
//!    leaves, so under an MPL cap a queued initial arrival is only a
//!    count and a queued replacement its serial and arrival time
//!    (DESIGN.md §11, "Admission-time draws").
//! 2. Lock request/set/release work (`LU_i · lcputime` CPU and
//!    `LU_i · liotime` I/O **per attempt**, charged even when denied) is
//!    shared by all processors ("we assume that processors share the work
//!    for locking mechanism") and **preempts** transaction work at each
//!    resource.
//! 3. When the overhead is paid, the conflict model decides: blocked
//!    transactions sit in the blocked queue, recorded against their
//!    blocker; admitted transactions split into `PU_i` sub-transactions on
//!    distinct processors, each running an I/O stage then a CPU stage
//!    (FCFS), then joining.
//! 4. A completed transaction releases its locks, wakes every transaction
//!    blocked on it (they re-issue lock requests, paying the overhead
//!    again), admits the head of the pending queue, and is replaced by a
//!    fresh arrival — the closed model keeps exactly `ntrans`
//!    transactions in the system.

mod pending;

use std::ops::Sub;

use lockgran_sim::{
    BatchMeans, CancelOutcome, Class, Completion, CompletionOutcome, Dur, Executor, Histogram, Job,
    JobId, Model, QueueDiscipline, Server, SimRng, Tally, Time, TimeWeighted, Token,
};
use lockgran_workload::{FailureSpec, WorkloadGenerator};

use crate::config::{LockDistribution, ModelConfig, ServiceVariability};
use crate::conflict::{build_concurrency_control, CcStats, ConcurrencyControl, ConflictDecision};
use crate::metrics::RunMetrics;
use crate::timeline::TimelineCollector;
use crate::trace::{TraceEvent, VecTracer};
use crate::transaction::{Transaction, TxnPhase};
use pending::{Arrival, PendingQueue, ARRIVAL_SPACING};

/// Events of the system model.
#[derive(Debug, Clone)]
pub enum Event {
    /// A transaction arrives into the pending queue (initial staggering).
    Arrive,
    /// A CPU-server completion fired on processor `proc`.
    CpuDone {
        /// Processor index.
        proc: u32,
        /// Server token identifying the service segment.
        token: Token,
    },
    /// An I/O-server completion fired on processor `proc`.
    IoDone {
        /// Processor index.
        proc: u32,
        /// Server token identifying the service segment.
        token: Token,
    },
    /// The measurement warm-up boundary was reached.
    WarmupReached,
    /// A timeline sampling tick.
    SampleTick,
    /// Processor `proc` fails (failure extension).
    Fail {
        /// Processor index.
        proc: u32,
    },
    /// Processor `proc` comes back from repair (failure extension).
    Repair {
        /// Processor index.
        proc: u32,
    },
}

/// A processor's two servers: its CPU and its disk. Indexes
/// `System::servers`, the failure stall buffers and the busy times of
/// [`Counters`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Res {
    Cpu,
    Io,
}

fn mk_server(preemptive: bool, discipline: QueueDiscipline) -> Server {
    let s = if preemptive {
        Server::new()
    } else {
        Server::non_preemptive()
    };
    s.with_discipline(discipline)
}

/// Job-id encoding: `slot << 32 | stage << 2 | kind`. `slot` is the
/// transaction's slab index and `stage` a sub-transaction's index into
/// `spec.processors` (0 for lock shares), so a completion decodes straight
/// back to the slab slot and the stage's CPU demand — no search, no map
/// lookup — and each sub-transaction stage has an id of its own. Slots are
/// recycled only at completion, and a completing transaction has no jobs
/// left anywhere (every share and sub-transaction joined, aborts withdraw
/// theirs), so a recycled slot can never be aliased by a stale in-flight
/// job.
const KIND_LOCK_CPU: u64 = 0;
const KIND_LOCK_IO: u64 = 1;
const KIND_SUB_IO: u64 = 2;
const KIND_SUB_CPU: u64 = 3;
const KIND_BITS: u32 = 2;
const STAGE_BITS: u32 = 32 - KIND_BITS;

/// The most processors a configuration may have: a stage index is below
/// `npros` and has [`STAGE_BITS`] bits of the job id.
/// [`ModelConfig::validate`] rejects a larger `npros`.
pub(crate) const MAX_NPROS: u32 = 1 << STAGE_BITS;

fn job_id(slot: u32, stage: u32, kind: u64) -> JobId {
    debug_assert!(stage < MAX_NPROS && kind >> KIND_BITS == 0);
    JobId(u64::from(slot) << 32 | u64::from(stage) << KIND_BITS | kind)
}
fn decode(id: JobId) -> (u32, u32, u64) {
    let stage = id.0 >> KIND_BITS & u64::from(MAX_NPROS - 1);
    (
        (id.0 >> 32) as u32,
        stage as u32,
        id.0 & ((1 << KIND_BITS) - 1),
    )
}

/// Everything a run counts, from time zero. The counts over a window
/// are the difference of two values: the run's metrics take
/// `counters(horizon) − counters(warm-up)`, a timeline point
/// `counters(now) − counters(previous sample)`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    /// Transactions completed.
    pub(crate) completions: u64,
    /// Lock request attempts, each charged the lock overhead.
    pub(crate) lock_attempts: u64,
    /// Attempts the conflict model denied.
    pub(crate) lock_denials: u64,
    /// Transactions aborted: failure victims and deadlock victims.
    pub(crate) aborts: u64,
    /// Processor failures.
    pub(crate) failures: u64,
    /// Busy time of each resource over both classes, indexed by [`Res`].
    pub(crate) busy: [Dur; 2],
    /// Lock-class busy time of each resource, indexed by [`Res`].
    pub(crate) lock_busy: [Dur; 2],
    /// The conflict model's protocol counters.
    pub(crate) cc: CcStats,
}

impl Sub for Counters {
    type Output = Counters;

    fn sub(self, earlier: Counters) -> Counters {
        let by_res = |now: [Dur; 2], then: [Dur; 2]| [now[0] - then[0], now[1] - then[1]];
        Counters {
            completions: self.completions - earlier.completions,
            lock_attempts: self.lock_attempts - earlier.lock_attempts,
            lock_denials: self.lock_denials - earlier.lock_denials,
            aborts: self.aborts - earlier.aborts,
            failures: self.failures - earlier.failures,
            busy: by_res(self.busy, earlier.busy),
            lock_busy: by_res(self.lock_busy, earlier.lock_busy),
            cc: CcStats {
                escalations: self.cc.escalations - earlier.cc.escalations,
                intent_locks: self.cc.intent_locks - earlier.cc.intent_locks,
                deadlocks: self.cc.deadlocks - earlier.cc.deadlocks,
            },
        }
    }
}

/// Live state of the optional processor fail/repair process. Exists only
/// when the configuration carries a [`FailureSpec`], so the default model
/// draws no extra random numbers and stays bit-identical to the
/// pre-extension behavior.
struct FailureState {
    mtbf: Dur,
    mttr: Dur,
    /// Dedicated stream (`root.split("failure")`) so up/down draws never
    /// perturb the workload / conflict / service streams.
    rng: SimRng,
    /// Per-processor down flag.
    down: Vec<bool>,
    /// Jobs submitted to a down processor, by [`Res`] and processor,
    /// replayed at repair in submission order.
    stalled: [Vec<Vec<Job>>; 2],
}

impl FailureState {
    fn new(spec: &FailureSpec, npros: u32, rng: SimRng) -> Self {
        FailureState {
            mtbf: Dur::from_units(spec.mtbf),
            mttr: Dur::from_units(spec.mttr),
            rng,
            down: vec![false; npros as usize],
            stalled: std::array::from_fn(|_| (0..npros).map(|_| Vec::new()).collect()),
        }
    }
}

/// Inverse-CDF exponential draw with the given mean, at least one tick.
fn exponential(rng: &mut SimRng, mean: Dur) -> Dur {
    let u: f64 = rng.uniform01();
    let ticks = (-(1.0 - u).ln() * mean.ticks() as f64).round() as u64;
    Dur::from_ticks(ticks.max(1))
}

/// One attempt's lock work of one resource, `locks × cost`, dealt to the
/// `npros` processors, as each processor's share in processor order.
///
/// Every [`LockDistribution`] is one rule: `units` indivisible units go
/// round-robin from processor `from`, so processor `p` gets
/// `units / npros` of them, plus one if it lies in the cyclic range
/// `[from, from + units % npros)`. The distributions differ only in what
/// a unit is (DESIGN.md §6):
///
/// | distribution | units | unit size | from |
/// |---|---|---|---|
/// | per-operation | `locks` | `cost` | `offset` |
/// | even split | every tick of the total | one tick | processor 0 |
/// | single processor | 1 | the whole total | `offset` |
fn deal(
    distribution: LockDistribution,
    npros: u32,
    offset: u64,
    locks: u64,
    cost: Dur,
) -> impl Iterator<Item = Dur> {
    let (units, unit, from) = match distribution {
        LockDistribution::PerOperation => (locks, cost, offset),
        LockDistribution::EvenSplit => (cost.times(locks).ticks(), Dur::from_ticks(1), 0),
        LockDistribution::SingleProcessor => (1, cost.times(locks), offset),
    };
    let npros = u64::from(npros);
    let base = units / npros;
    let start = from % npros;
    // The range as one or two slices: [start, first) and, when it wraps
    // past the last processor, [0, wrapped).
    let end = start + units % npros;
    let (first, wrapped) = (end.min(npros), end.saturating_sub(npros));
    let (short, long) = (unit.times(base), unit.times(base + 1));
    (0..npros).map(move |p| {
        if (start..first).contains(&p) || p < wrapped {
            long
        } else {
            short
        }
    })
}

/// How far one attempt of `locks` lock operations moves the rotating
/// offset that [`deal`] starts from.
fn rotation(distribution: LockDistribution, locks: u64) -> u64 {
    match distribution {
        LockDistribution::PerOperation => locks.max(1),
        LockDistribution::EvenSplit => 0,
        LockDistribution::SingleProcessor => 1,
    }
}

/// The message of a lookup that finds a vacated slab slot.
const DEPARTED: &str = "event refers to a departed transaction";

/// The complete model state (see module docs).
pub struct System {
    // --- static parameters, converted to ticks ---
    npros: u32,
    cputime: Dur,
    iotime: Dur,
    lcputime: Dur,
    liotime: Dur,
    warmup: Time,
    tmax: Time,
    lock_distribution: LockDistribution,
    service: ServiceVariability,
    /// Rotating processor offset for lock-operation placement.
    lock_rr: u64,

    // --- stochastic machinery ---
    generator: WorkloadGenerator,
    conflict_rng: SimRng,
    access_rng: SimRng,
    service_rng: SimRng,
    conflict: Box<dyn ConcurrencyControl>,

    // --- resources ---
    /// Each processor's CPU and disk, by [`Res`] and processor.
    servers: [Vec<Server>; 2],

    // --- transactions ---
    /// Slot-recycling slab of admitted transactions. At most
    /// `min(ntrans, mpl_limit)` are admitted at once, so the slab never
    /// grows past that; events address transactions by slot (see
    /// `job_id`). A completed transaction stays in its slot as
    /// [`TxnPhase::Done`], and the next admission redraws it in place,
    /// reusing its heap buffers (`spec.processors`, `granules`,
    /// `cpu_shares`): the closed-model replacement allocates nothing,
    /// and neither does a reused arena's.
    slab: Vec<Transaction>,
    /// LIFO free list of vacated slab slots.
    free_slots: Vec<u32>,
    next_serial: u64,
    blocked_count: u32,
    /// Admission control (`mpl_limit`): transactions holding a slot.
    admitted: u32,
    mpl_limit: Option<u32>,
    /// FIFO of arrivals waiting for an admission slot: a transaction is
    /// drawn only when admitted, so a queued one holds no slab slot, no
    /// buffer and no draw, and a queued initial arrival not even its
    /// serial and arrival time.
    pending: PendingQueue,
    pending_tw: TimeWeighted,

    // --- failure extension ---
    failure: Option<FailureState>,

    // --- measurement ---
    /// What the model counts itself, from time zero; [`System::counters`]
    /// adds the servers' busy time and the conflict model's counters.
    counts: Counters,
    /// [`System::counters`] at the warm-up boundary (zero without one).
    warm: Counters,
    /// Reusable wake-list buffer: filled by `ConcurrencyControl::release` at
    /// each completion, so the hot loop never allocates for waking.
    /// Entries are slab slots (the conflict models key by slot).
    wake_buf: Vec<u64>,
    /// Reusable deadlock-effect buffers (incremental 2PL only): victims
    /// aborted and third parties granted inside `try_acquire`, drained
    /// after every admission attempt. Entries are slab slots.
    dl_aborted_buf: Vec<u64>,
    dl_woken_buf: Vec<u64>,
    response: Tally,
    response_hist: Histogram,
    /// Batch-means estimator over the same response stream as `response`:
    /// O(1) memory regardless of how many completions a capacity-scale run
    /// produces, with an autocorrelation-robust CI (see
    /// [`lockgran_sim::stats::BatchMeans`]).
    response_batch: BatchMeans,
    attempts_per_txn: Tally,
    active_tw: TimeWeighted,
    blocked_tw: TimeWeighted,
    /// Optional protocol trace (None = tracing off, zero overhead).
    tracer: Option<VecTracer>,
    /// Optional windowed time-series sampler.
    timeline: Option<TimelineCollector>,
}

/// Initial batch size of the response-time batch-means estimator.
const RESPONSE_BATCH_SIZE: u64 = 32;
/// Batch-count cap of the response-time batch-means estimator (pairwise
/// merge + batch-size doubling beyond this — memory stays fixed).
const RESPONSE_BATCH_CAP: usize = 64;

impl System {
    /// Build the initial system state and schedule the initial arrivals.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: &ModelConfig, seed: u64, ex: &mut Executor<Event>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid model configuration: {e}");
        }
        let root = SimRng::new(seed);
        let conflict = build_concurrency_control(cfg);
        let tmax = Time::from_units(cfg.tmax);
        let warmup = Time::from_units(cfg.warmup);

        let mut sys = System {
            npros: cfg.npros,
            cputime: Dur::from_units(cfg.cputime),
            iotime: Dur::from_units(cfg.iotime),
            lcputime: Dur::from_units(cfg.lcputime),
            liotime: Dur::from_units(cfg.liotime),
            warmup,
            tmax,
            lock_distribution: cfg.lock_distribution,
            service: cfg.service,
            lock_rr: 0,
            generator: WorkloadGenerator::new(cfg.workload_params(), &root),
            conflict_rng: root.split("conflict"),
            access_rng: root.split("access"),
            service_rng: root.split("service"),
            conflict,
            servers: std::array::from_fn(|_| {
                (0..cfg.npros)
                    .map(|_| mk_server(cfg.lock_preemption, cfg.discipline))
                    .collect()
            }),
            slab: Vec::new(),
            free_slots: Vec::new(),
            next_serial: 0,
            blocked_count: 0,
            admitted: 0,
            mpl_limit: cfg.mpl_limit,
            pending: PendingQueue::default(),
            pending_tw: TimeWeighted::new(),
            failure: None,
            counts: Counters::default(),
            warm: Counters::default(),
            wake_buf: Vec::new(),
            dl_aborted_buf: Vec::new(),
            dl_woken_buf: Vec::new(),
            response: Tally::new(),
            response_hist: Histogram::new(cfg.tmax, 2_000),
            response_batch: BatchMeans::with_doubling(RESPONSE_BATCH_SIZE, RESPONSE_BATCH_CAP),
            attempts_per_txn: Tally::new(),
            active_tw: TimeWeighted::new(),
            blocked_tw: TimeWeighted::new(),
            tracer: None,
            timeline: None,
        };
        sys.schedule_initial(cfg, &root, ex);
        sys
    }

    /// Schedule the bootstrap events of a run — initial arrivals one time
    /// unit apart (paper §2), the warm-up boundary, and (when the failure
    /// extension is on) every processor's first failure. Shared by
    /// [`System::new`] and [`System::reset`] so the event sequence numbers
    /// of a reset run match a fresh run exactly. The arrivals are one
    /// series, which the calendar FEL holds as a single entry however
    /// large `ntrans` is (10⁵ at capacity).
    fn schedule_initial(&mut self, cfg: &ModelConfig, root: &SimRng, ex: &mut Executor<Event>) {
        ex.schedule_series(
            Time::ZERO,
            ARRIVAL_SPACING,
            u64::from(cfg.ntrans),
            Event::Arrive,
        );
        if self.warmup > Time::ZERO {
            ex.schedule(self.warmup, Event::WarmupReached);
        }
        // Failure extension: every processor gets an independent first
        // failure time from the dedicated stream.
        self.failure = cfg.failure.as_ref().map(|spec| {
            let mut f = FailureState::new(spec, cfg.npros, root.split("failure"));
            for p in 0..cfg.npros {
                let at = Time::ZERO + exponential(&mut f.rng, f.mtbf);
                ex.schedule(at, Event::Fail { proc: p });
            }
            f
        });
    }

    /// Re-initialize this system in place for a fresh `(cfg, seed)` run,
    /// as if it had just been built with [`System::new`]`(cfg, seed, ex)`
    /// — same panics, same RNG stream derivation, bit-identical behavior.
    /// What reuse keeps is *capacity*: the transaction slab (every slot
    /// vacated, so every buffer a transaction ever grew survives), the
    /// conflict model's tables when the mode allows
    /// ([`ConcurrencyControl::reset`]), the workload generator's lock
    /// memo, and every scratch buffer. The caller must reset the executor
    /// first ([`Executor::reset`]) so event sequence numbers restart.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails.
    pub fn reset(&mut self, cfg: &ModelConfig, seed: u64, ex: &mut Executor<Event>) {
        if let Err(e) = cfg.validate() {
            panic!("invalid model configuration: {e}");
        }
        let root = SimRng::new(seed);
        self.npros = cfg.npros;
        self.cputime = Dur::from_units(cfg.cputime);
        self.iotime = Dur::from_units(cfg.iotime);
        self.lcputime = Dur::from_units(cfg.lcputime);
        self.liotime = Dur::from_units(cfg.liotime);
        self.warmup = Time::from_units(cfg.warmup);
        self.tmax = Time::from_units(cfg.tmax);
        self.lock_distribution = cfg.lock_distribution;
        self.service = cfg.service;
        self.lock_rr = 0;
        self.generator.reset(cfg.workload_params(), &root);
        self.conflict_rng = root.split("conflict");
        self.access_rng = root.split("access");
        self.service_rng = root.split("service");
        // In-place conflict reset when the model matches the new mode;
        // otherwise rebuild (mode changed between sweep points).
        if !self.conflict.reset(cfg) {
            self.conflict = build_concurrency_control(cfg);
        }
        // Servers reset in place (queues keep their grown capacity); the
        // vectors only grow or shrink when the processor count changes.
        for servers in &mut self.servers {
            servers.resize_with(cfg.npros as usize, || {
                mk_server(cfg.lock_preemption, cfg.discipline)
            });
            for s in servers.iter_mut() {
                s.reset(cfg.lock_preemption, cfg.discipline);
            }
        }
        // Vacate every slot: the reset run's admissions redraw them in
        // place instead of allocating. The lowest slot goes on top of the
        // free list, so slots are taken in a fresh run's order. Queued
        // arrivals were never drawn; they just go.
        for txn in &mut self.slab {
            txn.phase = TxnPhase::Done;
        }
        self.free_slots.clear();
        self.free_slots.extend((0..self.slab.len() as u32).rev());
        self.next_serial = 0;
        self.blocked_count = 0;
        self.admitted = 0;
        self.mpl_limit = cfg.mpl_limit;
        self.pending.clear();
        self.pending_tw = TimeWeighted::new();
        self.counts = Counters::default();
        self.warm = Counters::default();
        self.wake_buf.clear();
        self.dl_aborted_buf.clear();
        self.dl_woken_buf.clear();
        self.response = Tally::new();
        self.response_hist.reset(cfg.tmax, 2_000);
        self.response_batch = BatchMeans::with_doubling(RESPONSE_BATCH_SIZE, RESPONSE_BATCH_CAP);
        self.attempts_per_txn = Tally::new();
        self.active_tw = TimeWeighted::new();
        self.blocked_tw = TimeWeighted::new();
        self.tracer = None;
        self.timeline = None;
        // Servers added for a larger `npros` get their room now: the kept
        // slab will not grow again.
        self.size_to_slab();
        self.schedule_initial(cfg, &root, ex);
    }

    /// Turn on timeline sampling every `interval` time units (see
    /// [`crate::timeline`]). Must be called before the run starts.
    pub fn enable_timeline(&mut self, interval: f64, ex: &mut Executor<Event>) {
        let interval = Dur::from_units(interval);
        self.timeline = Some(TimelineCollector::new(interval));
        ex.schedule(Time::ZERO + interval, Event::SampleTick);
    }

    /// Take the collected timeline, disabling further sampling.
    pub fn take_timeline(&mut self) -> Option<TimelineCollector> {
        self.timeline.take()
    }

    fn sample_tick(&mut self, now: Time, ex: &mut Executor<Event>) {
        let counters = self.counters(now);
        let active = self.conflict.active_count() as u32;
        let (blocked, npros) = (self.blocked_count, self.npros);
        let Some(tl) = &mut self.timeline else {
            return;
        };
        tl.record(now, counters, npros, active, blocked);
        let interval = tl.interval;
        if now + interval <= self.tmax {
            ex.schedule(now + interval, Event::SampleTick);
        }
    }

    /// Turn on protocol tracing (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(VecTracer::default());
    }

    /// Take the recorded trace, leaving tracing enabled but empty.
    pub fn take_trace(&mut self) -> Option<VecTracer> {
        self.tracer.replace(VecTracer::default())
    }

    /// Look up a live transaction by slab slot.
    ///
    /// Every event carries the slot of a transaction the system itself
    /// scheduled, and slots are vacated only at completion — after which
    /// no further events for them exist. A vacated slot is therefore a
    /// simulator logic error, not a recoverable condition.
    fn txn(&self, slot: u32) -> &Transaction {
        let txn = &self.slab[slot as usize];
        assert_ne!(txn.phase, TxnPhase::Done, "{DEPARTED}");
        txn
    }

    /// Mutable counterpart of [`Self::txn`].
    fn txn_mut(&mut self, slot: u32) -> &mut Transaction {
        let txn = &mut self.slab[slot as usize];
        assert_ne!(txn.phase, TxnPhase::Done, "{DEPARTED}");
        txn
    }

    #[inline]
    fn trace(&mut self, now: Time, event: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.record(now, event);
        }
    }

    /// Whether a completion at `now` enters the response-time
    /// distributions, which cannot be subtracted like [`Counters`].
    fn measuring(&self, now: Time) -> bool {
        now >= self.warmup
    }

    /// [`Counters`] from time zero to `now`, the servers' open service
    /// segments included.
    fn counters(&mut self, now: Time) -> Counters {
        let mut c = self.counts;
        for (res, servers) in self.servers.iter_mut().enumerate() {
            for s in servers {
                s.flush(now);
                let lock = s.busy_time(Class::Lock);
                c.lock_busy[res] += lock;
                c.busy[res] += lock + s.busy_time(Class::Transaction);
            }
        }
        c.cc = self.conflict.stats();
        c
    }

    /// A transaction arrives, of the `kind` given: it takes the next
    /// serial and is admitted if the multiprogramming cap allows,
    /// otherwise queued. An arrival bypasses the queue only when the queue
    /// is empty (a completion admits the queue's head before its
    /// replacement arrives), so transactions are admitted, and drawn, in
    /// serial order.
    fn arrive(&mut self, now: Time, kind: Arrival, ex: &mut Executor<Event>) {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.trace(now, TraceEvent::Arrived { serial });
        if self.mpl_limit.is_none_or(|cap| self.admitted < cap) {
            self.admit(now, serial, now, ex);
        } else {
            self.pending.push(kind, serial, now);
            self.pending_tw.record(now, self.pending.len() as f64);
        }
    }

    /// Admit transaction `serial`: give it a slab slot, draw it there and
    /// start its lock phase. A vacated slot is redrawn in place, reusing
    /// its buffers, so the steady-state replacement performs no heap
    /// allocation.
    fn admit(&mut self, now: Time, serial: u64, arrived: Time, ex: &mut Executor<Event>) {
        // The size, partitioning and access streams are consumed only
        // here, so drawing in serial order gives transaction k the k-th
        // draw of each, whether or not it waited in the queue. The one
        // drawn now is the oldest not yet drawn: every younger arrival is
        // queued.
        debug_assert_eq!(
            serial + self.pending.len() + 1,
            self.next_serial,
            "transactions must be drawn in serial order"
        );
        self.admitted += 1;
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(Transaction::default());
                self.size_to_slab();
                (self.slab.len() - 1) as u32
            }
        };
        let txn = &mut self.slab[slot as usize];
        debug_assert_eq!(txn.phase, TxnPhase::Done, "admitted into a held slot");
        txn.serial = serial;
        txn.arrived = arrived;
        txn.attempts = 0;
        txn.phase = TxnPhase::LockPhase;
        // Room for one CPU demand per processor now: a transaction that
        // waits long for its locks first runs, and fills this, late in a
        // run.
        txn.cpu_shares.clear();
        txn.cpu_shares.reserve(self.npros as usize);
        // Spec first, then granules. The conflict model decides what
        // "declared access" means — the probabilistic model clears the
        // set without touching the access stream; the lock-table models
        // sample a concrete granule set.
        self.generator.next_spec_into(&mut txn.spec);
        self.conflict
            .register_access(&mut self.access_rng, txn.spec.entities, &mut txn.granules);
        self.begin_lock_phase(now, slot, ex);
    }

    /// Give every buffer that holds at most one entry per slab slot room
    /// for the whole slab: each server's queues (a transaction has at most
    /// one job at a server), the wake buffer and the deadlock-effect
    /// buffers. Called whenever the slab grows, and at reset, so none of
    /// them grows later in a run.
    fn size_to_slab(&mut self) {
        let slots = self.slab.len();
        for server in self.servers.iter_mut().flatten() {
            server.reserve(slots);
        }
        for buf in [
            &mut self.wake_buf,
            &mut self.dl_aborted_buf,
            &mut self.dl_woken_buf,
        ] {
            buf.reserve(slots.saturating_sub(buf.len()));
        }
    }

    /// Issue a lock request attempt: charge the lock overhead across all
    /// processors as preemptive high-priority work, CPU shares before I/O
    /// shares; the admission decision happens when the last share
    /// completes.
    fn begin_lock_phase(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        let (locks, serial, attempt) = {
            let txn = self.txn_mut(slot);
            txn.phase = TxnPhase::LockPhase;
            txn.attempts += 1;
            (txn.spec.locks, txn.serial, txn.attempts)
        };
        self.counts.lock_attempts += 1;
        self.trace(now, TraceEvent::LockRequested { serial, attempt });

        let offset = self.lock_rr;
        self.lock_rr += rotation(self.lock_distribution, locks);
        let mut outstanding = 0;
        for (res, cost, kind) in [
            (Res::Cpu, self.lcputime, KIND_LOCK_CPU),
            (Res::Io, self.liotime, KIND_LOCK_IO),
        ] {
            let shares = deal(self.lock_distribution, self.npros, offset, locks, cost);
            for (p, demand) in (0..).zip(shares) {
                if demand.is_zero() {
                    continue;
                }
                outstanding += 1;
                let job = Job {
                    id: job_id(slot, 0, kind),
                    demand,
                    class: Class::Lock,
                };
                self.submit(now, res, p, job, ex);
            }
        }
        self.txn_mut(slot).lock_shares_outstanding = outstanding;
        if outstanding == 0 {
            // Zero-cost locking (lcputime = liotime = 0, or LU = 0): the
            // decision is immediate.
            self.decide(now, slot, ex);
        }
    }

    /// Submit a job to processor `proc`'s `res`, unless the processor is
    /// down — then the job waits in the stall buffer until repair.
    fn submit(&mut self, now: Time, res: Res, proc: u32, job: Job, ex: &mut Executor<Event>) {
        if let Some(f) = &mut self.failure {
            if f.down[proc as usize] {
                f.stalled[res as usize][proc as usize].push(job);
                return;
            }
        }
        if let Some(c) = self.servers[res as usize][proc as usize].submit(now, job) {
            Self::schedule(ex, res, proc, c);
        }
    }

    fn schedule(ex: &mut Executor<Event>, res: Res, proc: u32, c: Completion) {
        let token = c.token;
        let event = match res {
            Res::Cpu => Event::CpuDone { proc, token },
            Res::Io => Event::IoDone { proc, token },
        };
        ex.schedule(c.at, event);
    }

    /// A completion fired on processor `proc`'s `res`: the finished job's
    /// owner moves on, and the server's next job, if any, is scheduled.
    fn server_done(
        &mut self,
        now: Time,
        res: Res,
        proc: u32,
        token: Token,
        ex: &mut Executor<Event>,
    ) {
        let CompletionOutcome::Finished { job, next } =
            self.servers[res as usize][proc as usize].on_completion(now, token)
        else {
            return;
        };
        if let Some(c) = next {
            Self::schedule(ex, res, proc, c);
        }
        let (slot, stage, kind) = decode(job.id);
        match (res, kind) {
            (Res::Cpu, KIND_LOCK_CPU) | (Res::Io, KIND_LOCK_IO) => {
                self.lock_share_done(now, slot, ex);
            }
            (Res::Io, KIND_SUB_IO) => self.subtxn_io_done(now, slot, stage, proc, ex),
            (Res::Cpu, KIND_SUB_CPU) => self.subtxn_cpu_done(now, slot, proc, ex),
            (res, kind) => unreachable!("{res:?} server finished job kind {kind}"),
        }
    }

    /// The lock overhead is paid: ask the conflict model for a verdict.
    fn decide(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        // Disjoint field borrows: the conflict model reads the granule set
        // straight out of the slab (no clone) while drawing from the
        // conflict stream. The model keys holders and waiters by slot.
        let txn = &self.slab[slot as usize];
        assert_ne!(txn.phase, TxnPhase::Done, "{DEPARTED}");
        let decision = self.conflict.try_acquire(
            u64::from(slot),
            txn.spec.locks,
            &txn.granules,
            &mut self.conflict_rng,
        );
        let serial = txn.serial;
        match decision {
            ConflictDecision::Granted => {
                self.trace(now, TraceEvent::Granted { serial });
                self.active_tw
                    .record(now, self.conflict.active_count() as f64);
                self.start_subtransactions(now, slot, ex);
            }
            ConflictDecision::BlockedBy(blocker_slot) => {
                let blocker = self.txn(blocker_slot as u32).serial;
                self.trace(now, TraceEvent::Denied { serial, blocker });
                self.counts.lock_denials += 1;
                let txn = self.txn_mut(slot);
                txn.phase = TxnPhase::Blocked;
                self.blocked_count += 1;
                self.blocked_tw.record(now, f64::from(self.blocked_count));
            }
            ConflictDecision::Aborted => {
                // Incremental 2PL only: the requester itself was chosen as
                // the deadlock victim mid-attempt. It never held a full
                // grant, keeps its admission slot and arrival time, and
                // replays the lock phase as a fresh attempt (the repeated
                // lock overhead is charged again).
                self.trace(now, TraceEvent::DeadlockAborted { serial });
                self.counts.aborts += 1;
                self.begin_lock_phase(now, slot, ex);
            }
        }
        self.apply_deadlock_effects(now, ex);
    }

    /// Pick up the side effects of deadlock resolution performed inside
    /// the conflict model during `decide` (incremental 2PL only —
    /// conservative protocols never produce any): victims abort out of
    /// their blocked wait and replay their lock phase; third parties
    /// granted by the victims' lock releases wake. The requester's own
    /// transition was already handled by `decide`, so every transaction
    /// named here is `Blocked` — with zero-cost locking the replays and
    /// wakes recurse straight into `decide`, and that invariant is what
    /// keeps nested deadlock resolution (which drains these same buffers
    /// in the inner frame) from touching a transaction whose decision is
    /// still pending on the stack.
    fn apply_deadlock_effects(&mut self, now: Time, ex: &mut Executor<Event>) {
        let mut aborted = std::mem::take(&mut self.dl_aborted_buf);
        let mut woken = std::mem::take(&mut self.dl_woken_buf);
        aborted.clear();
        woken.clear();
        self.conflict
            .drain_deadlock_effects(&mut aborted, &mut woken);
        for &v in &aborted {
            self.counts.aborts += 1;
            self.unblock(
                now,
                v as u32,
                |serial| TraceEvent::DeadlockAborted { serial },
                ex,
            );
        }
        for &w in &woken {
            self.unblock(now, w as u32, |serial| TraceEvent::Woken { serial }, ex);
        }
        aborted.clear();
        woken.clear();
        self.dl_aborted_buf = aborted;
        self.dl_woken_buf = woken;
    }

    /// Blocked transaction `slot` leaves the blocked queue, woken or
    /// aborted out of its wait as a deadlock victim (`event` says which),
    /// and re-enters its lock phase.
    fn unblock(
        &mut self,
        now: Time,
        slot: u32,
        event: fn(u64) -> TraceEvent,
        ex: &mut Executor<Event>,
    ) {
        debug_assert_eq!(self.txn(slot).phase, TxnPhase::Blocked);
        let serial = self.txn(slot).serial;
        self.trace(now, event(serial));
        self.blocked_count -= 1;
        self.blocked_tw.record(now, f64::from(self.blocked_count));
        self.begin_lock_phase(now, slot, ex);
    }

    /// Release `slot`'s locks and wake every transaction blocked on it,
    /// in the order the conflict model names them.
    fn release_and_wake(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        // Reuse the wake buffer across releases (no per-release
        // allocation); take it out of `self` so the wake-ups can borrow
        // `self` mutably while we iterate.
        let mut woken = std::mem::take(&mut self.wake_buf);
        woken.clear();
        self.conflict.release(u64::from(slot), &mut woken);
        self.active_tw
            .record(now, self.conflict.active_count() as f64);
        for &w in &woken {
            self.unblock(now, w as u32, |serial| TraceEvent::Woken { serial }, ex);
        }
        self.wake_buf = woken;
    }

    /// Fork the admitted transaction into `PU_i` sub-transactions and
    /// submit their I/O stages. The `NU_i` entities are dealt out in
    /// whole units (an entity is "the unit moved by the operating
    /// system"), so with `NU_i` not divisible by `PU_i` some
    /// sub-transactions carry one extra entity; the surplus rotates
    /// across processors between transactions so no processor is
    /// systematically hotter.
    fn start_subtransactions(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        let rot = self.lock_rr; // reuse the rotating offset
        let (fanout, entities) = {
            let txn = self.txn_mut(slot);
            txn.phase = TxnPhase::Running;
            txn.subtxns_outstanding = txn.fanout();
            txn.cpu_shares.clear();
            (txn.fanout(), txn.spec.entities)
        };
        let n = u64::from(fanout);
        let (base, extra) = (entities / n, entities % n);
        let entities_at = |stage: u32| base + u64::from((u64::from(stage) + rot) % n < extra);
        // The service stream's order: every I/O demand, stage by stage,
        // then every CPU demand.
        for stage in 0..fanout {
            let demand = self.stage_demand(self.iotime, entities_at(stage));
            let p = self.txn(slot).spec.processors[stage as usize];
            let job = Job {
                id: job_id(slot, stage, KIND_SUB_IO),
                demand,
                class: Class::Transaction,
            };
            self.submit(now, Res::Io, p, job, ex);
        }
        for stage in 0..fanout {
            let demand = self.stage_demand(self.cputime, entities_at(stage));
            self.slab[slot as usize].cpu_shares.push(demand);
        }
    }

    /// Sub-transaction `stage` finished its I/O stage on `proc`: submit its
    /// CPU stage there.
    fn subtxn_io_done(
        &mut self,
        now: Time,
        slot: u32,
        stage: u32,
        proc: u32,
        ex: &mut Executor<Event>,
    ) {
        let (serial, demand) = {
            let txn = self.txn(slot);
            debug_assert_eq!(txn.spec.processors[stage as usize], proc);
            (txn.serial, txn.cpu_shares[stage as usize])
        };
        self.trace(now, TraceEvent::SubIoDone { serial, proc });
        let job = Job {
            id: job_id(slot, stage, KIND_SUB_CPU),
            demand,
            class: Class::Transaction,
        };
        self.submit(now, Res::Cpu, proc, job, ex);
    }

    /// A sub-transaction finished its CPU stage: join, and complete the
    /// parent when the last one is in.
    fn subtxn_cpu_done(&mut self, now: Time, slot: u32, proc: u32, ex: &mut Executor<Event>) {
        let (serial, done) = {
            let txn = self.txn_mut(slot);
            txn.subtxns_outstanding -= 1;
            (txn.serial, txn.subtxns_outstanding == 0)
        };
        self.trace(now, TraceEvent::SubCpuDone { serial, proc });
        if done {
            self.complete(now, slot, ex);
        }
    }

    /// Transaction completion: release locks, wake blocked transactions,
    /// record statistics, admit the head of the pending queue, and let
    /// the closed-model replacement arrive.
    fn complete(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        let (serial, arrived, attempts) = {
            let txn = self.txn_mut(slot);
            debug_assert_eq!(txn.phase, TxnPhase::Running);
            // The slot is vacated; the admission below may redraw it.
            txn.phase = TxnPhase::Done;
            (txn.serial, txn.arrived, txn.attempts)
        };
        self.free_slots.push(slot);
        self.trace(now, TraceEvent::Completed { serial });
        self.counts.completions += 1;
        if self.measuring(now) {
            let resp = now.since(arrived).units();
            self.response.record(resp);
            self.response_hist.record(resp);
            self.response_batch.record(resp);
            self.attempts_per_txn.record(f64::from(attempts));
        }
        self.release_and_wake(now, slot, ex);
        // The finished transaction gives up its admission slot; the head
        // of the pending queue takes it, before the replacement arrives.
        self.admitted -= 1;
        if let Some((serial, arrived)) = self.pending.pop(self.next_serial) {
            self.pending_tw.record(now, self.pending.len() as f64);
            self.admit(now, serial, arrived, ex);
        }
        // Closed model: a fresh transaction replaces the finished one.
        self.arrive(now, Arrival::Replacement, ex);
        self.check_flow_balance();
    }

    /// Flow balance: every transaction that has arrived has completed,
    /// holds an admission slot or is queued. Checked after every
    /// completion and at the horizon, so every debug run checks it.
    fn check_flow_balance(&self) {
        debug_assert_eq!(
            self.next_serial,
            self.counts.completions + u64::from(self.admitted) + self.pending.len(),
            "flow balance: arrivals = completions + admitted + queued"
        );
    }

    /// Processor `proc` fails: mark it down, schedule the repair, and
    /// abort every *running* transaction with a sub-transaction there.
    /// Blocked and lock-phase transactions survive (they hold no
    /// sub-transaction work); their new submissions to this processor
    /// stall until repair.
    fn fail_processor(&mut self, now: Time, proc: u32, ex: &mut Executor<Event>) {
        let Some(f) = &mut self.failure else {
            return;
        };
        debug_assert!(!f.down[proc as usize], "Fail event for a down processor");
        f.down[proc as usize] = true;
        let repair_in = exponential(&mut f.rng, f.mttr);
        ex.schedule(now + repair_in, Event::Repair { proc });
        self.trace(now, TraceEvent::Failed { proc });
        self.counts.failures += 1;
        // Collect victims before mutating: the wake-ups triggered by each
        // abort move transactions Blocked → LockPhase, never into Running,
        // so the victim set cannot grow under our feet. Abort in *serial*
        // order — the order the former BTreeMap iteration produced — so
        // the abort-triggered RNG draws replay identically even though
        // recycled slots are not serial-ordered.
        let mut victims: Vec<(u64, u32)> = self
            .slab
            .iter()
            .enumerate()
            .filter(|(_, t)| t.phase == TxnPhase::Running && t.spec.processors.contains(&proc))
            .map(|(slot, t)| (t.serial, slot as u32))
            .collect();
        victims.sort_unstable_by_key(|&(serial, _)| serial);
        for (_, slot) in victims {
            self.abort(now, slot, ex);
        }
    }

    /// Processor `proc` is repaired: replay stalled submissions in their
    /// original order and schedule the next failure.
    fn repair_processor(&mut self, now: Time, proc: u32, ex: &mut Executor<Event>) {
        self.trace(now, TraceEvent::Repaired { proc });
        let Some(f) = &mut self.failure else {
            return;
        };
        debug_assert!(f.down[proc as usize], "Repair event for an up processor");
        f.down[proc as usize] = false;
        let fail_in = exponential(&mut f.rng, f.mtbf);
        ex.schedule(now + fail_in, Event::Fail { proc });
        let stalled = f
            .stalled
            .each_mut()
            .map(|stalled| std::mem::take(&mut stalled[proc as usize]));
        for res in [Res::Io, Res::Cpu] {
            for &job in &stalled[res as usize] {
                self.submit(now, res, proc, job, ex);
            }
        }
    }

    /// Abort a running transaction because a processor hosting one of its
    /// sub-transactions failed: withdraw its in-flight work, release all
    /// its locks through the ordinary wake path (conservative locking —
    /// no partial writes exist, so no undo is needed), and re-enter the
    /// lock-request cycle. The transaction keeps its admission slot and
    /// its arrival time (the paper's response time spans the whole stay).
    fn abort(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        let serial = self.txn(slot).serial;
        self.trace(now, TraceEvent::Aborted { serial });
        self.counts.aborts += 1;
        for stage in 0..self.txn(slot).fanout() {
            let p = self.txn(slot).spec.processors[stage as usize];
            for (res, kind) in [(Res::Io, KIND_SUB_IO), (Res::Cpu, KIND_SUB_CPU)] {
                let id = job_id(slot, stage, kind);
                if let CancelOutcome::InService { next: Some(c), .. } =
                    self.servers[res as usize][p as usize].cancel(now, id)
                {
                    Self::schedule(ex, res, p, c);
                }
                // A stage parked behind its (down) processor must not
                // resurface at the repair.
                if let Some(f) = &mut self.failure {
                    f.stalled[res as usize][p as usize].retain(|j| j.id != id);
                }
            }
        }
        {
            let txn = self.txn_mut(slot);
            debug_assert_eq!(txn.phase, TxnPhase::Running);
            txn.subtxns_outstanding = 0;
        }
        // Release locks and wake waiters — the same dance as `complete`.
        self.release_and_wake(now, slot, ex);
        // Re-execute from the lock request (a fresh attempt, so the
        // repeated lock overhead is charged again).
        self.begin_lock_phase(now, slot, ex);
    }

    /// The warm-up boundary: the measured window starts here.
    fn warmup_reached(&mut self, now: Time) {
        self.warm = self.counters(now);
        self.active_tw.reset(now);
        self.blocked_tw.reset(now);
        self.pending_tw.reset(now);
    }

    /// Close accounting at the horizon and assemble the metrics. Takes
    /// `&mut self` (it flushes the servers) so an arena can
    /// [`System::reset`] the same state for the next run.
    pub fn finish(&mut self, end: Time) -> RunMetrics {
        self.check_flow_balance();
        let w = self.counters(end) - self.warm;
        let (cpu, io) = (Res::Cpu as usize, Res::Io as usize);
        let (totcpus, lockcpus) = (w.busy[cpu].units(), w.lock_busy[cpu].units());
        let (totios, lockios) = (w.busy[io].units(), w.lock_busy[io].units());
        let npros = f64::from(self.npros);
        let measured_time = end.since(self.warmup).units();
        let (lock_attempts, lock_denials) = (w.lock_attempts, w.lock_denials);
        let span = measured_time.max(f64::MIN_POSITIVE);

        let metrics = RunMetrics {
            totcpus,
            totios,
            lockcpus,
            lockios,
            usefulcpus: (totcpus - lockcpus) / npros,
            usefulios: (totios - lockios) / npros,
            totcom: w.completions,
            throughput: w.completions as f64 / span,
            response_time: self.response.mean(),
            measured_time,
            lock_attempts,
            lock_denials,
            denial_rate: if lock_attempts == 0 {
                0.0
            } else {
                lock_denials as f64 / lock_attempts as f64
            },
            mean_active: self.active_tw.mean_at(end),
            mean_blocked: self.blocked_tw.mean_at(end),
            mean_pending: self.pending_tw.mean_at(end),
            cpu_utilization: totcpus / (npros * span),
            io_utilization: totios / (npros * span),
            response_time_std: self.response.std_dev(),
            response_time_p95: self.response_hist.quantile(0.95).unwrap_or(0.0),
            attempts_per_txn: self.attempts_per_txn.mean(),
            aborts: w.aborts,
            failures: w.failures,
            escalations: w.cc.escalations,
            intent_locks: w.cc.intent_locks,
            deadlocks: w.cc.deadlocks,
            response_ci95_batch: self.response_batch.ci95_half_width(),
            response_batches: self.response_batch.batches(),
        };
        // Every debug-profile run checks its own accounting.
        debug_assert_eq!(metrics.check_consistency(self.npros), Ok(()));
        metrics
    }

    /// The horizon this system was configured with.
    pub fn tmax(&self) -> Time {
        self.tmax
    }
}

impl Model for System {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, ex: &mut Executor<Event>) {
        match event {
            Event::Arrive => self.arrive(now, Arrival::Initial, ex),
            Event::WarmupReached => self.warmup_reached(now),
            Event::SampleTick => self.sample_tick(now, ex),
            Event::Fail { proc } => self.fail_processor(now, proc, ex),
            Event::Repair { proc } => self.repair_processor(now, proc, ex),
            Event::CpuDone { proc, token } => self.server_done(now, Res::Cpu, proc, token, ex),
            Event::IoDone { proc, token } => self.server_done(now, Res::Io, proc, token, ex),
        }
    }
}

impl System {
    /// Demand of one sub-transaction stage: `entities × per-entity cost`,
    /// optionally perturbed by the configured service variability.
    fn stage_demand(&mut self, per_entity: Dur, entities: u64) -> Dur {
        let mean = per_entity.times(entities);
        match self.service {
            ServiceVariability::Deterministic => mean,
            ServiceVariability::Exponential if mean.is_zero() => mean,
            ServiceVariability::Exponential => exponential(&mut self.service_rng, mean),
        }
    }

    fn lock_share_done(&mut self, now: Time, slot: u32, ex: &mut Executor<Event>) {
        let done = {
            let txn = self.txn_mut(slot);
            txn.lock_shares_outstanding -= 1;
            txn.lock_shares_outstanding == 0
        };
        if done {
            self.decide(now, slot, ex);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(slot, stage, kind)` survives the job id at the extremes a valid
    /// configuration reaches: slot `u32::MAX - 1` (the slab holds at most
    /// `ntrans` ≤ `u32::MAX` transactions) and stage `MAX_NPROS - 1` (a
    /// stage indexes one of at most `npros` processors).
    #[test]
    fn job_ids_round_trip_at_the_largest_slot_and_stage() {
        let kinds = [KIND_LOCK_CPU, KIND_LOCK_IO, KIND_SUB_IO, KIND_SUB_CPU];
        for slot in [0, 1, u32::MAX - 1] {
            for stage in [0, 1, MAX_NPROS - 1] {
                for kind in kinds {
                    assert_eq!(decode(job_id(slot, stage, kind)), (slot, stage, kind));
                }
            }
        }
        // Each stage of a transaction has an id of its own.
        assert_ne!(job_id(7, 0, KIND_SUB_IO), job_id(7, 1, KIND_SUB_IO));
        assert_ne!(
            job_id(7, MAX_NPROS - 1, KIND_SUB_CPU),
            job_id(8, 0, KIND_SUB_CPU)
        );
    }

    /// Every distribution deals by one rule, and it reproduces the three
    /// formulas each distribution had of its own: the even split's first
    /// `ticks % npros` shares are one tick longer, the single processor
    /// takes the whole total at `offset % npros`, and per-operation
    /// dealing gives the cyclic range from the offset one more operation.
    /// The shares always sum to `locks × cost`.
    #[test]
    fn lock_work_is_dealt_by_one_rule() {
        use LockDistribution::{EvenSplit, PerOperation, SingleProcessor};
        let costs = [
            Dur::ZERO,
            Dur::from_ticks(1),
            Dur::from_units(0.01),
            Dur::from_units(0.2),
        ];
        for npros in [1u32, 2, 3, 10, 30] {
            let n = u64::from(npros);
            for locks in [0u64, 1, 7, 25, 500] {
                for offset in [0u64, 1, 2, 9, 29, 1_000_003] {
                    for cost in costs {
                        let total = cost.times(locks);
                        let shares = |d| deal(d, npros, offset, locks, cost).collect::<Vec<_>>();
                        let case =
                            format!("npros {npros}, {locks} locks, offset {offset}, {cost:?}");

                        let (base, extra) = (total.ticks() / n, total.ticks() % n);
                        let even: Vec<Dur> = (0..n)
                            .map(|p| Dur::from_ticks(base + u64::from(p < extra)))
                            .collect();
                        assert_eq!(shares(EvenSplit), even, "even split, {case}");

                        let single: Vec<Dur> = (0..n)
                            .map(|p| if p == offset % n { total } else { Dur::ZERO })
                            .collect();
                        assert_eq!(shares(SingleProcessor), single, "single, {case}");

                        let per_op: Vec<Dur> = (0..n)
                            .map(|p| {
                                let in_range = (p + n - offset % n) % n < locks % n;
                                cost.times(locks / n + u64::from(in_range))
                            })
                            .collect();
                        assert_eq!(shares(PerOperation), per_op, "per-op, {case}");

                        for d in LockDistribution::ALL {
                            let sum: Dur = shares(d).into_iter().sum();
                            assert_eq!(sum, total, "{d}, {case}: shares must sum to the total");
                        }
                    }
                }
            }
        }
    }

    /// Under an MPL cap only admitted transactions are drawn: 5 000
    /// terminals behind MPL 16 never hold more than 16 slab slots,
    /// although arrivals queue for the whole run.
    #[test]
    fn queued_arrivals_hold_no_slab_slot_and_no_transaction() {
        let cfg = ModelConfig::table1()
            .with_ntrans(5_000)
            .with_mpl_limit(Some(16))
            .with_tmax(2_000.0);
        let mut ex = Executor::new();
        let mut sys = System::new(&cfg, 3, &mut ex);
        let horizon = sys.tmax();
        let end = ex.run(&mut sys, horizon);
        let m = sys.finish(end);
        assert!(sys.slab.len() <= 16, "slab has {} slots", sys.slab.len());
        assert!(m.mean_pending > 0.0, "no arrival ever queued");
    }

    /// The workload and access streams are common to every conflict
    /// model: the k-th admitted transaction takes the k-th spec and, under
    /// a lock table, the k-th granule-set draw, whatever the model decided
    /// for the ones before it. Blocking, deadlock aborts, escalation and
    /// replays draw from neither, and deterministic service draws nothing
    /// from the service stream. So at the horizon each stream stands where
    /// a fresh one does after one replay per admitted transaction.
    #[test]
    fn shared_streams_advance_once_per_admission() {
        use crate::config::{ConflictMode, HierarchySpec};
        use crate::conflict::AccessSampler;
        use lockgran_workload::{HotSpot, Placement, TransactionSpec};

        let table1 = ModelConfig::table1().with_tmax(1_000.0);
        // simbench's `lock_contention` shape: the 80/20 hot spot.
        let contention = ModelConfig::table1()
            .with_ntrans(50)
            .with_maxtransize(50)
            .with_placement(Placement::Random)
            .with_hot_spot(Some(HotSpot::eighty_twenty()))
            .with_tmax(1_000.0);
        let hierarchy = table1.clone().with_hierarchy(Some(HierarchySpec {
            areas: 10,
            escalation_threshold: Some(3),
        }));
        let (mut cases, mut escalations, mut deadlocks) = (0, 0, 0);
        for mode in ConflictMode::ALL {
            for (shape, base) in [
                ("table1", &table1),
                ("contention", &contention),
                ("hierarchy", &hierarchy),
            ] {
                for service in ServiceVariability::ALL {
                    for seed in [42, 7] {
                        let cfg = base.clone().with_conflict(mode).with_service(service);
                        if cfg.validate().is_err() {
                            continue;
                        }
                        let case = format!("{mode} {shape} {service} seed {seed}");
                        let mut ex = Executor::new();
                        let mut sys = System::new(&cfg, seed, &mut ex);
                        let horizon = sys.tmax();
                        ex.run(&mut sys, horizon);
                        let stats = sys.conflict.stats();
                        escalations += stats.escalations;
                        deadlocks += stats.deadlocks;
                        cases += 1;

                        let drawn = sys.next_serial - sys.pending.len();
                        assert!(drawn > 0, "{case}: nothing was admitted");
                        let root = SimRng::new(seed);
                        let mut generator = WorkloadGenerator::new(cfg.workload_params(), &root);
                        let mut access = root.split("access");
                        let sampler = AccessSampler::from_config(&cfg);
                        let mut granules = Vec::new();
                        let mut spec = TransactionSpec::default();
                        for _ in 0..drawn {
                            generator.next_spec_into(&mut spec);
                            if mode != ConflictMode::Probabilistic {
                                sampler.sample_into(&mut access, spec.entities, &mut granules);
                            }
                        }
                        assert_eq!(sys.generator.generated(), drawn, "{case}: specs drawn");
                        let mut next = TransactionSpec::default();
                        sys.generator.next_spec_into(&mut next);
                        generator.next_spec_into(&mut spec);
                        assert_eq!(next, spec, "{case}: workload stream");
                        assert_eq!(
                            sys.access_rng.next_u64(),
                            access.next_u64(),
                            "{case}: access stream"
                        );
                        if service == ServiceVariability::Deterministic {
                            assert_eq!(
                                sys.service_rng.next_u64(),
                                root.split("service").next_u64(),
                                "{case}: service stream drawn under deterministic service"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(
            cases, 32,
            "4 + 3 + 1 valid models per shape, × 2 services × 2 seeds"
        );
        // The cases reach the paths that must not draw.
        assert!(escalations > 0, "no case escalated");
        assert!(deadlocks > 0, "no case deadlocked");
    }
}
