//! One locking engine for every lock-table conflict model.
//!
//! The paper's conservative protocol, the block/file hierarchy its
//! conclusion recommends, and the claim-as-needed locking it cites from
//! Ries & Stonebraker differ along two axes only:
//!
//! * **tree** — a flat table (one lock per granule), or Gray's database →
//!   area → granule hierarchy with `IX` intention locks above `X` leaf
//!   locks and an escalation policy;
//! * **discipline** — *predeclared* (request the whole set at once, all or
//!   nothing, so deadlock is impossible: [`ConservativeScheduler`]) or
//!   *incremental* (claim one lock at a time in the sampled order, detect
//!   waits-for cycles and abort the youngest transaction on each:
//!   [`TwoPhaseScheduler`]).
//!
//! [`LockingCC`] is built from those two axes, and the lock-table
//! conflict modes are its presets:
//!
//! | mode | tree | discipline |
//! |---|---|---|
//! | `Explicit` | flat | predeclared |
//! | `Hierarchical` | database → area → granule, [`HierarchySpec`](crate::HierarchySpec) escalation | predeclared |
//! | `Twophase` | flat | incremental |
//!
//! The engine is layered like a textbook multigranularity lock manager.
//! The lock table under both schedulers knows nothing of the hierarchy;
//! [`lockgran_lockmgr::hierarchy`] is the context layer (geometry,
//! escalation, root-first intent chains); and one declarative step
//! (`declare`) turns a transaction's declared granule set into the
//! request list the discipline consumes.
//!
//! With a hierarchy that never escalates, intention locks never conflict
//! with each other (every non-leaf lock is `IX`), so the admitted
//! schedules are identical to the flat table's — the hierarchy only adds
//! intent-chain work. With `escalation_threshold = Some(1)` every
//! non-empty request collapses to an `X` lock on the root: whole-database
//! locking, the paper's `ltot = 1` extreme, whatever the configured
//! `ltot`.
//!
//! ## Per-transaction records and ages
//!
//! The system model keys conflict calls by slab slot, and slots recycle
//! as transactions complete; they are dense in [0, min(`ntrans`,
//! `mpl_limit`)). The slot is the transaction's [`TxnId`] all the way
//! down: the records here, the lock table's and the schedulers' are
//! vectors indexed by it, and the transactions a scheduler names are
//! slots already. A transaction's record keeps the request list from its
//! first `try_acquire` until release: a retry after a wake-up, or a replay
//! after a deadlock abort, contends for exactly the locks it first asked
//! for. The incremental discipline also needs an order: each transaction
//! gets a monotone *age* at its first `try_acquire` (spawn order is age
//! order), which the scheduler learns once, when the slot is seated
//! ([`TwoPhaseScheduler::begin`]). A victim keeps its slot and its age —
//! it does not become young again by being aborted, which would let it be
//! victimized forever; a released slot is seated again with a new age.
//! Request buffers cycle through a spare pool, so the steady state
//! allocates nothing.
//!
//! ## Effects channel
//!
//! Breaking a deadlock inside `try_acquire` can abort *other* (blocked)
//! transactions and grant queued requests of third parties. Those effects
//! do not fit the single [`ConflictDecision`] return value, so they are
//! buffered and handed to the system model through
//! [`ConcurrencyControl::drain_deadlock_effects`] after every attempt.

use lockgran_lockmgr::{
    escalate_predeclared_into, merge_by_supremum, AcquireEffects, AcquireStatus,
    ConservativeOutcome, ConservativeScheduler, EscalationPolicy, GranuleId, GranuleTree, LockMode,
    LockTable, NodeId, RetryOutcome, TwoPhaseScheduler, TxnId,
};
use lockgran_sim::SimRng;
use lockgran_workload::HierarchyMap;

use crate::config::{ConflictMode, ModelConfig};
use crate::conflict::{AccessSampler, CcStats, ConcurrencyControl, ConflictDecision, TxnSerial};

/// One lock request: a granule (a flat node id in a hierarchy) and a mode.
type Request = (GranuleId, LockMode);

/// A database → area → granule tree with its escalation policy, plus the
/// declarative step's scratch buffers.
struct Hierarchy {
    map: HierarchyMap,
    tree: GranuleTree,
    policy: EscalationPolicy,
    leaves: Vec<NodeId>,
    targets: Vec<(NodeId, LockMode)>,
    current: Vec<NodeId>,
    promoted: Vec<NodeId>,
}

impl Hierarchy {
    /// The hierarchy `cfg` describes. The geometry is a pure function of
    /// `(ltot, areas)`, so a matching `old` tree is kept with its scratch.
    fn for_config(old: Option<Hierarchy>, cfg: &ModelConfig) -> Hierarchy {
        let spec = cfg.hierarchy_spec();
        let map = HierarchyMap::new(cfg.ltot, spec.areas);
        let policy = match spec.escalation_threshold {
            None => EscalationPolicy::never(),
            Some(t) => EscalationPolicy {
                threshold: usize::try_from(t).unwrap_or(usize::MAX),
            },
        };
        match old {
            Some(old) if old.map == map => Hierarchy { policy, ..old },
            _ => Hierarchy {
                map,
                tree: GranuleTree::new(&map.fanouts()),
                policy,
                leaves: Vec::new(),
                targets: Vec::new(),
                current: Vec::new(),
                promoted: Vec::new(),
            },
        }
    }
}

/// How a transaction's request list is acquired. Both schedulers are
/// boxed: each owns a lock table, and only one lives per engine.
enum Discipline {
    /// All at once, all or nothing (the paper's conservative protocol).
    Predeclared(Box<ConservativeScheduler>),
    /// One request at a time, with deadlock detection (claim as needed).
    Incremental(Box<Incremental>),
}

impl Discipline {
    /// The lock table under the scheduler.
    fn table(&self) -> &LockTable {
        match self {
            Discipline::Predeclared(s) => s.table(),
            Discipline::Incremental(inc) => inc.scheduler.table(),
        }
    }
}

/// The incremental discipline: its scheduler plus the effects of deadlock
/// resolution awaiting system pickup.
#[derive(Default)]
struct Incremental {
    scheduler: TwoPhaseScheduler,
    /// The age the next transaction is seated with (see module docs).
    next_age: u64,
    /// Reusable side-effect buffers for the scheduler's acquire path.
    effects: AcquireEffects,
    /// Victims aborted inside `try_acquire`.
    aborted: Vec<TxnSerial>,
    /// Third parties granted by victim aborts.
    woken: Vec<TxnSerial>,
}

/// One transaction's lock phase, from its first attempt until release.
struct Txn {
    /// The request list the declarative step built at the first attempt.
    request: Vec<Request>,
    /// Requests held: exactly `request[..granted]` (predeclared grants
    /// them all at once, so a blocked transaction holds nothing).
    granted: usize,
    /// What the request list embodies, counted when it is granted.
    declared: Declared,
}

/// Counts a request list embodies, known when the declarative step builds
/// it.
#[derive(Clone, Copy, Default)]
struct Declared {
    /// Escalations.
    escalations: u64,
    /// Intention locks (`IS`, `IX` or `SIX`), after the supremum merge.
    intents: u64,
}

/// The lock-table concurrency control: a (tree, discipline) engine whose
/// presets are the explicit, hierarchical and incremental-2PL conflict
/// models (see module docs).
pub struct LockingCC {
    sampler: AccessSampler,
    /// The tree axis: `None` for the flat table.
    hierarchy: Option<Hierarchy>,
    discipline: Discipline,
    /// Records by simulator slot (see module docs).
    txns: Vec<Option<Txn>>,
    /// Retired request buffers.
    spare: Vec<Vec<Request>>,
    /// Fully granted (running) transactions.
    active: usize,
    stats: CcStats,
    /// Scratch: the slots a release woke.
    released: Vec<TxnId>,
}

impl LockingCC {
    /// The preset `cfg.conflict` selects.
    ///
    /// # Panics
    /// Panics if `cfg` selects the probabilistic model, which has no lock
    /// table.
    pub fn new(cfg: &ModelConfig) -> Self {
        let mut cc = LockingCC {
            sampler: AccessSampler::from_config(cfg),
            hierarchy: None,
            discipline: Discipline::Predeclared(Box::default()),
            txns: Vec::new(),
            spare: Vec::new(),
            active: 0,
            stats: CcStats::default(),
            released: Vec::new(),
        };
        assert!(cc.reset(cfg), "the probabilistic model has no lock table");
        cc
    }

    /// The declarative step: write the request list for the declared
    /// granule set `granules` into `out` (cleared first) and return what
    /// it embodies. The paper locks granules exclusively, so every
    /// declared granule is requested in `X`; in a hierarchy the set first
    /// passes through escalation, and every surviving target brings its
    /// intent chain. The chains share ancestors, so they are merged by
    /// supremum here, once, in ascending granule order (the predeclared
    /// discipline's probe order): the list is then exactly what the
    /// transaction holds once granted, and its intention locks are
    /// counted from it. A flat list is sorted here too under the
    /// predeclared discipline, so its retries probe it as it is; the
    /// incremental discipline claims it in the sampled order.
    fn declare(&mut self, granules: &[u64], out: &mut Vec<Request>) -> Declared {
        out.clear();
        let Some(h) = &mut self.hierarchy else {
            out.extend(granules.iter().map(|&g| (GranuleId(g), LockMode::X)));
            if let Discipline::Predeclared(_) = self.discipline {
                merge_by_supremum(out);
            }
            return Declared::default();
        };
        let level = h.tree.leaf_level();
        h.leaves.clear();
        h.leaves
            .extend(granules.iter().map(|&index| NodeId { level, index }));
        let escalations = escalate_predeclared_into(
            &h.tree,
            h.policy,
            &h.leaves,
            LockMode::X,
            &mut h.targets,
            &mut h.current,
            &mut h.promoted,
        );
        for &(node, mode) in &h.targets {
            h.tree.intent_chain_into(node, mode, out);
        }
        merge_by_supremum(out);
        let intents = out
            .iter()
            .filter(|(_, m)| matches!(m, LockMode::IS | LockMode::IX | LockMode::SIX))
            .count();
        Declared {
            escalations,
            intents: intents as u64,
        }
    }

    /// Pre-size the incremental discipline for the closed system `cfg`
    /// describes: `min(ntrans, mpl_limit)` bounds the concurrent
    /// transactions (only admitted ones reach the conflict model; a
    /// queued arrival is not yet drawn), and `min(size.max(), ltot)`
    /// bounds the locks each can hold — so the steady state stays
    /// allocation-free even when a record waiter count or holdings
    /// high-water mark first occurs deep into a run. The one exception is
    /// the waits-for graph's edge slab: its worst case is quadratic in
    /// the concurrent transactions, so it grows on demand
    /// (DESIGN.md §12). Worst-case provisioning only makes sense while the
    /// worst case is small: past a fixed budget (capacity-scale MPL
    /// sweeps) the slabs are left to warm lazily instead of eagerly
    /// committing hundreds of megabytes to records never reached.
    fn prewarm(&mut self, cfg: &ModelConfig) {
        /// Provisioned-entry ceiling above which eager warm-up is skipped.
        const BUDGET: usize = 1 << 20;
        let Discipline::Incremental(inc) = &mut self.discipline else {
            return;
        };
        let txns = cfg.mpl_limit.map_or(cfg.ntrans, |cap| cap.min(cfg.ntrans)) as usize;
        let per_txn = (cfg.size.max().min(cfg.ltot) as usize).max(1);
        let records = txns.saturating_mul(per_txn).saturating_add(txns);
        if records > BUDGET {
            return;
        }
        inc.scheduler.prewarm(txns, records);
        self.txns.reserve(txns);
        inc.effects.blockers.reserve(txns);
        inc.effects.victims.reserve(txns);
        inc.effects.granted.reserve(txns);
        self.released.reserve(txns);
        inc.aborted.reserve(txns);
        inc.woken.reserve(txns);
    }
}

/// The record of a registered slot.
fn record(txns: &mut [Option<Txn>], slot: TxnSerial) -> &mut Txn {
    match txns.get_mut(slot as usize).and_then(Option::as_mut) {
        Some(rec) => rec,
        None => unreachable!("no record for slot {slot}"),
    }
}

/// Record that `slot`'s next queued request was granted.
fn grant_next(txns: &mut [Option<Txn>], slot: TxnSerial) {
    let rec = record(txns, slot);
    rec.granted += 1;
    debug_assert!(rec.granted <= rec.request.len(), "granted past the request");
}

impl ConcurrencyControl for LockingCC {
    fn register_access(&mut self, rng: &mut SimRng, entities: u64, granules: &mut Vec<u64>) {
        self.sampler.sample_into(rng, entities, granules);
    }

    fn try_acquire(
        &mut self,
        txn: TxnSerial,
        locks: u64,
        granules: &[u64],
        _rng: &mut SimRng,
    ) -> ConflictDecision {
        // The first attempt registers the request list (and, for the
        // incremental discipline, a fresh age); wake-up retries and
        // deadlock replays resume the record.
        let at = txn as usize;
        let id = TxnId(txn);
        if self.txns.get(at).is_none_or(Option::is_none) {
            debug_assert_eq!(
                granules.len() as u64,
                locks,
                "granule set size disagrees with lock count"
            );
            // Room for the longest list the configuration can declare:
            // a hierarchy writes every target's whole intent chain before
            // the merge, one entry per tree level.
            let levels = self.hierarchy.as_ref().map_or(1, |h| h.tree.levels());
            let mut request = self.spare.pop().unwrap_or_default();
            request.reserve(self.sampler.max_locks as usize * levels);
            let declared = self.declare(granules, &mut request);
            if at >= self.txns.len() {
                self.txns.resize_with(at + 1, || None);
            }
            self.txns[at] = Some(Txn {
                request,
                granted: 0,
                declared,
            });
            if let Discipline::Incremental(inc) = &mut self.discipline {
                inc.scheduler.begin(id, inc.next_age);
                inc.next_age += 1;
            }
        }
        let decision = match &mut self.discipline {
            Discipline::Predeclared(s) => {
                let rec = record(&mut self.txns, txn);
                match s.request_all(id, &rec.request) {
                    ConservativeOutcome::Granted => {
                        rec.granted = rec.request.len();
                        self.stats.escalations += rec.declared.escalations;
                        self.stats.intent_locks += rec.declared.intents;
                        ConflictDecision::Granted
                    }
                    ConservativeOutcome::Blocked { blocker } => {
                        ConflictDecision::BlockedBy(blocker.0)
                    }
                }
            }
            Discipline::Incremental(inc) => loop {
                let rec = record(&mut self.txns, txn);
                let Some(&(granule, mode)) = rec.request.get(rec.granted) else {
                    break ConflictDecision::Granted;
                };
                match inc
                    .scheduler
                    .acquire_into(id, granule, mode, &mut inc.effects)
                {
                    AcquireStatus::Granted => rec.granted += 1,
                    AcquireStatus::Waiting => {
                        break ConflictDecision::BlockedBy(inc.effects.blockers[0].0)
                    }
                    AcquireStatus::Deadlock { retry } => {
                        self.stats.deadlocks += inc.effects.victims.len() as u64;
                        for &v in &inc.effects.victims {
                            // Its locks are gone; the replay re-locks the
                            // same request list under the same age.
                            debug_assert!(
                                !inc.scheduler.table().holds_or_awaits(v),
                                "aborted {v:?} still holds or awaits a lock"
                            );
                            record(&mut self.txns, v.0).granted = 0;
                            if v != id {
                                inc.aborted.push(v.0);
                            }
                        }
                        for &g in &inc.effects.granted {
                            grant_next(&mut self.txns, g.0);
                            inc.woken.push(g.0);
                        }
                        match retry {
                            RetryOutcome::SelfAborted => break ConflictDecision::Aborted,
                            RetryOutcome::Granted => grant_next(&mut self.txns, txn),
                            RetryOutcome::StillWaiting => {
                                #[expect(
                                    clippy::expect_used,
                                    reason = "under exclusive-only locking a queued request \
                                              always keeps at least one waits-for edge (see \
                                              TwoPhaseScheduler::blockers_of)"
                                )]
                                let blocker = inc
                                    .scheduler
                                    .blockers_of(id)
                                    .next()
                                    .expect("queued 2PL request with no waits-for edge");
                                break ConflictDecision::BlockedBy(blocker.0);
                            }
                        }
                    }
                }
            },
        };
        if decision == ConflictDecision::Granted {
            self.active += 1;
        }
        decision
    }

    fn release(&mut self, txn: TxnSerial, woken: &mut Vec<TxnSerial>) {
        let mut rec = match self.txns.get_mut(txn as usize).and_then(Option::take) {
            Some(rec) if rec.granted == rec.request.len() => rec,
            // Protocol invariant: the system releases only transactions
            // it admitted.
            _ => panic!("release of inactive transaction {txn}"),
        };
        self.active -= 1;
        rec.request.clear();
        self.spare.push(rec.request);
        let id = TxnId(txn);
        // A predeclared release only tells the woken to retry; an
        // incremental one grants each woken transaction's queued request.
        let grants = match &mut self.discipline {
            Discipline::Predeclared(s) => {
                s.release_into(id, &mut self.released);
                false
            }
            Discipline::Incremental(inc) => {
                inc.scheduler.release_into(id, &mut self.released);
                true
            }
        };
        debug_assert!(
            !self.discipline.table().holds_or_awaits(id),
            "released {id:?} still holds or awaits a lock"
        );
        for &t in &self.released {
            if grants {
                grant_next(&mut self.txns, t.0);
            }
            woken.push(t.0);
        }
    }

    fn drain_deadlock_effects(&mut self, aborted: &mut Vec<TxnSerial>, woken: &mut Vec<TxnSerial>) {
        if let Discipline::Incremental(inc) = &mut self.discipline {
            aborted.append(&mut inc.aborted);
            woken.append(&mut inc.woken);
        }
    }

    fn active_count(&self) -> usize {
        self.active
    }

    fn stats(&self) -> CcStats {
        self.stats
    }

    fn reset(&mut self, cfg: &ModelConfig) -> bool {
        let incremental = match cfg.conflict {
            ConflictMode::Probabilistic => return false,
            ConflictMode::Explicit | ConflictMode::Hierarchical => false,
            ConflictMode::Twophase => true,
        };
        // Reset-equals-fresh throughout: a scheduler that serves the new
        // preset, the record maps and the pooled request buffers all keep
        // their allocations.
        self.sampler = AccessSampler::from_config(cfg);
        self.hierarchy = (cfg.conflict == ConflictMode::Hierarchical)
            .then(|| Hierarchy::for_config(self.hierarchy.take(), cfg));
        match (&mut self.discipline, incremental) {
            (Discipline::Predeclared(s), false) => s.reset(),
            (Discipline::Incremental(inc), true) => {
                inc.scheduler.reset();
                inc.next_age = 0;
                inc.effects.clear();
                inc.aborted.clear();
                inc.woken.clear();
            }
            (_, false) => self.discipline = Discipline::Predeclared(Box::default()),
            (_, true) => self.discipline = Discipline::Incremental(Box::default()),
        }
        for rec in self.txns.iter_mut().filter_map(Option::take) {
            let mut buf = rec.request;
            buf.clear();
            self.spare.push(buf);
        }
        self.txns.clear();
        self.active = 0;
        self.stats = CcStats::default();
        self.released.clear();
        // The new configuration may raise the multiprogramming level:
        // re-provision for it (a no-op when capacity already suffices).
        self.prewarm(cfg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchySpec;
    use ConflictMode::{Explicit, Hierarchical, Twophase};

    /// Every preset of the engine.
    const PRESETS: [ConflictMode; 3] = [Explicit, Hierarchical, Twophase];

    /// 100 granules; in hierarchical mode, `areas` areas escalating at
    /// `threshold`.
    fn engine_with(mode: ConflictMode, areas: u64, threshold: Option<u64>) -> LockingCC {
        let cfg = ModelConfig::table1()
            .with_conflict(mode)
            .with_ltot(100)
            .with_hierarchy(Some(HierarchySpec {
                areas,
                escalation_threshold: threshold,
            }));
        LockingCC::new(&cfg)
    }

    /// The preset with 10 areas of 10 granules and no escalation.
    fn engine(mode: ConflictMode) -> LockingCC {
        engine_with(mode, 10, None)
    }

    fn rng() -> SimRng {
        SimRng::new(11)
    }

    fn acquire(m: &mut LockingCC, txn: TxnSerial, set: &[u64]) -> ConflictDecision {
        m.try_acquire(txn, set.len() as u64, set, &mut rng())
    }

    /// A retry or replay: the saved request list is used, so the slice is
    /// empty (and the lock count is ignored).
    fn retry(m: &mut LockingCC, txn: TxnSerial) -> ConflictDecision {
        m.try_acquire(txn, 0, &[], &mut rng())
    }

    /// Release into a dirty buffer: release must append, not replace.
    fn release(m: &mut LockingCC, txn: TxnSerial) -> Vec<TxnSerial> {
        let mut woken = vec![999];
        m.release(txn, &mut woken);
        assert_eq!(woken.remove(0), 999, "release cleared the caller's buffer");
        woken
    }

    fn drain(m: &mut LockingCC) -> (Vec<TxnSerial>, Vec<TxnSerial>) {
        let (mut a, mut w) = (Vec::new(), Vec::new());
        m.drain_deadlock_effects(&mut a, &mut w);
        (a, w)
    }

    use ConflictDecision::{Aborted, BlockedBy, Granted};

    #[test]
    fn disjoint_sets_admit_concurrently() {
        // Per preset: intention locks granted (database + area per grant
        // in the hierarchy; none in a flat table).
        for (mode, intents) in [(Explicit, 0), (Hierarchical, 4), (Twophase, 0)] {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted, "{mode:?}");
            assert_eq!(acquire(&mut m, 2, &[55, 56]), Granted, "{mode:?}");
            assert_eq!(m.active_count(), 2, "{mode:?}");
            let expected = CcStats {
                intent_locks: intents,
                ..CcStats::default()
            };
            assert_eq!(m.stats(), expected, "{mode:?}");
        }
    }

    #[test]
    fn overlapping_set_blocks_on_holder() {
        for mode in PRESETS {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
            assert_eq!(acquire(&mut m, 2, &[2, 3]), BlockedBy(1), "{mode:?}");
            // A blocked transaction is not active.
            assert_eq!(m.active_count(), 1, "{mode:?}");
        }
    }

    #[test]
    fn predeclared_blocked_holds_nothing_incremental_holds_its_prefix() {
        // Txn 2 declares [3, 2]: granule 2 is held by txn 1. Predeclared
        // takes nothing while blocked, so granule 3 stays free; incremental
        // claims 3 first and keeps it while it waits.
        for (mode, third) in [
            (Explicit, Granted),
            (Hierarchical, Granted),
            (Twophase, BlockedBy(2)),
        ] {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[2]), Granted);
            assert_eq!(acquire(&mut m, 2, &[3, 2]), BlockedBy(1), "{mode:?}");
            assert_eq!(acquire(&mut m, 3, &[3]), third, "{mode:?}");
        }
    }

    #[test]
    fn retry_replays_the_saved_request() {
        for mode in PRESETS {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[4]), Granted);
            assert_eq!(acquire(&mut m, 2, &[4, 5]), BlockedBy(1), "{mode:?}");
            assert_eq!(release(&mut m, 1), vec![2], "{mode:?}");
            assert_eq!(retry(&mut m, 2), Granted, "{mode:?}");
            // The replayed set is [4, 5], not the empty retry slice.
            assert_eq!(acquire(&mut m, 3, &[5]), BlockedBy(2), "{mode:?}");
        }
    }

    /// The flat predeclared record is sorted once, at the first attempt,
    /// so the scheduler probes it as it is on every retry; the incremental
    /// record keeps the sampled order, which is its claim order.
    #[test]
    fn flat_predeclared_record_is_sorted_at_the_first_attempt() {
        let sampled = [7, 3, 9, 1, 5];
        for (mode, expected) in [(Explicit, [1, 3, 5, 7, 9]), (Twophase, sampled)] {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[9]), Granted);
            assert_eq!(acquire(&mut m, 2, &sampled), BlockedBy(1), "{mode:?}");
            let request = &record(&mut m.txns, 2).request;
            let order: Vec<u64> = request.iter().map(|&(g, _)| g.0).collect();
            assert_eq!(order, expected, "{mode:?}");
            assert!(request.iter().all(|&(_, lm)| lm == LockMode::X), "{mode:?}");
        }
    }

    #[test]
    fn release_wakes_dependents_in_block_order() {
        for mode in PRESETS {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
            assert_eq!(acquire(&mut m, 3, &[1]), BlockedBy(1));
            assert_eq!(acquire(&mut m, 2, &[0]), BlockedBy(1));
            let expected: &[TxnSerial] = match mode {
                // The conservative scheduler wakes in block order; the
                // incremental one grants in the holder's lock order.
                Twophase => &[2, 3],
                _ => &[3, 2],
            };
            assert_eq!(release(&mut m, 1), expected, "{mode:?}");
            assert_eq!(m.active_count(), 0, "{mode:?}");
        }
    }

    #[test]
    fn whole_database_lock_serializes() {
        for mode in PRESETS {
            let mut m = engine(mode);
            assert_eq!(acquire(&mut m, 1, &[0]), Granted);
            for t in 2..10 {
                assert_eq!(acquire(&mut m, t, &[0]), BlockedBy(1), "{mode:?}");
            }
            // Predeclared wakes every waiter to retry; incremental grants
            // the queue head, and the rest now wait on it.
            let woken = release(&mut m, 1);
            match mode {
                Twophase => assert_eq!(woken, vec![2]),
                _ => assert_eq!(woken, (2..10).collect::<Vec<_>>(), "{mode:?}"),
            }
        }
    }

    #[test]
    fn zero_lock_transactions_are_granted_immediately() {
        // Even whole-database escalation locks nothing for an empty set.
        for (mode, threshold) in [(Explicit, None), (Hierarchical, Some(1)), (Twophase, None)] {
            let mut m = engine_with(mode, 10, threshold);
            assert_eq!(acquire(&mut m, 1, &[]), Granted, "{mode:?}");
            assert_eq!(acquire(&mut m, 2, &[]), Granted, "{mode:?}");
            assert_eq!(m.active_count(), 2, "{mode:?}");
            assert!(release(&mut m, 1).is_empty());
            assert_eq!(m.active_count(), 1, "{mode:?}");
        }
    }

    #[test]
    fn release_of_inactive_transaction_panics() {
        for mode in PRESETS {
            for blocked in [false, true] {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut m = engine(mode);
                    if blocked {
                        let _ = acquire(&mut m, 1, &[0]);
                        let _ = acquire(&mut m, 2, &[0]);
                    }
                    m.release(2, &mut Vec::new());
                }));
                let err = outcome.expect_err("release of an inactive transaction returned");
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("release of inactive"), "{mode:?}: {msg}");
            }
        }
    }

    #[test]
    fn never_escalating_hierarchy_matches_explicit_decisions() {
        // Same request stream through both presets: with threshold = None
        // intention locks never conflict, so every decision (and wake
        // order) must agree with the flat table.
        let sets: &[&[u64]] = &[
            &[0, 1, 2],
            &[2, 3],
            &[50, 51],
            &[1],
            &[99],
            &[10, 20, 30, 40],
        ];
        let mut h = engine_with(Hierarchical, 16, None);
        let mut e = engine(Explicit);
        for (txn, set) in sets.iter().enumerate() {
            let txn = txn as u64;
            assert_eq!(
                acquire(&mut h, txn, set),
                acquire(&mut e, txn, set),
                "txn {txn}"
            );
        }
        // Drain the admitted transactions; wake lists must agree too.
        for txn in [0, 2, 5] {
            assert_eq!(release(&mut h, txn), release(&mut e, txn), "txn {txn}");
        }
        assert_eq!(h.stats().escalations, 0);
    }

    #[test]
    fn threshold_one_serializes_everything() {
        // Immediate escalation: every non-empty request is an X on the
        // database root, so even disjoint granule sets serialize.
        let mut m = engine_with(Hierarchical, 10, Some(1));
        assert_eq!(acquire(&mut m, 1, &[0]), Granted);
        assert_eq!(acquire(&mut m, 2, &[99]), BlockedBy(1));
        assert_eq!(m.stats().escalations, 2, "area 0, then the database");
        assert_eq!(m.stats().intent_locks, 0, "a root X needs no intents");
    }

    #[test]
    fn escalation_covers_undeclared_granules_in_the_area() {
        // Area size 10, threshold 3: declaring granules 0..3 escalates to
        // the whole area, so granule 9 (undeclared) is covered too.
        let mut m = engine_with(Hierarchical, 10, Some(3));
        assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
        assert_eq!(m.stats().escalations, 1);
        assert_eq!(m.stats().intent_locks, 1, "IX on the database only");
        assert_eq!(
            acquire(&mut m, 2, &[9]),
            BlockedBy(1),
            "area lock must cover undeclared granule 9"
        );
        // A different area stays available.
        assert_eq!(acquire(&mut m, 3, &[10]), Granted);
        // Escalations are counted at grant, not at each blocked attempt.
        assert_eq!(acquire(&mut m, 4, &[3, 4, 5]), BlockedBy(1));
        assert_eq!(m.stats().escalations, 1);
    }

    #[test]
    fn hierarchy_follows_the_configured_areas() {
        // 100 granules in 4 areas of 25: escalating granules 0 and 1
        // covers granule 24 but not 25.
        let mut m = engine_with(Hierarchical, 4, Some(2));
        assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
        assert_eq!(acquire(&mut m, 2, &[24]), BlockedBy(1));
        assert_eq!(acquire(&mut m, 3, &[25]), Granted);
    }

    /// Full deadlock lifecycle where the *other* transaction is youngest:
    /// the requester's re-acquire closes the cycle, the victim's slot
    /// lands in the abort effects, and the victim replays its saved set.
    #[test]
    fn deadlock_aborts_youngest_and_requester_proceeds() {
        let mut m = engine(Twophase);
        // Ages: slot 10 = age 0, slot 11 = age 1, slot 12 = age 2.
        assert_eq!(acquire(&mut m, 10, &[9]), Granted);
        // Holds g0, waits g9 on slot 10.
        assert_eq!(acquire(&mut m, 11, &[0, 9, 1]), BlockedBy(10));
        // Holds g1, waits g0 on slot 11.
        assert_eq!(acquire(&mut m, 12, &[1, 0]), BlockedBy(11));
        // Releasing slot 10 grants g9; the retry then queues on g1 held
        // by slot 12, closing 11 -> 12 -> 11. Slot 12 (youngest) aborts,
        // freeing g1 for the requester: the retry is granted.
        assert_eq!(release(&mut m, 10), vec![11]);
        assert_eq!(retry(&mut m, 11), Granted);
        assert_eq!(m.stats().deadlocks, 1);
        assert_eq!(drain(&mut m), (vec![12], vec![]));
        // A second drain is empty — effects are consumed.
        assert_eq!(drain(&mut m), (vec![], vec![]));
        // The victim replays its saved [1, 0] set and queues behind the
        // requester, which now holds g1.
        assert_eq!(retry(&mut m, 12), BlockedBy(11));
        assert_eq!(release(&mut m, 11), vec![12]);
        assert_eq!(retry(&mut m, 12), Granted);
        assert_eq!(m.active_count(), 1);
    }

    /// Deadlock where the requester itself is youngest: `try_acquire`
    /// reports `Aborted`, and the third party granted by the abort lands
    /// in the wake effects.
    #[test]
    fn self_abort_reports_aborted_and_wakes_third_party() {
        let mut m = engine(Twophase);
        // Ages: slot 1 = age 0, slot 2 = age 1, slot 3 = age 2, slot 4 = age 3.
        assert_eq!(acquire(&mut m, 1, &[0]), Granted);
        assert_eq!(acquire(&mut m, 2, &[9]), Granted);
        // Holds g1, waits g0 on slot 1.
        assert_eq!(acquire(&mut m, 3, &[1, 0, 5]), BlockedBy(1));
        // Holds g5, waits g9 on slot 2. Youngest of the future cycle.
        assert_eq!(acquire(&mut m, 4, &[5, 9, 1]), BlockedBy(2));
        // Slot 1 releases g0: slot 3's retry advances to g5, held by
        // slot 4 — waits (no cycle yet: 4 waits on 2).
        assert_eq!(release(&mut m, 1), vec![3]);
        assert_eq!(retry(&mut m, 3), BlockedBy(4));
        // Slot 2 releases g9: slot 4's retry advances to g1, held by
        // slot 3 — cycle 3 -> 4 -> 3, youngest is the requester (slot 4).
        // Its abort frees g5, granting slot 3's queued request.
        assert_eq!(release(&mut m, 2), vec![4]);
        assert_eq!(retry(&mut m, 4), Aborted);
        assert_eq!(m.stats().deadlocks, 1);
        // Self-abort is the return value, not an effect.
        assert_eq!(drain(&mut m), (vec![], vec![3]));
        // The woken transaction finishes its set; the victim replays.
        assert_eq!(retry(&mut m, 3), Granted);
        assert_eq!(retry(&mut m, 4), BlockedBy(3));
        assert_eq!(release(&mut m, 3), vec![4]);
        assert_eq!(retry(&mut m, 4), Granted);
        assert_eq!(m.active_count(), 1);
    }

    /// Victim selection uses registration age, not slot numbers: the
    /// youngest transaction aborts even when it lives in the lowest slot
    /// (slots recycle in the simulator).
    #[test]
    fn victim_age_is_registration_order_not_slot_number() {
        let mut m = engine(Twophase);
        // Highest slot registers first (oldest), lowest slot last.
        assert_eq!(acquire(&mut m, 90, &[9]), Granted);
        assert_eq!(acquire(&mut m, 70, &[0, 9, 1]), BlockedBy(90));
        assert_eq!(acquire(&mut m, 5, &[1, 0]), BlockedBy(70));
        assert_eq!(release(&mut m, 90), vec![70]);
        assert_eq!(retry(&mut m, 70), Granted);
        assert_eq!(drain(&mut m).0, vec![5], "youngest by age, lowest by slot");
    }

    /// What the lock stack keeps for `slot`: whether it holds or awaits a
    /// lock, the transaction it is blocked on or waits for first, how many
    /// transactions wait on it (whether any do, under the incremental
    /// discipline), and its age (incremental only).
    fn kept(m: &LockingCC, slot: TxnSerial) -> (bool, Option<TxnId>, usize, Option<u64>) {
        let id = TxnId(slot);
        let held = m.discipline.table().holds_or_awaits(id);
        match &m.discipline {
            Discipline::Predeclared(s) => (held, s.blocker_of(id), s.waiters_of(id).count(), None),
            Discipline::Incremental(inc) => {
                let s = &inc.scheduler;
                let waiters = usize::from(s.graph().has_waiters(id));
                (held, s.blockers_of(id).next(), waiters, s.graph().age(id))
            }
        }
    }

    /// A released slot is reused clean under every preset: its next
    /// transaction inherits no holdings, waits, blocked-on entry, waiters
    /// or age from the last one, and under the incremental discipline it
    /// is the youngest, so it is the victim of the cycle it closes.
    #[test]
    fn released_slot_is_reused_clean() {
        for mode in PRESETS {
            let mut m = engine(mode);
            // Slot 1 blocks on slot 3, runs, and is waited on by slot 2.
            assert_eq!(acquire(&mut m, 3, &[5]), Granted);
            assert_eq!(acquire(&mut m, 1, &[1, 5]), BlockedBy(3), "{mode:?}");
            assert_eq!(release(&mut m, 3), vec![1], "{mode:?}");
            assert_eq!(retry(&mut m, 1), Granted, "{mode:?}");
            assert_eq!(acquire(&mut m, 2, &[1, 2]), BlockedBy(1), "{mode:?}");
            let age = (mode == Twophase).then_some(1);
            assert_eq!(kept(&m, 1), (true, None, 1, age), "{mode:?}");
            assert_eq!(release(&mut m, 1), vec![2], "{mode:?}");
            assert_eq!(kept(&m, 1), (false, None, 0, None), "{mode:?}");
            // Its next transaction starts from nothing and takes the next
            // age.
            assert_eq!(retry(&mut m, 2), Granted, "{mode:?}");
            assert_eq!(acquire(&mut m, 1, &[7]), Granted, "{mode:?}");
            let age = (mode == Twophase).then_some(3);
            assert_eq!(kept(&m, 1), (true, None, 0, age), "{mode:?}");
            assert!(release(&mut m, 1).is_empty(), "{mode:?}");
        }
        // The reused slot's transaction is younger than slot 2's, which
        // was seated before it: it is the victim of their cycle.
        let mut m = engine(Twophase);
        assert_eq!(acquire(&mut m, 3, &[3]), Granted);
        assert_eq!(acquire(&mut m, 1, &[0]), Granted);
        assert_eq!(acquire(&mut m, 2, &[1, 3, 2]), BlockedBy(3));
        assert!(release(&mut m, 1).is_empty());
        assert_eq!(acquire(&mut m, 1, &[2, 1]), BlockedBy(2));
        assert_eq!(release(&mut m, 3), vec![2]);
        assert_eq!(retry(&mut m, 2), Granted);
        assert_eq!(
            drain(&mut m),
            (vec![1], vec![]),
            "the reused slot is youngest"
        );
    }

    /// Drive a preset through a contended history and return every
    /// observable: decisions, wake lists, effects and stats.
    fn history(m: &mut LockingCC) -> String {
        let mut log = Vec::new();
        log.push(format!("{:?}", acquire(m, 10, &[9])));
        log.push(format!("{:?}", acquire(m, 11, &[0, 9, 1])));
        log.push(format!("{:?}", acquire(m, 12, &[1, 0])));
        log.push(format!("{:?}", release(m, 10)));
        log.push(format!("{:?}", retry(m, 11)));
        log.push(format!("{:?}", drain(m)));
        log.push(format!("{:?}", acquire(m, 13, &[20, 21, 22, 35])));
        log.push(format!("{:?} {:?}", m.active_count(), m.stats()));
        log.join(" ")
    }

    #[test]
    fn reset_crosses_presets_in_place_and_equals_fresh() {
        let mut m = engine(Twophase);
        let cfg = |mode| {
            ModelConfig::table1()
                .with_conflict(mode)
                .with_ltot(100)
                .with_hierarchy(Some(HierarchySpec {
                    areas: 10,
                    escalation_threshold: Some(3),
                }))
        };
        // Leave state behind (a broken deadlock with pending effects),
        // then walk every preset pair through one instance.
        let _ = history(&mut m);
        for mode in [
            Explicit,
            Hierarchical,
            Hierarchical,
            Twophase,
            Explicit,
            Twophase,
        ] {
            assert!(m.reset(&cfg(mode)), "{mode:?}");
            assert_eq!(m.active_count(), 0);
            assert_eq!(m.stats(), CcStats::default());
            assert_eq!(drain(&mut m), (vec![], vec![]));
            let fresh = history(&mut LockingCC::new(&cfg(mode)));
            assert_eq!(history(&mut m), fresh, "{mode:?}");
        }
        // The probabilistic model forces a rebuild.
        assert!(!m.reset(&ModelConfig::table1()));
    }
}
