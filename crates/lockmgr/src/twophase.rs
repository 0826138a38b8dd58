//! Incremental two-phase locking with deadlock detection (extension).
//!
//! The paper restricts itself to conservative locking (and cites Ries &
//! Stonebraker's finding that "claim as needed" did not change the
//! conclusions). This module implements the claim-as-needed protocol so
//! that claim can be re-examined: locks are acquired one at a time as the
//! transaction touches granules, conflicts enqueue in the lock table, a
//! waits-for graph is maintained, and any cycle is broken by aborting the
//! **youngest** transaction on it (fewest locks invested is a common
//! alternative; youngest-aborts gives deterministic, starvation-resistant
//! behaviour). Transactions are named by their slot ([`TxnId`]); their
//! ages come separately, through [`TwoPhaseScheduler::begin`].
//!
//! The entry points [`TwoPhaseScheduler::acquire_into`],
//! [`TwoPhaseScheduler::release_into`] and
//! [`TwoPhaseScheduler::abort_into`] report side effects through
//! caller-owned [`AcquireEffects`]/`Vec` buffers and allocate nothing once
//! warm.

use crate::deadlock::WaitsForGraph;
use crate::mode::LockMode;
use crate::table::{GranuleId, LockTable, TxnId};

/// Outcome of an incremental lock acquisition
/// ([`TwoPhaseScheduler::acquire_into`]); the lists that go with it land
/// in the caller's [`AcquireEffects`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a request that is not granted waits or was aborted"]
pub enum AcquireStatus {
    /// Lock held; proceed. (`effects` untouched beyond the initial clear.)
    Granted,
    /// Queued; `effects.blockers` lists the transactions waited on. The
    /// transaction must wait for a release that grants it.
    Waiting,
    /// Granting would deadlock. One request can close several cycles at
    /// once (every pre-existing inbound edge to the requester is a
    /// potential return path), so victims are aborted — youngest on the
    /// detected cycle first — until the graph is acyclic again; each has
    /// all its locks released and its waits cancelled. `effects.victims`
    /// lists them in abort order (never empty), and `effects.granted`
    /// the *other* transactions granted as a side effect. The
    /// requester's queued request is re-evaluated against the post-abort
    /// table and reported in `retry`; if the requester is among the
    /// victims the caller must restart it.
    Deadlock {
        /// Post-abort status of the requester's queued request.
        retry: RetryOutcome,
    },
}

/// Caller-owned side-effect buffers for
/// [`TwoPhaseScheduler::acquire_into`]. Reusing one across calls makes
/// the steady-state acquire path allocation-free.
#[derive(Default, Debug)]
pub struct AcquireEffects {
    /// Transactions the queued request waits on (Waiting).
    pub blockers: Vec<TxnId>,
    /// Aborted transactions, youngest-per-cycle in abort order (Deadlock).
    pub victims: Vec<TxnId>,
    /// Third parties granted by the aborts (Deadlock).
    pub granted: Vec<TxnId>,
}

impl AcquireEffects {
    /// Empty all three lists (capacity retained).
    pub fn clear(&mut self) {
        self.blockers.clear();
        self.victims.clear();
        self.granted.clear();
    }
}

/// Post-abort status of the requester whose acquire detected a deadlock
/// (see [`AcquireStatus::Deadlock`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryOutcome {
    /// The requester itself was the victim: its locks were released and
    /// its request cancelled; the caller must restart the transaction.
    SelfAborted,
    /// Aborting the victim freed the requested lock; the requester holds
    /// it now and may proceed.
    Granted,
    /// The requester remains queued behind the surviving holders.
    StillWaiting,
}

/// Claim-as-needed two-phase locking scheduler.
#[derive(Default, Debug)]
pub struct TwoPhaseScheduler {
    table: LockTable,
    graph: WaitsForGraph,
    /// The request each transaction slot has queued in the table, if any.
    waiting: Vec<Option<(GranuleId, LockMode)>>,
    /// Scratch: promotion sink shared by the release/abort paths.
    promote_scratch: Vec<(TxnId, GranuleId, LockMode)>,
}

impl TwoPhaseScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the lock table, the waits-for graph and the promotion
    /// scratch for `txns` concurrent transactions holding or awaiting up
    /// to `records` lock requests in total, so a closed system running at
    /// that multiprogramming level never allocates on the
    /// acquire/release/abort paths — not even when a record waiter count
    /// first occurs deep into a run. The per-slot vectors grow at
    /// [`Self::begin`], off those paths, when a slot is first seated.
    /// Skip the call when the worst case is too large to provision
    /// eagerly.
    pub fn prewarm(&mut self, txns: usize, records: usize) {
        self.table.prewarm(txns, records);
        self.graph.prewarm(txns);
        self.promote_scratch.reserve(txns);
    }

    /// Drop all scheduler and table state but keep the allocations
    /// (reset-equals-fresh).
    pub fn reset(&mut self) {
        self.table.reset();
        self.graph.clear();
        self.waiting.clear();
        self.promote_scratch.clear();
    }

    /// Seat a new transaction of `age` in slot `txn`, before its first
    /// acquire. The slot's previous transaction must have released (or
    /// the slot be new). A larger age is younger; the ages of the
    /// transactions seated at once must be distinct. An aborted
    /// transaction keeps its slot and age: it is not begun again. A
    /// release ends the seat.
    pub fn begin(&mut self, txn: TxnId, age: u64) {
        debug_assert!(
            !self.table.holds_or_awaits(txn) && !self.is_waiting(txn),
            "{txn:?} seated while its slot still holds or awaits a lock"
        );
        if txn.index() >= self.waiting.len() {
            self.waiting.resize(txn.index() + 1, None);
        }
        self.graph.begin(txn, age);
    }

    /// Acquire one lock for `txn`, reporting side effects through the
    /// caller's reusable `effects` buffers (cleared first). If a deadlock
    /// would result, the youngest (largest-age) transaction on each cycle
    /// is aborted until no cycle remains.
    ///
    /// # Panics
    /// Panics if `txn` is already waiting for a lock (a transaction is a
    /// single thread of control: it cannot issue a second request while
    /// blocked), or if its slot was never seated ([`Self::begin`]; debug
    /// builds also check a slot that was, and was released since).
    pub fn acquire_into(
        &mut self,
        txn: TxnId,
        granule: GranuleId,
        mode: LockMode,
        effects: &mut AcquireEffects,
    ) -> AcquireStatus {
        effects.clear();
        assert!(
            !self.is_waiting(txn),
            "{txn:?} issued a request while already waiting"
        );
        debug_assert!(
            self.graph.age(txn).is_some(),
            "{txn:?} acquired before begin"
        );
        if self
            .table
            .lock_into(txn, granule, mode, &mut effects.blockers)
        {
            return AcquireStatus::Granted;
        }
        self.waiting[txn.index()] = Some((granule, mode));
        self.graph.add_waits(txn, &effects.blockers);
        // The graph is acyclic between acquires: edges are only ever added
        // out of the requester, and the loop below runs until no cycle
        // through it remains. So a new cycle must enter `txn`, and without
        // a waiter on `txn` there is nothing to search for.
        if !self.graph.has_waiters(txn) {
            debug_assert!(
                self.graph.find_cycle_from(txn).is_none(),
                "cycle through {txn:?}, which nobody waits on"
            );
            return AcquireStatus::Waiting;
        }
        // One request can close several cycles at once (the new edges meet
        // every pre-existing inbound edge to `txn`), and aborting one
        // victim only breaks the cycles it lies on — so detect and abort
        // until no cycle through `txn` remains. The loop terminates: every
        // abort removes a node from the graph, and once `txn` stops
        // waiting (it was granted or aborted) it has no outgoing edges
        // left.
        while let Some(victim) = self.graph.victim_from(txn) {
            self.abort_collect(victim, &mut effects.granted);
            effects.victims.push(victim);
        }
        if effects.victims.is_empty() {
            AcquireStatus::Waiting
        } else {
            // Re-evaluate the requester's queued request against the
            // post-abort table: the aborts may have promoted it (reported
            // as `retry`, not as a side effect), left it queued, or
            // cancelled it outright.
            let retry = if effects.victims.contains(&txn) {
                RetryOutcome::SelfAborted
            } else if let Some(pos) = effects.granted.iter().position(|g| *g == txn) {
                effects.granted.remove(pos);
                RetryOutcome::Granted
            } else {
                debug_assert!(self.is_waiting(txn));
                RetryOutcome::StillWaiting
            };
            AcquireStatus::Deadlock { retry }
        }
    }

    /// Abort `victim`: drop its locks and queued request, grant whatever
    /// becomes available, and append the transactions granted as a result
    /// to `granted` (cleared first). The victim keeps its slot and age.
    pub fn abort_into(&mut self, victim: TxnId, granted: &mut Vec<TxnId>) {
        granted.clear();
        self.abort_collect(victim, granted);
    }

    /// Abort `victim`, appending (not clearing) grants — the deadlock
    /// loop accumulates across several victims.
    fn abort_collect(&mut self, victim: TxnId, granted: &mut Vec<TxnId>) {
        if let Some(w) = self.waiting.get_mut(victim.index()) {
            *w = None;
        }
        self.graph.remove_txn(victim);
        let mut promoted = std::mem::take(&mut self.promote_scratch);
        self.table.release_all_into(victim, &mut promoted);
        self.note_grants(&promoted, granted);
        self.promote_scratch = promoted;
    }

    /// Commit `txn`: release all its locks and append the transactions
    /// granted as a result to `granted` (cleared first) — their acquire
    /// has now succeeded; callers resume them.
    pub fn release_into(&mut self, txn: TxnId, granted: &mut Vec<TxnId>) {
        granted.clear();
        debug_assert!(!self.is_waiting(txn), "{txn:?} released while waiting");
        self.graph.end(txn);
        let mut promoted = std::mem::take(&mut self.promote_scratch);
        self.table.release_all_into(txn, &mut promoted);
        self.note_grants(&promoted, granted);
        self.promote_scratch = promoted;
    }

    fn note_grants(&mut self, promoted: &[(TxnId, GranuleId, LockMode)], granted: &mut Vec<TxnId>) {
        for (t, g, m) in promoted {
            if let Some((wg, wm)) = self.waiting[t.index()].take() {
                debug_assert_eq!(wg, *g, "{t:?} granted a granule it was not waiting for");
                debug_assert_eq!(
                    wm.supremum(*m),
                    *m,
                    "{t:?} granted {m} which does not cover the waited-for {wm}"
                );
                // Only the satisfied wait's outgoing edges go away.
                // Inbound edges from transactions queued behind `t` stay:
                // they now wait on a *holder*, and deleting them (the old
                // `remove_txn` behaviour) made later cycles through `t`
                // invisible to the detector.
                self.graph.remove_outgoing(*t);
                granted.push(*t);
            }
        }
    }

    /// Is `txn` currently queued for a lock?
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.waiting.get(txn.index()).is_some_and(Option::is_some)
    }

    /// Transactions `txn`'s queued request currently waits on (the
    /// waits-for edges out of `txn`); empty when `txn` is not waiting.
    /// Under exclusive-only locking a queued request always has at least
    /// one edge — every earlier waiter and every holder conflicts with
    /// it, so its recorded blockers cannot all disappear while it stays
    /// queued.
    pub fn blockers_of(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        self.graph.waits_on(txn)
    }

    /// Access the underlying lock table.
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// Access the waits-for graph.
    pub fn graph(&self) -> &WaitsForGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AcquireStatus::{Deadlock, Granted, Waiting};
    use LockMode::{S, X};

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }
    fn g(n: u64) -> GranuleId {
        GranuleId(n)
    }

    /// A scheduler with slots `0..n` seated, each aged by its slot number.
    fn seated(n: u64) -> TwoPhaseScheduler {
        let mut s = TwoPhaseScheduler::new();
        for i in 0..n {
            s.begin(t(i), i);
        }
        s
    }

    /// One acquire with fresh effect buffers.
    fn acq(
        s: &mut TwoPhaseScheduler,
        txn: u64,
        granule: u64,
        mode: LockMode,
    ) -> (AcquireStatus, AcquireEffects) {
        let mut fx = AcquireEffects::default();
        let status = s.acquire_into(t(txn), g(granule), mode, &mut fx);
        (status, fx)
    }

    /// Release into a dirty buffer (the scheduler must clear it first).
    fn release(s: &mut TwoPhaseScheduler, txn: u64) -> Vec<TxnId> {
        let mut granted = vec![t(99)];
        s.release_into(t(txn), &mut granted);
        granted
    }

    fn holds_nothing(s: &TwoPhaseScheduler, txn: TxnId) -> bool {
        s.table().holdings(txn).next().is_none()
    }

    #[test]
    fn grant_wait_release_cycle() {
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 1, 0, X).0, Granted);
        let (status, fx) = acq(&mut s, 2, 0, X);
        assert_eq!(status, Waiting);
        assert_eq!(fx.blockers, vec![t(1)]);
        assert!(s.is_waiting(t(2)));
        assert_eq!(release(&mut s, 1), vec![t(2)]);
        assert!(!s.is_waiting(t(2)));
        assert_eq!(s.table().held_mode(t(2), g(0)), Some(X));
    }

    #[test]
    fn classic_two_transaction_deadlock_aborts_youngest() {
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 1, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 2, 1, X).0, Granted);
        assert_eq!(acq(&mut s, 1, 1, X).0, Waiting);
        // t2 closing the cycle: youngest (t2) is the victim.
        let (status, fx) = acq(&mut s, 2, 0, X);
        assert_eq!(
            status,
            Deadlock {
                retry: RetryOutcome::SelfAborted
            }
        );
        assert_eq!(fx.victims, vec![t(2)]);
        // Aborting t2 frees g1, granting t1's queued request.
        assert_eq!(fx.granted, vec![t(1)]);
        assert_eq!(s.table().held_mode(t(1), g(1)), Some(X));
        assert!(holds_nothing(&s, t(2)));
    }

    /// The victim is the youngest by age, not the highest slot: slot 0
    /// holds the youngest transaction of the 2-cycle, and the older one
    /// in slot 3 closes it and is granted.
    #[test]
    fn youngest_in_a_low_slot_is_the_victim() {
        let mut s = TwoPhaseScheduler::new();
        s.begin(t(3), 10);
        s.begin(t(0), 11);
        assert_eq!(acq(&mut s, 3, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 0, 1, X).0, Granted);
        assert_eq!(acq(&mut s, 0, 0, X).0, Waiting);
        let (status, fx) = acq(&mut s, 3, 1, X);
        assert_eq!(
            status,
            Deadlock {
                retry: RetryOutcome::Granted
            }
        );
        assert_eq!(fx.victims, vec![t(0)]);
        assert!(holds_nothing(&s, t(0)));
        assert_eq!(s.graph().age(t(0)), Some(11), "the victim keeps its age");
        // Reseated after a release, slot 0 is older than slot 3's next
        // transaction.
        release(&mut s, 3);
        s.begin(t(0), 12);
        s.begin(t(3), 13);
        assert_eq!(acq(&mut s, 0, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 3, 1, X).0, Granted);
        assert_eq!(acq(&mut s, 0, 1, X).0, Waiting);
        let (status, fx) = acq(&mut s, 3, 0, X);
        assert_eq!(
            status,
            Deadlock {
                retry: RetryOutcome::SelfAborted
            }
        );
        assert_eq!(fx.victims, vec![t(3)]);
    }

    #[test]
    fn three_way_deadlock_detected() {
        let mut s = seated(4);
        for i in 0..3u64 {
            assert_eq!(acq(&mut s, i + 1, i, X).0, Granted);
        }
        assert_eq!(acq(&mut s, 1, 1, X).0, Waiting);
        assert_eq!(acq(&mut s, 2, 2, X).0, Waiting);
        let (status, fx) = acq(&mut s, 3, 0, X);
        assert!(matches!(status, Deadlock { .. }), "{status:?}");
        assert_eq!(fx.victims, vec![t(3)]);
    }

    #[test]
    fn grant_preserves_inbound_edges_for_later_cycle() {
        // Regression for the `note_grants` waits-for maintenance bug:
        // granting T2 used `remove_txn`, which also deleted the inbound
        // edge from T3 still queued behind it, so the cycle closed below
        // went undetected (a permanent, silent deadlock).
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 3, 2, X).0, Granted);
        assert_eq!(acq(&mut s, 1, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 2, 0, X).0, Waiting);
        // T3 queues behind T2 on g0: edge T3 -> T2.
        assert_eq!(acq(&mut s, 3, 0, X).0, Waiting);
        // T1's release grants T2. T3 now waits on the *holder* T2 — that
        // edge must survive the grant.
        assert_eq!(release(&mut s, 1), vec![t(2)]);
        assert!(s.is_waiting(t(3)));
        // A new T1, seated with the oldest age again, queues on g2 behind
        // T3: edge T1 -> T3.
        s.begin(t(1), 1);
        assert_eq!(acq(&mut s, 1, 2, X).0, Waiting);
        // T2 requests g2, closing T2 -> T1 -> T3 -> T2. Detectable only
        // through the preserved T3 -> T2 edge.
        let (status, fx) = acq(&mut s, 2, 2, X);
        assert_eq!(
            status,
            Deadlock {
                retry: RetryOutcome::StillWaiting
            },
            "cycle through the granted txn went undetected"
        );
        assert_eq!(fx.victims, vec![t(3)]);
        // Aborting T3 frees g2; the earlier waiter T1 is granted, and T2
        // stays queued on g2 behind it.
        assert_eq!(fx.granted, vec![t(1)]);
        assert_eq!(s.table().held_mode(t(1), g(2)), Some(X));
        assert!(s.is_waiting(t(2)));
        assert!(!s.is_waiting(t(3)));
    }

    #[test]
    fn non_self_victim_grants_requester_on_retry() {
        // The requester closes the cycle but an *older* id means the other
        // transaction is the victim; the re-evaluated request is granted.
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 1, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 2, 1, X).0, Granted);
        assert_eq!(acq(&mut s, 2, 0, X).0, Waiting);
        let (status, fx) = acq(&mut s, 1, 1, X);
        assert_eq!(
            status,
            Deadlock {
                retry: RetryOutcome::Granted
            }
        );
        assert_eq!(fx.victims, vec![t(2)]);
        // The requester's own grant is reported via `retry`, not in the
        // side-effect list.
        assert!(fx.granted.is_empty());
        assert_eq!(s.table().held_mode(t(1), g(1)), Some(X));
        assert!(!s.is_waiting(t(1)));
        assert!(holds_nothing(&s, t(2)));
    }

    #[test]
    fn readers_do_not_deadlock() {
        let mut s = seated(4);
        for (txn, granule) in [(1, 0), (2, 1), (1, 1), (2, 0)] {
            let (status, fx) = acq(&mut s, txn, granule, S);
            assert_eq!(status, Granted);
            assert!(fx.victims.is_empty());
        }
    }

    #[test]
    fn upgrade_deadlock_is_broken() {
        // Both read the same granule, both try to upgrade: a classic
        // conversion deadlock.
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 1, 0, S).0, Granted);
        assert_eq!(acq(&mut s, 2, 0, S).0, Granted);
        assert_eq!(acq(&mut s, 1, 0, X).0, Waiting);
        let (status, fx) = acq(&mut s, 2, 0, X);
        assert_eq!(
            status,
            Deadlock {
                retry: RetryOutcome::SelfAborted
            }
        );
        assert_eq!(fx.victims, vec![t(2)]);
        assert_eq!(fx.granted, vec![t(1)]);
        assert_eq!(s.table().held_mode(t(1), g(0)), Some(X));
    }

    #[test]
    fn release_grants_batch_of_readers() {
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 1, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 2, 0, S).0, Waiting);
        assert_eq!(acq(&mut s, 3, 0, S).0, Waiting);
        assert_eq!(release(&mut s, 1), vec![t(2), t(3)]);
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let mut s = seated(4);
        assert_eq!(acq(&mut s, 1, 0, X).0, Granted);
        assert_eq!(acq(&mut s, 2, 0, X).0, Waiting);
        s.reset();
        assert!(!s.is_waiting(t(2)));
        assert_eq!(s.blockers_of(t(2)).count(), 0);
        assert_eq!(s.graph().age(t(2)), None, "a reset forgets every age");
        s.begin(t(2), 0);
        assert_eq!(acq(&mut s, 2, 0, X).0, Granted);
        assert_eq!(s.table().held_mode(t(2), g(0)), Some(X));
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn request_while_waiting_panics() {
        let mut s = seated(4);
        let _ = acq(&mut s, 1, 0, X);
        let _ = acq(&mut s, 2, 0, X);
        let _ = acq(&mut s, 2, 1, X);
    }
}
