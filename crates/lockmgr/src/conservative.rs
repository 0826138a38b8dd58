//! Conservative (static) locking — the protocol the paper simulates.
//!
//! "Transactions request all needed locks before using the I/O and CPU
//! resources. Thus deadlock is impossible." (paper §2). A transaction
//! presents its complete lock set; either every lock is granted
//! atomically, or none is and the transaction blocks on the first
//! conflicting holder. When a transaction finishes it releases everything,
//! and every blocked transaction whose conflict involved it is woken to
//! retry — exactly the paper's "a completed transaction releases all its
//! locks and those transactions blocked by it".
//!
//! Retries are all-or-nothing as well, so the scheduler never holds a
//! partial lock set and the no-deadlock guarantee is preserved.
//!
//! The blocked-on relation lives in one vector indexed by transaction
//! slot: each blocked transaction names its holder, and each holder heads
//! a FIFO list of its waiters threaded through their entries. With every
//! per-request buffer pooled, the steady-state request/release cycle
//! allocates nothing (the paper's sweeps hammer this path at every
//! granularity).
//!
//! A requester holds and awaits nothing, and this scheduler never queues
//! in the table, so every request takes the table's fresh path
//! ([`LockTable::probe_fresh`], [`LockTable::grant_fresh`]): one index
//! lookup per granule, no walk of a granted group or wait queue.

use crate::mode::LockMode;
use crate::table::{FreshSlot, GranuleId, LockTable, TxnId};

/// Outcome of an all-at-once lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use = "a blocked request holds nothing and must be retried when woken"]
pub enum ConservativeOutcome {
    /// Every lock in the set is now held.
    Granted,
    /// Nothing is held; the transaction is recorded as blocked by
    /// `blocker` and will be returned by
    /// [`ConservativeScheduler::release_into`] when `blocker` releases
    /// (to be retried by the caller).
    Blocked {
        /// The first conflicting lock holder, in granule order.
        blocker: TxnId,
    },
}

/// Sort a request list by granule and merge each granule's requests into
/// one, in the supremum of their modes: the form
/// [`ConservativeScheduler::request_all`] takes.
pub fn merge_by_supremum(requests: &mut Vec<(GranuleId, LockMode)>) {
    // Unstable is enough: duplicates merge by `supremum`, a lattice join,
    // so their order cannot change the result; the stable sort would
    // allocate scratch once the list outgrows its stack buffer.
    requests.sort_unstable_by_key(|&(g, _)| g);
    requests.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = kept.1.supremum(later.1);
        }
        same
    });
}

/// Sentinel for "no transaction" in [`Waits`] links.
const NIL: u32 = u32::MAX;

/// One transaction's place in the blocked-on relation.
#[derive(Clone, Copy, Debug)]
struct Waits {
    /// The holder this transaction is blocked on, or NIL.
    blocker: u32,
    /// The next transaction blocked on the same holder, or NIL.
    next: u32,
    /// The first and last transactions blocked on this one (FIFO), or NIL.
    head: u32,
    tail: u32,
}

const NO_WAITS: Waits = Waits {
    blocker: NIL,
    next: NIL,
    head: NIL,
    tail: NIL,
};

/// All-or-nothing lock acquisition over a [`LockTable`].
#[derive(Default, Debug)]
pub struct ConservativeScheduler {
    table: LockTable,
    /// The blocked-on relation, by transaction slot.
    waits: Vec<Waits>,
    /// Scratch: the entry slot each request's probe found.
    probe_scratch: Vec<FreshSlot>,
    /// Scratch: promotion sink for release (asserted empty).
    promote_scratch: Vec<(TxnId, GranuleId, LockMode)>,
}

impl ConservativeScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all scheduler and table state but keep every allocation
    /// (reset-equals-fresh).
    pub fn reset(&mut self) {
        self.table.reset();
        self.waits.clear();
        self.probe_scratch.clear();
        self.promote_scratch.clear();
    }

    /// Atomically request the full lock set for `txn`, strictly ascending
    /// by granule (one request per granule, as [`merge_by_supremum`]
    /// leaves a list).
    ///
    /// On conflict nothing is acquired and `txn` is recorded as blocked by
    /// the first conflicting holder (deterministic: smallest granule id
    /// first, grant-group order within it).
    ///
    /// # Panics
    /// Panics if the set is not strictly ascending, or if `txn` already
    /// holds locks or is already blocked — conservative transactions
    /// declare their set exactly once per attempt.
    pub fn request_all(
        &mut self,
        txn: TxnId,
        locks: &[(GranuleId, LockMode)],
    ) -> ConservativeOutcome {
        assert!(
            !self.table.holds_or_awaits(txn),
            "{txn:?} already holds locks"
        );
        assert!(self.blocker_of(txn).is_none(), "{txn:?} is already blocked");
        assert!(
            locks.windows(2).all(|w| w[0].0 < w[1].0),
            "{txn:?}'s lock set is not strictly ascending by granule"
        );

        // Probe phase: one index lookup per granule finds the first
        // conflict without acquiring anything. The slots found are kept.
        let mut probed = std::mem::take(&mut self.probe_scratch);
        probed.clear();
        probed.reserve(locks.len());
        for &(g, m) in locks {
            match self.table.probe_fresh(g, m) {
                Ok(at) => probed.push(at),
                Err(blocker) => {
                    self.block(txn, blocker);
                    self.probe_scratch = probed;
                    return ConservativeOutcome::Blocked { blocker };
                }
            }
        }

        // Grant phase: every request is grantable, and single-threaded use
        // means nothing changed since the probe, so each is granted from
        // the slot its probe found without a second look (debug builds
        // re-check).
        for (&(g, m), &at) in locks.iter().zip(&probed) {
            self.table.grant_fresh(txn, g, m, at);
        }
        self.probe_scratch = probed;
        ConservativeOutcome::Granted
    }

    /// Release everything `txn` holds and append the transactions that
    /// were blocked on it to `woken` (cleared first), in the order they
    /// blocked. The caller re-issues
    /// [`ConservativeScheduler::request_all`] for each (they may block
    /// again, possibly on a different holder).
    pub fn release_into(&mut self, txn: TxnId, woken: &mut Vec<TxnId>) {
        woken.clear();
        let mut promoted = std::mem::take(&mut self.promote_scratch);
        self.table.release_all_into(txn, &mut promoted);
        debug_assert!(
            promoted.is_empty(),
            "conservative scheduler never leaves waiters inside the table"
        );
        promoted.clear();
        self.promote_scratch = promoted;
        let Some(w) = self.waits.get_mut(txn.index()) else {
            return;
        };
        let mut cur = std::mem::replace(&mut w.head, NIL);
        w.tail = NIL;
        while cur != NIL {
            let w = &mut self.waits[cur as usize];
            debug_assert_eq!(w.blocker as usize, txn.index());
            woken.push(TxnId(u64::from(cur)));
            w.blocker = NIL;
            cur = std::mem::replace(&mut w.next, NIL);
        }
    }

    /// Record `txn` as blocked on `blocker`, at the tail of its waiters.
    fn block(&mut self, txn: TxnId, blocker: TxnId) {
        let reach = txn.index().max(blocker.index()) + 1;
        if self.waits.len() < reach {
            self.waits.resize(reach, NO_WAITS);
        }
        let me = txn.index() as u32;
        let holder = &mut self.waits[blocker.index()];
        match std::mem::replace(&mut holder.tail, me) {
            NIL => holder.head = me,
            tail => self.waits[tail as usize].next = me,
        }
        self.waits[txn.index()].blocker = blocker.index() as u32;
    }

    /// The holder `txn` is blocked on, if it is blocked.
    pub fn blocker_of(&self, txn: TxnId) -> Option<TxnId> {
        self.waits
            .get(txn.index())
            .filter(|w| w.blocker != NIL)
            .map(|w| TxnId(u64::from(w.blocker)))
    }

    /// The transactions blocked on `holder`, in the order they blocked.
    pub fn waiters_of(&self, holder: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        let mut cur = self.waits.get(holder.index()).map_or(NIL, |w| w.head);
        std::iter::from_fn(move || {
            let t = (cur != NIL).then(|| TxnId(u64::from(cur)))?;
            cur = self.waits[cur as usize].next;
            Some(t)
        })
    }

    /// Number of currently blocked transactions.
    pub fn blocked_count(&self) -> usize {
        self.waits.iter().filter(|w| w.blocker != NIL).count()
    }

    /// Granules currently held by `txn`, in acquisition order.
    pub fn holdings(&self, txn: TxnId) -> impl Iterator<Item = GranuleId> + '_ {
        self.table.holdings(txn)
    }

    /// Access the underlying table (diagnostics, invariant checks).
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// Check scheduler + table invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_invariants()?;
        let mut listed = 0;
        for holder in (0..self.waits.len() as u64).map(TxnId) {
            for waiter in self.waiters_of(holder) {
                listed += 1;
                let on = self.blocker_of(waiter);
                if on != Some(holder) {
                    return Err(format!(
                        "{waiter:?} listed under {holder:?} but blocked on {on:?}"
                    ));
                }
                if self.table.holdings(waiter).next().is_some() {
                    return Err(format!("blocked {waiter:?} holds locks"));
                }
            }
        }
        let blocked = self.blocked_count();
        if listed != blocked {
            return Err(format!("{blocked} blocked but {listed} listed"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::X;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }
    fn g(n: u64) -> GranuleId {
        GranuleId(n)
    }
    /// Exclusive requests on `ids`, in the form `request_all` takes.
    fn xs(ids: &[u64]) -> Vec<(GranuleId, LockMode)> {
        let mut locks = ids.iter().map(|&i| (g(i), X)).collect();
        merge_by_supremum(&mut locks);
        locks
    }
    fn release(s: &mut ConservativeScheduler, txn: TxnId) -> Vec<TxnId> {
        let mut woken = vec![t(99)];
        s.release_into(txn, &mut woken);
        woken
    }

    #[test]
    fn disjoint_sets_run_concurrently() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(
            s.request_all(t(1), &xs(&[0, 1, 2])),
            ConservativeOutcome::Granted
        );
        assert_eq!(
            s.request_all(t(2), &xs(&[3, 4])),
            ConservativeOutcome::Granted
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn overlap_blocks_all_or_nothing() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(
            s.request_all(t(1), &xs(&[0, 1, 2])),
            ConservativeOutcome::Granted
        );
        let out = s.request_all(t(2), &xs(&[2, 3, 4]));
        assert_eq!(out, ConservativeOutcome::Blocked { blocker: t(1) });
        // Nothing partial: granules 3 and 4 are still free for others.
        assert_eq!(
            s.request_all(t(3), &xs(&[3, 4])),
            ConservativeOutcome::Granted
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn release_wakes_blocked_in_fifo_order() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(s.request_all(t(1), &xs(&[0])), ConservativeOutcome::Granted);
        assert!(matches!(
            s.request_all(t(2), &xs(&[0])),
            ConservativeOutcome::Blocked { .. }
        ));
        assert!(matches!(
            s.request_all(t(3), &xs(&[0])),
            ConservativeOutcome::Blocked { .. }
        ));
        let woken = release(&mut s, t(1));
        assert_eq!(woken, vec![t(2), t(3)]);
        assert_eq!(s.blocked_count(), 0);
        // First retry wins; second blocks again, now on t2.
        assert_eq!(s.request_all(t(2), &xs(&[0])), ConservativeOutcome::Granted);
        assert_eq!(
            s.request_all(t(3), &xs(&[0])),
            ConservativeOutcome::Blocked { blocker: t(2) }
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn no_deadlock_under_conservative_protocol() {
        // The classic 2PL deadlock: t1 wants {0,1}, t2 wants {1,0}.
        // Conservatively, whoever asks second simply blocks; no cycle.
        let mut s = ConservativeScheduler::new();
        assert_eq!(
            s.request_all(t(1), &xs(&[0, 1])),
            ConservativeOutcome::Granted
        );
        assert_eq!(
            s.request_all(t(2), &xs(&[1, 0])),
            ConservativeOutcome::Blocked { blocker: t(1) }
        );
        let woken = release(&mut s, t(1));
        assert_eq!(woken, vec![t(2)]);
        assert_eq!(
            s.request_all(t(2), &xs(&[1, 0])),
            ConservativeOutcome::Granted
        );
    }

    #[test]
    fn duplicate_granules_in_request_are_merged() {
        let mut s = ConservativeScheduler::new();
        let mut locks = vec![(g(1), X), (g(0), LockMode::S), (g(0), LockMode::X)];
        merge_by_supremum(&mut locks);
        assert_eq!(locks, vec![(g(0), X), (g(1), X)]);
        assert_eq!(s.request_all(t(1), &locks), ConservativeOutcome::Granted);
        assert_eq!(s.table().held_mode(t(1), g(0)), Some(X));
        s.check_invariants().unwrap();
    }

    #[test]
    fn blocker_is_deterministic_lowest_granule() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(s.request_all(t(1), &xs(&[5])), ConservativeOutcome::Granted);
        assert_eq!(s.request_all(t(2), &xs(&[9])), ConservativeOutcome::Granted);
        // t3 conflicts on both 5 and 9; must block on the holder of 5.
        assert_eq!(
            s.request_all(t(3), &xs(&[9, 5])),
            ConservativeOutcome::Blocked { blocker: t(1) }
        );
    }

    #[test]
    fn shared_sets_do_not_block_each_other() {
        let mut s = ConservativeScheduler::new();
        let reads: Vec<(GranuleId, LockMode)> = (0..5).map(|i| (g(i), LockMode::S)).collect();
        assert_eq!(s.request_all(t(1), &reads), ConservativeOutcome::Granted);
        assert_eq!(s.request_all(t(2), &reads), ConservativeOutcome::Granted);
        // A writer on any of them blocks.
        assert!(matches!(
            s.request_all(t(3), &xs(&[2])),
            ConservativeOutcome::Blocked { .. }
        ));
        s.check_invariants().unwrap();
    }

    #[test]
    fn empty_lock_set_is_trivially_granted() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(s.request_all(t(1), &[]), ConservativeOutcome::Granted);
        assert!(release(&mut s, t(1)).is_empty());
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(
            s.request_all(t(1), &xs(&[0, 1])),
            ConservativeOutcome::Granted
        );
        assert!(matches!(
            s.request_all(t(2), &xs(&[1])),
            ConservativeOutcome::Blocked { .. }
        ));
        s.reset();
        assert_eq!(s.blocked_count(), 0);
        assert_eq!(s.request_all(t(2), &xs(&[1])), ConservativeOutcome::Granted);
        s.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn unsorted_request_panics() {
        let mut s = ConservativeScheduler::new();
        let _ = s.request_all(t(1), &[(g(1), X), (g(0), X)]);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn duplicate_granule_request_panics() {
        let mut s = ConservativeScheduler::new();
        let _ = s.request_all(t(1), &[(g(0), LockMode::S), (g(0), X)]);
    }

    #[test]
    #[should_panic(expected = "already holds locks")]
    fn double_request_panics() {
        let mut s = ConservativeScheduler::new();
        assert_eq!(s.request_all(t(1), &xs(&[0])), ConservativeOutcome::Granted);
        let _ = s.request_all(t(1), &xs(&[1]));
    }
}
