//! Executable specification of [`crate::table::LockTable`].
//!
//! A deliberately naive lock table over `std::collections` ordered maps:
//! no pooling, no intrusive lists, no hash index — just the grant policy
//! from the [`crate::table`] module docs written in the most obvious way
//! possible. It exists solely as the oracle for the differential
//! property test (`tests/prop_difftable.rs`): every observable of the
//! production table — grant/queue outcomes, blocker lists, wake order,
//! holdings order, counters — must match this implementation on any
//! request sequence.
//!
//! Semantics mirrored exactly (see the production module docs):
//!
//! * strict-FIFO queueing — a request conflicts with earlier waiters too;
//! * upgrades jump the queue but respect the other holders;
//! * a re-request by a transaction already waiting merges into its queued
//!   waiter (supremum mode, queue position kept);
//! * greedy promotion of the longest compatible queue prefix on release;
//! * `release_all` promotes freed holdings in append order first, then
//!   cancels queued waits in ascending granule order.
//!
//! This module is intentionally *not* allocation-free; it is never on a
//! hot path (test oracle only), which is also why the source-policy
//! scan (`tests/self_check.rs`) allows its ordered maps and its front
//! removal.

use std::collections::BTreeMap;

use crate::mode::LockMode;
use crate::table::{GranuleId, LockOutcome, TxnId};

/// Per-granule state: the granted group and the FIFO wait queue.
#[derive(Clone, Debug, Default)]
struct RefEntry {
    granted: Vec<(TxnId, LockMode)>,
    waiting: Vec<(TxnId, LockMode)>,
}

/// Reference lock table (see module docs). Same observable API surface
/// as [`crate::table::LockTable`], implemented over `BTreeMap`.
#[derive(Clone, Debug, Default)]
pub struct ReferenceLockTable {
    entries: BTreeMap<u64, RefEntry>,
    /// txn → held granules, in acquisition (append) order.
    holdings: BTreeMap<u64, Vec<u64>>,
    /// txn → granules the txn currently waits on.
    waited: BTreeMap<u64, Vec<u64>>,
    grants: u64,
    waits: u64,
}

impl ReferenceLockTable {
    /// An empty reference table.
    pub fn new() -> Self {
        Self::default()
    }

    fn holder_mode(entry: &RefEntry, txn: TxnId) -> Option<LockMode> {
        entry
            .granted
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    fn compatible_with_granted(entry: &RefEntry, txn: TxnId, mode: LockMode) -> bool {
        entry
            .granted
            .iter()
            .all(|&(t, held)| t == txn || mode.compatible(held))
    }

    fn collect_blockers(entry: &RefEntry, txn: TxnId, mode: LockMode, out: &mut Vec<TxnId>) {
        for &(t, held) in entry.granted.iter().chain(entry.waiting.iter()) {
            if t != txn && !mode.compatible(held) && !out.contains(&t) {
                out.push(t);
            }
        }
        // FIFO order alone can block: fall back to the queue head.
        if out.is_empty() {
            if let Some(&(t, _)) = entry.waiting.first() {
                out.push(t);
            }
        }
    }

    /// Request `granule` in `mode` for `txn`; same contract as
    /// [`crate::table::LockTable::lock_into`].
    pub fn lock(&mut self, txn: TxnId, granule: GranuleId, mode: LockMode) -> LockOutcome {
        let entry = self.entries.entry(granule.0).or_default();

        // Already waiting: merge into the queued waiter (or satisfy from
        // the held mode without touching the queue).
        if let Some(pos) = entry.waiting.iter().position(|(t, _)| *t == txn) {
            if Self::holder_mode(entry, txn).is_some_and(|held| held.supremum(mode) == held) {
                Self::gc(&mut self.entries, granule);
                return LockOutcome::Granted;
            }
            let merged = entry.waiting[pos].1.supremum(mode);
            entry.waiting[pos].1 = merged;
            self.waits += 1;
            let mut blockers = Vec::new();
            Self::collect_blockers(entry, txn, merged, &mut blockers);
            return LockOutcome::Queued { blockers };
        }

        if let Some(held) = Self::holder_mode(entry, txn) {
            // Upgrade path: jumps the queue but must respect other holders.
            let target = held.supremum(mode);
            if target == held {
                return LockOutcome::Granted;
            }
            if Self::compatible_with_granted(entry, txn, target) {
                for h in entry.granted.iter_mut().filter(|(t, _)| *t == txn) {
                    h.1 = target;
                }
                self.grants += 1;
                return LockOutcome::Granted;
            }
            let mut blockers = Vec::new();
            Self::collect_blockers(entry, txn, target, &mut blockers);
            entry.waiting.push((txn, target));
            self.waited.entry(txn.0).or_default().push(granule.0);
            self.waits += 1;
            return LockOutcome::Queued { blockers };
        }

        if entry.waiting.is_empty() && Self::compatible_with_granted(entry, txn, mode) {
            entry.granted.push((txn, mode));
            self.holdings.entry(txn.0).or_default().push(granule.0);
            self.grants += 1;
            LockOutcome::Granted
        } else {
            let mut blockers = Vec::new();
            Self::collect_blockers(entry, txn, mode, &mut blockers);
            entry.waiting.push((txn, mode));
            self.waited.entry(txn.0).or_default().push(granule.0);
            self.waits += 1;
            LockOutcome::Queued { blockers }
        }
    }

    /// Grant the longest compatible prefix of the wait queue; mirrors the
    /// production `promote`.
    fn promote(
        &mut self,
        granule: GranuleId,
        skip: Option<TxnId>,
        out: &mut Vec<(TxnId, LockMode)>,
    ) {
        loop {
            let Some(entry) = self.entries.get_mut(&granule.0) else {
                return;
            };
            let Some(&(txn, mode)) = entry.waiting.first() else {
                return;
            };
            if skip == Some(txn) {
                return;
            }
            if !Self::compatible_with_granted(entry, txn, mode) {
                return;
            }
            // Front removal on purpose: the oracle favours the most literal FIFO
            // expression over throughput; queues here are a handful deep.
            entry.waiting.remove(0);
            // An upgrading waiter replaces its old granted entry; a fresh
            // waiter gains a holdings link.
            let before = entry.granted.len();
            entry.granted.retain(|(t, _)| *t != txn);
            let upgraded = entry.granted.len() != before;
            entry.granted.push((txn, mode));
            if !upgraded {
                self.holdings.entry(txn.0).or_default().push(granule.0);
            }
            if let Some(w) = self.waited.get_mut(&txn.0) {
                if let Some(pos) = w.iter().position(|&g| g == granule.0) {
                    w.remove(pos);
                }
                if w.is_empty() {
                    self.waited.remove(&txn.0);
                }
            }
            self.grants += 1;
            out.push((txn, mode));
        }
    }

    fn gc(entries: &mut BTreeMap<u64, RefEntry>, granule: GranuleId) {
        if entries
            .get(&granule.0)
            .is_some_and(|e| e.granted.is_empty() && e.waiting.is_empty())
        {
            entries.remove(&granule.0);
        }
    }

    /// Release `granule` for `txn`; same contract as
    /// [`crate::table::LockTable::unlock_into`].
    pub fn unlock(&mut self, txn: TxnId, granule: GranuleId) -> Vec<(TxnId, LockMode)> {
        let mut woken = Vec::new();
        let Some(entry) = self.entries.get_mut(&granule.0) else {
            return woken;
        };
        let before = entry.granted.len();
        entry.granted.retain(|(t, _)| *t != txn);
        if entry.granted.len() == before {
            Self::gc(&mut self.entries, granule);
            return woken;
        }
        if let Some(h) = self.holdings.get_mut(&txn.0) {
            if let Some(pos) = h.iter().position(|&g| g == granule.0) {
                h.remove(pos);
            }
            if h.is_empty() {
                self.holdings.remove(&txn.0);
            }
        }
        self.promote(granule, None, &mut woken);
        Self::gc(&mut self.entries, granule);
        woken
    }

    /// Release everything `txn` holds and cancel its queued waits; same
    /// contract as [`crate::table::LockTable::release_all_into`].
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, GranuleId, LockMode)> {
        let mut woken = Vec::new();
        // Phase 1: release holdings in append order, promoting after each
        // (the departing txn's own queued waiters stop promotion; they are
        // cancelled in phase 2, never self-granted).
        let held = self.holdings.remove(&txn.0).unwrap_or_default();
        for g in held {
            let granule = GranuleId(g);
            if let Some(entry) = self.entries.get_mut(&g) {
                entry.granted.retain(|(t, _)| *t != txn);
            }
            let mut promoted = Vec::new();
            self.promote(granule, Some(txn), &mut promoted);
            woken.extend(promoted.into_iter().map(|(t, m)| (t, granule, m)));
            Self::gc(&mut self.entries, granule);
        }
        // Phase 2: cancel queued waits in ascending granule order.
        let mut waits = self.waited.remove(&txn.0).unwrap_or_default();
        waits.sort_unstable();
        for g in waits {
            let granule = GranuleId(g);
            if let Some(entry) = self.entries.get_mut(&g) {
                entry.waiting.retain(|(t, _)| *t != txn);
            }
            let mut promoted = Vec::new();
            self.promote(granule, None, &mut promoted);
            woken.extend(promoted.into_iter().map(|(t, m)| (t, granule, m)));
            Self::gc(&mut self.entries, granule);
        }
        woken
    }

    /// Mode in which `txn` holds `granule`, if any.
    pub fn held_mode(&self, txn: TxnId, granule: GranuleId) -> Option<LockMode> {
        self.entries
            .get(&granule.0)
            .and_then(|e| Self::holder_mode(e, txn))
    }

    /// Granules currently held by `txn`, in acquisition (append) order.
    pub fn holdings(&self, txn: TxnId) -> Vec<GranuleId> {
        self.holdings
            .get(&txn.0)
            .map(|h| h.iter().map(|&g| GranuleId(g)).collect())
            .unwrap_or_default()
    }

    /// Number of granules with at least one holder or waiter.
    pub fn active_granules(&self) -> usize {
        self.entries.len()
    }

    /// Total grants performed (including upgrades and promotions).
    pub fn grant_count(&self) -> u64 {
        self.grants
    }

    /// Total requests that had to queue.
    pub fn wait_count(&self) -> u64 {
        self.waits
    }

    /// The transactions `txn` would wait on if it requested `granule` in
    /// `mode` now (empty if it would be granted).
    pub fn conflicts_with(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        let Some(entry) = self.entries.get(&granule.0) else {
            return out;
        };
        if self.would_grant(txn, granule, mode) {
            return out;
        }
        Self::collect_blockers(entry, txn, mode, &mut out);
        out
    }

    /// Non-mutating conflict probe; same contract as
    /// [`crate::table::LockTable::would_grant`].
    pub fn would_grant(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> bool {
        match self.entries.get(&granule.0) {
            None => true,
            Some(entry) => {
                if let Some(held) = Self::holder_mode(entry, txn) {
                    let target = held.supremum(mode);
                    target == held || Self::compatible_with_granted(entry, txn, target)
                } else {
                    entry.waiting.is_empty() && Self::compatible_with_granted(entry, txn, mode)
                }
            }
        }
    }
}
