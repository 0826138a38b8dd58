//! The lock table.
//!
//! A hash-indexed map ([`DetMap`]) from granule id to a lock entry
//! holding the **granted group** (transactions currently holding the
//! granule, with their modes) and a **FIFO wait queue**. Grant policy:
//!
//! * A request is granted iff its mode is compatible with every granted
//!   holder *and* no earlier waiter exists (strict FIFO — prevents
//!   starvation of X requests behind a stream of S requests).
//! * The same transaction re-requesting a granule it holds is treated as
//!   an upgrade to the supremum of old and new modes; upgrades jump the
//!   queue (standard practice — the holder cannot wait behind itself) but
//!   must still be compatible with the *other* holders.
//! * A re-request by a transaction that is *already waiting* on the
//!   granule merges into its queued waiter (supremum mode, queue
//!   position kept) instead of enqueueing a second waiter — the old
//!   double-waiter behavior could downgrade the granted mode.
//! * On release, the queue head is granted greedily: consecutive
//!   compatible waiters are admitted together (e.g. a run of S requests).
//!
//! # Layout and determinism
//!
//! Granted groups and wait queues are intrusive singly-linked lists of
//! pooled [`Block`]s (one shared slab, free-list recycled); per-txn
//! holdings and waited-granule sets are pooled [`Link`] lists. Granule
//! and transaction lookup go through [`DetMap`] — O(1), deterministic by
//! construction (see `lockgran_sim::detmap`). No code path iterates a
//! map to decide grant order: grants follow the FIFO queue, release
//! order follows the per-txn holdings list (append order), and wait
//! cancellation processes granules in ascending id order, so every
//! observable sequence is a pure function of the request sequence.
//!
//! Steady-state `lock_into` / `unlock_into` / `release_all_into` cycles
//! allocate nothing once the pools are warm; [`LockTable::reset`] drops
//! all state but keeps every allocation (reset-equals-fresh).

use lockgran_sim::DetMap;

use crate::mode::LockMode;

/// Transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxnId(pub u64);

/// Lockable granule identifier (0-based, `< ltot`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GranuleId(pub u64);

/// Result of a lock request, as [`crate::ReferenceLockTable::lock`]
/// reports it ([`LockTable::lock_into`] returns the same information as a
/// grant flag plus a caller-owned blocker buffer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held (possibly upgraded).
    Granted,
    /// The request was queued; `blockers` are the transactions it waits
    /// behind (granted holders plus incompatible earlier waiters).
    Queued {
        /// Transactions this request is waiting on, deduplicated, in
        /// grant-group-then-queue order.
        blockers: Vec<TxnId>,
    },
}

/// Sentinel for "no node" in pooled lists.
const NIL: u32 = u32::MAX;

/// One member of a granted group or wait queue. Pooled; promotion moves
/// a block from the queue to the granted group without touching the
/// allocator.
#[derive(Clone, Copy, Debug)]
struct Block {
    txn: TxnId,
    mode: LockMode,
    next: u32,
}

/// One element of a per-txn granule list (holdings or waited granules).
#[derive(Clone, Copy, Debug)]
struct Link {
    granule: u64,
    next: u32,
}

/// Per-granule lock state: granted group + FIFO wait queue, as heads and
/// tails into the shared block pool. `granted_head` doubles as the
/// entry free-list link while the slot is free.
#[derive(Clone, Copy, Debug)]
struct Entry {
    granted_head: u32,
    granted_tail: u32,
    wait_head: u32,
    wait_tail: u32,
}

const EMPTY_ENTRY: Entry = Entry {
    granted_head: NIL,
    granted_tail: NIL,
    wait_head: NIL,
    wait_tail: NIL,
};

/// Per-transaction state: holdings list (append order — the release
/// scan order) and the granules the txn currently waits on.
#[derive(Clone, Copy, Debug)]
struct TxnRec {
    hold_head: u32,
    hold_tail: u32,
    wait_head: u32,
}

const EMPTY_TXN: TxnRec = TxnRec {
    hold_head: NIL,
    hold_tail: NIL,
    wait_head: NIL,
};

/// A lock table (see module docs).
#[derive(Debug)]
pub struct LockTable {
    /// Granule id -> slot in `entries`.
    index: DetMap<u32>,
    entries: Vec<Entry>,
    /// Entry free list, threaded through `granted_head`.
    free_entry: u32,
    /// Shared pool for granted-group and wait-queue members.
    blocks: Vec<Block>,
    free_block: u32,
    /// Shared pool for per-txn granule lists.
    links: Vec<Link>,
    free_link: u32,
    /// Txn id -> holdings + waits record.
    txns: DetMap<TxnRec>,
    grants: u64,
    waits: u64,
    /// Scratch for release_all's sorted wait-cancel pass.
    cancel_scratch: Vec<u64>,
    /// Scratch for release_all's per-granule promotion results.
    promote_scratch: Vec<(TxnId, LockMode)>,
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self {
            index: DetMap::new(),
            entries: Vec::new(),
            free_entry: NIL,
            blocks: Vec::new(),
            free_block: NIL,
            links: Vec::new(),
            free_link: NIL,
            txns: DetMap::new(),
            grants: 0,
            waits: 0,
            cancel_scratch: Vec::new(),
            promote_scratch: Vec::new(),
        }
    }

    /// Pre-size every pool so `txns` concurrent transactions holding or
    /// awaiting up to `records` lock requests in total never touch the
    /// allocator — even when the concurrent-record high-water mark is
    /// first reached deep into a run. Closed systems know both bounds up
    /// front (multiprogramming level × largest declared set); callers
    /// with unbounded or astronomically large worst cases should skip
    /// the call and let the slabs warm lazily.
    pub fn prewarm(&mut self, txns: usize, records: usize) {
        fn reserve_total<T>(v: &mut Vec<T>, cap: usize) {
            if cap > v.capacity() {
                let grow = cap - v.len();
                v.reserve(grow);
            }
        }
        self.index.reserve(records);
        self.txns.reserve(txns);
        reserve_total(&mut self.entries, records);
        reserve_total(&mut self.blocks, records);
        reserve_total(&mut self.links, records);
        reserve_total(&mut self.cancel_scratch, records);
        reserve_total(&mut self.promote_scratch, txns);
    }

    /// Drop all locks, waiters and counters but keep every allocation:
    /// a reset table behaves exactly like a fresh one (RunArena
    /// contract) while steady-state reuse stays allocation-free.
    pub fn reset(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.free_entry = NIL;
        self.blocks.clear();
        self.free_block = NIL;
        self.links.clear();
        self.free_link = NIL;
        self.txns.clear();
        self.grants = 0;
        self.waits = 0;
        self.cancel_scratch.clear();
        self.promote_scratch.clear();
    }

    // ---- pool plumbing ---------------------------------------------------

    fn alloc_entry(&mut self) -> u32 {
        if self.free_entry != NIL {
            let slot = self.free_entry;
            self.free_entry = self.entries[slot as usize].granted_head;
            self.entries[slot as usize] = EMPTY_ENTRY;
            slot
        } else {
            self.entries.push(EMPTY_ENTRY);
            (self.entries.len() - 1) as u32
        }
    }

    fn free_entry_slot(&mut self, slot: u32) {
        self.entries[slot as usize].granted_head = self.free_entry;
        self.free_entry = slot;
    }

    fn alloc_block(&mut self, txn: TxnId, mode: LockMode) -> u32 {
        if self.free_block != NIL {
            let b = self.free_block;
            self.free_block = self.blocks[b as usize].next;
            self.blocks[b as usize] = Block {
                txn,
                mode,
                next: NIL,
            };
            b
        } else {
            self.blocks.push(Block {
                txn,
                mode,
                next: NIL,
            });
            (self.blocks.len() - 1) as u32
        }
    }

    fn free_block_slot(&mut self, b: u32) {
        self.blocks[b as usize].next = self.free_block;
        self.free_block = b;
    }

    fn alloc_link(&mut self, granule: u64) -> u32 {
        if self.free_link != NIL {
            let l = self.free_link;
            self.free_link = self.links[l as usize].next;
            self.links[l as usize] = Link { granule, next: NIL };
            l
        } else {
            self.links.push(Link { granule, next: NIL });
            (self.links.len() - 1) as u32
        }
    }

    fn free_link_slot(&mut self, l: u32) {
        self.links[l as usize].next = self.free_link;
        self.free_link = l;
    }

    fn txn_rec(&mut self, txn: TxnId) -> &mut TxnRec {
        self.txns.get_or_insert_with(txn.0, || EMPTY_TXN)
    }

    /// Drop the txn record once it neither holds nor waits on anything,
    /// so the txn map tracks only live transactions.
    fn gc_txn(&mut self, txn: TxnId) {
        if let Some(rec) = self.txns.get(txn.0) {
            if rec.hold_head == NIL && rec.wait_head == NIL {
                self.txns.remove(txn.0);
            }
        }
    }

    /// Append `granule` to `txn`'s holdings list. Callers guarantee the
    /// granule is not already present (fresh grants only — upgrades and
    /// upgrade promotions keep their existing link), which is exactly
    /// the dedupe-at-insert contract; debug builds verify it.
    fn add_holding(&mut self, txn: TxnId, granule: GranuleId) {
        debug_assert!(
            !self.holdings(txn).any(|g| g == granule),
            "{txn:?} already holds {granule:?}"
        );
        let link = self.alloc_link(granule.0);
        let rec = self.txn_rec(txn);
        if rec.hold_tail == NIL {
            rec.hold_head = link;
            rec.hold_tail = link;
        } else {
            let tail = rec.hold_tail;
            rec.hold_tail = link;
            self.links[tail as usize].next = link;
        }
    }

    /// Remove `granule` from `txn`'s holdings list, if present.
    fn remove_holding(&mut self, txn: TxnId, granule: GranuleId) {
        let Some(rec) = self.txns.get(txn.0) else {
            return;
        };
        let (mut prev, mut cur) = (NIL, rec.hold_head);
        while cur != NIL {
            let link = self.links[cur as usize];
            if link.granule == granule.0 {
                if prev == NIL {
                    self.txn_rec(txn).hold_head = link.next;
                } else {
                    self.links[prev as usize].next = link.next;
                }
                if self.txn_rec(txn).hold_tail == cur {
                    self.txn_rec(txn).hold_tail = prev;
                }
                self.free_link_slot(cur);
                return;
            }
            prev = cur;
            cur = link.next;
        }
    }

    /// Record that `txn` now waits on `granule`.
    fn add_wait_ref(&mut self, txn: TxnId, granule: GranuleId) {
        let link = self.alloc_link(granule.0);
        let head = self.txn_rec(txn).wait_head;
        self.links[link as usize].next = head;
        self.txn_rec(txn).wait_head = link;
    }

    /// Remove `granule` from `txn`'s waited set, if present.
    fn remove_wait_ref(&mut self, txn: TxnId, granule: GranuleId) {
        let Some(rec) = self.txns.get(txn.0) else {
            return;
        };
        let (mut prev, mut cur) = (NIL, rec.wait_head);
        while cur != NIL {
            let link = self.links[cur as usize];
            if link.granule == granule.0 {
                if prev == NIL {
                    self.txn_rec(txn).wait_head = link.next;
                } else {
                    self.links[prev as usize].next = link.next;
                }
                self.free_link_slot(cur);
                return;
            }
            prev = cur;
            cur = link.next;
        }
    }

    // ---- per-entry list helpers -----------------------------------------

    fn holder_mode_at(&self, slot: u32, txn: TxnId) -> Option<LockMode> {
        let mut cur = self.entries[slot as usize].granted_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn == txn {
                return Some(b.mode);
            }
            cur = b.next;
        }
        None
    }

    /// Is `mode` compatible with every granted holder other than `txn`?
    fn compatible_with_granted_at(&self, slot: u32, txn: TxnId, mode: LockMode) -> bool {
        let mut cur = self.entries[slot as usize].granted_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn != txn && !mode.compatible(b.mode) {
                return false;
            }
            cur = b.next;
        }
        true
    }

    fn push_granted(&mut self, slot: u32, block: u32) {
        let e = &mut self.entries[slot as usize];
        let tail = e.granted_tail;
        if tail == NIL {
            e.granted_head = block;
        } else {
            self.blocks[tail as usize].next = block;
        }
        self.entries[slot as usize].granted_tail = block;
        self.blocks[block as usize].next = NIL;
    }

    /// Unlink `txn`'s granted block, returning its mode.
    fn remove_granted(&mut self, slot: u32, txn: TxnId) -> Option<LockMode> {
        let (mut prev, mut cur) = (NIL, self.entries[slot as usize].granted_head);
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn == txn {
                let e = &mut self.entries[slot as usize];
                if prev == NIL {
                    e.granted_head = b.next;
                } else {
                    self.blocks[prev as usize].next = b.next;
                }
                if self.entries[slot as usize].granted_tail == cur {
                    self.entries[slot as usize].granted_tail = prev;
                }
                self.free_block_slot(cur);
                return Some(b.mode);
            }
            prev = cur;
            cur = b.next;
        }
        None
    }

    fn push_waiter(&mut self, slot: u32, block: u32) {
        let e = &mut self.entries[slot as usize];
        let tail = e.wait_tail;
        if tail == NIL {
            e.wait_head = block;
        } else {
            self.blocks[tail as usize].next = block;
        }
        self.entries[slot as usize].wait_tail = block;
        self.blocks[block as usize].next = NIL;
    }

    /// Unlink `txn`'s queued waiter block, if any, returning it (caller
    /// frees or reuses it).
    fn remove_waiter(&mut self, slot: u32, txn: TxnId) -> Option<u32> {
        let (mut prev, mut cur) = (NIL, self.entries[slot as usize].wait_head);
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn == txn {
                let e = &mut self.entries[slot as usize];
                if prev == NIL {
                    e.wait_head = b.next;
                } else {
                    self.blocks[prev as usize].next = b.next;
                }
                if self.entries[slot as usize].wait_tail == cur {
                    self.entries[slot as usize].wait_tail = prev;
                }
                return Some(cur);
            }
            prev = cur;
            cur = b.next;
        }
        None
    }

    fn entry_is_empty(&self, slot: u32) -> bool {
        let e = &self.entries[slot as usize];
        e.granted_head == NIL && e.wait_head == NIL
    }

    fn gc_entry(&mut self, granule: GranuleId, slot: u32) {
        if self.entry_is_empty(slot) {
            self.index.remove(granule.0);
            self.free_entry_slot(slot);
        }
    }

    // ---- public API ------------------------------------------------------

    /// Request `granule` in `mode` for `txn`. Returns `true` when the
    /// lock is held (possibly upgraded); otherwise the request queued
    /// and `blockers` is filled with the transactions it waits behind
    /// (cleared first; deduplicated, grant-group-then-queue order).
    ///
    /// Re-requests by a holder upgrade to the supremum mode. A
    /// re-request by a transaction already waiting on the granule merges
    /// into its queued waiter (see module docs).
    pub fn lock_into(
        &mut self,
        txn: TxnId,
        granule: GranuleId,
        mode: LockMode,
        blockers: &mut Vec<TxnId>,
    ) -> bool {
        blockers.clear();
        let slot = match self.index.get(granule.0) {
            Some(&s) => s,
            None => {
                let s = self.alloc_entry();
                self.index.insert(granule.0, s);
                s
            }
        };

        // Already waiting: merge into the queued waiter instead of
        // enqueueing a second one (a second waiter could be "promoted"
        // after the first, downgrading the granted mode). A request the
        // held mode already covers is satisfied without touching the
        // queue.
        if let Some(w) = self.find_waiter(slot, txn) {
            if self
                .holder_mode_at(slot, txn)
                .is_some_and(|held| held.supremum(mode) == held)
            {
                return true;
            }
            let merged = self.blocks[w as usize].mode.supremum(mode);
            self.blocks[w as usize].mode = merged;
            self.waits += 1;
            self.collect_blockers(slot, txn, merged, blockers);
            return false;
        }

        if let Some(held) = self.holder_mode_at(slot, txn) {
            // Upgrade path: jumps the queue but must respect other holders.
            let target = held.supremum(mode);
            if target == held {
                return true;
            }
            if self.compatible_with_granted_at(slot, txn, target) {
                self.set_granted_mode(slot, txn, target);
                self.grants += 1;
                return true;
            }
            self.collect_blockers(slot, txn, target, blockers);
            let b = self.alloc_block(txn, target);
            self.push_waiter(slot, b);
            self.add_wait_ref(txn, granule);
            self.waits += 1;
            return false;
        }

        if self.entries[slot as usize].wait_head == NIL
            && self.compatible_with_granted_at(slot, txn, mode)
        {
            let b = self.alloc_block(txn, mode);
            self.push_granted(slot, b);
            self.add_holding(txn, granule);
            self.grants += 1;
            true
        } else {
            self.collect_blockers(slot, txn, mode, blockers);
            let b = self.alloc_block(txn, mode);
            self.push_waiter(slot, b);
            self.add_wait_ref(txn, granule);
            self.waits += 1;
            false
        }
    }

    fn find_waiter(&self, slot: u32, txn: TxnId) -> Option<u32> {
        let mut cur = self.entries[slot as usize].wait_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn == txn {
                return Some(cur);
            }
            cur = b.next;
        }
        None
    }

    fn set_granted_mode(&mut self, slot: u32, txn: TxnId, mode: LockMode) {
        let mut cur = self.entries[slot as usize].granted_head;
        while cur != NIL {
            let b = &mut self.blocks[cur as usize];
            if b.txn == txn {
                b.mode = mode;
                return;
            }
            cur = b.next;
        }
    }

    /// Non-mutating conflict probe: would `txn` get `granule` in `mode`
    /// right now?
    pub fn would_grant(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> bool {
        match self.index.get(granule.0) {
            None => true,
            Some(&slot) => {
                if let Some(held) = self.holder_mode_at(slot, txn) {
                    let target = held.supremum(mode);
                    target == held || self.compatible_with_granted_at(slot, txn, target)
                } else {
                    self.entries[slot as usize].wait_head == NIL
                        && self.compatible_with_granted_at(slot, txn, mode)
                }
            }
        }
    }

    /// The first transaction `txn` would wait on if it requested
    /// `granule` in `mode` now (`None` if it would be granted).
    /// Allocation-free variant of [`LockTable::conflicts_with`].
    pub fn first_conflict(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> Option<TxnId> {
        let &slot = self.index.get(granule.0)?;
        if self.would_grant(txn, granule, mode) {
            return None;
        }
        let mut cur = self.entries[slot as usize].granted_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn != txn && !mode.compatible(b.mode) {
                return Some(b.txn);
            }
            cur = b.next;
        }
        let mut cur = self.entries[slot as usize].wait_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn != txn && !mode.compatible(b.mode) {
                return Some(b.txn);
            }
            cur = b.next;
        }
        // FIFO order alone can block: fall back to the queue head.
        let head = self.entries[slot as usize].wait_head;
        (head != NIL).then(|| self.blocks[head as usize].txn)
    }

    /// The transactions `txn` would wait on if it requested `granule` in
    /// `mode` now (empty if it would be granted).
    pub fn conflicts_with(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        if let Some(&slot) = self.index.get(granule.0) {
            if !self.would_grant(txn, granule, mode) {
                self.collect_blockers(slot, txn, mode, &mut out);
            }
        }
        out
    }

    fn collect_blockers(&self, slot: u32, txn: TxnId, mode: LockMode, out: &mut Vec<TxnId>) {
        let mut cur = self.entries[slot as usize].granted_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn != txn && !mode.compatible(b.mode) && !out.contains(&b.txn) {
                out.push(b.txn);
            }
            cur = b.next;
        }
        let mut cur = self.entries[slot as usize].wait_head;
        while cur != NIL {
            let b = self.blocks[cur as usize];
            if b.txn != txn && !mode.compatible(b.mode) && !out.contains(&b.txn) {
                out.push(b.txn);
            }
            cur = b.next;
        }
        // FIFO order alone can block (compatible request behind an
        // incompatible waiter): fall back to the queue head.
        if out.is_empty() {
            let head = self.entries[slot as usize].wait_head;
            if head != NIL {
                out.push(self.blocks[head as usize].txn);
            }
        }
    }

    /// Release `granule` for `txn`. Waiters granted as a result are
    /// appended to `woken` (cleared first), in grant order. Releasing a
    /// granule not held is a no-op (idempotent release simplifies
    /// callers).
    pub fn unlock_into(
        &mut self,
        txn: TxnId,
        granule: GranuleId,
        woken: &mut Vec<(TxnId, LockMode)>,
    ) {
        woken.clear();
        let Some(&slot) = self.index.get(granule.0) else {
            return;
        };
        if self.remove_granted(slot, txn).is_none() {
            return;
        }
        self.remove_holding(txn, granule);
        self.gc_txn(txn);
        self.promote(slot, granule, None, woken);
        self.gc_entry(granule, slot);
    }

    /// Release every granule held by `txn` and remove it from any wait
    /// queues. All waiters granted as a result are appended to `woken`
    /// (cleared first): first the promotions from released holdings in
    /// holdings (append) order, then those from cancelled waits in
    /// ascending granule order.
    pub fn release_all_into(&mut self, txn: TxnId, woken: &mut Vec<(TxnId, GranuleId, LockMode)>) {
        woken.clear();
        let Some(rec) = self.txns.get(txn.0) else {
            return;
        };
        // Phase 1: walk the holdings list in append order, releasing and
        // promoting. The departing txn's own queued waiters (if any) stop
        // promotion exactly like incompatible ones — they are cancelled
        // in phase 2, never self-granted.
        let mut promoted = std::mem::take(&mut self.promote_scratch);
        let mut cur = rec.hold_head;
        while cur != NIL {
            let link = self.links[cur as usize];
            let granule = GranuleId(link.granule);
            let slot = match self.index.get(link.granule) {
                Some(&s) => s,
                None => unreachable!("holdings reference a live entry"),
            };
            self.remove_granted(slot, txn);
            promoted.clear();
            self.promote(slot, granule, Some(txn), &mut promoted);
            woken.extend(promoted.iter().map(|&(t, m)| (t, granule, m)));
            self.gc_entry(granule, slot);
            self.free_link_slot(cur);
            cur = link.next;
        }
        // Phase 2: cancel queued waits in ascending granule order (the
        // order the old full-table scan visited them), promoting anything
        // unblocked by the removal.
        let mut scratch = std::mem::take(&mut self.cancel_scratch);
        scratch.clear();
        let rec = self.txn_rec(txn);
        let mut cur = rec.wait_head;
        rec.hold_head = NIL;
        rec.hold_tail = NIL;
        rec.wait_head = NIL;
        while cur != NIL {
            let link = self.links[cur as usize];
            scratch.push(link.granule);
            self.free_link_slot(cur);
            cur = link.next;
        }
        scratch.sort_unstable();
        for &g in &scratch {
            let granule = GranuleId(g);
            let Some(&slot) = self.index.get(g) else {
                continue;
            };
            if let Some(w) = self.remove_waiter(slot, txn) {
                self.free_block_slot(w);
            }
            promoted.clear();
            self.promote(slot, granule, None, &mut promoted);
            woken.extend(promoted.iter().map(|&(t, m)| (t, granule, m)));
            self.gc_entry(granule, slot);
        }
        self.cancel_scratch = scratch;
        promoted.clear();
        self.promote_scratch = promoted;
        self.txns.remove(txn.0);
    }

    /// Grant the longest compatible prefix of `slot`'s wait queue,
    /// appending each grant to `out`. A waiter belonging to `skip` (a
    /// departing transaction) stops the scan exactly like an
    /// incompatible one — it is about to be cancelled, never granted.
    fn promote(
        &mut self,
        slot: u32,
        granule: GranuleId,
        skip: Option<TxnId>,
        out: &mut Vec<(TxnId, LockMode)>,
    ) {
        loop {
            let head = self.entries[slot as usize].wait_head;
            if head == NIL {
                return;
            }
            let w = self.blocks[head as usize];
            if skip == Some(w.txn) {
                return;
            }
            if !self.compatible_with_granted_at(slot, w.txn, w.mode) {
                return;
            }
            // Pop the head waiter and move its block to the granted group.
            let e = &mut self.entries[slot as usize];
            e.wait_head = w.next;
            if e.wait_head == NIL {
                e.wait_tail = NIL;
            }
            // An upgrading waiter replaces its old granted entry; a fresh
            // waiter gains a holdings link.
            let upgraded = self.remove_granted(slot, w.txn).is_some();
            self.push_granted(slot, head);
            if !upgraded {
                self.add_holding(w.txn, granule);
            }
            self.remove_wait_ref(w.txn, granule);
            self.grants += 1;
            out.push((w.txn, w.mode));
        }
    }

    /// Mode in which `txn` holds `granule`, if any.
    pub fn held_mode(&self, txn: TxnId, granule: GranuleId) -> Option<LockMode> {
        let &slot = self.index.get(granule.0)?;
        self.holder_mode_at(slot, txn)
    }

    /// Granules currently held by `txn`, in acquisition (append) order.
    pub fn holdings(&self, txn: TxnId) -> impl Iterator<Item = GranuleId> + '_ {
        let head = self.txns.get(txn.0).map_or(NIL, |r| r.hold_head);
        LinkIter {
            links: &self.links,
            cur: head,
        }
    }

    /// Number of granules with at least one holder or waiter.
    pub fn active_granules(&self) -> usize {
        self.index.len()
    }

    /// Total grants performed (including upgrades and promotions).
    pub fn grant_count(&self) -> u64 {
        self.grants
    }

    /// Total requests that had to queue.
    pub fn wait_count(&self) -> u64 {
        self.waits
    }

    /// Check internal invariants; returns a description of the first
    /// violation. Used by property tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (g, &slot) in self.index.iter() {
            let g = GranuleId(g);
            // Collect the granted group.
            let mut granted: Vec<(TxnId, LockMode)> = Vec::new();
            let mut cur = self.entries[slot as usize].granted_head;
            while cur != NIL {
                let b = self.blocks[cur as usize];
                granted.push((b.txn, b.mode));
                cur = b.next;
            }
            // 1. All granted holders pairwise compatible.
            for i in 0..granted.len() {
                for j in (i + 1)..granted.len() {
                    let (t1, m1) = granted[i];
                    let (t2, m2) = granted[j];
                    if t1 == t2 {
                        return Err(format!("{t1:?} granted twice on {g:?}"));
                    }
                    if !m1.compatible(m2) {
                        return Err(format!(
                            "incompatible holders on {g:?}: {t1:?}:{m1} vs {t2:?}:{m2}"
                        ));
                    }
                }
            }
            // 2. Queue head must actually conflict (no lost wakeup).
            let head = self.entries[slot as usize].wait_head;
            if head != NIL {
                let w = self.blocks[head as usize];
                let ok = granted
                    .iter()
                    .filter(|(t, _)| *t != w.txn)
                    .all(|(_, held)| w.mode.compatible(*held));
                if ok {
                    return Err(format!(
                        "queue head {:?} on {g:?} is compatible but not granted",
                        w.txn
                    ));
                }
            }
            // 3. No empty entries are retained.
            if granted.is_empty() && head == NIL {
                return Err(format!("empty entry retained for {g:?}"));
            }
            // 4. holdings index consistent with granted groups.
            for (t, _) in &granted {
                if !self.holdings(*t).any(|h| h == g) {
                    return Err(format!("{t:?} granted on {g:?} but missing from holdings"));
                }
            }
        }
        for (t, _) in self.txns.iter() {
            let t = TxnId(t);
            let hs: Vec<GranuleId> = self.holdings(t).collect();
            let mut sorted = hs.clone();
            sorted.sort();
            sorted.dedup();
            if sorted.len() != hs.len() {
                return Err(format!("duplicate holdings entries for {t:?}"));
            }
            for g in &hs {
                let ok = self.held_mode(t, *g).is_some();
                if !ok {
                    return Err(format!("{t:?} holdings list {g:?} but not granted"));
                }
            }
        }
        Ok(())
    }
}

struct LinkIter<'a> {
    links: &'a [Link],
    cur: u32,
}

impl Iterator for LinkIter<'_> {
    type Item = GranuleId;

    fn next(&mut self) -> Option<GranuleId> {
        if self.cur == NIL {
            return None;
        }
        let link = self.links[self.cur as usize];
        self.cur = link.next;
        Some(GranuleId(link.granule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }
    fn g(n: u64) -> GranuleId {
        GranuleId(n)
    }

    /// `lock_into` into a dirty blocker buffer (it must be cleared first),
    /// as a comparable outcome.
    fn lock(lt: &mut LockTable, txn: TxnId, granule: GranuleId, mode: LockMode) -> LockOutcome {
        let mut blockers = vec![t(99)];
        if lt.lock_into(txn, granule, mode, &mut blockers) {
            assert!(blockers.is_empty(), "a grant reports no blockers");
            LockOutcome::Granted
        } else {
            LockOutcome::Queued { blockers }
        }
    }

    fn unlock(lt: &mut LockTable, txn: TxnId, granule: GranuleId) -> Vec<(TxnId, LockMode)> {
        let mut woken = vec![(t(99), X)];
        lt.unlock_into(txn, granule, &mut woken);
        woken
    }

    fn release_all(lt: &mut LockTable, txn: TxnId) -> Vec<(TxnId, GranuleId, LockMode)> {
        let mut woken = vec![(t(99), g(99), X)];
        lt.release_all_into(txn, &mut woken);
        woken
    }

    fn holding_vec(lt: &LockTable, txn: TxnId) -> Vec<GranuleId> {
        lt.holdings(txn).collect()
    }

    #[test]
    fn exclusive_conflict_queues_fifo() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), X), LockOutcome::Granted);
        let out = lock(&mut lt, t(2), g(0), X);
        assert_eq!(
            out,
            LockOutcome::Queued {
                blockers: vec![t(1)]
            }
        );
        let out = lock(&mut lt, t(3), g(0), X);
        assert!(matches!(out, LockOutcome::Queued { .. }));
        lt.check_invariants().unwrap();

        let granted = unlock(&mut lt, t(1), g(0));
        assert_eq!(granted, vec![(t(2), X)]);
        let granted = unlock(&mut lt, t(2), g(0));
        assert_eq!(granted, vec![(t(3), X)]);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        for i in 1..=5 {
            assert_eq!(lock(&mut lt, t(i), g(0), S), LockOutcome::Granted);
        }
        lt.check_invariants().unwrap();
        // An X request queues behind all of them.
        let out = lock(&mut lt, t(9), g(0), X);
        match out {
            LockOutcome::Queued { blockers } => assert_eq!(blockers.len(), 5),
            other => panic!("expected queue, got {other:?}"),
        }
    }

    #[test]
    fn fifo_prevents_reader_starvation_of_writers() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), S), LockOutcome::Granted);
        assert!(matches!(
            lock(&mut lt, t(2), g(0), X),
            LockOutcome::Queued { .. }
        ));
        // A later S must queue behind the X even though it is compatible
        // with the granted group.
        let out = lock(&mut lt, t(3), g(0), S);
        match out {
            LockOutcome::Queued { blockers } => assert_eq!(blockers, vec![t(2)]),
            other => panic!("expected queue, got {other:?}"),
        }
        // Release the reader: X is granted alone; S still waits.
        let granted = unlock(&mut lt, t(1), g(0));
        assert_eq!(granted, vec![(t(2), X)]);
        assert!(lt.held_mode(t(3), g(0)).is_none());
        // Release the writer: S finally granted.
        let granted = unlock(&mut lt, t(2), g(0));
        assert_eq!(granted, vec![(t(3), S)]);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn batch_promotion_of_compatible_prefix() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), X), LockOutcome::Granted);
        for i in 2..=4 {
            assert!(matches!(
                lock(&mut lt, t(i), g(0), S),
                LockOutcome::Queued { .. }
            ));
        }
        assert!(matches!(
            lock(&mut lt, t(5), g(0), X),
            LockOutcome::Queued { .. }
        ));
        let granted = unlock(&mut lt, t(1), g(0));
        // The three S waiters are admitted together; the X stays queued.
        assert_eq!(granted, vec![(t(2), S), (t(3), S), (t(4), S)]);
        assert!(lt.held_mode(t(5), g(0)).is_none());
        lt.check_invariants().unwrap();
    }

    #[test]
    fn rerequest_same_mode_is_granted() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), S), LockOutcome::Granted);
        assert_eq!(lock(&mut lt, t(1), g(0), S), LockOutcome::Granted);
        assert_eq!(holding_vec(&lt, t(1)), vec![g(0)]);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn upgrade_succeeds_when_alone() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), S), LockOutcome::Granted);
        assert_eq!(lock(&mut lt, t(1), g(0), X), LockOutcome::Granted);
        assert_eq!(lt.held_mode(t(1), g(0)), Some(X));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn upgrade_blocks_on_other_reader() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), S), LockOutcome::Granted);
        assert_eq!(lock(&mut lt, t(2), g(0), S), LockOutcome::Granted);
        let out = lock(&mut lt, t(1), g(0), X);
        assert_eq!(
            out,
            LockOutcome::Queued {
                blockers: vec![t(2)]
            }
        );
        // When the other reader leaves, the upgrade is granted as X.
        let granted = unlock(&mut lt, t(2), g(0));
        assert_eq!(granted, vec![(t(1), X)]);
        assert_eq!(lt.held_mode(t(1), g(0)), Some(X));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_all_frees_everything_and_promotes() {
        let mut lt = LockTable::new();
        for i in 0..10 {
            assert_eq!(lock(&mut lt, t(1), g(i), X), LockOutcome::Granted);
        }
        assert!(matches!(
            lock(&mut lt, t(2), g(3), X),
            LockOutcome::Queued { .. }
        ));
        assert!(matches!(
            lock(&mut lt, t(3), g(7), S),
            LockOutcome::Queued { .. }
        ));
        let promoted = release_all(&mut lt, t(1));
        let mut promoted_txns: Vec<TxnId> = promoted.iter().map(|(t, _, _)| *t).collect();
        promoted_txns.sort();
        assert_eq!(promoted_txns, vec![t(2), t(3)]);
        assert!(holding_vec(&lt, t(1)).is_empty());
        assert_eq!(lt.held_mode(t(2), g(3)), Some(X));
        assert_eq!(lt.held_mode(t(3), g(7)), Some(S));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn release_all_cancels_pending_waits() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), X), LockOutcome::Granted);
        assert!(matches!(
            lock(&mut lt, t(2), g(0), X),
            LockOutcome::Queued { .. }
        ));
        assert!(matches!(
            lock(&mut lt, t(3), g(0), X),
            LockOutcome::Queued { .. }
        ));
        // t2 aborts while waiting; t3 must not be lost behind it.
        let promoted = release_all(&mut lt, t(2));
        assert!(promoted.is_empty());
        let granted = unlock(&mut lt, t(1), g(0));
        assert_eq!(granted, vec![(t(3), X)]);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn unlock_unheld_is_noop() {
        let mut lt = LockTable::new();
        assert!(unlock(&mut lt, t(1), g(0)).is_empty());
        assert_eq!(lock(&mut lt, t(1), g(0), S), LockOutcome::Granted);
        assert!(unlock(&mut lt, t(2), g(0)).is_empty());
        assert_eq!(lt.held_mode(t(1), g(0)), Some(S));
    }

    #[test]
    fn intention_modes_follow_matrix() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), IX), LockOutcome::Granted);
        assert_eq!(lock(&mut lt, t(2), g(0), IX), LockOutcome::Granted);
        assert_eq!(lock(&mut lt, t(3), g(0), IS), LockOutcome::Granted);
        assert!(matches!(
            lock(&mut lt, t(4), g(0), S),
            LockOutcome::Queued { .. }
        ));
        lt.check_invariants().unwrap();
    }

    #[test]
    fn counters_track_activity() {
        let mut lt = LockTable::new();
        lock(&mut lt, t(1), g(0), X);
        lock(&mut lt, t(2), g(0), X);
        assert_eq!(lt.grant_count(), 1);
        assert_eq!(lt.wait_count(), 1);
        unlock(&mut lt, t(1), g(0));
        assert_eq!(lt.grant_count(), 2); // promotion counts as a grant
    }

    #[test]
    fn entries_are_garbage_collected() {
        let mut lt = LockTable::new();
        lock(&mut lt, t(1), g(0), X);
        assert_eq!(lt.active_granules(), 1);
        unlock(&mut lt, t(1), g(0));
        assert_eq!(lt.active_granules(), 0);
    }

    #[test]
    fn would_grant_probe_matches_lock() {
        let mut lt = LockTable::new();
        assert!(lt.would_grant(t(1), g(0), X));
        lock(&mut lt, t(1), g(0), S);
        assert!(lt.would_grant(t(2), g(0), S));
        assert!(!lt.would_grant(t(2), g(0), X));
        assert!(lt.would_grant(t(1), g(0), X)); // upgrade when alone
        lock(&mut lt, t(2), g(0), S);
        assert!(!lt.would_grant(t(1), g(0), X)); // upgrade blocked by t2
        assert_eq!(lt.conflicts_with(t(3), g(0), X), vec![t(1), t(2)]);
        assert_eq!(lt.first_conflict(t(3), g(0), X), Some(t(1)));
        assert_eq!(lt.first_conflict(t(3), g(0), S), None);
    }

    /// Regression (ISSUE 10 ride-along): a re-request while waiting must
    /// merge into the queued waiter — never enqueue a duplicate — and
    /// must never leave duplicate granule ids in holdings or downgrade
    /// the eventually-granted mode.
    #[test]
    fn rerequest_while_waiting_merges_without_duplicates() {
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(0), X), LockOutcome::Granted);
        // t2 queues for X, then re-requests S while still waiting: the
        // waiter keeps X (supremum), no second queue entry appears.
        assert!(matches!(
            lock(&mut lt, t(2), g(0), X),
            LockOutcome::Queued { .. }
        ));
        assert!(matches!(
            lock(&mut lt, t(2), g(0), S),
            LockOutcome::Queued { .. }
        ));
        let granted = unlock(&mut lt, t(1), g(0));
        assert_eq!(granted, vec![(t(2), X)], "supremum mode, single grant");
        assert_eq!(lt.held_mode(t(2), g(0)), Some(X));
        assert_eq!(holding_vec(&lt, t(2)), vec![g(0)]);
        lt.check_invariants().unwrap();

        // Upgrade flavor: holder re-requests an upgrade twice while the
        // first upgrade is still queued behind another reader.
        let mut lt = LockTable::new();
        assert_eq!(lock(&mut lt, t(1), g(1), S), LockOutcome::Granted);
        assert_eq!(lock(&mut lt, t(2), g(1), S), LockOutcome::Granted);
        assert!(matches!(
            lock(&mut lt, t(1), g(1), X),
            LockOutcome::Queued { .. }
        ));
        assert!(matches!(
            lock(&mut lt, t(1), g(1), X),
            LockOutcome::Queued { .. }
        ));
        let granted = unlock(&mut lt, t(2), g(1));
        assert_eq!(granted, vec![(t(1), X)]);
        assert_eq!(
            holding_vec(&lt, t(1)),
            vec![g(1)],
            "upgrade re-request must not duplicate the holding"
        );
        lt.check_invariants().unwrap();
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let mut lt = LockTable::new();
        lock(&mut lt, t(1), g(0), X);
        lock(&mut lt, t(2), g(0), X);
        lock(&mut lt, t(1), g(5), S);
        lt.reset();
        assert_eq!(lt.active_granules(), 0);
        assert_eq!(lt.grant_count(), 0);
        assert_eq!(lt.wait_count(), 0);
        assert!(holding_vec(&lt, t(1)).is_empty());
        assert_eq!(lock(&mut lt, t(2), g(0), X), LockOutcome::Granted);
        lt.check_invariants().unwrap();
    }

    #[test]
    fn pooled_blocks_are_recycled() {
        let mut lt = LockTable::new();
        for round in 0..100 {
            let base = round * 10;
            for i in 0..5 {
                lock(&mut lt, t(i), g(base), S);
            }
            for i in 0..5 {
                unlock(&mut lt, t(i), g(base));
            }
        }
        // One round's worth of blocks suffices for all 100 rounds.
        assert!(
            lt.blocks.len() <= 8,
            "block pool grew to {}",
            lt.blocks.len()
        );
        assert!(lt.links.len() <= 8, "link pool grew to {}", lt.links.len());
    }
}
