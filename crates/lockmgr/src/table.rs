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
//! pooled `Block`s (one shared slab, free-list recycled); per-txn
//! holdings and waited-granule sets are pooled `Link` lists, headed
//! from a record indexed by [`TxnId`]. Only granule lookup hashes, through
//! [`DetMap`] — O(1), deterministic by construction (see
//! `lockgran_sim::detmap`). No code path iterates a
//! map to decide grant order: grants follow the FIFO queue, release
//! order follows the per-txn holdings list (append order), and wait
//! cancellation processes granules in ascending id order, so every
//! observable sequence is a pure function of the request sequence.
//!
//! Steady-state `lock_into` / `unlock_into` / `release_all_into` cycles
//! allocate nothing once the pools are warm; [`LockTable::reset`] drops
//! all state but keeps every allocation (reset-equals-fresh).
//!
//! # Group summaries and the fresh path
//!
//! Each entry also counts its granted group: the `IS` holders, plus the
//! one non-`IS` mode present and its holders. Gray's matrix lets `IX`
//! share only with `IX` and `S` only with `S`, and lets `SIX` and `X`
//! share with no other non-`IS` holder, so a valid group never mixes two
//! non-`IS` modes and those counts describe it whole. A request from a
//! transaction that does not hold the granule is checked against them in
//! O(1); a group is walked only to find the requester's own block or to
//! name the first blocker of a denial, so group order — and with it every
//! blocker and wake order — is what it would be without the counts.
//! [`LockTable::probe_fresh`] and [`LockTable::grant_fresh`] serve a
//! transaction that holds and awaits nothing on the granule, the
//! predeclared discipline's only kind of request: one index lookup and no
//! walk at all. [`LockTable::visit_count`] counts the blocks every walk
//! visits.

use std::cell::Cell;

use lockgran_sim::DetMap;

use crate::mode::LockMode;

/// Transaction identifier: the slot the transaction occupies, which it
/// keeps from its first request until its release. Slots are dense from
/// 0 and recycled (the simulator hands out its slab slots), so every
/// per-transaction structure of the lock stack is a vector indexed by
/// it. The id carries no order: the incremental discipline learns each
/// transaction's age separately ([`crate::TwoPhaseScheduler::begin`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The slot as an index into a per-transaction vector.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

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

/// One element of a per-txn granule list (holdings or waited granules),
/// with the granule's entry slot: an entry stays put while anyone holds
/// or awaits it, so a release finds it without an index lookup.
#[derive(Clone, Copy, Debug)]
struct Link {
    granule: u64,
    slot: u32,
    next: u32,
}

/// The counts of a granted group (see module docs): its `IS` holders and
/// its holders of the one non-`IS` mode it may hold. Eight bytes, so an
/// entry stays within the prewarm footprint (DESIGN.md §13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Group {
    /// Holders in `IS`.
    is: u32,
    /// Holders in the non-`IS` mode times 8, plus that mode's index in
    /// [`LockMode::ALL`]; 0 when there is none.
    strong: u32,
}

impl Group {
    const EMPTY: Group = Group { is: 0, strong: 0 };

    /// The non-`IS` mode the group holds, if any.
    fn strong_mode(self) -> Option<LockMode> {
        (self.strong != 0).then(|| LockMode::ALL[(self.strong & 7) as usize])
    }

    /// Count one more holder in `mode`.
    fn add(&mut self, mode: LockMode) {
        if mode == LockMode::IS {
            self.is += 1;
        } else {
            debug_assert!(
                self.strong_mode().is_none_or(|m| m == mode),
                "{mode} granted beside {:?}",
                self.strong_mode()
            );
            self.strong = (self.strong | mode as u32) + 8;
        }
    }

    /// Count one holder in `mode` fewer.
    fn remove(&mut self, mode: LockMode) {
        if mode == LockMode::IS {
            self.is -= 1;
        } else {
            debug_assert_eq!(self.strong_mode(), Some(mode), "no {mode} holder to remove");
            self.strong -= 8;
            if self.strong < 8 {
                self.strong = 0;
            }
        }
    }

    /// Is `mode` compatible with every holder counted?
    fn admits(self, mode: LockMode) -> bool {
        (self.is == 0 || mode.compatible(LockMode::IS))
            && self.strong_mode().is_none_or(|held| mode.compatible(held))
    }

    /// Is `mode` compatible with every holder but one holding `own` (the
    /// requester itself)?
    fn admits_besides(mut self, own: LockMode, mode: LockMode) -> bool {
        self.remove(own);
        self.admits(mode)
    }
}

/// Per-granule lock state: granted group + FIFO wait queue, as heads and
/// tails into the shared block pool, and the granted group's counts.
/// `granted_head` doubles as the entry free-list link while the slot is
/// free.
#[derive(Clone, Copy, Debug)]
struct Entry {
    granted_head: u32,
    granted_tail: u32,
    wait_head: u32,
    wait_tail: u32,
    group: Group,
}

const EMPTY_ENTRY: Entry = Entry {
    granted_head: NIL,
    granted_tail: NIL,
    wait_head: NIL,
    wait_tail: NIL,
    group: Group::EMPTY,
};

/// Where [`LockTable::probe_fresh`] found a granule's entry, or that it
/// has none, for [`LockTable::grant_fresh`]. Valid until the table next
/// releases or queues anything, or grants that granule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreshSlot(u32);

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
    /// Holdings + waits record, by transaction slot.
    txns: Vec<TxnRec>,
    grants: u64,
    waits: u64,
    /// Blocks visited by walks along granted groups and wait queues (a
    /// `Cell`, so the `&self` probes count theirs too).
    visits: Cell<u64>,
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
            txns: Vec::new(),
            grants: 0,
            waits: 0,
            visits: Cell::new(0),
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
    ///
    /// A release cancels only the releasing transaction's own waits, and
    /// a transaction awaits at most one granule at a time under both
    /// schedulers (none under the predeclared one), so the cancel scratch
    /// is sized for one wait; a caller that queues one transaction on
    /// several granules lets it grow on demand.
    pub fn prewarm(&mut self, txns: usize, records: usize) {
        fn reserve_total<T>(v: &mut Vec<T>, cap: usize) {
            if cap > v.capacity() {
                let grow = cap - v.len();
                v.reserve(grow);
            }
        }
        self.index.reserve(records);
        reserve_total(&mut self.txns, txns);
        reserve_total(&mut self.entries, records);
        reserve_total(&mut self.blocks, records);
        reserve_total(&mut self.links, records);
        reserve_total(&mut self.cancel_scratch, txns.min(1));
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
        self.visits.set(0);
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

    fn alloc_link(&mut self, granule: u64, slot: u32) -> u32 {
        let link = Link {
            granule,
            slot,
            next: NIL,
        };
        if self.free_link != NIL {
            let l = self.free_link;
            self.free_link = self.links[l as usize].next;
            self.links[l as usize] = link;
            l
        } else {
            self.links.push(link);
            (self.links.len() - 1) as u32
        }
    }

    fn free_link_slot(&mut self, l: u32) {
        self.links[l as usize].next = self.free_link;
        self.free_link = l;
    }

    /// `txn`'s record, growing the record vector to reach its slot.
    fn txn_rec(&mut self, txn: TxnId) -> &mut TxnRec {
        let i = txn.index();
        if i >= self.txns.len() {
            self.txns.resize(i + 1, EMPTY_TXN);
        }
        &mut self.txns[i]
    }

    /// `txn`'s record, or the empty one if its slot was never reached.
    fn rec(&self, txn: TxnId) -> TxnRec {
        self.txns.get(txn.index()).copied().unwrap_or(EMPTY_TXN)
    }

    /// Append `granule`, whose entry is at `slot`, to `txn`'s holdings
    /// list. Callers guarantee the granule is not already present (fresh
    /// grants only — upgrades and upgrade promotions keep their existing
    /// link), which is exactly the dedupe-at-insert contract; debug
    /// builds verify it.
    fn add_holding(&mut self, txn: TxnId, granule: GranuleId, slot: u32) {
        debug_assert!(
            !self.holdings(txn).any(|g| g == granule),
            "{txn:?} already holds {granule:?}"
        );
        let link = self.alloc_link(granule.0, slot);
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
        let (mut prev, mut cur) = (NIL, self.rec(txn).hold_head);
        while cur != NIL {
            let link = self.links[cur as usize];
            if link.granule == granule.0 {
                let rec = &mut self.txns[txn.index()];
                if prev == NIL {
                    rec.hold_head = link.next;
                } else {
                    self.links[prev as usize].next = link.next;
                }
                if rec.hold_tail == cur {
                    rec.hold_tail = prev;
                }
                self.free_link_slot(cur);
                return;
            }
            prev = cur;
            cur = link.next;
        }
    }

    /// Record that `txn` now waits on `granule`, whose entry is at `slot`.
    fn add_wait_ref(&mut self, txn: TxnId, granule: GranuleId, slot: u32) {
        let link = self.alloc_link(granule.0, slot);
        let head = std::mem::replace(&mut self.txn_rec(txn).wait_head, link);
        self.links[link as usize].next = head;
    }

    /// Remove `granule` from `txn`'s waited set, if present.
    fn remove_wait_ref(&mut self, txn: TxnId, granule: GranuleId) {
        let (mut prev, mut cur) = (NIL, self.rec(txn).wait_head);
        while cur != NIL {
            let link = self.links[cur as usize];
            if link.granule == granule.0 {
                if prev == NIL {
                    self.txns[txn.index()].wait_head = link.next;
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

    /// Count `n` more visited blocks.
    fn visited(&self, n: u64) {
        self.visits.set(self.visits.get() + n);
    }

    /// Walk the list starting at `head` to `txn`'s block: `(previous
    /// block or NIL, block)`, or `None` if `txn` is not on it.
    fn seek(&self, head: u32, txn: TxnId) -> Option<(u32, u32)> {
        let (mut prev, mut cur, mut seen) = (NIL, head, 0);
        let found = loop {
            if cur == NIL {
                break None;
            }
            seen += 1;
            let b = self.blocks[cur as usize];
            if b.txn == txn {
                break Some((prev, cur));
            }
            prev = cur;
            cur = b.next;
        };
        self.visited(seen);
        found
    }

    /// `txn`'s block in `slot`'s granted group, if it holds the granule.
    fn holder_at(&self, slot: u32, txn: TxnId) -> Option<u32> {
        self.seek(self.entries[slot as usize].granted_head, txn)
            .map(|(_, b)| b)
    }

    /// `txn`'s queued block in `slot`'s wait queue, if any.
    fn find_waiter(&self, slot: u32, txn: TxnId) -> Option<u32> {
        self.seek(self.entries[slot as usize].wait_head, txn)
            .map(|(_, b)| b)
    }

    fn push_granted(&mut self, slot: u32, block: u32) {
        let mode = self.blocks[block as usize].mode;
        let e = &mut self.entries[slot as usize];
        e.group.add(mode);
        let tail = e.granted_tail;
        if tail == NIL {
            e.granted_head = block;
        } else {
            self.blocks[tail as usize].next = block;
        }
        self.entries[slot as usize].granted_tail = block;
        self.blocks[block as usize].next = NIL;
    }

    /// Unlink granted `block` (after `prev`, NIL at the head) and free it.
    fn unlink_granted(&mut self, slot: u32, prev: u32, block: u32) {
        let b = self.blocks[block as usize];
        let e = &mut self.entries[slot as usize];
        e.group.remove(b.mode);
        if prev == NIL {
            e.granted_head = b.next;
        } else {
            self.blocks[prev as usize].next = b.next;
        }
        if e.granted_tail == block {
            e.granted_tail = prev;
        }
        self.free_block_slot(block);
    }

    /// Unlink `txn`'s granted block, returning its mode.
    fn remove_granted(&mut self, slot: u32, txn: TxnId) -> Option<LockMode> {
        let (prev, block) = self.seek(self.entries[slot as usize].granted_head, txn)?;
        let mode = self.blocks[block as usize].mode;
        self.unlink_granted(slot, prev, block);
        Some(mode)
    }

    /// Raise granted `block`'s mode to `mode` in place (an upgrade).
    fn set_granted_mode(&mut self, slot: u32, block: u32, mode: LockMode) {
        let b = &mut self.blocks[block as usize];
        let group = &mut self.entries[slot as usize].group;
        group.remove(b.mode);
        group.add(mode);
        b.mode = mode;
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
        let (prev, block) = self.seek(self.entries[slot as usize].wait_head, txn)?;
        let next = self.blocks[block as usize].next;
        let e = &mut self.entries[slot as usize];
        if prev == NIL {
            e.wait_head = next;
        } else {
            self.blocks[prev as usize].next = next;
        }
        if e.wait_tail == block {
            e.wait_tail = prev;
        }
        Some(block)
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

    /// Would `txn` get `slot`'s granule in `mode` right now?
    fn grantable_at(&self, slot: u32, txn: TxnId, mode: LockMode) -> bool {
        let e = &self.entries[slot as usize];
        match self.holder_at(slot, txn) {
            Some(b) => {
                let held = self.blocks[b as usize].mode;
                let target = held.supremum(mode);
                target == held || e.group.admits_besides(held, target)
            }
            None => e.wait_head == NIL && e.group.admits(mode),
        }
    }

    /// The first transaction a denied request for `mode` by `txn` (`None`:
    /// a transaction on neither list) waits behind in `slot`: the first
    /// incompatible holder, else the first incompatible waiter, else the
    /// queue head (FIFO order alone can block).
    fn first_blocker(&self, slot: u32, txn: Option<TxnId>, mode: LockMode) -> Option<TxnId> {
        let e = &self.entries[slot as usize];
        let mut seen = 0;
        for head in [e.granted_head, e.wait_head] {
            let mut cur = head;
            while cur != NIL {
                seen += 1;
                let b = self.blocks[cur as usize];
                if txn != Some(b.txn) && !mode.compatible(b.mode) {
                    self.visited(seen);
                    return Some(b.txn);
                }
                cur = b.next;
            }
        }
        self.visited(seen);
        (e.wait_head != NIL).then(|| self.blocks[e.wait_head as usize].txn)
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
    #[must_use = "`false` means the request queued behind `blockers`"]
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
            if self.holder_at(slot, txn).is_some_and(|b| {
                let held = self.blocks[b as usize].mode;
                held.supremum(mode) == held
            }) {
                return true;
            }
            let merged = self.blocks[w as usize].mode.supremum(mode);
            self.blocks[w as usize].mode = merged;
            self.waits += 1;
            self.collect_blockers(slot, txn, merged, blockers);
            return false;
        }

        if let Some(b) = self.holder_at(slot, txn) {
            // Upgrade path: jumps the queue but must respect other holders.
            let held = self.blocks[b as usize].mode;
            let target = held.supremum(mode);
            if target == held {
                return true;
            }
            if self.entries[slot as usize]
                .group
                .admits_besides(held, target)
            {
                self.set_granted_mode(slot, b, target);
                self.grants += 1;
                return true;
            }
            self.enqueue(slot, txn, granule, target, blockers);
            return false;
        }

        let e = &self.entries[slot as usize];
        if e.wait_head == NIL && e.group.admits(mode) {
            self.grant_new(slot, txn, granule, mode);
            true
        } else {
            self.enqueue(slot, txn, granule, mode, blockers);
            false
        }
    }

    /// Give `txn` a new granted block in `slot` and a holdings link.
    fn grant_new(&mut self, slot: u32, txn: TxnId, granule: GranuleId, mode: LockMode) {
        let b = self.alloc_block(txn, mode);
        self.push_granted(slot, b);
        self.add_holding(txn, granule, slot);
        self.grants += 1;
    }

    /// Queue `txn`'s request for `mode` at the tail of `slot`'s wait
    /// queue, filling `blockers` with what it waits behind.
    fn enqueue(
        &mut self,
        slot: u32,
        txn: TxnId,
        granule: GranuleId,
        mode: LockMode,
        blockers: &mut Vec<TxnId>,
    ) {
        self.collect_blockers(slot, txn, mode, blockers);
        let b = self.alloc_block(txn, mode);
        self.push_waiter(slot, b);
        self.add_wait_ref(txn, granule, slot);
        self.waits += 1;
    }

    /// The fresh probe: would a transaction that holds and awaits nothing
    /// on `granule` get it in `mode` now? `Ok` carries where to grant it
    /// from ([`LockTable::grant_fresh`]); `Err` names the transaction
    /// [`LockTable::first_conflict`] would. One index lookup; the granted
    /// group and queue are walked only on a denial.
    pub fn probe_fresh(&self, granule: GranuleId, mode: LockMode) -> Result<FreshSlot, TxnId> {
        let Some(&slot) = self.index.get(granule.0) else {
            return Ok(FreshSlot(NIL));
        };
        let e = &self.entries[slot as usize];
        if e.wait_head == NIL && e.group.admits(mode) {
            return Ok(FreshSlot(slot));
        }
        match self.first_blocker(slot, None, mode) {
            Some(blocker) => Err(blocker),
            None => unreachable!("a denied fresh request has an incompatible holder or a queue"),
        }
    }

    /// The fresh grant: give `txn`, which holds and awaits nothing on
    /// `granule`, the lock in `mode` from the slot a fresh probe returned,
    /// without re-checking (debug builds re-check). Visits no block.
    pub fn grant_fresh(&mut self, txn: TxnId, granule: GranuleId, mode: LockMode, at: FreshSlot) {
        debug_assert_eq!(
            self.probe_fresh(granule, mode),
            Ok(at),
            "{txn:?} granted {granule:?} in {mode} from a stale probe"
        );
        debug_assert!(
            !self.waited(txn).any(|g| g == granule),
            "{txn:?} awaits {granule:?}"
        );
        let slot = if at.0 == NIL {
            let s = self.alloc_entry();
            self.index.insert(granule.0, s);
            s
        } else {
            at.0
        };
        self.grant_new(slot, txn, granule, mode);
    }

    /// Non-mutating conflict probe: would `txn` get `granule` in `mode`
    /// right now?
    pub fn would_grant(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> bool {
        self.index
            .get(granule.0)
            .is_none_or(|&slot| self.grantable_at(slot, txn, mode))
    }

    /// The first transaction `txn` would wait on if it requested
    /// `granule` in `mode` now (`None` if it would be granted).
    /// Allocation-free variant of [`LockTable::conflicts_with`].
    pub fn first_conflict(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> Option<TxnId> {
        let &slot = self.index.get(granule.0)?;
        if self.grantable_at(slot, txn, mode) {
            return None;
        }
        self.first_blocker(slot, Some(txn), mode)
    }

    /// The transactions `txn` would wait on if it requested `granule` in
    /// `mode` now (empty if it would be granted).
    pub fn conflicts_with(&self, txn: TxnId, granule: GranuleId, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        if let Some(&slot) = self.index.get(granule.0) {
            if !self.grantable_at(slot, txn, mode) {
                self.collect_blockers(slot, txn, mode, &mut out);
            }
        }
        out
    }

    fn collect_blockers(&self, slot: u32, txn: TxnId, mode: LockMode, out: &mut Vec<TxnId>) {
        let e = &self.entries[slot as usize];
        let mut seen = 0;
        for head in [e.granted_head, e.wait_head] {
            let mut cur = head;
            while cur != NIL {
                seen += 1;
                let b = self.blocks[cur as usize];
                if b.txn != txn && !mode.compatible(b.mode) && !out.contains(&b.txn) {
                    out.push(b.txn);
                }
                cur = b.next;
            }
        }
        self.visited(seen);
        // FIFO order alone can block (compatible request behind an
        // incompatible waiter): fall back to the queue head.
        if out.is_empty() && e.wait_head != NIL {
            out.push(self.blocks[e.wait_head as usize].txn);
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
        // Nothing below grants `txn` or queues it, so its record can be
        // emptied first; its lists are walked from this copy.
        let Some(rec) = self
            .txns
            .get_mut(txn.index())
            .map(|r| std::mem::replace(r, EMPTY_TXN))
        else {
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
            let slot = link.slot;
            debug_assert_eq!(
                self.index.get(link.granule),
                Some(&slot),
                "stale holding slot"
            );
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
        let mut cur = rec.wait_head;
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
        debug_assert!(
            !self.holds_or_awaits(txn),
            "{txn:?} regained a lock or wait"
        );
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
            // An upgrading waiter's own granted block does not block it.
            let own = self.seek(self.entries[slot as usize].granted_head, w.txn);
            let group = self.entries[slot as usize].group;
            let compatible = match own {
                Some((_, b)) => group.admits_besides(self.blocks[b as usize].mode, w.mode),
                None => group.admits(w.mode),
            };
            if !compatible {
                return;
            }
            // Pop the head waiter and move its block to the granted group.
            let e = &mut self.entries[slot as usize];
            e.wait_head = w.next;
            if e.wait_head == NIL {
                e.wait_tail = NIL;
            }
            // An upgrading waiter replaces its old granted block; a fresh
            // waiter gains a holdings link.
            match own {
                Some((prev, b)) => self.unlink_granted(slot, prev, b),
                None => self.add_holding(w.txn, granule, slot),
            }
            self.push_granted(slot, head);
            self.remove_wait_ref(w.txn, granule);
            self.grants += 1;
            out.push((w.txn, w.mode));
        }
    }

    /// Mode in which `txn` holds `granule`, if any.
    pub fn held_mode(&self, txn: TxnId, granule: GranuleId) -> Option<LockMode> {
        let &slot = self.index.get(granule.0)?;
        self.holder_at(slot, txn)
            .map(|b| self.blocks[b as usize].mode)
    }

    /// Granules currently held by `txn`, in acquisition (append) order.
    pub fn holdings(&self, txn: TxnId) -> impl Iterator<Item = GranuleId> + '_ {
        LinkIter {
            links: &self.links,
            cur: self.rec(txn).hold_head,
        }
    }

    /// Granules `txn` currently waits on, latest first.
    fn waited(&self, txn: TxnId) -> impl Iterator<Item = GranuleId> + '_ {
        LinkIter {
            links: &self.links,
            cur: self.rec(txn).wait_head,
        }
    }

    /// Does `txn` hold or await any granule?
    pub fn holds_or_awaits(&self, txn: TxnId) -> bool {
        let rec = self.rec(txn);
        rec.hold_head != NIL || rec.wait_head != NIL
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

    /// Total granted-group and wait-queue blocks visited by walks: an
    /// exact, host-independent measure of the table's list work. A fresh
    /// probe or grant visits none.
    pub fn visit_count(&self) -> u64 {
        self.visits.get()
    }

    /// Check internal invariants; returns a description of the first
    /// violation. Used by property tests and debug assertions. Its own
    /// walks are not the table's work: the visit count is left as it was.
    pub fn check_invariants(&self) -> Result<(), String> {
        let visits = self.visits.get();
        let verdict = self.audit();
        self.visits.set(visits);
        verdict
    }

    fn audit(&self) -> Result<(), String> {
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
            // 4. The group's counts match the group.
            let mut counted = Group::EMPTY;
            for &(_, m) in &granted {
                counted.add(m);
            }
            let kept = self.entries[slot as usize].group;
            if kept != counted {
                return Err(format!(
                    "group counts on {g:?} read {kept:?}, its holders {counted:?}"
                ));
            }
            // 5. holdings index consistent with granted groups.
            for (t, _) in &granted {
                if !self.holdings(*t).any(|h| h == g) {
                    return Err(format!("{t:?} granted on {g:?} but missing from holdings"));
                }
            }
        }
        for (t, rec) in (0..).map(TxnId).zip(&self.txns) {
            if (rec.hold_head == NIL) != (rec.hold_tail == NIL) {
                return Err(format!(
                    "{t:?} has a holdings head or tail without the other"
                ));
            }
            for head in [rec.hold_head, rec.wait_head] {
                let mut cur = head;
                while cur != NIL {
                    let link = self.links[cur as usize];
                    if self.index.get(link.granule) != Some(&link.slot) {
                        return Err(format!(
                            "{t:?} links granule {} to a stale entry slot",
                            link.granule
                        ));
                    }
                    cur = link.next;
                }
            }
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
