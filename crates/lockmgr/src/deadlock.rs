//! Waits-for graph and cycle detection.
//!
//! Incremental two-phase locking can deadlock; the standard detector keeps
//! a graph with an edge `A → B` whenever transaction `A` waits for a lock
//! held (or queued ahead) by `B`, and searches for cycles after each new
//! wait. The conservative protocol the paper simulates never needs this —
//! all locks are pre-declared — but the [`crate::twophase`] extension does.
//!
//! Layout: every transaction slot owns a node in a vector indexed by its
//! [`TxnId`], holding the age [`WaitsForGraph::begin`] gave it. Every edge
//! lives in one pooled slab, linked into two lists — its waiter's
//! out-list, kept in ascending holder age (the order the DFS visits
//! neighbours, so the cycle it reports is the one an age-sorted adjacency
//! would give), and its holder's in-list, so dropping a transaction
//! touches only the edges it deletes. No call hashes: a transaction's node
//! is at its slot. Edges recycle through a free list and the DFS reuses
//! stamped per-node colours plus persistent scratch buffers, so
//! steady-state detection allocates nothing.

use crate::table::TxnId;

/// Null link in the node and edge lists.
const NIL: u32 = u32::MAX;
/// The age of a slot no transaction has been seated in.
const NO_AGE: u64 = u64::MAX;
/// DFS colour: on the current path.
const GRAY: u8 = 1;
/// DFS colour: fully explored, not on any cycle reachable this pass.
const BLACK: u8 = 2;

/// A transaction slot's node.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Age of the transaction in this slot (larger is younger), or
    /// `NO_AGE`.
    age: u64,
    /// First edge out of this transaction (the out-list ascends by holder
    /// age).
    out_head: u32,
    /// First edge into this transaction (in-list order is unobservable).
    in_head: u32,
    /// DFS pass that last coloured this node.
    stamp: u64,
    /// Colour, valid only when `stamp` equals the current pass.
    color: u8,
}

const EMPTY_NODE: Node = Node {
    age: NO_AGE,
    out_head: NIL,
    in_head: NIL,
    stamp: 0,
    color: 0,
};

/// One edge `waiter → holder`, threaded on both endpoints' lists.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// The waiter's slot.
    from: u32,
    /// The holder's slot.
    to: u32,
    /// Previous edge in the waiter's out-list.
    prev_out: u32,
    /// Next edge in the waiter's out-list; the free-list link while the
    /// edge is free.
    next_out: u32,
    /// Previous edge in the holder's in-list.
    prev_in: u32,
    /// Next edge in the holder's in-list.
    next_in: u32,
}

/// A directed waits-for graph over transaction slots.
///
/// A slot is seated by [`Self::begin`] and keeps its age until
/// [`Self::end`]; its edges live from the first wait naming it until
/// [`Self::remove_txn`] (it aborted) or `end` (it committed) or, for its
/// out-edges, [`Self::remove_outgoing`] (its wait was granted).
#[derive(Debug)]
pub struct WaitsForGraph {
    /// Nodes by transaction slot.
    nodes: Vec<Node>,
    /// Edge slab, recycled through `free_edge`; grows on demand.
    edges: Vec<Edge>,
    /// Head of the free edge list, threaded through `next_out`.
    free_edge: u32,
    /// Current DFS pass number (stamps validate per-node colours).
    version: u64,
    /// Scratch: the age-sorted, deduplicated holders of one `add_waits`
    /// call.
    holders: Vec<TxnId>,
    /// DFS scratch: the current path as (node slot, next out-edge to try).
    stack: Vec<(u32, u32)>,
    /// The most recent cycle found (backs the returned slice).
    cycle: Vec<TxnId>,
}

impl Default for WaitsForGraph {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
            version: 0,
            holders: Vec::new(),
            stack: Vec::new(),
            cycle: Vec::new(),
        }
    }
}

impl WaitsForGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every node and edge but keep the slabs and the DFS scratch
    /// (reset-equals-fresh).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.free_edge = NIL;
        self.version = 0;
        self.holders.clear();
        self.stack.clear();
        self.cycle.clear();
    }

    /// Pre-size the DFS and blocker-set scratch so `txns` transactions can
    /// wait, be searched and leave without touching the allocator — the
    /// warm-up hook for closed systems where the multiprogramming level
    /// bounds the slots. The node vector grows at [`Self::begin`], when a
    /// slot is first seated. The edge slab is left to grow on demand: its
    /// worst case is quadratic in `txns`, and a doubling slab reaches its
    /// working size early in a run.
    pub fn prewarm(&mut self, txns: usize) {
        self.holders.reserve(txns);
        self.stack.reserve(txns);
        self.cycle.reserve(txns);
    }

    /// Seat a transaction of `age` in slot `txn`, which has no edges.
    /// Ages order every out-list and pick every victim, so the
    /// transactions of one graph must carry distinct ages; a slot keeps
    /// its age across [`Self::remove_txn`] (a deadlock victim replays
    /// under it) until [`Self::end`].
    pub fn begin(&mut self, txn: TxnId, age: u64) {
        let i = txn.index();
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, EMPTY_NODE);
            // DFS depth is bounded by the slot count, so growing the
            // scratch *here* — when the slot-count record is set — keeps
            // the search itself allocation-free.
            let n = self.nodes.len();
            self.stack.reserve(n.saturating_sub(self.stack.len()));
            self.cycle.reserve(n.saturating_sub(self.cycle.len()));
        }
        let node = &mut self.nodes[i];
        debug_assert!(
            node.out_head == NIL && node.in_head == NIL,
            "{txn:?} seated while it still has edges"
        );
        node.age = age;
    }

    /// The age slot `txn` was last seated with, if any.
    pub fn age(&self, txn: TxnId) -> Option<u64> {
        self.nodes
            .get(txn.index())
            .map(|n| n.age)
            .filter(|&a| a != NO_AGE)
    }

    /// Record that `waiter` waits on every transaction in `holders`.
    /// Duplicates, edges already present and `waiter` itself (a
    /// transaction never waits on itself) are ignored. Every transaction
    /// named must have been seated ([`Self::begin`]).
    pub fn add_waits(&mut self, waiter: TxnId, holders: &[TxnId]) {
        let mut sorted = std::mem::take(&mut self.holders);
        sorted.clear();
        sorted.extend(holders.iter().copied().filter(|&h| h != waiter));
        debug_assert!(
            sorted
                .iter()
                .chain([&waiter])
                .all(|&t| self.age(t).is_some()),
            "a wait of {waiter:?} on {holders:?} names an unseated slot"
        );
        let nodes = &self.nodes;
        sorted.sort_unstable_by_key(|h| nodes[h.index()].age);
        sorted.dedup();
        if !sorted.is_empty() {
            let from = waiter.index() as u32;
            // Merge into the age-ascending out-list; `prev` trails `cur`.
            let (mut prev, mut cur) = (NIL, self.nodes[from as usize].out_head);
            for &holder in &sorted {
                let (to, age) = (holder.index() as u32, self.nodes[holder.index()].age);
                while cur != NIL && self.holder_age(cur) < age {
                    prev = cur;
                    cur = self.edges[cur as usize].next_out;
                }
                if cur != NIL && self.edges[cur as usize].to == to {
                    continue;
                }
                prev = self.link_edge(from, to, prev, cur);
            }
        }
        self.holders = sorted;
    }

    /// The transaction in slot `txn` committed: remove its edges and
    /// forget its age, until the slot is seated again.
    pub fn end(&mut self, txn: TxnId) {
        self.remove_txn(txn);
        if let Some(node) = self.nodes.get_mut(txn.index()) {
            node.age = NO_AGE;
        }
    }

    /// Remove every edge into or out of `txn` (it aborted). Its age
    /// stays.
    pub fn remove_txn(&mut self, txn: TxnId) {
        if txn.index() >= self.nodes.len() {
            return;
        }
        let slot = txn.index() as u32;
        self.drop_out_edges(slot);
        let mut e = self.nodes[slot as usize].in_head;
        while e != NIL {
            let edge = self.edges[e as usize];
            if edge.prev_out == NIL {
                self.nodes[edge.from as usize].out_head = edge.next_out;
            } else {
                self.edges[edge.prev_out as usize].next_out = edge.next_out;
            }
            if edge.next_out != NIL {
                self.edges[edge.next_out as usize].prev_out = edge.prev_out;
            }
            self.free_edge_slot(e);
            e = edge.next_in;
        }
        self.nodes[slot as usize].in_head = NIL;
    }

    /// Remove only the edges *out of* `txn` (its wait was satisfied),
    /// preserving inbound edges from transactions still queued behind it.
    /// This is the correct maintenance step when `txn` is **granted** a
    /// lock: its own wait ended, but anyone waiting on `txn` is now
    /// waiting on a holder — those edges are more valid than ever.
    pub fn remove_outgoing(&mut self, txn: TxnId) {
        if txn.index() < self.nodes.len() {
            self.drop_out_edges(txn.index() as u32);
        }
    }

    /// Transactions `txn` currently waits on, youngest last.
    pub fn waits_on(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        let mut e = self.nodes.get(txn.index()).map_or(NIL, |n| n.out_head);
        std::iter::from_fn(move || {
            if e == NIL {
                return None;
            }
            let edge = &self.edges[e as usize];
            e = edge.next_out;
            Some(TxnId(u64::from(edge.to)))
        })
    }

    /// Does any transaction wait on `txn`? A cycle through `txn` needs an
    /// edge into it.
    pub fn has_waiters(&self, txn: TxnId) -> bool {
        self.nodes
            .get(txn.index())
            .is_some_and(|n| n.in_head != NIL)
    }

    /// Find a cycle reachable from `start`, returned as the list of
    /// transactions on the cycle (in waits-for order, starting anywhere on
    /// the cycle). `None` if `start` is not on/ahead of a cycle. The slice
    /// is backed by an internal buffer overwritten by the next search.
    ///
    /// Iterative DFS with an explicit stack — transaction chains can be
    /// long under heavy contention and must not overflow the call stack.
    /// Neighbours are explored in ascending age, so the cycle found is the
    /// same one an age-sorted adjacency reports.
    pub fn find_cycle_from(&mut self, start: TxnId) -> Option<&[TxnId]> {
        self.cycle.clear();
        let head = self.nodes.get(start.index())?.out_head;
        let start = start.index() as u32;
        // A transaction with no outgoing edges cannot be on or ahead of a
        // cycle.
        if head == NIL {
            return None;
        }
        self.version += 1;
        let version = self.version;
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        self.color(start, GRAY, version);
        stack.push((start, head));

        while let Some(top) = stack.last_mut() {
            let (node, e) = *top;
            if e == NIL {
                // Out-neighbours exhausted: retire the node.
                self.color(node, BLACK, version);
                stack.pop();
                continue;
            }
            let edge = self.edges[e as usize];
            top.1 = edge.next_out;
            let next = self.nodes[edge.to as usize];
            if next.out_head == NIL {
                // No outgoing edges: cannot close a cycle, skip.
                continue;
            }
            if next.stamp != version {
                self.color(edge.to, GRAY, version);
                stack.push((edge.to, next.out_head));
            } else if next.color == GRAY {
                // Back edge: the cycle is the path suffix from `next`.
                let Some(pos) = stack.iter().position(|&(s, _)| s == edge.to) else {
                    // A gray node is on the DFS path by construction of
                    // the colouring.
                    unreachable!("gray node must be on path")
                };
                self.cycle
                    .extend(stack[pos..].iter().map(|&(s, _)| TxnId(u64::from(s))));
                break;
            }
        }

        self.stack = stack;
        if self.cycle.is_empty() {
            None
        } else {
            Some(&self.cycle)
        }
    }

    /// The victim that breaks the cycle [`Self::find_cycle_from`] finds
    /// from `start`: its youngest (largest-age) transaction. `None` if no
    /// cycle is reachable.
    pub fn victim_from(&mut self, start: TxnId) -> Option<TxnId> {
        self.find_cycle_from(start)?;
        let nodes = &self.nodes;
        self.cycle
            .iter()
            .copied()
            .max_by_key(|t| nodes[t.index()].age)
    }

    /// The age of edge `e`'s holder.
    fn holder_age(&self, e: u32) -> u64 {
        self.nodes[self.edges[e as usize].to as usize].age
    }

    /// Allocate an edge `from → to`, link it into `from`'s out-list
    /// between `prev` and `next` and at the head of `to`'s in-list, and
    /// return it.
    fn link_edge(&mut self, from: u32, to: u32, prev: u32, next: u32) -> u32 {
        let in_next = self.nodes[to as usize].in_head;
        let edge = Edge {
            from,
            to,
            prev_out: prev,
            next_out: next,
            prev_in: NIL,
            next_in: in_next,
        };
        let e = if self.free_edge != NIL {
            let e = self.free_edge;
            self.free_edge = self.edges[e as usize].next_out;
            self.edges[e as usize] = edge;
            e
        } else {
            self.edges.push(edge);
            (self.edges.len() - 1) as u32
        };
        if prev == NIL {
            self.nodes[from as usize].out_head = e;
        } else {
            self.edges[prev as usize].next_out = e;
        }
        if next != NIL {
            self.edges[next as usize].prev_out = e;
        }
        if in_next != NIL {
            self.edges[in_next as usize].prev_in = e;
        }
        self.nodes[to as usize].in_head = e;
        e
    }

    /// Unlink and free every edge out of `slot`.
    fn drop_out_edges(&mut self, slot: u32) {
        let mut e = self.nodes[slot as usize].out_head;
        self.nodes[slot as usize].out_head = NIL;
        while e != NIL {
            let edge = self.edges[e as usize];
            if edge.prev_in == NIL {
                self.nodes[edge.to as usize].in_head = edge.next_in;
            } else {
                self.edges[edge.prev_in as usize].next_in = edge.next_in;
            }
            if edge.next_in != NIL {
                self.edges[edge.next_in as usize].prev_in = edge.prev_in;
            }
            self.free_edge_slot(e);
            e = edge.next_out;
        }
    }

    /// Return edge `e` to the free list.
    fn free_edge_slot(&mut self, e: u32) {
        self.edges[e as usize].next_out = self.free_edge;
        self.free_edge = e;
    }

    /// Stamp `slot`'s colour for the current pass.
    fn color(&mut self, slot: u32, color: u8, version: u64) {
        let node = &mut self.nodes[slot as usize];
        node.stamp = version;
        node.color = color;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    /// A graph with slots `0..n` seated, each aged by its slot number.
    fn graph(n: u64) -> WaitsForGraph {
        let mut g = WaitsForGraph::new();
        for i in 0..n {
            g.begin(t(i), i);
        }
        g
    }

    /// Add the single edge `waiter → holder`.
    fn edge(g: &mut WaitsForGraph, waiter: u64, holder: u64) {
        g.add_waits(t(waiter), &[t(holder)]);
    }

    /// A cycle reachable from any of `ids`, probed in ascending order.
    fn any_cycle(g: &mut WaitsForGraph, ids: std::ops::Range<u64>) -> Option<Vec<TxnId>> {
        ids.into_iter()
            .find_map(|s| g.find_cycle_from(t(s)).map(<[TxnId]>::to_vec))
    }

    /// Number of edges out of `ids`.
    fn edge_count(g: &WaitsForGraph, ids: std::ops::Range<u64>) -> usize {
        ids.into_iter().map(|s| g.waits_on(t(s)).count()).sum()
    }

    #[test]
    fn no_cycle_in_chain() {
        let mut g = graph(5);
        edge(&mut g, 1, 2);
        edge(&mut g, 2, 3);
        edge(&mut g, 3, 4);
        assert!(any_cycle(&mut g, 0..5).is_none());
        assert!(g.find_cycle_from(t(1)).is_none());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = graph(3);
        edge(&mut g, 1, 2);
        edge(&mut g, 2, 1);
        let cycle = g.find_cycle_from(t(1)).expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn long_cycle_detected_from_any_entry() {
        let mut g = graph(10);
        for i in 0..10 {
            edge(&mut g, i, (i + 1) % 10);
        }
        for i in 0..10 {
            let cycle = g.find_cycle_from(t(i)).expect("cycle");
            assert_eq!(cycle.len(), 10);
        }
    }

    #[test]
    fn cycle_behind_a_tail_is_found() {
        // 0 -> 1 -> 2 -> 3 -> 1 : start node not on the cycle itself.
        let mut g = graph(4);
        edge(&mut g, 0, 1);
        edge(&mut g, 1, 2);
        edge(&mut g, 2, 3);
        edge(&mut g, 3, 1);
        let cycle: Vec<TxnId> = g.find_cycle_from(t(0)).expect("cycle").to_vec();
        assert_eq!(cycle, vec![t(1), t(2), t(3)]);
        assert!(!g.has_waiters(t(0)));
    }

    #[test]
    fn removing_txn_breaks_cycle() {
        let mut g = graph(4);
        edge(&mut g, 1, 2);
        edge(&mut g, 2, 3);
        edge(&mut g, 3, 1);
        assert!(any_cycle(&mut g, 0..4).is_some());
        g.remove_txn(t(2));
        assert!(any_cycle(&mut g, 0..4).is_none());
        assert_eq!(edge_count(&g, 0..4), 1); // only 3 -> 1 remains
        assert!(g.has_waiters(t(1)) && !g.has_waiters(t(3)));
    }

    #[test]
    fn remove_outgoing_preserves_inbound() {
        // 3 -> 2 -> 1 ; granting 2 must drop only 2 -> 1, keeping 3 -> 2.
        let mut g = graph(4);
        edge(&mut g, 2, 1);
        edge(&mut g, 3, 2);
        g.remove_outgoing(t(2));
        assert_eq!(edge_count(&g, 0..4), 1);
        let inbound: Vec<TxnId> = g.waits_on(t(3)).collect();
        assert_eq!(inbound, vec![t(2)]);
        assert!(g.has_waiters(t(2)) && !g.has_waiters(t(1)));
        // A later 2 -> 3 edge now closes a cycle through the kept edge.
        edge(&mut g, 2, 3);
        assert!(g.find_cycle_from(t(2)).is_some());
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = graph(2);
        edge(&mut g, 1, 1);
        assert_eq!(edge_count(&g, 0..2), 0);
        assert!(any_cycle(&mut g, 0..2).is_none());
        assert!(!g.has_waiters(t(1)));
    }

    #[test]
    fn diamond_without_cycle() {
        let mut g = graph(5);
        g.add_waits(t(1), &[t(3), t(2)]);
        edge(&mut g, 2, 4);
        edge(&mut g, 3, 4);
        assert!(any_cycle(&mut g, 0..5).is_none());
    }

    #[test]
    fn blocker_sets_merge_ascending_without_duplicates() {
        let mut g = graph(11);
        g.add_waits(t(5), &[t(9), t(2), t(5), t(9), t(7)]);
        g.add_waits(t(5), &[t(8), t(1), t(7), t(10)]);
        let out: Vec<TxnId> = g.waits_on(t(5)).collect();
        assert_eq!(out, [1, 2, 7, 8, 9, 10].map(t).to_vec());
        assert!(!g.has_waiters(t(5)) && g.has_waiters(t(10)));
    }

    /// Out-lists ascend by holder age and the victim is the largest age
    /// on the cycle, whatever the slot numbers: here the ages run against
    /// them.
    #[test]
    fn ages_not_slots_order_out_lists_and_pick_victims() {
        let mut g = WaitsForGraph::new();
        for (slot, age) in [(0, 40), (1, 30), (2, 20), (3, 10)] {
            g.begin(t(slot), age);
        }
        g.add_waits(t(3), &[t(0), t(2), t(1)]);
        let out: Vec<TxnId> = g.waits_on(t(3)).collect();
        assert_eq!(out, [2, 1, 0].map(t).to_vec(), "ascending age");
        // 3 -> {2, 1, 0}; 2 -> 3 and 0 -> 3 both close cycles with 3. The
        // DFS from 3 meets 2 (age 20) first, so the cycle is {3, 2}, and
        // its youngest member is slot 2.
        edge(&mut g, 0, 3);
        edge(&mut g, 2, 3);
        assert_eq!(g.find_cycle_from(t(3)).unwrap(), [t(3), t(2)]);
        assert_eq!(g.victim_from(t(3)), Some(t(2)));
        // A reseated slot takes its new age: slot 2 becomes the youngest.
        g.remove_txn(t(2));
        assert_eq!(g.age(t(2)), Some(20), "an abort keeps the age");
        g.end(t(2));
        assert_eq!(g.age(t(2)), None, "a commit forgets it");
        g.begin(t(2), 50);
        g.add_waits(t(3), &[t(2)]);
        let out: Vec<TxnId> = g.waits_on(t(3)).collect();
        assert_eq!(out, [1, 0, 2].map(t).to_vec());
        assert_eq!(g.victim_from(t(3)), Some(t(0)));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut g = graph(100_001);
        for i in 0..100_000u64 {
            edge(&mut g, i, i + 1);
        }
        assert!(g.find_cycle_from(t(0)).is_none());
        edge(&mut g, 100_000, 0);
        assert_eq!(g.find_cycle_from(t(0)).unwrap().len(), 100_001);
    }

    #[test]
    fn detection_is_allocation_free_after_warmup() {
        // Colour stamps + pooled scratch: repeated searches over a live
        // graph must not grow any buffer once warmed up.
        let mut g = graph(51);
        for i in 0..50 {
            edge(&mut g, i, i + 1);
        }
        edge(&mut g, 50, 25);
        for _ in 0..100 {
            assert_eq!(g.find_cycle_from(t(0)).unwrap().len(), 26);
            assert!(g.find_cycle_from(t(30)).is_some());
        }
        // Slots and edges recycle through the free lists.
        let (nodes, edges) = (g.nodes.capacity(), g.edges.capacity());
        for i in 0..50 {
            g.remove_txn(t(i));
        }
        assert_eq!(edge_count(&g, 0..51), 0);
        g.remove_txn(t(50));
        for i in 0..50 {
            edge(&mut g, i, i + 1);
        }
        edge(&mut g, 50, 25);
        assert_eq!(g.find_cycle_from(t(0)).unwrap().len(), 26);
        assert_eq!((g.nodes.capacity(), g.edges.capacity()), (nodes, edges));
    }
}
