//! Waits-for graph and cycle detection.
//!
//! Incremental two-phase locking can deadlock; the standard detector keeps
//! a graph with an edge `A → B` whenever transaction `A` waits for a lock
//! held (or queued ahead) by `B`, and searches for cycles after each new
//! wait. The conservative protocol the paper simulates never needs this —
//! all locks are pre-declared — but the [`crate::twophase`] extension does.
//!
//! Layout: every transaction with an edge owns a dense node slot, and
//! every edge lives in one pooled slab, linked into two lists — its
//! waiter's out-list, kept in ascending holder id (the order the DFS
//! visits neighbours, so the cycle it reports is the one a sorted-set
//! adjacency would give), and its holder's in-list, so dropping a
//! transaction touches only the edges it deletes. Each public call makes
//! one `DetMap` lookup per transaction it names; the DFS follows slot
//! indices and makes none. Node slots and edges recycle through free
//! lists and the DFS reuses stamped per-node colours plus persistent
//! scratch buffers, so steady-state detection allocates nothing.

use lockgran_sim::DetMap;

use crate::table::TxnId;

/// Null link in the node and edge lists.
const NIL: u32 = u32::MAX;
/// DFS colour: on the current path.
const GRAY: u8 = 1;
/// DFS colour: fully explored, not on any cycle reachable this pass.
const BLACK: u8 = 2;

/// A transaction's node slot.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// The transaction in this slot.
    id: TxnId,
    /// First edge out of this transaction (the out-list ascends by holder
    /// id); the free-list link while the slot is free.
    out_head: u32,
    /// First edge into this transaction (in-list order is unobservable).
    in_head: u32,
    /// DFS pass that last coloured this node.
    stamp: u64,
    /// Colour, valid only when `stamp` equals the current pass.
    color: u8,
}

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

/// A directed waits-for graph over transactions.
///
/// A transaction's slot lives from its first edge until [`Self::remove_txn`]
/// (it committed or aborted), so the slot count is bounded by the live
/// transactions, not by the ones that ever waited.
#[derive(Debug)]
pub struct WaitsForGraph {
    /// Transaction id → node slot.
    index: DetMap<u32>,
    /// Node slab, recycled through `free_node`.
    nodes: Vec<Node>,
    /// Head of the free node-slot list, threaded through `out_head`.
    free_node: u32,
    /// Edge slab, recycled through `free_edge`; grows on demand.
    edges: Vec<Edge>,
    /// Head of the free edge list, threaded through `next_out`.
    free_edge: u32,
    /// Current DFS pass number (stamps validate per-node colours).
    version: u64,
    /// Scratch: the sorted, deduplicated holders of one `add_waits` call.
    holders: Vec<TxnId>,
    /// DFS scratch: the current path as (node slot, next out-edge to try).
    stack: Vec<(u32, u32)>,
    /// The most recent cycle found (backs the returned slice).
    cycle: Vec<TxnId>,
}

impl Default for WaitsForGraph {
    fn default() -> Self {
        Self {
            index: DetMap::new(),
            nodes: Vec::new(),
            free_node: NIL,
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
        self.index.clear();
        self.nodes.clear();
        self.free_node = NIL;
        self.edges.clear();
        self.free_edge = NIL;
        self.version = 0;
        self.holders.clear();
        self.stack.clear();
        self.cycle.clear();
    }

    /// Pre-size the node index, the node slab and the DFS scratch so
    /// `txns` concurrent transactions can wait, be searched and leave
    /// without touching the allocator — the warm-up hook for closed
    /// systems where the multiprogramming level bounds concurrent
    /// transactions. The edge slab is left to grow on demand: its worst
    /// case is quadratic in `txns`, and a doubling slab reaches its
    /// working size early in a run.
    pub fn prewarm(&mut self, txns: usize) {
        self.index.reserve(txns);
        self.nodes.reserve(txns);
        self.holders.reserve(txns);
        self.stack.reserve(txns);
        self.cycle.reserve(txns);
    }

    /// Record that `waiter` waits on every transaction in `holders`.
    /// Duplicates, edges already present and `waiter` itself (a
    /// transaction never waits on itself) are ignored.
    pub fn add_waits(&mut self, waiter: TxnId, holders: &[TxnId]) {
        let mut sorted = std::mem::take(&mut self.holders);
        sorted.clear();
        sorted.extend(holders.iter().copied().filter(|&h| h != waiter));
        sorted.sort_unstable();
        sorted.dedup();
        if !sorted.is_empty() {
            let from = self.slot(waiter);
            // Merge into the ascending out-list; `prev` trails `cur`.
            let (mut prev, mut cur) = (NIL, self.nodes[from as usize].out_head);
            for &holder in &sorted {
                while cur != NIL && self.holder_of(cur) < holder {
                    prev = cur;
                    cur = self.edges[cur as usize].next_out;
                }
                if cur != NIL && self.holder_of(cur) == holder {
                    continue;
                }
                let to = self.slot(holder);
                prev = self.link_edge(from, to, prev, cur);
            }
        }
        self.holders = sorted;
    }

    /// Remove every edge into or out of `txn` and free its slot (it
    /// committed or aborted).
    pub fn remove_txn(&mut self, txn: TxnId) {
        let Some(slot) = self.index.remove(txn.0) else {
            return;
        };
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
        let node = &mut self.nodes[slot as usize];
        node.in_head = NIL;
        node.out_head = self.free_node;
        self.free_node = slot;
    }

    /// Remove only the edges *out of* `txn` (its wait was satisfied),
    /// preserving inbound edges from transactions still queued behind it.
    /// This is the correct maintenance step when `txn` is **granted** a
    /// lock: its own wait ended, but anyone waiting on `txn` is now
    /// waiting on a holder — those edges are more valid than ever.
    pub fn remove_outgoing(&mut self, txn: TxnId) {
        if let Some(&slot) = self.index.get(txn.0) {
            self.drop_out_edges(slot);
        }
    }

    /// Transactions `txn` currently waits on, ascending.
    pub fn waits_on(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        let mut e = self
            .index
            .get(txn.0)
            .map_or(NIL, |&slot| self.nodes[slot as usize].out_head);
        std::iter::from_fn(move || {
            if e == NIL {
                return None;
            }
            let edge = &self.edges[e as usize];
            e = edge.next_out;
            Some(self.nodes[edge.to as usize].id)
        })
    }

    /// Does any transaction wait on `txn`? A cycle through `txn` needs an
    /// edge into it.
    pub fn has_waiters(&self, txn: TxnId) -> bool {
        self.index
            .get(txn.0)
            .is_some_and(|&slot| self.nodes[slot as usize].in_head != NIL)
    }

    /// Find a cycle reachable from `start`, returned as the list of
    /// transactions on the cycle (in waits-for order, starting anywhere on
    /// the cycle). `None` if `start` is not on/ahead of a cycle. The slice
    /// is backed by an internal buffer overwritten by the next search.
    ///
    /// Iterative DFS with an explicit stack — transaction chains can be
    /// long under heavy contention and must not overflow the call stack.
    /// Neighbours are explored ascending, so the cycle found is the same
    /// one a sorted-set adjacency reports.
    pub fn find_cycle_from(&mut self, start: TxnId) -> Option<&[TxnId]> {
        self.cycle.clear();
        let start = *self.index.get(start.0)?;
        let head = self.nodes[start as usize].out_head;
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
                let nodes = &self.nodes;
                self.cycle
                    .extend(stack[pos..].iter().map(|&(s, _)| nodes[s as usize].id));
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

    /// The slot of `txn`, allocating one on its first edge.
    fn slot(&mut self, txn: TxnId) -> u32 {
        let (nodes, free, stack, cycle) = (
            &mut self.nodes,
            &mut self.free_node,
            &mut self.stack,
            &mut self.cycle,
        );
        *self.index.get_or_insert_with(txn.0, || {
            let node = Node {
                id: txn,
                out_head: NIL,
                in_head: NIL,
                stamp: 0,
                color: 0,
            };
            if *free != NIL {
                let slot = *free;
                *free = nodes[slot as usize].out_head;
                nodes[slot as usize] = node;
                return slot;
            }
            nodes.push(node);
            // DFS depth is bounded by the slot count, so growing the
            // scratch *here* — when the slot-count record is set — keeps
            // the search itself allocation-free.
            stack.reserve(nodes.len().saturating_sub(stack.len()));
            cycle.reserve(nodes.len().saturating_sub(cycle.len()));
            (nodes.len() - 1) as u32
        })
    }

    /// The holder id of edge `e`.
    fn holder_of(&self, e: u32) -> TxnId {
        self.nodes[self.edges[e as usize].to as usize].id
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
        let mut g = WaitsForGraph::new();
        edge(&mut g, 1, 2);
        edge(&mut g, 2, 3);
        edge(&mut g, 3, 4);
        assert!(any_cycle(&mut g, 0..5).is_none());
        assert!(g.find_cycle_from(t(1)).is_none());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitsForGraph::new();
        edge(&mut g, 1, 2);
        edge(&mut g, 2, 1);
        let cycle = g.find_cycle_from(t(1)).expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn long_cycle_detected_from_any_entry() {
        let mut g = WaitsForGraph::new();
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
        let mut g = WaitsForGraph::new();
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
        let mut g = WaitsForGraph::new();
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
        let mut g = WaitsForGraph::new();
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
        let mut g = WaitsForGraph::new();
        edge(&mut g, 1, 1);
        assert_eq!(edge_count(&g, 0..2), 0);
        assert!(any_cycle(&mut g, 0..2).is_none());
        assert!(!g.has_waiters(t(1)));
    }

    #[test]
    fn diamond_without_cycle() {
        let mut g = WaitsForGraph::new();
        g.add_waits(t(1), &[t(3), t(2)]);
        edge(&mut g, 2, 4);
        edge(&mut g, 3, 4);
        assert!(any_cycle(&mut g, 0..5).is_none());
    }

    #[test]
    fn blocker_sets_merge_ascending_without_duplicates() {
        let mut g = WaitsForGraph::new();
        g.add_waits(t(5), &[t(9), t(2), t(5), t(9), t(7)]);
        g.add_waits(t(5), &[t(8), t(1), t(7), t(10)]);
        let out: Vec<TxnId> = g.waits_on(t(5)).collect();
        assert_eq!(out, [1, 2, 7, 8, 9, 10].map(t).to_vec());
        assert!(!g.has_waiters(t(5)) && g.has_waiters(t(10)));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut g = WaitsForGraph::new();
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
        let mut g = WaitsForGraph::new();
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
