//! Tick-grouped future-event list — the production FEL.
//!
//! Same contract as [`crate::event::EventQueue`], including **stable FIFO
//! ordering among simultaneous events**: events pop in `(time, seq)`
//! order, where `seq` is the push counter.
//!
//! The simulator's traffic is tie-heavy. The paper spreads each lock
//! request's overhead across all processors in multiples of 0.01 time
//! units, so one request schedules up to 2·min(LU, npros) server
//! completions on the same two ticks. The queue therefore orders groups
//! of events, not events:
//!
//! * pending events at one tick wait in a FIFO **group**, an intrusive
//!   singly linked list of nodes in one pooled slab;
//! * a binary min-heap orders the pending groups by `(tick, first seq)`;
//! * a fixed 64-slot **recent-tick cache**, indexed by a hash of the tick,
//!   names the group a push at that tick appends to. Each group records
//!   its tick, which validates the entry.
//!
//! A push whose cache slot names no group, or a group of another tick,
//! opens a new group and takes the slot, even when its tick has a pending
//! group already. That older group can no longer be reached, so it gets
//! no more events: the groups of one tick hold disjoint runs of `seq`,
//! each later than the one before, and each group is sorted by `seq`
//! because appends happen in push order. Ordering the heap by
//! `(tick, first seq)` therefore pops the groups of a tick in push order,
//! and the pop sequence is the heap FEL's by construction. A group that
//! drains leaves the heap and its cache slot.
//!
//! Most pushes land on the tick of the push before them (a lock request's
//! shares fan out onto one tick), so the queue remembers the tick and
//! group of its last grouped push and appends there without looking at
//! the cache. The memo is forgotten when that group drains (its slot may
//! then serve another tick) and on [`CalendarQueue::clear`]. Only a memo
//! miss leaves the inlined push; that path counts the groups it opens and
//! its cache hits ([`CalendarQueue::groups_opened`],
//! [`CalendarQueue::recent_hits`]).
//!
//! Beside the groups the queue holds at most one **series**: `count`
//! copies of one event at `first`, `first + step`, …
//! ([`CalendarQueue::push_series`]), such as a closed model's staggered
//! initial arrivals. The series reserves `count` consecutive sequence
//! numbers when it is pushed and hands its entries out one pop at a time,
//! and a pop takes whichever of the series head and the earliest group's
//! head has the smaller `(time, seq)`, so the series changes where its
//! events wait, never when they fire.
//!
//! The group slab and the tick heap grow with the node slab, and
//! [`CalendarQueue::clear`] keeps every capacity, so the steady state is
//! allocation-free (`tests/steady_state_alloc.rs` enforces this).
//! [`CalendarQueue::new`] allocates nothing.
//!
//! The type keeps the name of the calendar queue (Brown, CACM 1988) it
//! replaced; simbench and `core::sim` construct it by that name.

use crate::time::{Dur, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no node" and "no group" in the pooled lists.
const NIL: u32 = u32::MAX;

/// Node-slab capacity after the first growth.
const MIN_CAPACITY: usize = 16;

/// log₂ of the recent-tick cache's slot count.
const RECENT_BITS: u32 = 6;

/// The recent-tick cache slot of `at`: Fibonacci hashing, so ticks a
/// fixed stride apart (0.01 time units is 10 ticks) spread over every
/// slot.
#[inline]
fn recent_slot(at: Time) -> usize {
    (at.ticks().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RECENT_BITS)) as usize
}

/// One grouped entry in the slab; its time is its group's tick.
struct Node<E> {
    seq: u64,
    /// Next node of the same group, or of the free list while vacant.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// A FIFO of pending events at one tick, as indices into the node slab.
/// While the group is vacant, `head` links the group free list.
struct Group {
    /// The tick of every node in the group; a cache entry naming the group
    /// is valid for this tick only.
    at: Time,
    head: u32,
    tail: u32,
}

/// The pending rest of a series (see [`CalendarQueue::push_series`]).
struct Series<E> {
    /// Time and sequence number of the next entry.
    at: Time,
    seq: u64,
    step: Dur,
    /// Entries still pending, the next one included (at least one).
    left: u64,
    event: E,
    /// `E::clone`, captured by `push_series`, so that only scheduling a
    /// series asks for `Clone`.
    copy: fn(&E) -> E,
}

/// Where the earliest pending event waits.
enum Head {
    Series,
    Group(u32),
}

/// A tick-grouped future-event list (see module docs).
pub struct CalendarQueue<E> {
    /// Pooled storage of every grouped entry.
    nodes: Vec<Node<E>>,
    /// Head of the vacant-node list threaded through `Node::next`.
    free_node: u32,
    /// Pending groups, pooled like the nodes.
    groups: Vec<Group>,
    /// Head of the vacant-group list threaded through `Group::head`.
    free_group: u32,
    /// Recent-tick cache: by [`recent_slot`], the group a push at a tick
    /// of that slot appends to, if the group's tick is the push's. Every
    /// entry is `NIL` or a pending group.
    recent: [u32; 1 << RECENT_BITS],
    /// Min-heap of the pending groups, keyed `(tick, first seq)`.
    ticks: BinaryHeap<Reverse<(Time, u64, u32)>>,
    /// Tick and group of the last grouped push, while that group is
    /// pending: a push onto the same tick appends there directly.
    last_push: Option<(Time, u32)>,
    /// Entries in the groups (the series counts its own).
    grouped: usize,
    series: Option<Series<E>>,
    next_seq: u64,
    /// Smallest event time ever admissible (monotone pop guarantee).
    last_popped: Time,
    /// Groups opened and recent-cache hits since the last clear.
    groups_opened: u64,
    recent_hits: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        CalendarQueue {
            nodes: Vec::new(),
            free_node: NIL,
            groups: Vec::new(),
            free_group: NIL,
            recent: [NIL; 1 << RECENT_BITS],
            ticks: BinaryHeap::new(),
            last_push: None,
            grouped: 0,
            series: None,
            next_seq: 0,
            last_popped: Time::ZERO,
            groups_opened: 0,
            recent_hits: 0,
        }
    }

    #[inline(always)]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Always inlined, like the whole push chain from
    /// `Executor::schedule` down: the caller then builds the event
    /// straight into its slab node, instead of storing it on the stack for
    /// an out-of-line copy to reload.
    ///
    /// # Panics
    /// In debug builds, panics if `at` precedes the last popped time —
    /// the queue, like any future-event list, is monotone.
    #[inline(always)]
    pub fn push(&mut self, at: Time, event: E) {
        debug_assert!(at >= self.last_popped, "scheduling into the past");
        let seq = self.take_seq();
        let node = self.alloc_node(seq, event);
        self.grouped += 1;
        match self.last_push {
            Some((tick, g)) if tick == at => self.append(g, node),
            _ => self.push_new_tick(at, node),
        }
    }

    /// Append `node` to the tail of group `g`.
    #[inline(always)]
    fn append(&mut self, g: u32, node: u32) {
        let tail = std::mem::replace(&mut self.groups[g as usize].tail, node);
        self.nodes[tail as usize].next = node;
    }

    /// Group `node`, pushed at `at`, when `at` is not the tick of the last
    /// grouped push: append to the group the recent-tick cache names for
    /// `at`'s slot if that group is `at`'s, or else open a new group for
    /// `at` in that slot, even if `at` has an older pending group that
    /// lost it. Either way `at` becomes the remembered tick.
    fn push_new_tick(&mut self, at: Time, node: u32) {
        let slot = recent_slot(at);
        let cached = self.recent[slot];
        let g = if cached != NIL && self.groups[cached as usize].at == at {
            self.recent_hits += 1;
            self.append(cached, node);
            cached
        } else {
            let g = self.open_group(at, node);
            self.recent[slot] = g;
            g
        };
        self.last_push = Some((at, g));
    }

    /// Open a group at `at` whose only node is `node`, and enter it in the
    /// tick heap.
    fn open_group(&mut self, at: Time, node: u32) -> u32 {
        self.groups_opened += 1;
        let group = Group {
            at,
            head: node,
            tail: node,
        };
        let g = if self.free_group == NIL {
            self.groups.push(group);
            (self.groups.len() - 1) as u32
        } else {
            let g = self.free_group;
            self.free_group = self.groups[g as usize].head;
            self.groups[g as usize] = group;
            g
        };
        let first = self.nodes[node as usize].seq;
        self.ticks.push(Reverse((at, first, g)));
        g
    }

    /// Schedule `count` copies of `event`, at `first`, `first + step`, …,
    /// `first + (count − 1)·step`, with the sequence numbers `count`
    /// consecutive pushes would take now: the same pops, in the same
    /// order, as those pushes. The series takes no node, group or heap
    /// entry; its entries are handed out one pop at a time, each a clone
    /// of `event`. The queue holds one series at a time, so while one is
    /// pending another is pushed entry by entry.
    pub fn push_series(&mut self, first: Time, step: Dur, count: u64, event: E)
    where
        E: Clone,
    {
        if self.series.is_some() {
            for k in 0..count {
                self.push(first + step.times(k), event.clone());
            }
            return;
        }
        if count == 0 {
            return;
        }
        debug_assert!(first >= self.last_popped, "scheduling into the past");
        self.series = Some(Series {
            at: first,
            seq: self.next_seq,
            step,
            left: count,
            event,
            copy: E::clone,
        });
        self.next_seq += count;
    }

    /// Store a new node in a vacant slot, or at the end of the slab, and
    /// return its index. The common case, a recycled slot, writes the
    /// node in place.
    #[inline(always)]
    fn alloc_node(&mut self, seq: u64, event: E) -> u32 {
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free_node == NIL {
            return self.push_node(node);
        }
        let slot = self.free_node;
        let vacant = &mut self.nodes[slot as usize];
        self.free_node = vacant.next;
        *vacant = node;
        slot
    }

    /// Append `node` to the slab, growing it first if it is full.
    fn push_node(&mut self, node: Node<E>) -> u32 {
        if self.nodes.len() == self.nodes.capacity() {
            self.grow();
        }
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Double the node slab and size the group slab and the tick heap to
    /// match. A pending group holds at least one pending node, so neither
    /// can outgrow the node slab: once the number of pending events has
    /// peaked, no spread of those events over groups calls the allocator
    /// again.
    fn grow(&mut self) {
        let cap = (2 * self.nodes.capacity()).max(MIN_CAPACITY);
        self.nodes.reserve_exact(cap - self.nodes.len());
        self.groups.reserve_exact(cap - self.groups.len());
        self.ticks.reserve_exact(cap - self.ticks.len());
    }

    /// The earliest pending event's time and place: the earliest group's
    /// head or the series head, whichever has the smaller `(time, seq)`.
    fn head(&self) -> Option<(Time, Head)> {
        let group = self.ticks.peek().map(|&Reverse((at, _, g))| (at, g));
        let Some(series) = &self.series else {
            return group.map(|(at, g)| (at, Head::Group(g)));
        };
        match group {
            Some((at, g))
                if at < series.at || (at == series.at && self.head_seq(g) < series.seq) =>
            {
                Some((at, Head::Group(g)))
            }
            _ => Some((series.at, Head::Series)),
        }
    }

    fn head_seq(&self, g: u32) -> u64 {
        self.nodes[self.groups[g as usize].head as usize].seq
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.head().map(|(at, _)| at)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_due(Time::MAX)
    }

    /// Remove and return the earliest event if it fires no later than
    /// `until`; otherwise leave the queue as it is and return `None`. One
    /// search for the head serves both the horizon test and the pop.
    pub fn pop_due(&mut self, until: Time) -> Option<(Time, E)> {
        let (at, head) = self.head()?;
        if at > until {
            return None;
        }
        let event = match head {
            Head::Series => self.pop_series()?,
            Head::Group(g) => self.pop_group(at, g),
        };
        self.last_popped = at;
        Some((at, event))
    }

    /// Hand out the series' next entry: a clone of its event, or the event
    /// itself for the last entry.
    fn pop_series(&mut self) -> Option<E> {
        let series = self.series.as_mut()?;
        if series.left == 1 {
            return self.series.take().map(|s| s.event);
        }
        series.left -= 1;
        series.seq += 1;
        series.at += series.step;
        Some((series.copy)(&series.event))
    }

    /// Unlink the head of group `g` (pending at `at`), return its node to
    /// the free list, and retire the group if it drained.
    #[expect(
        clippy::expect_used,
        reason = "only vacant nodes hold no event, and those sit on the free \
                  list, never in a group"
    )]
    fn pop_group(&mut self, at: Time, g: u32) -> E {
        let group = &mut self.groups[g as usize];
        let slot = group.head;
        let node = &mut self.nodes[slot as usize];
        group.head = node.next;
        node.next = self.free_node;
        self.free_node = slot;
        self.grouped -= 1;
        if group.head == NIL {
            // The group drained: a later push at `at` opens a fresh one.
            self.ticks.pop();
            let cached = &mut self.recent[recent_slot(at)];
            if *cached == g {
                *cached = NIL;
            }
            if self.last_push.is_some_and(|(_, last)| last == g) {
                self.last_push = None;
            }
            group.head = self.free_group;
            self.free_group = g;
        }
        node.event.take().expect("a grouped node holds its event")
    }

    /// Number of pending events, the series' remaining entries included.
    pub fn len(&self) -> usize {
        self.grouped + self.series.as_ref().map_or(0, |s| s.left as usize)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Groups opened since the last [`CalendarQueue::clear`]: one per push
    /// that found neither the push memo's tick nor a recent-cache entry
    /// for its tick.
    pub fn groups_opened(&self) -> u64 {
        self.groups_opened
    }

    /// Pushes since the last [`CalendarQueue::clear`] that missed the push
    /// memo and appended to the group the recent-tick cache named.
    pub fn recent_hits(&self) -> u64 {
        self.recent_hits
    }

    /// Drop every pending event, rewind the clock to [`Time::ZERO`] and
    /// zero the counters, keeping the capacity of the node and group slabs
    /// and the tick heap for reuse. Pop order is the total `(time, seq)`
    /// order whatever the slab layout, so a recycled queue drives a model
    /// through the identical event sequence a fresh one would.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free_node = NIL;
        self.groups.clear();
        self.free_group = NIL;
        self.recent = [NIL; 1 << RECENT_BITS];
        self.ticks.clear();
        self.last_push = None;
        self.grouped = 0;
        self.series = None;
        self.next_seq = 0;
        self.last_popped = Time::ZERO;
        self.groups_opened = 0;
        self.recent_hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::SimRng;

    /// Pop both queues and require the same result.
    fn pop_both(
        cal: &mut CalendarQueue<u64>,
        heap: &mut EventQueue<u64>,
        what: &str,
    ) -> Option<(Time, u64)> {
        let a = cal.pop();
        assert_eq!(a, heap.pop(), "{what}");
        a
    }

    /// Drain both queues to empty, in lockstep.
    fn drain_both(cal: &mut CalendarQueue<u64>, heap: &mut EventQueue<u64>, what: &str) {
        while pop_both(cal, heap, what).is_some() {}
        assert!(cal.is_empty(), "{what}");
    }

    /// Push a series onto the calendar, and its entries one by one onto
    /// the heap, the way the heap FEL expands one.
    fn push_series_both(
        cal: &mut CalendarQueue<u64>,
        heap: &mut EventQueue<u64>,
        first: u64,
        step: u64,
        count: u64,
        id: u64,
    ) {
        cal.push_series(Time::from_ticks(first), Dur::from_ticks(step), count, id);
        for k in 0..count {
            heap.push(Time::from_ticks(first + k * step), id);
        }
    }

    /// The first tick after `at` that shares its recent-cache slot.
    fn slot_mate(at: u64) -> u64 {
        let slot = recent_slot(Time::from_ticks(at));
        (at + 1..)
            .find(|&t| recent_slot(Time::from_ticks(t)) == slot)
            .unwrap_or(at)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(300), "c");
        q.push(Time::from_ticks(100), "a");
        q.push(Time::from_ticks(200), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = Time::from_ticks(500);
        for i in 0..200 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn agrees_with_binary_heap_on_random_workload() {
        let mut rng = SimRng::new(31);
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut clock = 0u64;
        let mut id = 0u64;
        for _ in 0..5_000 {
            // Interleave pushes and pops the way a simulation would.
            let pushes = rng.uniform_inclusive(0, 3);
            for _ in 0..pushes {
                let at = Time::from_ticks(clock + rng.uniform_inclusive(0, 500));
                cal.push(at, id);
                heap.push(at, id);
                id += 1;
            }
            if rng.bernoulli(0.7) {
                if let Some((t, _)) = pop_both(&mut cal, &mut heap, "random workload") {
                    clock = t.ticks();
                }
            }
        }
        drain_both(&mut cal, &mut heap, "random workload");
    }

    #[test]
    fn peek_matches_pop_and_leaves_queue_intact() {
        let mut rng = SimRng::new(47);
        let mut q = CalendarQueue::new();
        let mut clock = 0u64;
        for i in 0..2_000u64 {
            q.push(Time::from_ticks(clock + rng.uniform_inclusive(0, 300)), i);
            if rng.bernoulli(0.6) {
                let before = q.len();
                let peeked = q.peek_time();
                // Peeking twice is idempotent and removes nothing.
                assert_eq!(q.peek_time(), peeked);
                assert_eq!(q.len(), before);
                let (t, _) = q.pop().unwrap();
                assert_eq!(peeked, Some(t));
                clock = t.ticks();
            }
        }
        while let Some(t) = q.peek_time() {
            assert_eq!(q.pop().map(|(at, _)| at), Some(t));
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// `pop_due` pops an event at exactly the horizon, and refuses one
    /// past it without touching the queue.
    #[test]
    fn pop_due_stops_at_the_horizon() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(20), 1);
        q.push_series(Time::from_ticks(20), Dur::from_ticks(100), 1, 2);
        q.push(Time::from_ticks(30), 3);
        let horizon = Time::from_ticks(20);
        assert_eq!(q.pop_due(horizon), Some((horizon, 1)));
        assert_eq!(q.pop_due(horizon), Some((horizon, 2)));
        assert_eq!(q.pop_due(horizon), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ticks(30)));
        assert_eq!(q.pop_due(Time::from_ticks(29)), None);
        assert_eq!(q.pop_due(Time::MAX), Some((Time::from_ticks(30), 3)));
        assert_eq!(q.pop_due(Time::MAX), None);
    }

    /// A fresh queue owns no heap memory; the first push sizes the group
    /// slab and the tick heap with the node slab, and they keep pace with
    /// it as it doubles.
    #[test]
    fn storage_grows_with_the_node_slab() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.nodes.capacity(), 0);
        assert_eq!(q.groups.capacity(), 0);
        assert_eq!(q.ticks.capacity(), 0);
        // Every event on its own tick: as many groups as nodes.
        for i in 0..1_000u64 {
            q.push(Time::from_ticks(i), i);
            let cap = q.nodes.capacity();
            assert!(q.groups.capacity() >= cap && q.ticks.capacity() >= cap);
        }
        assert_eq!(q.groups.len(), 1_000);
        assert_eq!(q.ticks.len(), 1_000);
        assert_eq!(q.groups_opened(), 1_000);
    }

    /// A drained tick leaves the heap and the recent-tick cache, and its
    /// group is recycled for the next new tick: pushing the same tick
    /// again opens a fresh FIFO rather than appending to a retired one.
    #[test]
    fn drained_tick_is_recycled() {
        let mut q = CalendarQueue::new();
        let t = Time::from_ticks(7);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.ticks.len(), 0);
        assert!(q.recent.iter().all(|&g| g == NIL));
        for id in 2..5 {
            q.push(t, id);
        }
        q.push(Time::from_ticks(9), 5);
        assert_eq!(q.groups.len(), 2, "the drained group was reused");
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.ticks(), e))).collect();
        assert_eq!(order, vec![(7, 2), (7, 3), (7, 4), (9, 5)]);
    }

    /// The groups, the tick heap, the recent-tick cache and the push memo
    /// agree:
    ///
    /// * every heap entry names a distinct pending group of its tick,
    ///   whose nodes carry increasing sequence numbers from its first
    ///   one on, and the groups hold `grouped` nodes in all;
    /// * every cache entry names a pending group of a tick of its slot,
    ///   and the push memo, when set, names its tick's cache entry;
    /// * among the groups of one tick only the latest opened can be in the
    ///   cache, and the ranges of sequence numbers of those groups do not
    ///   overlap, so their heap order is their push order.
    fn assert_groups_consistent(q: &CalendarQueue<u64>) {
        let mut pending: Vec<(Time, u64, u32, u64)> = Vec::new();
        let mut nodes = 0;
        for &Reverse((at, first, g)) in q.ticks.iter() {
            let group = &q.groups[g as usize];
            assert_eq!(group.at, at);
            let mut seq = first;
            let mut cur = group.head;
            assert!(q.nodes[cur as usize].seq >= first);
            while cur != NIL {
                let node = &q.nodes[cur as usize];
                assert!(node.seq >= seq && node.event.is_some());
                seq = node.seq;
                nodes += 1;
                if node.next == NIL {
                    assert_eq!(cur, group.tail);
                }
                cur = node.next;
            }
            pending.push((at, first, g, seq));
        }
        assert_eq!(nodes, q.grouped);
        pending.sort_unstable();
        for w in pending.windows(2) {
            assert_ne!(w[0].2, w[1].2, "one heap entry per group");
            if w[0].0 == w[1].0 {
                assert!(w[0].3 < w[1].1, "groups of one tick overlap in seq");
                assert_ne!(q.recent[recent_slot(w[0].0)], w[0].2, "older group cached");
            }
        }
        for (slot, &g) in q.recent.iter().enumerate() {
            if g != NIL {
                let at = q.groups[g as usize].at;
                assert_eq!(recent_slot(at), slot);
                assert!(pending.iter().any(|p| p.2 == g), "cached group not pending");
            }
        }
        if let Some((at, g)) = q.last_push {
            assert_eq!(q.recent[recent_slot(at)], g);
            assert_eq!(q.groups[g as usize].at, at);
        }
    }

    /// The push memo forgets a group when it drains. Two pushes at t, a
    /// drain of t, then a push at t again: the last push opens a fresh
    /// group in the cache and the tick heap instead of appending to the
    /// retired one, and the FIFO order matches the heap FEL's. `clear`
    /// forgets the memo too.
    #[test]
    fn push_memo_is_forgotten_on_drain_and_clear() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let t = Time::from_ticks(7);
        for id in 0..2 {
            cal.push(t, id);
            heap.push(t, id);
        }
        assert_eq!(cal.last_push, Some((t, 0)));
        pop_both(&mut cal, &mut heap, "first of t");
        assert_eq!(cal.last_push, Some((t, 0)), "t still has a pending event");
        pop_both(&mut cal, &mut heap, "t drains");
        assert_eq!(cal.last_push, None);
        assert!(cal.ticks.is_empty());
        assert_groups_consistent(&cal);

        cal.push(t, 2);
        heap.push(t, 2);
        assert_eq!(cal.ticks.len(), 1, "the push at t opened a group");
        assert_eq!(cal.last_push, Some((t, 0)), "on the recycled group slot");
        assert_groups_consistent(&cal);
        for id in 3..5 {
            cal.push(Time::from_ticks(9), id);
            heap.push(Time::from_ticks(9), id);
            cal.push(t, id + 10);
            heap.push(t, id + 10);
        }
        assert_groups_consistent(&cal);
        let order: Vec<u64> = std::iter::from_fn(|| pop_both(&mut cal, &mut heap, "refill"))
            .map(|(_, id)| id)
            .collect();
        assert_eq!(order, vec![2, 13, 14, 3, 4]);
        assert_groups_consistent(&cal);

        cal.clear();
        cal.push(t, 5);
        cal.push(t, 6);
        assert_eq!(cal.last_push, Some((t, 0)));
        cal.clear();
        assert_eq!(cal.last_push, None);
        cal.push(t, 7);
        assert_groups_consistent(&cal);
        assert_eq!(cal.pop(), Some((t, 7)));
        assert!(cal.is_empty());
    }

    /// The miss path's counters: a memo miss on a cached tick is a cache
    /// hit; a memo miss on a tick whose slot another tick took opens a
    /// second group for the tick, which then pops after the first.
    /// `clear` zeroes both counts.
    #[test]
    fn miss_path_counts_groups_and_cache_hits() {
        let mut q = CalendarQueue::new();
        let (a, b) = (Time::from_ticks(100), Time::from_ticks(101));
        q.push(a, 0);
        q.push(a, 1); // memo hit: counted nowhere
        q.push(b, 2);
        q.push(a, 3); // memo miss, cache hit
        assert_eq!((q.groups_opened(), q.recent_hits()), (2, 1));
        let mate = Time::from_ticks(slot_mate(100));
        q.push(mate, 4); // takes a's slot
        q.push(a, 5); // opens a second group for a
        q.push(a, 6);
        assert_eq!((q.groups_opened(), q.recent_hits()), (4, 1));
        assert_eq!(q.ticks.len(), 4);
        assert_groups_consistent(&q);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, id)| id)).collect();
        assert_eq!(order, vec![0, 1, 3, 5, 6, 2, 4]);
        q.clear();
        assert_eq!((q.groups_opened(), q.recent_hits()), (0, 0));
    }

    /// Growth through many slab doublings and a drain back to empty, twice
    /// (the second round on recycled nodes and groups), keeps the time
    /// order and loses no event.
    #[test]
    fn survives_growth_and_drain() {
        let mut q = CalendarQueue::new();
        let mut prev = 0u64;
        for round in 0..2u64 {
            let base = prev;
            for i in 0..10_000u64 {
                // Three events per tick on every other tick.
                q.push(Time::from_ticks(base + (i / 3) * 2), i);
            }
            assert_eq!(q.len(), 10_000);
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t.ticks() >= prev, "round {round}");
                prev = t.ticks();
                count += 1;
            }
            assert_eq!(count, 10_000);
            assert!(q.is_empty());
        }
    }

    /// A heavy-tie workload (4 000 events over only 41 distinct ticks,
    /// pushed in random order) drains in strict FIFO-per-time order.
    #[test]
    fn heavy_ties_keep_time_seq_order() {
        let mut rng = SimRng::new(83);
        let mut q = CalendarQueue::new();
        let mut pushed: Vec<(u64, u64)> = Vec::new();
        for id in 0..4_000u64 {
            let t = rng.uniform_inclusive(0, 40);
            q.push(Time::from_ticks(t), id);
            pushed.push((t, id));
        }
        // Expected order: stable sort by time keeps push order per time,
        // which is exactly (time, seq) because seq is the push counter.
        pushed.sort_by_key(|&(t, _)| t);
        let mut drained = Vec::new();
        while let Some((t, id)) = q.pop() {
            drained.push((t.ticks(), id));
        }
        assert_eq!(drained, pushed);
    }

    /// Seeded property test of the traffic that tick groups see, checked
    /// against the binary-heap FEL at every pop (and every `pop_due`):
    ///
    /// * fan-out bursts of 10–60 pushes onto 1–3 ticks, as one lock
    ///   request's shares land on all processors at once;
    /// * pushes at the last popped tick while its group drains;
    /// * pushes at a tick whose group already drained, so the tick opens
    ///   a recycled group;
    /// * series that tie with grouped events on their ticks, pushed both
    ///   before and after them, and now and then a series pushed while
    ///   another is pending (the calendar then groups it entry by entry;
    ///   the heap takes every entry as a plain push);
    /// * runs that alternate between two ticks, so each push misses the
    ///   push memo;
    /// * runs that alternate between two pending ticks sharing one
    ///   recent-cache slot, so each push opens a duplicate group of its
    ///   tick, and the duplicates drain and reopen;
    /// * a push at the memo's tick right after its group drains;
    /// * scattered pushes with plateaus, as before.
    ///
    /// The groups, the heap and the cache are checked against each other
    /// once per round.
    #[test]
    fn prop_agrees_with_heap_on_tick_groups() {
        for case in 0..40u64 {
            let mut rng = SimRng::new(9_000 + case);
            let mut cal = CalendarQueue::new();
            let mut heap = EventQueue::new();
            let what = format!("diverged in case {case}");
            let mut clock = 0u64;
            let mut id = 0u64;
            let mut push = |cal: &mut CalendarQueue<u64>, heap: &mut EventQueue<u64>, at| {
                cal.push(Time::from_ticks(at), id);
                heap.push(Time::from_ticks(at), id);
                id += 1;
            };
            let step = 1 + case % 5;
            let count = rng.uniform_inclusive(0, 400);
            push_series_both(&mut cal, &mut heap, 0, step, count, 1 << 40);
            // The last tick whose events all popped.
            let mut drained = None;
            for round in 0..600u64 {
                if rng.bernoulli(0.15) {
                    // Fan-out: 10–60 events onto 1–3 ticks ahead.
                    let ticks: Vec<u64> = (0..rng.uniform_inclusive(1, 3))
                        .map(|_| clock + rng.uniform_inclusive(0, 4) * 10)
                        .collect();
                    for k in 0..rng.uniform_inclusive(10, 60) {
                        let at = ticks[k as usize % ticks.len()];
                        push(&mut cal, &mut heap, at);
                    }
                }
                if rng.bernoulli(0.05) {
                    // A series tied with grouped events on both sides.
                    let first = clock + rng.uniform_inclusive(0, 20);
                    let step = rng.uniform_inclusive(0, 3) * 5;
                    push(&mut cal, &mut heap, first + step);
                    let count = rng.uniform_inclusive(0, 30);
                    push_series_both(&mut cal, &mut heap, first, step, count, (1 << 40) + round);
                    push(&mut cal, &mut heap, first + step);
                    push(&mut cal, &mut heap, first);
                }
                if rng.bernoulli(0.1) {
                    // Alternate between two ticks ahead.
                    let near = clock + rng.uniform_inclusive(0, 3) * 10;
                    let far = clock + rng.uniform_inclusive(4, 6) * 10;
                    for k in 0..rng.uniform_inclusive(4, 20) {
                        push(&mut cal, &mut heap, if k % 2 == 0 { near } else { far });
                    }
                }
                if rng.bernoulli(0.1) {
                    // Alternate between two ticks of one cache slot.
                    let near = clock + rng.uniform_inclusive(0, 30);
                    let mate = slot_mate(near);
                    for k in 0..rng.uniform_inclusive(2, 12) {
                        push(&mut cal, &mut heap, if k % 2 == 0 { near } else { mate });
                    }
                }
                if drained == Some(clock) && rng.bernoulli(0.3) {
                    push(&mut cal, &mut heap, clock);
                }
                for _ in 0..rng.uniform_inclusive(0, 2) {
                    let dt = if rng.bernoulli(0.3) {
                        0 // at the last popped tick, often mid-drain
                    } else {
                        rng.uniform_inclusive(0, 200)
                    };
                    push(&mut cal, &mut heap, clock + dt);
                }
                for _ in 0..rng.uniform_inclusive(0, 12) {
                    assert_eq!(cal.peek_time(), heap.peek_time(), "{what}");
                    assert_eq!(cal.len(), heap.len(), "{what}");
                    let until = Time::from_ticks(clock + rng.uniform_inclusive(0, 30));
                    let expected = match heap.peek_time() {
                        Some(at) if at <= until => heap.pop(),
                        _ => None,
                    };
                    let memo = cal.last_push.map(|(at, _)| at);
                    let a = cal.pop_due(until);
                    assert_eq!(a, expected, "{what}");
                    if let Some((t, _)) = a {
                        if cal.peek_time() != Some(t) {
                            drained = Some(t.ticks());
                            if memo == Some(t) && rng.bernoulli(0.5) {
                                // The memo's group just drained.
                                push(&mut cal, &mut heap, t.ticks());
                            }
                        }
                        clock = t.ticks();
                    }
                }
                assert_groups_consistent(&cal);
            }
            drain_both(&mut cal, &mut heap, &what);
        }
    }

    /// Events far apart in time, pushed out of order, are found without
    /// any scan over the empty span between them.
    #[test]
    fn sparse_far_future_events_found() {
        let mut q = CalendarQueue::new();
        q.push(Time::from_ticks(2_000_000), "farther");
        q.push(Time::from_ticks(1_000_000), "far");
        assert_eq!(q.peek_time(), Some(Time::from_ticks(1_000_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        q.push(Time::from_ticks(1_500_000), "between");
        assert_eq!(q.pop().map(|(_, e)| e), Some("between"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("farther"));
        assert_eq!(q.pop(), None);
    }

    /// A cleared queue — even one whose slabs grew and whose clock
    /// advanced far past zero, with groups and a series still pending —
    /// must drain a fresh workload in exactly the order a brand-new queue
    /// would.
    #[test]
    fn clear_matches_fresh_queue_after_growth() {
        let mut grown = CalendarQueue::new();
        grown.push_series(Time::ZERO, Dur::from_ticks(3), 5_000, u64::MAX);
        for i in 0..5_000u64 {
            grown.push(Time::from_ticks((i / 4) * 7), i);
        }
        for _ in 0..3_000 {
            grown.pop();
        }
        grown.clear();
        assert!(grown.is_empty());
        assert_eq!(grown.peek_time(), None);

        let mut fresh = CalendarQueue::new();
        let mut rng = SimRng::new(271);
        let mut clock = 0u64;
        for id in 0..3_000u64 {
            let dt = if rng.bernoulli(0.3) {
                0
            } else {
                rng.uniform_inclusive(0, 120)
            };
            let at = Time::from_ticks(clock + dt);
            grown.push(at, id);
            fresh.push(at, id);
            if rng.bernoulli(0.5) {
                let a = grown.pop();
                assert_eq!(a, fresh.pop());
                if let Some((t, _)) = a {
                    clock = t.ticks();
                }
            }
        }
        loop {
            let a = grown.pop();
            assert_eq!(a, fresh.pop());
            if a.is_none() {
                break;
            }
        }
    }

    /// A series ties with grouped events pushed before it and after it,
    /// at its first tick and at a later one, and each tie breaks by push
    /// order: the series' sequence numbers are reserved when it is pushed.
    #[test]
    fn series_ties_with_grouped_events_in_push_order() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for (at, id) in [(10, 1), (30, 2)] {
            cal.push(Time::from_ticks(at), id);
            heap.push(Time::from_ticks(at), id);
        }
        push_series_both(&mut cal, &mut heap, 10, 10, 4, 100);
        for (at, id) in [(30, 3), (10, 4), (40, 5)] {
            cal.push(Time::from_ticks(at), id);
            heap.push(Time::from_ticks(at), id);
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| pop_both(&mut cal, &mut heap, "ties"))
            .map(|(at, id)| (at.ticks(), id))
            .collect();
        assert_eq!(
            order,
            vec![
                (10, 1),
                (10, 100),
                (10, 4),
                (20, 100),
                (30, 2),
                (30, 100),
                (30, 3),
                (40, 100),
                (40, 5),
            ]
        );
    }

    /// A series of no entries schedules nothing and reserves no sequence
    /// number; a series of one entry pops once and leaves no series
    /// behind, so the next series is a series again.
    #[test]
    fn series_of_zero_and_one_entries() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        push_series_both(&mut cal, &mut heap, 5, 1, 0, 7);
        assert!(cal.is_empty() && cal.series.is_none());
        assert_eq!(cal.next_seq, 0);
        push_series_both(&mut cal, &mut heap, 5, 1, 1, 8);
        cal.push(Time::from_ticks(5), 9);
        heap.push(Time::from_ticks(5), 9);
        assert_eq!(cal.len(), 2);
        assert_eq!(
            pop_both(&mut cal, &mut heap, "one"),
            Some((Time::from_ticks(5), 8))
        );
        assert!(cal.series.is_none());
        push_series_both(&mut cal, &mut heap, 6, 0, 2, 10);
        assert!(cal.series.is_some(), "the queue holds a series again");
        drain_both(&mut cal, &mut heap, "zero and one");
    }

    /// `len` counts the entries a series has still to hand out, and a
    /// second series pushed while one is pending is grouped entry by
    /// entry, in the same order.
    #[test]
    fn len_counts_the_remaining_series_entries() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        push_series_both(&mut cal, &mut heap, 0, 5, 6, 1);
        cal.push(Time::from_ticks(12), 2);
        heap.push(Time::from_ticks(12), 2);
        assert_eq!(cal.len(), 7);
        push_series_both(&mut cal, &mut heap, 10, 5, 3, 3);
        assert_eq!(cal.len(), 10);
        assert_eq!(cal.grouped, 4, "the second series was grouped");
        for left in (0..10).rev() {
            assert!(pop_both(&mut cal, &mut heap, "len").is_some());
            assert_eq!(cal.len(), left);
            assert_eq!(heap.len(), left);
        }
        assert!(cal.is_empty());
    }

    /// `clear` in mid-series drops the rest of it: the cleared queue holds
    /// nothing, and a new series on it numbers and pops exactly as on a
    /// fresh queue.
    #[test]
    fn clear_in_mid_series_matches_a_fresh_queue() {
        let mut q = CalendarQueue::new();
        q.push_series(Time::ZERO, Dur::from_ticks(10), 10, 1);
        q.push(Time::from_ticks(15), 2);
        for _ in 0..3 {
            q.pop();
        }
        assert_eq!(q.len(), 8);
        q.clear();
        assert!(q.is_empty() && q.series.is_none());
        assert_eq!(q.pop(), None);

        let mut fresh = CalendarQueue::new();
        for cal in [&mut q, &mut fresh] {
            cal.push(Time::from_ticks(10), 3);
            cal.push_series(Time::ZERO, Dur::from_ticks(10), 3, 4);
            cal.push(Time::from_ticks(20), 5);
        }
        let drain = |cal: &mut CalendarQueue<u64>| -> Vec<(Time, u64)> {
            std::iter::from_fn(|| cal.pop()).collect()
        };
        let order = drain(&mut q);
        assert_eq!(order, drain(&mut fresh));
        let ticks: Vec<(u64, u64)> = order.iter().map(|&(at, id)| (at.ticks(), id)).collect();
        assert_eq!(ticks, vec![(0, 4), (10, 3), (10, 4), (20, 4), (20, 5)]);
    }

    #[test]
    fn zero_time_events() {
        let mut q = CalendarQueue::new();
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        assert_eq!(q.pop(), Some((Time::ZERO, 1)));
        assert_eq!(q.pop(), Some((Time::ZERO, 2)));
    }
}
