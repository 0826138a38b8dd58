//! Tick-grouped future-event list — the production FEL.
//!
//! Same contract as [`crate::event::EventQueue`], including **stable FIFO
//! ordering among simultaneous events**: events pop in `(time, seq)`
//! order, where `seq` is the push counter.
//!
//! The simulator's traffic is tie-heavy. The paper spreads each lock
//! request's overhead across all processors in multiples of 0.01 time
//! units, so one request schedules up to 2·min(LU, npros) server
//! completions on the same two ticks. The queue therefore orders
//! distinct ticks, not events:
//!
//! * every pending event at tick t waits in one FIFO **group**, an
//!   intrusive singly linked list of nodes in one pooled slab;
//! * a [`DetMap`] maps each pending tick to its group;
//! * a binary min-heap orders the distinct pending ticks.
//!
//! A push appends to its tick's group; a new tick adds one group and one
//! heap entry. A pop takes the head of the earliest group, and a group
//! that drains leaves the heap and the index. Appends happen in push
//! order, which is `seq` order, so each group is sorted by `seq` and the
//! pop sequence is the heap FEL's by construction.
//!
//! Most pushes land on the tick of the push before them (a lock request's
//! shares fan out onto one tick), so the queue remembers the tick and
//! group of its last grouped push and appends there without probing the
//! index. The memo is forgotten when that group drains (its slot may then
//! serve another tick) and on [`CalendarQueue::clear`]; it only picks the
//! group a push appends to, never the order of the groups.
//!
//! Beside the groups sits a **sorted lane**: a FIFO for events the caller
//! appends in non-decreasing time order ([`CalendarQueue::push_sorted`]),
//! such as a closed model's staggered initial arrivals. Lane entries draw
//! their sequence number from the same counter as grouped ones, and a pop
//! takes whichever head has the smaller `(time, seq)`, so the lane changes
//! where an event waits, never when it fires.
//!
//! The group slab, the index and the heap grow with the node slab, and
//! [`CalendarQueue::clear`] keeps every capacity, so the steady state is
//! allocation-free (`tests/steady_state_alloc.rs` enforces this).
//! [`CalendarQueue::new`] allocates nothing.
//!
//! The type keeps the name of the calendar queue (Brown, CACM 1988) it
//! replaced; simbench and `core::sim` construct it by that name.

use crate::detmap::DetMap;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sentinel for "no node" and "no group" in the pooled lists.
const NIL: u32 = u32::MAX;

/// Node-slab capacity after the first growth.
const MIN_CAPACITY: usize = 16;

/// One entry of the sorted lane.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

/// One grouped entry in the slab; its time is its group's tick.
struct Node<E> {
    seq: u64,
    /// Next node of the same group, or of the free list while vacant.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// The FIFO of one pending tick, as indices into the node slab. While the
/// group is vacant, `head` links the group free list.
struct Group {
    head: u32,
    tail: u32,
}

/// Where the earliest pending event waits.
enum Head {
    Lane,
    Group(u32),
}

/// A tick-grouped future-event list (see module docs).
pub struct CalendarQueue<E> {
    /// Pooled storage of every grouped entry.
    nodes: Vec<Node<E>>,
    /// Head of the vacant-node list threaded through `Node::next`.
    free_node: u32,
    /// One FIFO per pending tick, pooled like the nodes.
    groups: Vec<Group>,
    /// Head of the vacant-group list threaded through `Group::head`.
    free_group: u32,
    /// Pending tick → its group. Built by the first growth of the node
    /// slab, so an unused queue holds no index.
    index: Option<DetMap<u32>>,
    /// Min-heap of the distinct pending ticks, each with its group.
    ticks: BinaryHeap<Reverse<(Time, u32)>>,
    /// Tick and group of the last grouped push, while that group is
    /// pending: a push onto the same tick appends there unprobed.
    last_push: Option<(Time, u32)>,
    /// Entries in the groups (the lane is counted by `lane.len()`).
    grouped: usize,
    /// Sorted FIFO of in-order appends (see [`CalendarQueue::push_sorted`]).
    lane: VecDeque<Entry<E>>,
    next_seq: u64,
    /// Smallest event time ever admissible (monotone pop guarantee).
    last_popped: Time,
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
            index: None,
            ticks: BinaryHeap::new(),
            last_push: None,
            grouped: 0,
            lane: VecDeque::new(),
            next_seq: 0,
            last_popped: Time::ZERO,
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
    /// grouped push: append to `at`'s pending group if the index has one,
    /// otherwise open a group for `at`. Either way `at` becomes the
    /// remembered tick.
    fn push_new_tick(&mut self, at: Time, node: u32) {
        let index = self.index.get_or_insert_with(DetMap::new);
        if let Some(&g) = index.get(at.ticks()) {
            self.append(g, node);
            self.last_push = Some((at, g));
            return;
        }
        let group = Group {
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
        index.insert(at.ticks(), g);
        self.ticks.push(Reverse((at, g)));
        self.last_push = Some((at, g));
    }

    /// Schedule `event` at `at`, which the caller promises is no earlier
    /// than any time it appended this way before (since the last
    /// [`CalendarQueue::clear`]). Such events wait in the sorted lane
    /// instead of the groups: O(1) each, with no index or heap work. Pop
    /// order is the same `(time, seq)` order as for
    /// [`CalendarQueue::push`]; an append that breaks the promise is
    /// grouped like a plain push.
    pub fn push_sorted(&mut self, at: Time, event: E) {
        if self.lane.back().is_some_and(|e| e.at > at) {
            self.push(at, event);
            return;
        }
        debug_assert!(at >= self.last_popped, "scheduling into the past");
        let seq = self.take_seq();
        self.lane.push_back(Entry { at, seq, event });
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

    /// Double the node slab and size the group slab, the tick heap and the
    /// index to match. A pending tick holds at least one pending node, so
    /// none of them can outgrow the node slab: once the number of pending
    /// events has peaked, no spread of those events over ticks calls the
    /// allocator again.
    fn grow(&mut self) {
        let cap = (2 * self.nodes.capacity()).max(MIN_CAPACITY);
        self.nodes.reserve_exact(cap - self.nodes.len());
        self.groups.reserve_exact(cap - self.groups.len());
        self.ticks.reserve_exact(cap - self.ticks.len());
        match &mut self.index {
            Some(index) => index.reserve(cap),
            None => self.index = Some(DetMap::with_capacity(cap)),
        }
    }

    /// The earliest pending event's time and place: the earliest group's
    /// head or the lane head, whichever has the smaller `(time, seq)`.
    fn head(&self) -> Option<(Time, Head)> {
        let group = self.ticks.peek().map(|&Reverse(tick)| tick);
        let Some(lane) = self.lane.front() else {
            return group.map(|(at, g)| (at, Head::Group(g)));
        };
        match group {
            Some((at, g)) if (at, self.head_seq(g)) < (lane.at, lane.seq) => {
                Some((at, Head::Group(g)))
            }
            _ => Some((lane.at, Head::Lane)),
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
            Head::Lane => self.lane.pop_front()?.event,
            Head::Group(g) => self.pop_group(at, g),
        };
        self.last_popped = at;
        Some((at, event))
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
            // The tick drained: a later push at `at` opens a fresh group.
            self.ticks.pop();
            if let Some(index) = &mut self.index {
                index.remove(at.ticks());
            }
            if self.last_push.is_some_and(|(_, last)| last == g) {
                self.last_push = None;
            }
            group.head = self.free_group;
            self.free_group = g;
        }
        node.event.take().expect("a grouped node holds its event")
    }

    /// Number of pending events, the sorted lane included.
    pub fn len(&self) -> usize {
        self.grouped + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every pending event and rewind the clock to [`Time::ZERO`],
    /// keeping the capacity of the node and group slabs, the index, the
    /// tick heap and the lane for reuse. Pop order is the total
    /// `(time, seq)` order whatever the slab layout, so a recycled queue
    /// drives a model through the identical event sequence a fresh one
    /// would.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free_node = NIL;
        self.groups.clear();
        self.free_group = NIL;
        if let Some(index) = &mut self.index {
            index.clear();
        }
        self.ticks.clear();
        self.last_push = None;
        self.grouped = 0;
        self.lane.clear();
        self.next_seq = 0;
        self.last_popped = Time::ZERO;
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
        q.push_sorted(Time::from_ticks(20), 2);
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
    /// slab, the tick heap and the index with the node slab, and they
    /// keep pace with it as it doubles.
    #[test]
    fn storage_grows_with_the_node_slab() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.nodes.capacity(), 0);
        assert_eq!(q.groups.capacity(), 0);
        assert_eq!(q.ticks.capacity(), 0);
        assert!(q.index.is_none());
        // Every event on its own tick: as many groups as nodes.
        for i in 0..1_000u64 {
            q.push(Time::from_ticks(i), i);
            let cap = q.nodes.capacity();
            assert!(q.groups.capacity() >= cap && q.ticks.capacity() >= cap);
        }
        assert_eq!(q.groups.len(), 1_000);
        assert_eq!(q.index.as_ref().map(DetMap::len), Some(1_000));
    }

    /// A drained tick leaves the heap and the index, and its group is
    /// recycled for the next new tick: pushing the same tick again opens
    /// a fresh FIFO rather than appending to a retired one.
    #[test]
    fn drained_tick_is_recycled() {
        let mut q = CalendarQueue::new();
        let t = Time::from_ticks(7);
        q.push(t, 0);
        q.push(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.ticks.len(), 0);
        assert_eq!(q.index.as_ref().map(DetMap::len), Some(0));
        for id in 2..5 {
            q.push(t, id);
        }
        q.push(Time::from_ticks(9), 5);
        assert_eq!(q.groups.len(), 2, "the drained group was reused");
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.ticks(), e))).collect();
        assert_eq!(order, vec![(7, 2), (7, 3), (7, 4), (9, 5)]);
    }

    /// Every pending tick sits in the tick heap and in the index with the
    /// same group, and the push memo, when set, names one of them.
    fn assert_index_matches_heap(q: &CalendarQueue<u64>) {
        let index = q.index.as_ref();
        assert_eq!(index.map_or(0, DetMap::len), q.ticks.len());
        for &Reverse((at, g)) in q.ticks.iter() {
            assert_eq!(index.and_then(|i| i.get(at.ticks())), Some(&g));
        }
        if let Some((at, g)) = q.last_push {
            assert_eq!(index.and_then(|i| i.get(at.ticks())), Some(&g));
        }
    }

    /// The push memo forgets a group when it drains. Two pushes at t, a
    /// drain of t, then a push at t again: the last push opens a fresh
    /// group in the index and the tick heap instead of appending to the
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
        assert_index_matches_heap(&cal);

        cal.push(t, 2);
        heap.push(t, 2);
        assert_eq!(cal.ticks.len(), 1, "the push at t opened a group");
        assert_eq!(cal.last_push, Some((t, 0)), "on the recycled group slot");
        assert_index_matches_heap(&cal);
        for id in 3..5 {
            cal.push(Time::from_ticks(9), id);
            heap.push(Time::from_ticks(9), id);
            cal.push(t, id + 10);
            heap.push(t, id + 10);
        }
        assert_index_matches_heap(&cal);
        let order: Vec<u64> = std::iter::from_fn(|| pop_both(&mut cal, &mut heap, "refill"))
            .map(|(_, id)| id)
            .collect();
        assert_eq!(order, vec![2, 13, 14, 3, 4]);
        assert_index_matches_heap(&cal);

        cal.clear();
        cal.push(t, 5);
        cal.push(t, 6);
        assert_eq!(cal.last_push, Some((t, 0)));
        cal.clear();
        assert_eq!(cal.last_push, None);
        cal.push(t, 7);
        assert_index_matches_heap(&cal);
        assert_eq!(cal.pop(), Some((t, 7)));
        assert!(cal.is_empty());
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
    /// * sorted-lane appends that tie with grouped events on one tick,
    ///   pushed both before and after them, and now and then an append
    ///   that breaks the order (the heap takes all of them as plain
    ///   pushes);
    /// * runs that alternate between two ticks, so each push misses the
    ///   push memo;
    /// * a push at the memo's tick right after its group drains;
    /// * scattered pushes with plateaus, as before.
    ///
    /// The index and the tick heap are checked against each other once per
    /// round.
    #[test]
    fn prop_agrees_with_heap_on_tick_groups() {
        for case in 0..40u64 {
            let mut rng = SimRng::new(9_000 + case);
            let mut cal = CalendarQueue::new();
            let mut heap = EventQueue::new();
            let what = format!("diverged in case {case}");
            let mut clock = 0u64;
            let mut id = 0u64;
            let mut push = |cal: &mut CalendarQueue<u64>, heap: &mut EventQueue<u64>, at, lane| {
                let at = Time::from_ticks(at);
                if lane {
                    cal.push_sorted(at, id);
                } else {
                    cal.push(at, id);
                }
                heap.push(at, id);
                id += 1;
            };
            let step = 1 + case % 5;
            let mut lane_at = 0u64;
            for i in 0..rng.uniform_inclusive(0, 400) {
                lane_at = i * step;
                push(&mut cal, &mut heap, lane_at, true);
            }
            // The last tick whose events all popped.
            let mut drained = None;
            for _ in 0..600 {
                if rng.bernoulli(0.15) {
                    // Fan-out: 10–60 events onto 1–3 ticks ahead.
                    let ticks: Vec<u64> = (0..rng.uniform_inclusive(1, 3))
                        .map(|_| clock + rng.uniform_inclusive(0, 4) * 10)
                        .collect();
                    for k in 0..rng.uniform_inclusive(10, 60) {
                        let at = ticks[k as usize % ticks.len()];
                        push(&mut cal, &mut heap, at, false);
                    }
                }
                if rng.bernoulli(0.2) {
                    lane_at = if rng.bernoulli(0.1) {
                        clock + rng.uniform_inclusive(0, 20)
                    } else {
                        lane_at.max(clock) + rng.uniform_inclusive(0, 3) * step
                    };
                    push(&mut cal, &mut heap, lane_at, true);
                    if rng.bernoulli(0.5) {
                        // A grouped event after the lane one, same tick.
                        push(&mut cal, &mut heap, lane_at, false);
                    }
                }
                if rng.bernoulli(0.1) {
                    // Alternate between two ticks ahead.
                    let near = clock + rng.uniform_inclusive(0, 3) * 10;
                    let far = clock + rng.uniform_inclusive(4, 6) * 10;
                    for k in 0..rng.uniform_inclusive(4, 20) {
                        push(
                            &mut cal,
                            &mut heap,
                            if k % 2 == 0 { near } else { far },
                            false,
                        );
                    }
                }
                if drained == Some(clock) && rng.bernoulli(0.3) {
                    push(&mut cal, &mut heap, clock, false);
                }
                for _ in 0..rng.uniform_inclusive(0, 2) {
                    let dt = if rng.bernoulli(0.3) {
                        0 // at the last popped tick, often mid-drain
                    } else {
                        rng.uniform_inclusive(0, 200)
                    };
                    push(&mut cal, &mut heap, clock + dt, false);
                }
                for _ in 0..rng.uniform_inclusive(0, 12) {
                    assert_eq!(cal.peek_time(), heap.peek_time(), "{what}");
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
                                push(&mut cal, &mut heap, t.ticks(), false);
                            }
                        }
                        clock = t.ticks();
                    }
                }
                assert_index_matches_heap(&cal);
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
    /// advanced far past zero, with groups still pending — must drain a
    /// fresh workload in exactly the order a brand-new queue would.
    #[test]
    fn clear_matches_fresh_queue_after_growth() {
        let mut grown = CalendarQueue::new();
        for i in 0..5_000u64 {
            grown.push(Time::from_ticks((i / 4) * 7), i);
            grown.push_sorted(Time::from_ticks(i * 3), i);
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

    #[test]
    fn zero_time_events() {
        let mut q = CalendarQueue::new();
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        assert_eq!(q.pop(), Some((Time::ZERO, 1)));
        assert_eq!(q.pop(), Some((Time::ZERO, 2)));
    }
}
