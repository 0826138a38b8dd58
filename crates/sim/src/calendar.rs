//! Calendar queue — the production future-event list.
//!
//! The classic DES priority queue of Brown (CACM 1988): events hash into
//! time buckets of fixed width (days of a circular calendar); `pop` scans
//! the current day for an event within the current year, advancing day by
//! day. With bucket width tuned to the mean event spacing, push and pop
//! are O(1) amortized versus the binary heap's O(log n) — the trade-off
//! the `micro_event_queue` bench quantifies.
//!
//! Same contract as [`crate::event::EventQueue`], including **stable FIFO
//! ordering among simultaneous events** (each entry carries a sequence
//! number; buckets are kept sorted by `(time, seq)`).
//!
//! Bucketed entries live in one pooled slab: each bucket is an intrusive
//! singly linked list (head and tail indices into the slab), and vacated
//! nodes form a free list. The slab only grows when the number of
//! bucketed entries passes its high-water mark, so the queue's heap use
//! depends on how many events are pending, never on which day they hash
//! to.
//!
//! Beside the buckets sits a **sorted lane**: a FIFO for events the caller
//! appends in non-decreasing time order ([`CalendarQueue::push_sorted`]),
//! such as a closed model's staggered initial arrivals. Lane entries draw
//! their sequence number from the same counter as bucketed ones, and `pop`
//! takes whichever head has the smaller `(time, seq)`, so the lane changes
//! where an event waits, never when it fires.
//!
//! The queue resizes itself (doubling/halving the bucket count and
//! re-estimating the width) when the bucketed population strays outside
//! the N/4 … 2N band — wider than Brown's classic N/2 lower edge so that a
//! workload whose population breathes by a few × settles on one geometry
//! instead of thrashing. Lane entries never count towards the band. A
//! resize merges the already-sorted buckets (k-way, O(n log k)) into one
//! chain and relinks it, moving no entry, and recycles its merge heap, so
//! steady-state operation is allocation-free (`tests/steady_state_alloc.rs`
//! enforces this).

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sentinel for "no node" in the pooled bucket lists.
const NIL: u32 = u32::MAX;

/// One entry of the sorted lane.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

/// One bucketed entry in the slab.
struct Node<E> {
    at: Time,
    seq: u64,
    /// Next node of the same bucket, or of the free list while vacant.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// One day's sorted list, as indices into the slab.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// Where the earliest pending event waits.
enum Head {
    Lane,
    Bucket(usize),
}

/// A calendar-queue future-event list (see module docs).
pub struct CalendarQueue<E> {
    buckets: Vec<Bucket>,
    /// Pooled storage of every bucketed entry.
    nodes: Vec<Node<E>>,
    /// Head of the vacant-node list threaded through `Node::next`.
    free: u32,
    /// Width of one bucket (one "day"), in ticks. Always ≥ 1.
    width: u64,
    /// Index of the day currently being scanned.
    current: usize,
    /// Start tick of the bucket at `current`. Invariant: no bucketed
    /// event lies before it, so a lane head earlier than this tick is the
    /// global minimum without a scan.
    bucket_start: u64,
    /// Entries in the buckets (the lane is counted by `lane.len()`).
    bucketed: usize,
    /// Sorted FIFO of in-order appends (see [`CalendarQueue::push_sorted`]).
    lane: VecDeque<Entry<E>>,
    next_seq: u64,
    /// Smallest event time ever admissible (monotone pop guarantee).
    last_popped: Time,
    /// Resize scratch: backing storage for the k-way merge heap.
    heads_scratch: Vec<Reverse<(Time, u64, usize)>>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue with a small default calendar.
    pub fn new() -> Self {
        Self::with_geometry(16, 100)
    }

    /// An empty queue with explicit bucket count and width (ticks).
    ///
    /// # Panics
    /// Panics if `buckets == 0` or `width == 0`.
    pub fn with_geometry(buckets: usize, width: u64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(width > 0, "bucket width must be positive");
        CalendarQueue {
            buckets: vec![EMPTY_BUCKET; buckets],
            nodes: Vec::new(),
            free: NIL,
            width,
            current: 0,
            bucket_start: 0,
            bucketed: 0,
            lane: VecDeque::new(),
            next_seq: 0,
            last_popped: Time::ZERO,
            heads_scratch: Vec::new(),
        }
    }

    fn bucket_of(&self, at: Time) -> usize {
        ((at.ticks() / self.width) % self.buckets.len() as u64) as usize
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` precedes the last popped time —
    /// the calendar, like any future-event list, is monotone.
    pub fn push(&mut self, at: Time, event: E) {
        debug_assert!(at >= self.last_popped, "scheduling into the past");
        let seq = self.take_seq();
        if at.ticks() < self.bucket_start {
            // Keep the cursor at or before the earliest bucketed event: a
            // peek may have moved it past `at` while the lane won.
            self.current = self.bucket_of(at);
            self.bucket_start = (at.ticks() / self.width) * self.width;
        }
        let node = self.alloc_node(at, seq, event);
        self.link(node);
        self.bucketed += 1;
        if self.bucketed > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Schedule `event` at `at`, which the caller promises is no earlier
    /// than any time it appended this way before (since the last
    /// [`CalendarQueue::clear`]). Such events wait in the sorted lane
    /// instead of the buckets: O(1) each, and they neither grow the
    /// calendar nor count towards its resize band. Pop order is the same
    /// `(time, seq)` order as for [`CalendarQueue::push`]; an append that
    /// breaks the promise is bucketed like a plain push.
    pub fn push_sorted(&mut self, at: Time, event: E) {
        if self.lane.back().is_some_and(|e| e.at > at) {
            self.push(at, event);
            return;
        }
        debug_assert!(at >= self.last_popped, "scheduling into the past");
        let seq = self.take_seq();
        self.lane.push_back(Entry { at, seq, event });
    }

    fn alloc_node(&mut self, at: Time, seq: u64, event: E) -> u32 {
        let node = Node {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        }
    }

    /// Insert the unlinked `node` into its bucket, keeping the bucket
    /// sorted by `(time, seq)`. Pushed events mostly land at the end, and
    /// a resize relinks in order, so the tail is tried first.
    fn link(&mut self, node: u32) {
        let (at, seq) = {
            let n = &self.nodes[node as usize];
            (n.at, n.seq)
        };
        let idx = self.bucket_of(at);
        let Bucket { head, tail } = self.buckets[idx];
        if tail == NIL {
            self.buckets[idx] = Bucket {
                head: node,
                tail: node,
            };
            return;
        }
        let tail_node = &self.nodes[tail as usize];
        if (tail_node.at, tail_node.seq) < (at, seq) {
            self.nodes[tail as usize].next = node;
            self.buckets[idx].tail = node;
            return;
        }
        let (mut prev, mut cur) = (NIL, head);
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if (n.at, n.seq) > (at, seq) {
                break;
            }
            prev = cur;
            cur = n.next;
        }
        // `cur` is not NIL: the tail sorts after `node`.
        self.nodes[node as usize].next = cur;
        if prev == NIL {
            self.buckets[idx].head = node;
        } else {
            self.nodes[prev as usize].next = node;
        }
    }

    fn head_key(&self, idx: usize) -> (Time, u64) {
        let n = &self.nodes[self.buckets[idx].head as usize];
        (n.at, n.seq)
    }

    /// Find the earliest pending event across the lane and the buckets,
    /// advancing the day cursor until the head of the current bucket is
    /// the earliest bucketed event.
    ///
    /// Idempotent: once positioned, calling it again finds the head in-day
    /// immediately and changes nothing — which is what lets `peek_time`
    /// share it with `pop`. The cursor only passes days that hold no
    /// bucketed event, so it never overtakes the earliest one, and a lane
    /// head before the cursor's day wins without a scan.
    fn locate(&mut self) -> Option<Head> {
        let lane_key = self.lane.front().map(|e| (e.at, e.seq));
        if self.bucketed == 0 || lane_key.is_some_and(|(at, _)| at.ticks() < self.bucket_start) {
            return lane_key.map(|_| Head::Lane);
        }
        let nbuckets = self.buckets.len();
        // Scan at most one full year; fall back to a direct minimum scan
        // if the calendar is sparse (events far in the future).
        let idx = 'scan: {
            for _ in 0..nbuckets {
                let day_end = self.bucket_start + self.width;
                let head = self.buckets[self.current].head;
                if head != NIL && self.nodes[head as usize].at.ticks() < day_end {
                    break 'scan self.current;
                }
                self.current = (self.current + 1) % nbuckets;
                self.bucket_start += self.width;
            }
            // Sparse case: find the global minimum directly and re-anchor
            // the calendar there; the head then falls inside the current
            // day.
            let (idx, (at, _)) = (0..nbuckets)
                .filter(|&i| self.buckets[i].head != NIL)
                .map(|i| (i, self.head_key(i)))
                .min_by_key(|&(_, key)| key)
                // lint:allow(P001): `bucketed > 0` was checked at entry;
                // an empty calendar cannot reach the sparse path
                .expect("bucketed > 0 implies a head exists");
            self.current = idx;
            self.bucket_start = (at.ticks() / self.width) * self.width;
            idx
        };
        match lane_key {
            Some(key) if key < self.head_key(idx) => Some(Head::Lane),
            _ => Some(Head::Bucket(idx)),
        }
    }

    /// Time of the earliest event without removing it.
    ///
    /// Takes `&mut self` because finding the minimum advances the day
    /// cursor; the queue contents are untouched.
    pub fn peek_time(&mut self) -> Option<Time> {
        match self.locate()? {
            Head::Lane => self.lane.front().map(|e| e.at),
            Head::Bucket(idx) => Some(self.head_key(idx).0),
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let (at, event) = match self.locate()? {
            Head::Lane => {
                let entry = self
                    .lane
                    .pop_front()
                    // lint:allow(P001): locate() picks the lane only when
                    // it has a head
                    .expect("locate() returned a non-empty lane");
                (entry.at, entry.event)
            }
            Head::Bucket(idx) => self.pop_bucket(idx),
        };
        self.last_popped = at;
        Some((at, event))
    }

    /// Unlink the head of bucket `idx`, return its node to the free list,
    /// and shrink the calendar if the bucketed population fell out of its
    /// band.
    fn pop_bucket(&mut self, idx: usize) -> (Time, E) {
        let slot = self.buckets[idx].head;
        let node = &mut self.nodes[slot as usize];
        let (at, next) = (node.at, node.next);
        let event = node
            .event
            .take()
            // lint:allow(P001): only vacant nodes hold no event, and those
            // sit on the free list, never in a bucket
            .expect("a bucketed node holds its event");
        node.next = self.free;
        self.free = slot;
        self.buckets[idx].head = next;
        if next == NIL {
            self.buckets[idx].tail = NIL;
        }
        self.bucketed -= 1;
        // Shrink at a quarter, not half: growth triggers at 2N, so a half
        // threshold leaves only a 4× band and a workload whose FEL
        // "breathes" by a few × thrashes between two geometries forever
        // (an O(n) merge each time). The 8× band lets it settle.
        if self.bucketed < self.buckets.len() / 4 && self.buckets.len() > 16 {
            self.resize(self.buckets.len() / 2);
        }
        (at, event)
    }

    /// Number of pending events, the sorted lane included.
    pub fn len(&self) -> usize {
        self.bucketed + self.lane.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every pending event and rewind the clock to [`Time::ZERO`],
    /// keeping the grown calendar geometry (bucket count and width) and
    /// the capacity of the slab, the lane and the bucket array for reuse.
    /// Retaining the geometry is safe for bit-identity: pop order is the
    /// total `(time, seq)` order regardless of how events hash into days,
    /// so a recycled calendar drives a model through the identical event
    /// sequence a fresh one would — it just skips re-growing to the
    /// workload's natural size.
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY_BUCKET);
        self.nodes.clear();
        self.free = NIL;
        self.lane.clear();
        self.current = 0;
        self.bucket_start = 0;
        self.bucketed = 0;
        self.next_seq = 0;
        self.last_popped = Time::ZERO;
    }

    fn resize(&mut self, new_buckets: usize) {
        // Re-estimate width from the average spacing of the bucketed
        // entries (Brown's heuristic, simplified: span / count). Buckets
        // are sorted, so heads hold the per-bucket minima and tails the
        // maxima.
        let occupied = || self.buckets.iter().filter(|b| b.head != NIL);
        let lo = occupied()
            .map(|b| self.nodes[b.head as usize].at.ticks())
            .min();
        let hi = occupied()
            .map(|b| self.nodes[b.tail as usize].at.ticks())
            .max();
        let width = match (lo, hi) {
            (Some(lo), Some(hi)) if hi > lo && self.bucketed > 1 => {
                (3 * (hi - lo) / self.bucketed as u64).max(1)
            }
            _ => self.width,
        };
        // A k-way merge over the bucket heads threads every node onto one
        // globally sorted chain in O(n log k), without comparing entries
        // that never interleave. The merge heap's storage is recycled
        // across resizes, and nodes are relinked, never moved, so in
        // steady state — where the FEL can cross the resize band
        // repeatedly — a resize allocates nothing.
        let mut head_storage = std::mem::take(&mut self.heads_scratch);
        head_storage.clear();
        head_storage.extend(
            (0..self.buckets.len())
                .filter(|&i| self.buckets[i].head != NIL)
                .map(|i| {
                    let (at, seq) = self.head_key(i);
                    Reverse((at, seq, i))
                }),
        );
        let mut heads = BinaryHeap::from(head_storage);
        let (mut first, mut last) = (NIL, NIL);
        while let Some(Reverse((_, _, i))) = heads.pop() {
            let slot = self.buckets[i].head;
            let next = self.nodes[slot as usize].next;
            self.buckets[i].head = next;
            if next != NIL {
                let n = &self.nodes[next as usize];
                heads.push(Reverse((n.at, n.seq, i)));
            }
            if last == NIL {
                first = slot;
            } else {
                self.nodes[last as usize].next = slot;
            }
            last = slot;
        }
        self.heads_scratch = heads.into_vec();
        self.buckets.clear();
        self.buckets.resize(new_buckets, EMPTY_BUCKET);
        self.width = width;
        let anchor = self.last_popped;
        self.current = ((anchor.ticks() / width) % new_buckets as u64) as usize;
        self.bucket_start = (anchor.ticks() / width) * width;
        // Relinking the sorted chain in order appends every node at its
        // bucket's tail; original seqs are kept so FIFO ties survive the
        // resize.
        let mut slot = first;
        while slot != NIL {
            let next = self.nodes[slot as usize].next;
            self.nodes[slot as usize].next = NIL;
            self.link(slot);
            slot = next;
        }
        // `bucketed` and `next_seq` are unchanged: every entry was relinked.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use crate::event::EventQueue;
        use crate::rng::SimRng;
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
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e))
                );
                if let Some((t, _)) = a {
                    clock = t.ticks();
                }
            }
        }
        // Drain both completely.
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(
                a.as_ref().map(|(t, e)| (*t, *e)),
                b.as_ref().map(|(t, e)| (*t, *e))
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_matches_pop_and_leaves_queue_intact() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(47);
        let mut q = CalendarQueue::with_geometry(16, 10);
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

    #[test]
    fn survives_resize_up_and_down() {
        let mut q = CalendarQueue::with_geometry(16, 10);
        for i in 0..10_000u64 {
            q.push(Time::from_ticks(i * 3), i);
        }
        assert_eq!(q.len(), 10_000);
        let mut prev = 0u64;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t.ticks() >= prev);
            prev = t.ticks();
            count += 1;
        }
        assert_eq!(count, 10_000);
        assert!(q.is_empty());
    }

    /// Resize keeps the `(time, seq)` order exactly: a workload of heavy
    /// ties (many simultaneous events) pushed through both the doubling
    /// and halving paths drains in strict FIFO-per-time order.
    #[test]
    fn resize_preserves_time_seq_order() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(83);
        let mut q = CalendarQueue::with_geometry(16, 5);
        let mut pushed: Vec<(u64, u64)> = Vec::new();
        // Grow far past several doubling thresholds with heavy ties.
        for id in 0..4_000u64 {
            let t = rng.uniform_inclusive(0, 40); // only 41 distinct times
            q.push(Time::from_ticks(t), id);
            pushed.push((t, id));
        }
        // Expected order: stable sort by time keeps push order per time,
        // which is exactly (time, seq) because seq is the push counter.
        pushed.sort_by_key(|&(t, _)| t);
        // Drain fully — the shrink path runs repeatedly on the way down.
        let mut drained = Vec::new();
        while let Some((t, id)) = q.pop() {
            drained.push((t.ticks(), id));
        }
        assert_eq!(drained, pushed);
    }

    /// Seeded property test: random interleaved push/peek/pop traffic with
    /// time plateaus (forcing ties) and bursts (forcing resizes in both
    /// directions) must agree with the binary-heap FEL at every step. A
    /// sorted-append stream rides along: a staggered initial batch in
    /// whole steps (tying with bucketed events on the same ticks), then
    /// in-order appends that fall behind or run ahead of the buckets, and
    /// now and then an append that breaks the order. The heap takes those
    /// as plain pushes.
    #[test]
    fn prop_agrees_with_heap_through_resizes() {
        use crate::event::EventQueue;
        use crate::rng::SimRng;
        for case in 0..40u64 {
            let mut rng = SimRng::new(9_000 + case);
            let mut cal = CalendarQueue::with_geometry(16, 1 + (case % 7) * 3);
            let mut heap = EventQueue::new();
            let mut clock = 0u64;
            let mut id = 0u64;
            let step = 1 + case % 5;
            let mut lane_at = 0u64;
            for i in 0..rng.uniform_inclusive(0, 400) {
                lane_at = i * step;
                cal.push_sorted(Time::from_ticks(lane_at), id);
                heap.push(Time::from_ticks(lane_at), id);
                id += 1;
            }
            for _ in 0..600 {
                if rng.bernoulli(0.2) {
                    lane_at = if rng.bernoulli(0.1) {
                        clock + rng.uniform_inclusive(0, 20)
                    } else {
                        lane_at.max(clock) + rng.uniform_inclusive(0, 3) * step
                    };
                    cal.push_sorted(Time::from_ticks(lane_at), id);
                    heap.push(Time::from_ticks(lane_at), id);
                    id += 1;
                }
                // Bursts grow the queue past resize-up; drain phases pull
                // it back down through resize-down.
                let burst = if rng.bernoulli(0.1) {
                    rng.uniform_inclusive(20, 60)
                } else {
                    rng.uniform_inclusive(0, 2)
                };
                for _ in 0..burst {
                    let dt = if rng.bernoulli(0.3) {
                        0 // plateau: simultaneous events
                    } else {
                        rng.uniform_inclusive(0, 200)
                    };
                    let at = Time::from_ticks(clock + dt);
                    cal.push(at, id);
                    heap.push(at, id);
                    id += 1;
                }
                let drains = rng.uniform_inclusive(0, 8);
                for _ in 0..drains {
                    assert_eq!(cal.peek_time(), heap.peek_time());
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(
                        a.as_ref().map(|(t, e)| (*t, *e)),
                        b.as_ref().map(|(t, e)| (*t, *e)),
                        "diverged in case {case}"
                    );
                    if let Some((t, _)) = a {
                        clock = t.ticks();
                    }
                }
            }
            loop {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e))
                );
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn sparse_far_future_events_found() {
        let mut q = CalendarQueue::with_geometry(16, 10);
        q.push(Time::from_ticks(1_000_000), "far");
        q.push(Time::from_ticks(2_000_000), "farther");
        assert_eq!(q.peek_time(), Some(Time::from_ticks(1_000_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("farther"));
        assert_eq!(q.pop(), None);
    }

    /// A cleared calendar — even one whose geometry grew and whose clock
    /// advanced far past zero — must drain a fresh workload in exactly the
    /// order a brand-new queue would.
    #[test]
    fn clear_matches_fresh_queue_after_growth() {
        use crate::rng::SimRng;
        let mut grown = CalendarQueue::with_geometry(16, 5);
        for i in 0..5_000u64 {
            grown.push(Time::from_ticks(i * 7), i);
        }
        while grown.pop().is_some() {}
        grown.clear();
        assert!(grown.is_empty());
        assert_eq!(grown.peek_time(), None);

        let mut fresh = CalendarQueue::with_geometry(16, 5);
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
                let b = fresh.pop();
                assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e))
                );
                if let Some((t, _)) = a {
                    clock = t.ticks();
                }
            }
        }
        loop {
            let a = grown.pop();
            let b = fresh.pop();
            assert_eq!(
                a.as_ref().map(|(t, e)| (*t, *e)),
                b.as_ref().map(|(t, e)| (*t, *e))
            );
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
