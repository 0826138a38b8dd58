//! Future-event list.
//!
//! A thin wrapper over [`std::collections::BinaryHeap`] that orders events
//! by `(time, sequence)`. The monotone sequence number makes ordering among
//! simultaneous events **stable FIFO** — whoever scheduled first fires
//! first — which is essential for reproducibility: a plain binary heap
//! breaks ties arbitrarily and would make runs depend on heap layout.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of pending events with stable FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event, together with its firing time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event and restart the sequence counter, keeping
    /// the heap's allocation for reuse. After `clear` the queue is
    /// indistinguishable from a fresh one except for retained capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(30), "c");
        q.push(Time::from_ticks(10), "a");
        q.push(Time::from_ticks(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ticks(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_keep_fifo_within_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(10), 1);
        q.push(Time::from_ticks(5), 0);
        q.push(Time::from_ticks(10), 2);
        assert_eq!(q.pop(), Some((Time::from_ticks(5), 0)));
        q.push(Time::from_ticks(10), 3);
        assert_eq!(q.pop(), Some((Time::from_ticks(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_ticks(10), 2)));
        assert_eq!(q.pop(), Some((Time::from_ticks(10), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_restores_fresh_semantics() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(Time::from_ticks(100 - i), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        // A cleared queue orders (and FIFO-ties) exactly like a fresh one.
        let t = Time::from_ticks(5);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::from_ticks(7), ());
        assert_eq!(q.peek_time(), Some(Time::from_ticks(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
    }
}
