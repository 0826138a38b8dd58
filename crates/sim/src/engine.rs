//! Event loop.
//!
//! [`Executor`] owns the clock and the future-event list; a user-supplied
//! [`Model`] owns all simulation state and reacts to events. The executor
//! is deliberately dumb: pop the earliest event, advance the clock, hand it
//! to the model, repeat until the horizon. Everything interesting —
//! queues, servers, blocking — lives in the model, which keeps this kernel
//! reusable and trivially testable.
//!
//! The future-event list is pluggable via [`FelKind`]: the binary-heap
//! [`EventQueue`] (O(log n) per event) or the tick-grouped
//! [`CalendarQueue`] (O(log n) per distinct pending tick, O(1) per event
//! that ties with one). Both order events by the same stable `(time, seq)`
//! key, so a model observes the identical event sequence — and therefore
//! makes the identical RNG draws — under either.

use crate::calendar::CalendarQueue;
use crate::event::EventQueue;
use crate::time::{Dur, Time};

/// A discrete-event model: reacts to its own event type, scheduling
/// follow-on events through the executor.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at simulated time `now`. New events are scheduled
    /// via [`Executor::schedule`] / [`Executor::schedule_in`].
    fn handle(&mut self, now: Time, event: Self::Event, ex: &mut Executor<Self::Event>);
}

/// Which future-event list implementation an [`Executor`] pumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FelKind {
    /// Binary-heap [`EventQueue`]: O(log n), no tuning, the reference.
    Heap,
    /// [`CalendarQueue`]: FIFO groups of same-tick events under a heap
    /// keyed `(tick, first seq)`; the production choice.
    Calendar,
}

/// The future-event list behind an executor. Both variants share the
/// stable `(time, seq)` total order, so they are interchangeable without
/// perturbing event order (the bit-identity contract DESIGN.md §9
/// documents).
#[expect(
    clippy::large_enum_variant,
    reason = "an executor holds one FEL inline for its lifetime: boxing the \
              calendar, whose recent-tick cache is a fixed array, would add \
              a pointer chase to every push and pop to save a few hundred \
              bytes per heap executor"
)]
enum Fel<E> {
    Heap(EventQueue<E>),
    Calendar(CalendarQueue<E>),
}

impl<E> Fel<E> {
    #[inline(always)]
    fn push(&mut self, at: Time, event: E) {
        match self {
            Fel::Heap(q) => q.push(at, event),
            Fel::Calendar(q) => q.push(at, event),
        }
    }

    /// `count` events `step` apart from `first`: the calendar's series,
    /// plain pushes for the heap.
    fn push_series(&mut self, first: Time, step: Dur, count: u64, event: E)
    where
        E: Clone,
    {
        match self {
            Fel::Heap(q) => {
                for k in 0..count {
                    q.push(first + step.times(k), event.clone());
                }
            }
            Fel::Calendar(q) => q.push_series(first, step, count, event),
        }
    }

    /// The earliest event, removed, if it fires no later than `until`.
    fn pop_due(&mut self, until: Time) -> Option<(Time, E)> {
        match self {
            Fel::Heap(q) if q.peek_time()? > until => None,
            Fel::Heap(q) => q.pop(),
            Fel::Calendar(q) => q.pop_due(until),
        }
    }

    fn len(&self) -> usize {
        match self {
            Fel::Heap(q) => q.len(),
            Fel::Calendar(q) => q.len(),
        }
    }

    /// The calendar's miss-path counts `(groups opened, recent-cache
    /// hits)`; the heap keeps no groups and counts none.
    fn miss_counts(&self) -> (u64, u64) {
        match self {
            Fel::Heap(_) => (0, 0),
            Fel::Calendar(q) => (q.groups_opened(), q.recent_hits()),
        }
    }

    fn clear(&mut self) {
        match self {
            Fel::Heap(q) => q.clear(),
            Fel::Calendar(q) => q.clear(),
        }
    }
}

/// The simulation executor: clock plus future-event list.
pub struct Executor<E> {
    queue: Fel<E>,
    now: Time,
    events_processed: u64,
}

impl<E> Default for Executor<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Executor<E> {
    /// A fresh executor with the clock at [`Time::ZERO`], pumping the
    /// binary-heap FEL (the no-tuning reference; production runs use
    /// [`Executor::with_fel`] to pick the calendar).
    pub fn new() -> Self {
        Self::with_fel(FelKind::Heap)
    }

    /// A fresh executor pumping the chosen future-event list.
    pub fn with_fel(kind: FelKind) -> Self {
        let queue = match kind {
            FelKind::Heap => Fel::Heap(EventQueue::new()),
            FelKind::Calendar => Fel::Calendar(CalendarQueue::new()),
        };
        Executor {
            queue,
            now: Time::ZERO,
            events_processed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Rewind to a pristine state — clock at [`Time::ZERO`], no pending
    /// events, counters zeroed — while keeping the FEL's grown storage.
    /// A reset executor is observationally identical to a fresh one (same
    /// FEL kind, same `(time, seq)` pop order), so sweep harnesses can
    /// reuse one executor across runs without perturbing results.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = Time::ZERO;
        self.events_processed = 0;
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Inlined down to the calendar's slab store, so the caller builds the
    /// event in its node (see [`CalendarQueue::push`]).
    ///
    /// # Panics
    /// In debug builds, panics if `at` is in the past — scheduling into the
    /// past is always a model bug.
    #[inline(always)]
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedule `count` copies of `event`, `step` apart from `first`: the
    /// events, in the order, and with the `(time, seq)` keys that `count`
    /// calls of [`Executor::schedule`] would give them now — for example
    /// a closed model's staggered initial arrivals. The calendar FEL keeps
    /// them as one series ([`CalendarQueue::push_series`]), off its groups
    /// and tick heap, and hands them out one pop at a time; the heap takes
    /// them as plain pushes.
    ///
    /// # Panics
    /// In debug builds, panics if `first` is in the past.
    pub fn schedule_series(&mut self, first: Time, step: Dur, count: u64, event: E)
    where
        E: Clone,
    {
        debug_assert!(
            first >= self.now,
            "scheduling into the past ({first:?} < {:?})",
            self.now
        );
        self.queue.push_series(first, step, count, event);
    }

    /// Schedule `event` after a delay of `d` from the current time.
    #[inline(always)]
    pub fn schedule_in(&mut self, d: Dur, event: E) {
        self.queue.push(self.now + d, event);
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Tick groups the calendar FEL opened since the last
    /// [`Executor::reset`]: pushes that missed both its push memo and its
    /// recent-tick cache (see [`CalendarQueue`]). 0 under the heap FEL.
    pub fn groups_opened(&self) -> u64 {
        self.queue.miss_counts().0
    }

    /// Pushes since the last [`Executor::reset`] that missed the calendar
    /// FEL's push memo and found their tick's group in its recent-tick
    /// cache. 0 under the heap FEL.
    pub fn recent_hits(&self) -> u64 {
        self.queue.miss_counts().1
    }

    /// Run the model until the event list drains or the next event would
    /// fire strictly after `until`. Events at exactly `until` are
    /// processed. Returns the final clock value (== `until` if the horizon
    /// was hit, otherwise the time of the last processed event).
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M, until: Time) -> Time {
        while let Some((at, event)) = self.queue.pop_due(until) {
            self.now = at;
            self.events_processed += 1;
            model.handle(at, event, self);
        }
        // The horizon defines "end of measurement" even if the system went
        // quiet earlier; report it so busy-time denominators are consistent.
        if until > self.now {
            self.now = until;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    #[derive(Debug, Clone)]
    struct Tagged(u32);

    impl Model for Recorder {
        type Event = Tagged;
        fn handle(&mut self, now: Time, ev: Tagged, _ex: &mut Executor<Tagged>) {
            self.seen.push((now.ticks(), ev.0));
        }
    }

    #[test]
    fn processes_in_order_and_stops_at_horizon() {
        let mut m = Recorder::default();
        let mut ex = Executor::new();
        ex.schedule(Time::from_ticks(10), Tagged(1));
        ex.schedule(Time::from_ticks(5), Tagged(0));
        ex.schedule(Time::from_ticks(50), Tagged(9)); // beyond horizon
        let end = ex.run(&mut m, Time::from_ticks(20));
        assert_eq!(m.seen, vec![(5, 0), (10, 1)]);
        assert_eq!(end, Time::from_ticks(20));
        assert_eq!(ex.pending(), 1);
        assert_eq!(ex.events_processed(), 2);
    }

    #[test]
    fn event_at_exact_horizon_fires() {
        let mut m = Recorder::default();
        let mut ex = Executor::new();
        ex.schedule(Time::from_ticks(20), Tagged(7));
        ex.run(&mut m, Time::from_ticks(20));
        assert_eq!(m.seen, vec![(20, 7)]);
    }

    struct Chain {
        hops: u32,
    }
    impl Model for Chain {
        type Event = ();
        fn handle(&mut self, _now: Time, _ev: (), ex: &mut Executor<()>) {
            self.hops += 1;
            ex.schedule_in(Dur::from_ticks(3), ());
        }
    }

    #[test]
    fn self_scheduling_chain_respects_horizon() {
        let mut m = Chain { hops: 0 };
        let mut ex = Executor::new();
        ex.schedule(Time::ZERO, ());
        ex.run(&mut m, Time::from_ticks(10));
        // Fires at t = 0, 3, 6, 9; next (12) is beyond the horizon.
        assert_eq!(m.hops, 4);
    }

    #[test]
    fn clock_advances_to_horizon_when_queue_drains() {
        let mut m = Recorder::default();
        let mut ex = Executor::new();
        ex.schedule(Time::from_ticks(2), Tagged(0));
        let end = ex.run(&mut m, Time::from_ticks(100));
        assert_eq!(end, Time::from_ticks(100));
        assert_eq!(ex.now(), Time::from_ticks(100));
    }

    /// A reset executor replays a workload identically to a fresh one,
    /// for both FEL kinds.
    #[test]
    fn reset_executor_replays_identically() {
        for kind in [FelKind::Heap, FelKind::Calendar] {
            let drive = |ex: &mut Executor<Tagged>| {
                let mut m = Recorder::default();
                ex.schedule_series(Time::ZERO, Dur::from_ticks(5), 40, Tagged(100));
                for i in 0..80u32 {
                    ex.schedule(Time::from_ticks(u64::from(i % 9) * 7), Tagged(i));
                }
                ex.run(&mut m, Time::from_ticks(1_000));
                m.seen
            };
            let mut ex = Executor::with_fel(kind);
            let first = drive(&mut ex);
            assert!(ex.now() > Time::ZERO);
            ex.reset();
            assert_eq!(ex.now(), Time::ZERO);
            assert_eq!(ex.pending(), 0);
            assert_eq!(ex.events_processed(), 0);
            let second = drive(&mut ex);
            assert_eq!(first, second);
        }
    }

    /// Both FEL kinds drive a model through the identical event sequence —
    /// including FIFO ties, between grouped events and the calendar's
    /// series too, from both sides — which is the bit-identity foundation
    /// the production engine relies on.
    #[test]
    fn heap_and_calendar_executors_see_identical_sequences() {
        let run = |kind: FelKind| {
            let mut m = Recorder::default();
            let mut ex = Executor::with_fel(kind);
            for i in 0..25u32 {
                ex.schedule(Time::from_ticks(u64::from(i % 7) * 10), Tagged(i));
            }
            ex.schedule_series(Time::ZERO, Dur::from_ticks(2), 50, Tagged(100));
            for i in 25..50u32 {
                ex.schedule(Time::from_ticks(u64::from(i % 7) * 10), Tagged(i));
            }
            assert_eq!(ex.pending(), 100);
            ex.run(&mut m, Time::from_ticks(1_000));
            m.seen
        };
        assert_eq!(run(FelKind::Heap), run(FelKind::Calendar));
    }
}
