//! The pending queue: arrivals waiting for an admission slot under an MPL
//! cap (DESIGN.md §11, "Admission-time draws").
//!
//! The queue is FIFO in serial order and always holds the youngest
//! `len()` serials: an arrival bypasses it only when it is empty, and a
//! completion admits its head before the replacement arrives. Its two
//! kinds of arrival are kept apart:
//!
//! - the queued *initial* arrivals are one contiguous stretch of the
//!   arrival series (they join and leave the queue in series order), so
//!   they are a count and the time of the first; the k-th of them
//!   arrived k · [`ARRIVAL_SPACING`] after it;
//! - the queued closed-model *replacements* are `(serial, arrived)`
//!   pairs, in arrival order.
//!
//! The head's serial is `next_serial − len()`. It is the front
//! replacement when that carries the serial, and otherwise the oldest
//! queued initial arrival. A terminal that waits for its first admission
//! thus costs no memory, and a queued replacement 16 bytes.

use std::collections::VecDeque;

use lockgran_sim::{Dur, Time, TICKS_PER_UNIT};

/// The spacing of the initial arrivals: one time unit (paper §2).
pub(super) const ARRIVAL_SPACING: Dur = Dur::from_ticks(TICKS_PER_UNIT);

/// Which kind of arrival joins the queue.
#[derive(Clone, Copy)]
pub(super) enum Arrival {
    /// One of the `ntrans` staggered initial arrivals (`Event::Arrive`).
    Initial,
    /// The closed-model replacement of a completed transaction.
    Replacement,
}

/// FIFO of arrivals waiting for an admission slot (see module docs).
#[derive(Default)]
pub(super) struct PendingQueue {
    /// Arrival time of the oldest queued initial arrival; the others
    /// follow [`ARRIVAL_SPACING`] apart. Stale while `initial` is 0.
    first: Time,
    /// Queued initial arrivals.
    initial: u64,
    /// Queued replacements, `(serial, arrived)`, in arrival order.
    replacements: VecDeque<(u64, Time)>,
}

impl PendingQueue {
    /// Arrivals waiting.
    pub(super) fn len(&self) -> u64 {
        self.initial + self.replacements.len() as u64
    }

    /// Queue transaction `serial`, which arrived at `arrived`. An
    /// initial arrival's serial is implied by its place in the queue.
    pub(super) fn push(&mut self, kind: Arrival, serial: u64, arrived: Time) {
        match kind {
            Arrival::Initial => {
                if self.initial == 0 {
                    self.first = arrived;
                }
                debug_assert_eq!(
                    self.first + ARRIVAL_SPACING.times(self.initial),
                    arrived,
                    "a queued initial arrival must continue the queued stretch of the series"
                );
                self.initial += 1;
            }
            Arrival::Replacement => self.replacements.push_back((serial, arrived)),
        }
    }

    /// Take the head, `(serial, arrived)`, if any. `next_serial` is the
    /// serial the next arrival will take.
    pub(super) fn pop(&mut self, next_serial: u64) -> Option<(u64, Time)> {
        let head = next_serial - self.len();
        if self.replacements.front().is_some_and(|&(s, _)| s == head) {
            return self.replacements.pop_front();
        }
        if self.initial == 0 {
            return None;
        }
        let arrived = self.first;
        self.first += ARRIVAL_SPACING;
        self.initial -= 1;
        Some((head, arrived))
    }

    /// Drop every queued arrival, keeping the replacements' capacity.
    pub(super) fn clear(&mut self) {
        self.initial = 0;
        self.replacements.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockgran_sim::SimRng;

    /// The k-th initial arrival's time.
    fn initial_at(k: u64) -> Time {
        Time::ZERO + ARRIVAL_SPACING.times(k)
    }

    /// Queued initial arrivals take no heap memory, however many wait,
    /// and leave in series order with their serials and times.
    #[test]
    fn queued_initial_arrivals_are_a_count() {
        let mut q = PendingQueue::default();
        for k in 0..100_000 {
            q.push(Arrival::Initial, k, initial_at(k));
        }
        assert_eq!(q.len(), 100_000);
        assert_eq!(q.replacements.capacity(), 0, "an arrival was stored");
        for k in 0..100_000 {
            assert_eq!(q.pop(100_000), Some((k, initial_at(k))));
        }
        assert_eq!(q.pop(100_000), None);
    }

    /// A replacement that arrives between two initial arrivals, or on the
    /// tick of the next one, leaves between them, in serial order.
    #[test]
    fn replacements_leave_in_serial_order_between_initial_arrivals() {
        let mut q = PendingQueue::default();
        q.push(Arrival::Initial, 0, initial_at(3));
        q.push(Arrival::Replacement, 1, initial_at(4));
        q.push(Arrival::Initial, 2, initial_at(4));
        q.push(Arrival::Replacement, 3, initial_at(4));
        q.push(Arrival::Initial, 4, initial_at(5));
        assert_eq!(q.len(), 5);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop(5)).collect();
        let expected = [
            (0, initial_at(3)),
            (1, initial_at(4)),
            (2, initial_at(4)),
            (3, initial_at(4)),
            (4, initial_at(5)),
        ];
        assert_eq!(popped, expected);
    }

    /// An initial arrival queued off the series' grid is a logic error.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "continue the queued stretch")]
    fn an_initial_arrival_off_the_grid_panics() {
        let mut q = PendingQueue::default();
        q.push(Arrival::Initial, 0, initial_at(2));
        q.push(Arrival::Initial, 1, initial_at(4));
    }

    /// The queue against a `VecDeque` of `(serial, arrived)` pairs, the
    /// representation it replaced, over seeded histories of the shape the
    /// system model produces: initial arrivals on the one-unit grid,
    /// replacements at arbitrary ticks (the tick of the next initial
    /// arrival too, before and after it), arrivals that bypass an empty
    /// queue, admissions between them, and resets that clear a non-empty
    /// queue. Every pop must give the oracle's pair, and every length
    /// agree.
    #[test]
    fn agrees_with_a_pair_deque_oracle() {
        // What the histories reached.
        let (mut ties_before, mut ties_after, mut cleared) = (0, 0, 0);
        let (mut zero_initial, mut one_initial, mut longest) = (0, 0, 0);
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut q = PendingQueue::default();
            let mut oracle: VecDeque<(u64, Time)> = VecDeque::new();
            // The clock, the next serial and the next initial arrival.
            let (mut now, mut next_serial, mut next_initial) = (Time::ZERO, 0u64, 0u64);
            let ntrans = rng.uniform_inclusive(0, 60);
            for _ in 0..600 {
                let step = rng.uniform_inclusive(0, 99);
                let initial_left = next_initial < ntrans;
                let arrival = if step < 40 && initial_left {
                    // The next initial arrival.
                    let at = initial_at(next_initial);
                    if at == now && oracle.back().is_some_and(|&(_, t)| t == at) {
                        ties_before += 1;
                    }
                    next_initial += 1;
                    Some((Arrival::Initial, at))
                } else if step < 75 {
                    // A replacement, at a tick no later than the next
                    // initial arrival's, often on it.
                    let at = if !initial_left {
                        now + Dur::from_ticks(rng.uniform_inclusive(0, 3_000))
                    } else if rng.bernoulli(0.3) {
                        initial_at(next_initial)
                    } else {
                        let span = initial_at(next_initial).since(now).ticks();
                        now + Dur::from_ticks(rng.uniform_inclusive(0, span))
                    };
                    if at == now && next_initial > 0 && initial_at(next_initial - 1) == at {
                        ties_after += 1;
                    }
                    Some((Arrival::Replacement, at))
                } else {
                    None
                };
                if let Some((kind, at)) = arrival {
                    assert!(at >= now, "the clock runs backwards");
                    now = at;
                    let serial = next_serial;
                    next_serial += 1;
                    // An arrival may bypass only an empty queue.
                    if !(oracle.is_empty() && rng.bernoulli(0.3)) {
                        q.push(kind, serial, at);
                        oracle.push_back((serial, at));
                    }
                } else if step < 97 {
                    assert_eq!(q.pop(next_serial), oracle.pop_front(), "seed {seed}");
                } else if !oracle.is_empty() {
                    // A reset: the run starts over from time zero.
                    q.clear();
                    oracle.clear();
                    (now, next_serial, next_initial) = (Time::ZERO, 0, 0);
                    cleared += 1;
                }
                assert_eq!(q.len(), oracle.len() as u64, "seed {seed}");
                longest = longest.max(oracle.len());
                if !q.replacements.is_empty() {
                    match q.initial {
                        0 => zero_initial += 1,
                        1 => one_initial += 1,
                        _ => {}
                    }
                }
            }
            while let Some(pair) = oracle.pop_front() {
                assert_eq!(q.pop(next_serial), Some(pair), "seed {seed}");
            }
            assert_eq!(q.pop(next_serial), None, "seed {seed}");
        }
        for (what, reached) in [
            (
                "a replacement, then an initial arrival, on one tick",
                ties_before,
            ),
            (
                "an initial arrival, then a replacement, on one tick",
                ties_after,
            ),
            ("a clear of a non-empty queue", cleared),
            (
                "replacements beside no queued initial arrival",
                zero_initial,
            ),
            (
                "replacements beside one queued initial arrival",
                one_initial,
            ),
        ] {
            assert!(reached > 0, "no history reached {what}");
        }
        assert!(longest >= 20, "the queue never grew past {longest}");
    }
}
