//! Time-weighted level statistic.
//!
//! Tracks a piecewise-constant level (queue length, active-transaction
//! count, multiprogramming level) and integrates it over simulated time,
//! yielding the time-average of the level — the standard DES statistic for
//! quantities that persist between events.

use crate::time::Time;

/// Integrates a piecewise-constant level over time.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    level: f64,
    last_change: Time,
    area: f64,
    start: Time,
    max_level: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Level 0 from time 0.
    pub fn new() -> Self {
        TimeWeighted {
            level: 0.0,
            last_change: Time::ZERO,
            area: 0.0,
            start: Time::ZERO,
            max_level: 0.0,
        }
    }

    /// Record that the level changed to `level` at time `now`. Times must
    /// be non-decreasing across calls.
    pub fn record(&mut self, now: Time, level: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.area += self.level * now.since(self.last_change).units();
        self.level = level;
        self.last_change = now;
        self.max_level = self.max_level.max(level);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Largest level ever recorded.
    pub fn max_level(&self) -> f64 {
        self.max_level
    }

    /// Time-average of the level over `[start, now]`, extending the last
    /// level to `now`. Returns the current level for an empty interval.
    pub fn mean_at(&self, now: Time) -> f64 {
        let span = now.saturating_since(self.start).units();
        // Empty-interval guard — saturating_since returns exactly 0.0 when
        // now <= start, and any non-zero span must divide the area below.
        if span == 0.0 {
            return self.level;
        }
        let tail = self.level * now.saturating_since(self.last_change).units();
        (self.area + tail) / span
    }

    /// Restart measurement at `now` with the current level (warm-up reset).
    pub fn reset(&mut self, now: Time) {
        self.area = 0.0;
        self.start = now;
        self.last_change = now;
        self.max_level = self.level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_level() {
        let mut tw = TimeWeighted::new();
        tw.record(Time::ZERO, 3.0);
        assert!((tw.mean_at(Time::from_units(10.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn step_function_average() {
        let mut tw = TimeWeighted::new();
        tw.record(Time::ZERO, 0.0);
        tw.record(Time::from_units(2.0), 4.0); // level 0 for 2u
        tw.record(Time::from_units(6.0), 1.0); // level 4 for 4u
                                               // level 1 for 4u more -> mean = (0*2 + 4*4 + 1*4) / 10 = 2.0
        assert!((tw.mean_at(Time::from_units(10.0)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.max_level(), 4.0);
    }

    #[test]
    fn reset_discards_history() {
        let mut tw = TimeWeighted::new();
        tw.record(Time::ZERO, 100.0);
        tw.record(Time::from_units(5.0), 2.0);
        tw.reset(Time::from_units(5.0));
        assert!((tw.mean_at(Time::from_units(15.0)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.max_level(), 2.0);
    }

    #[test]
    fn empty_interval_returns_current_level() {
        let mut tw = TimeWeighted::new();
        tw.record(Time::ZERO, 7.0);
        assert_eq!(tw.mean_at(Time::ZERO), 7.0);
    }
}
