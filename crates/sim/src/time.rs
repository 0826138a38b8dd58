//! Simulated time.
//!
//! Time is measured in integer **ticks**. One *model time unit* (the unit
//! the paper's parameters are expressed in — e.g. `iotime = 0.2`) is
//! [`TICKS_PER_UNIT`] ticks, so the smallest representable interval is
//! 0.001 model units. All of the paper's parameters (`0.2`, `0.1`, `0.05`,
//! `0.01`, `0`) are exactly representable, which keeps event ordering exact
//! and simulations reproducible: there is no floating-point accumulation
//! anywhere on the simulation's critical path.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of clock ticks per model time unit.
pub const TICKS_PER_UNIT: u64 = 1_000;

/// An absolute point in simulated time, in ticks since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A non-negative span of simulated time, in ticks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "unset horizon".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Construct from model time units (e.g. `Time::from_units(10_000.0)`
    /// for the paper's `tmax`). Rounds to the nearest tick.
    #[inline]
    pub fn from_units(units: f64) -> Self {
        debug_assert!(units >= 0.0, "time cannot be negative");
        Time((units * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This instant expressed in model time units.
    #[inline]
    pub fn units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Span from an earlier instant to this one.
    ///
    /// # Panics
    /// In debug builds, panics if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(earlier <= self, "since() called with a later instant");
        Dur(self.0 - earlier.0)
    }

    /// Saturating version of [`Time::since`]: returns zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Dur(ticks)
    }

    /// Construct from model time units; rounds to the nearest tick.
    ///
    /// All parameter values used in the paper (0.2, 0.1, 0.05, 0.01, 0)
    /// convert exactly.
    #[inline]
    pub fn from_units(units: f64) -> Self {
        debug_assert!(units >= 0.0, "durations cannot be negative");
        Dur((units * TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// This span expressed in model time units.
    #[inline]
    pub fn units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// True if the span is zero ticks.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer count (e.g. per-entity cost × entity count).
    #[inline]
    pub const fn times(self, n: u64) -> Dur {
        Dur(self.0 * n)
    }

    /// Checked subtraction; `None` if `other` is longer.
    #[inline]
    pub fn checked_sub(self, other: Dur) -> Option<Dur> {
        self.0.checked_sub(other.0).map(Dur)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0 - rhs.0)
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        Dur(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.units())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.units())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", self.units())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_is_exact_for_paper_parameters() {
        for &u in &[0.2, 0.1, 0.05, 0.01, 0.0] {
            let d = Dur::from_units(u);
            assert!((d.units() - u).abs() < 1e-12, "{u} did not round-trip");
        }
        assert_eq!(Dur::from_units(0.05).ticks(), 50);
        assert_eq!(Dur::from_units(0.2).ticks(), 200);
        assert_eq!(Dur::from_units(0.0).ticks(), 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_units(5.0);
        let d = Dur::from_units(2.5);
        assert_eq!((t + d).units(), 7.5);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.saturating_since(t + d), Dur::ZERO);
    }

    #[test]
    fn dur_times_scales() {
        // IOtime_i = NU_i * iotime with NU_i = 250, iotime = 0.2 -> 50 units.
        let io = Dur::from_units(0.2).times(250);
        assert_eq!(io.units(), 50.0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Time::from_units(1.0) < Time::from_units(1.001));
        assert_eq!(format!("{}", Time::from_units(2.5)), "2.5");
        assert_eq!(format!("{:?}", Dur::from_units(0.2)), "0.2u");
    }

    #[test]
    fn checked_sub() {
        let a = Dur::from_ticks(10);
        let b = Dur::from_ticks(4);
        assert_eq!(a.checked_sub(b), Some(Dur::from_ticks(6)));
        assert_eq!(b.checked_sub(a), None);
    }
}
