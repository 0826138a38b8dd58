//! Observation tally: count / mean / variance / extrema via Welford's
//! online algorithm (numerically stable; no stored samples).

/// Two-tailed Student-t critical values at the 95% level, indexed by
/// degrees of freedom (`T_TABLE[df - 1]` for df 1–30). Beyond 30 df the
/// normal approximation (1.96) is accurate to well under 2%.
const T_TABLE: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 95% two-tailed Student-t critical value for `df` degrees of
/// freedom (normal 1.96 beyond the table; `df = 0` has no variance
/// estimate and conservatively maps to the df = 1 value).
pub fn t_critical_95(df: u64) -> f64 {
    match df {
        0 => T_TABLE[0],
        d if d <= 30 => T_TABLE[(d - 1) as usize],
        _ => 1.96,
    }
}

/// Streaming summary of scalar observations.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Empty tally.
    pub fn new() -> Self {
        Tally {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 if empty (a convention convenient for reports).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of a 95% confidence interval for the mean, using the
    /// Student-t critical value at `count − 1` degrees of freedom.
    ///
    /// The harness runs as few as 3 replications, where the normal 1.96
    /// understates the interval ~2.2× (t(df=2) = 4.303); the t factor is
    /// exact for small samples and converges to 1.96 for large ones.
    /// Returns 0 with fewer than two observations (no variance estimate).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        t_critical_95(self.count - 1) * self.std_err()
    }

    /// Smallest observation; `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tally_is_zeroed() {
        let t = Tally::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
        assert_eq!(t.max(), None);
    }

    #[test]
    fn known_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn single_observation() {
        let mut t = Tally::new();
        t.record(3.5);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci95_uses_student_t_at_small_samples() {
        // Three replications → df = 2 → t = 4.303, not the normal 1.96.
        let mut t = Tally::new();
        for x in [1.0, 2.0, 3.0] {
            t.record(x);
        }
        assert_eq!(t.ci95_half_width(), 4.303 * t.std_err());

        // Two observations → df = 1 → t = 12.706.
        let mut t = Tally::new();
        t.record(5.0);
        t.record(9.0);
        assert_eq!(t.ci95_half_width(), 12.706 * t.std_err());
    }

    #[test]
    fn ci95_converges_to_normal_for_large_samples() {
        let mut t = Tally::new();
        for i in 0..100 {
            t.record(f64::from(i % 7));
        }
        assert_eq!(t.ci95_half_width(), 1.96 * t.std_err());
    }

    #[test]
    fn t_critical_is_monotone_and_bounded_below_by_normal() {
        let mut prev = f64::INFINITY;
        for df in 1..=40 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t table not monotone at df {df}");
            assert!(t >= 1.96, "t below normal at df {df}");
            prev = t;
        }
        assert_eq!(t_critical_95(2), 4.303);
        assert_eq!(t_critical_95(31), 1.96);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let mut t = Tally::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            t.record(x);
        }
        assert!(
            (t.variance() - 30.0).abs() < 1e-6,
            "variance {}",
            t.variance()
        );
    }
}
