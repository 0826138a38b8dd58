//! Welch's graphical warm-up detection.
//!
//! A closed simulation starts empty-ish and takes time to reach steady
//! state; measuring from t = 0 biases every mean. Welch's classical
//! procedure averages the observation series across replications, smooths
//! it with a centred moving average, and picks the truncation point where
//! the smoothed curve settles near its long-run level. The experiment
//! harness uses it to justify (or skip) a warm-up for a given
//! configuration.

/// Average `series[r][t]` across replications `r` at each index `t`,
/// truncating to the shortest replication.
pub fn cross_replication_mean(series: &[Vec<f64>]) -> Vec<f64> {
    let Some(len) = series.iter().map(Vec::len).min() else {
        return Vec::new();
    };
    (0..len)
        .map(|t| series.iter().map(|s| s[t]).sum::<f64>() / series.len() as f64)
        .collect()
}

/// Centred moving average with window half-width `w` (window size
/// `2w + 1`, shrinking symmetrically near the edges, as Welch specifies).
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    (0..xs.len())
        .map(|t| {
            let k = w.min(t).min(xs.len() - 1 - t);
            let lo = t - k;
            let hi = t + k;
            xs[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

/// Suggest a truncation index: the first `t` (in the first three
/// quarters of the series) at which the smoothed curve is within
/// `tolerance` (relative) of the mean of the final quarter **and** at
/// least 90% of the points from `t` onward stay within it. The 90%
/// allowance makes the rule robust to residual window noise — a strict
/// "every later point" rule rejects perfectly stationary but noisy
/// series. Returns `None` if the series never settles.
///
/// # Panics
/// Panics if `tolerance` is not positive.
pub fn suggest_truncation(smoothed: &[f64], tolerance: f64) -> Option<usize> {
    assert!(tolerance > 0.0, "tolerance must be positive");
    if smoothed.len() < 8 {
        return None;
    }
    let tail = &smoothed[smoothed.len() - smoothed.len() / 4..];
    let level = tail.iter().sum::<f64>() / tail.len() as f64;
    // Division-by-zero guard for the relative-tolerance test below; any
    // non-zero level, however small, is usable.
    if level == 0.0 {
        return None;
    }
    let within = |x: f64| ((x - level) / level).abs() <= tolerance;
    // Suffix counts of out-of-tolerance points.
    let mut bad_suffix = vec![0usize; smoothed.len() + 1];
    for (t, &x) in smoothed.iter().enumerate().rev() {
        bad_suffix[t] = bad_suffix[t + 1] + usize::from(!within(x));
    }
    let limit = smoothed.len() - smoothed.len() / 4;
    (0..limit).find(|&t| {
        let remaining = smoothed.len() - t;
        within(smoothed[t]) && bad_suffix[t] * 10 <= remaining
    })
}

/// Welch's two-sample t statistic and Welch–Satterthwaite degrees of
/// freedom for comparing two means from `(mean, sample variance, n)`
/// summaries with unequal variances. Used to cross-check the single-run
/// batch-means estimator against independent replications: a |t| below
/// the critical value means the two estimators agree.
///
/// Degenerate case: with both variances zero the statistic is 0 when the
/// means coincide and ±∞ otherwise (df reported as 1).
///
/// # Panics
/// Panics unless both sides have at least two samples.
pub fn welch_t(mean_a: f64, var_a: f64, n_a: u64, mean_b: f64, var_b: f64, n_b: u64) -> (f64, f64) {
    assert!(
        n_a >= 2 && n_b >= 2,
        "Welch's t needs at least two samples per side"
    );
    let sa = var_a / n_a as f64;
    let sb = var_b / n_b as f64;
    let se2 = sa + sb;
    // Exact-zero variance is the degenerate branch.
    if se2 == 0.0 {
        let diff = mean_a - mean_b;
        // Identical means with no spread — t is 0.
        let t = if diff == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(diff)
        };
        return (t, 1.0);
    }
    let t = (mean_a - mean_b) / se2.sqrt();
    let df = se2 * se2 / (sa * sa / (n_a - 1) as f64 + sb * sb / (n_b - 1) as f64);
    (t, df)
}

/// One-call Welch procedure: replication series → suggested truncation
/// index (in observation units), or `None` if undecidable.
pub fn welch_warmup(series: &[Vec<f64>], window: usize, tolerance: f64) -> Option<usize> {
    let mean = cross_replication_mean(series);
    if mean.is_empty() {
        return None;
    }
    let smooth = moving_average(&mean, window);
    suggest_truncation(&smooth, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A series with an exponential transient settling at `level`.
    fn transient(level: f64, warm: usize, len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|t| {
                let decay = (-(t as f64) / warm as f64).exp();
                level * (1.0 - decay) + 0.05 * level * ((t as f64 + phase) * 0.7).sin()
            })
            .collect()
    }

    #[test]
    fn cross_replication_mean_truncates_and_averages() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![3.0, 4.0, 5.0];
        let m = cross_replication_mean(&[a, b]);
        assert_eq!(m, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn moving_average_shrinks_at_edges() {
        let xs = vec![0.0, 10.0, 20.0, 30.0, 40.0];
        let m = moving_average(&xs, 2);
        assert_eq!(m[0], 0.0); // window of 1 at the left edge
        assert_eq!(m[2], 20.0); // full window
        assert_eq!(m[4], 40.0); // window of 1 at the right edge
        assert!((m[1] - 10.0).abs() < 1e-12); // symmetric 3-window
    }

    #[test]
    fn detects_transient_end() {
        let reps: Vec<Vec<f64>> = (0..5)
            .map(|r| transient(100.0, 20, 400, r as f64 * 13.0))
            .collect();
        let cut = welch_warmup(&reps, 5, 0.03).expect("must settle");
        // The transient has effectively died by ~4 time constants.
        assert!(
            (40..=160).contains(&cut),
            "truncation at {cut}, expected near 80"
        );
    }

    #[test]
    fn stationary_series_truncates_immediately() {
        let reps: Vec<Vec<f64>> = (0..3)
            .map(|r| {
                (0..100)
                    .map(|t| 50.0 + ((t + r) as f64 * 0.9).sin())
                    .collect()
            })
            .collect();
        let cut = welch_warmup(&reps, 10, 0.05).expect("stationary settles");
        assert!(cut <= 10, "stationary series truncated at {cut}");
    }

    #[test]
    fn unsettled_series_returns_none() {
        // Monotone ramp: never within tolerance of its final level early.
        let reps = vec![(0..100).map(|t| t as f64).collect::<Vec<_>>()];
        assert_eq!(welch_warmup(&reps, 3, 0.01), None);
    }

    #[test]
    fn too_short_series_returns_none() {
        let reps = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(welch_warmup(&reps, 1, 0.05), None);
        assert_eq!(welch_warmup(&[], 1, 0.05), None);
    }

    #[test]
    fn welch_t_known_value() {
        // Textbook case: means 10 vs 12, variances 4 and 9, n = 20 each.
        // se² = 4/20 + 9/20 = 0.65; t = -2 / sqrt(0.65) ≈ -2.4807.
        let (t, df) = welch_t(10.0, 4.0, 20, 12.0, 9.0, 20);
        assert!((t + 2.480_694).abs() < 1e-5, "t = {t}");
        // Welch–Satterthwaite: 0.65² / ((0.2² + 0.45²)/19) ≈ 33.1.
        assert!((df - 33.1).abs() < 0.2, "df = {df}");
    }

    #[test]
    fn welch_t_is_zero_for_identical_summaries() {
        let (t, _) = welch_t(5.0, 2.0, 10, 5.0, 2.0, 10);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn welch_t_df_within_classical_bounds() {
        // df lies in [min(n_a, n_b) - 1, n_a + n_b - 2].
        let (_, df) = welch_t(1.0, 1.0, 5, 2.0, 50.0, 30);
        assert!((4.0..=33.0).contains(&df), "df = {df}");
    }

    #[test]
    fn welch_t_degenerate_variances() {
        let (t, _) = welch_t(3.0, 0.0, 4, 3.0, 0.0, 4);
        assert_eq!(t, 0.0);
        let (t, _) = welch_t(4.0, 0.0, 4, 3.0, 0.0, 4);
        assert_eq!(t, f64::INFINITY);
        let (t, _) = welch_t(2.0, 0.0, 4, 3.0, 0.0, 4);
        assert_eq!(t, f64::NEG_INFINITY);
    }
}
