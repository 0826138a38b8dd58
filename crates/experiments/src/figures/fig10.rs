//! Figure 10 — "Effects of number of locks and granule placement on
//! throughput with small transactions (maxtransize = 50)".
//!
//! As Figure 9 with `maxtransize = 50` (mean 25 entities). Expected
//! (paper §3.5 and the conclusion): the dip bottoms out near the mean
//! transaction size (≈ 25 locks); past it throughput climbs all the way
//! to `ltot = dbsize` — for small transactions that access the database
//! randomly, *fine* granularity (one lock per entity) is the right
//! choice, the paper's headline exception to "coarse is good enough".

use super::{fig09::placement_sweep, figure};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 10.
pub fn run(opts: &RunOptions) -> Figure {
    let npros_set: &[u32] = if opts.quick { &[30] } else { &[1, 30] };
    let swept = placement_sweep(opts, npros_set, 50, 10);
    figure(
        "fig10",
        "Effects of number of locks and granule placement on throughput with small transactions (maxtransize = 50)",
        &swept,
        &[Metric::Throughput],
        vec![
            "maxtransize = 50 (mean ≈ 25 entities).".to_string(),
            "Expected: under random/worst placement, throughput climbs toward ltot = dbsize — fine granularity wins for small random transactions.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn fine_granularity_wins_for_small_random_transactions() {
        let f = quick("fig10");
        let panel = f.panel("throughput").unwrap();
        for label in ["random/npros=30", "worst/npros=30"] {
            let s = panel.series(label).unwrap();
            let fine = s.at(5000.0).unwrap();
            let mid = s.at(100.0).unwrap();
            assert!(fine > mid, "{label}: {fine} !> {mid}");
        }
    }

    #[test]
    fn small_transactions_beat_large_under_worst_placement() {
        let small = quick("fig10");
        let large = quick("fig9");
        let s = small
            .panel("throughput")
            .unwrap()
            .series("worst/npros=30")
            .unwrap()
            .clone();
        let l = large
            .panel("throughput")
            .unwrap()
            .series("worst/npros=30")
            .unwrap()
            .clone();
        for (sp, lp) in s.points.iter().zip(l.points.iter()) {
            assert!(sp.mean > lp.mean, "ltot={}", sp.x);
        }
    }
}
