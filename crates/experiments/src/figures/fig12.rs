//! Figure 12 — "Effects of number of locks and granule placement on
//! throughput with large number of transactions (ntrans = 200)".
//!
//! Multiprogramming level raised from 10 to 200, `npros = 20`,
//! `maxtransize = 500`. Expected (paper §3.7): with many resident
//! transactions, entity-level granularity (`ltot = dbsize`) *loses* to
//! coarse granularity — lock processing overhead scales with
//! `ntrans × ltot` while most of the extra lock requests are denied, so
//! concurrency does not improve.

use super::{fig09::placement_sweep, figure};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 12.
pub fn run(opts: &RunOptions) -> Figure {
    let swept = placement_sweep(opts, &[20], 500, 200);
    figure(
        "fig12",
        "Effects of number of locks and granule placement on throughput with large number of transactions (ntrans = 200)",
        &swept,
        &[Metric::Throughput, Metric::DenialRate],
        vec![
            "ntrans = 200, npros = 20, maxtransize = 500.".to_string(),
            "Expected: fine granularity (ltot = dbsize) underperforms coarse under heavy load."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn fine_granularity_loses_under_heavy_load() {
        let f = quick("fig12");
        for s in &f.panel("throughput").unwrap().series {
            let coarse = s.at(10.0).unwrap();
            let fine = s.at(5000.0).unwrap();
            assert!(fine < coarse, "{}: fine {fine} !< coarse {coarse}", s.label);
        }
    }

    #[test]
    fn denials_dominate_at_fine_granularity_and_heavy_load() {
        let f = quick("fig12");
        let best = f
            .panel("denial_rate")
            .unwrap()
            .series("best/npros=20")
            .unwrap();
        // With 200 resident transactions, most lock attempts are denied
        // even at fine granularity (the paper's §3.7 mechanism).
        assert!(
            best.at(5000.0).unwrap() > 0.5,
            "denial rate {}",
            best.at(5000.0).unwrap()
        );
    }
}
