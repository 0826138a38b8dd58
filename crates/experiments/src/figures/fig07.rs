//! Figure 7 — "Effects of number of locks and lock I/O time on throughput
//! (npros = 10)".
//!
//! `liotime ∈ {0.2, 0.1, 0}` — the last models a memory-resident lock
//! table. Expected (paper §3.3): lower lock I/O cost tolerates more locks
//! before overhead dominates; even with `liotime = 0` the curve is flat
//! past ~100 locks — finer granularity stops helping, it just stops
//! hurting.

use lockgran_core::ModelConfig;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// The lock-I/O-cost grid.
pub const LIOTIMES: [f64; 3] = [0.2, 0.1, 0.0];

/// Reproduce Figure 7.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = LIOTIMES
        .iter()
        .map(|&lio| {
            (
                format!("liotime={lio}"),
                ModelConfig::table1().with_npros(10).with_liotime(lio),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig7",
        "Effects of number of locks and lock I/O time on throughput (npros = 10)",
        &swept,
        &[Metric::Throughput, Metric::LockIo],
        vec![
            "liotime = 0 models a main-memory lock table.".to_string(),
            "Expected: cheaper lock I/O flattens the fine-granularity penalty; plateau past ~100 locks.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn cheaper_lock_io_helps_at_fine_granularity() {
        let f = quick("fig7");
        let tput = f.panel("throughput").unwrap();
        let costly = tput.series("liotime=0.2").unwrap();
        let free = tput.series("liotime=0").unwrap();
        // At entity-level locking the memory-resident table wins clearly.
        assert!(
            free.at(5000.0).unwrap() > costly.at(5000.0).unwrap() * 1.2,
            "free {} vs costly {}",
            free.at(5000.0).unwrap(),
            costly.at(5000.0).unwrap()
        );
    }

    #[test]
    fn zero_lock_io_plateaus_instead_of_peaks() {
        // With liotime = 0 the throughput at 5000 locks stays within ~15%
        // of the optimum — fine granularity no longer *hurts* much.
        let f = quick("fig7");
        let free = f.panel("throughput").unwrap().series("liotime=0").unwrap();
        let best = free.max_mean().unwrap();
        let fine = free.at(5000.0).unwrap();
        assert!(fine > 0.7 * best, "fine {fine} vs best {best}");
    }

    #[test]
    fn lock_io_metric_tracks_cost_parameter() {
        let f = quick("fig7");
        let lockio = f.panel("lock_io").unwrap();
        let free = lockio.series("liotime=0").unwrap();
        assert!(free.points.iter().all(|p| p.mean == 0.0));
        let half = lockio.series("liotime=0.1").unwrap();
        let full = lockio.series("liotime=0.2").unwrap();
        // At the fine end, lock I/O scales with the per-lock cost.
        let ratio = full.at(5000.0).unwrap() / half.at(5000.0).unwrap();
        assert!((1.2..=2.8).contains(&ratio), "ratio {ratio}");
    }
}
