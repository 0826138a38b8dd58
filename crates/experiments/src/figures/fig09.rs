//! Figure 9 — "Effects of number of locks and granule placement on
//! throughput with large transactions (maxtransize = 500)".
//!
//! Placement ∈ {best, random, worst} × npros ∈ {1, 30}. Expected (paper
//! §3.5): under worst/random placement throughput *falls* as `ltot` rises
//! from 1 toward the mean transaction size (≈ 250) — each transaction
//! locks essentially the whole database while paying for ever more locks —
//! then recovers as `ltot → dbsize`; best placement keeps the Figure 2
//! shape. Worst and random behave similarly for large transactions.

use lockgran_core::ModelConfig;
use lockgran_workload::Placement;

use super::{figure, sweep_family, Swept};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Sweep all placements for the given processor counts and maxtransize.
pub(crate) fn placement_sweep(
    opts: &RunOptions,
    npros_set: &[u32],
    maxtransize: u64,
    ntrans: u32,
) -> Vec<Swept> {
    let mut configs = Vec::new();
    for &n in npros_set {
        for p in Placement::ALL {
            configs.push((
                format!("{}/npros={n}", p.name()),
                ModelConfig::table1()
                    .with_npros(n)
                    .with_maxtransize(maxtransize)
                    .with_ntrans(ntrans)
                    .with_placement(p),
            ));
        }
    }
    sweep_family(configs, opts)
}

/// Reproduce Figure 9.
pub fn run(opts: &RunOptions) -> Figure {
    let npros_set: &[u32] = if opts.quick { &[30] } else { &[1, 30] };
    let swept = placement_sweep(opts, npros_set, 500, 10);
    figure(
        "fig9",
        "Effects of number of locks and granule placement on throughput with large transactions (maxtransize = 500)",
        &swept,
        &[Metric::Throughput],
        vec![
            "Placements: best (sequential), random (Yao), worst (min(NU, ltot)).".to_string(),
            "Expected: worst/random dip until ltot ≈ mean transaction size, then recover."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn worst_placement_dips_then_recovers() {
        let f = quick("fig9");
        let s = f
            .panel("throughput")
            .unwrap()
            .series("worst/npros=30")
            .unwrap();
        let at_1 = s.at(1.0).unwrap();
        let at_100 = s.at(100.0).unwrap();
        let at_5000 = s.at(5000.0).unwrap();
        // Dip: 100 locks is worse than a single lock (overhead without
        // concurrency, since each txn locks all granules).
        assert!(at_100 < at_1, "no dip: {at_100} !< {at_1}");
        // Recovery: entity-level locking beats the dip.
        assert!(at_5000 > at_100, "no recovery: {at_5000} !> {at_100}");
    }

    #[test]
    fn best_placement_dominates_at_moderate_granularity() {
        let f = quick("fig9");
        let panel = f.panel("throughput").unwrap();
        let best = panel.series("best/npros=30").unwrap();
        let worst = panel.series("worst/npros=30").unwrap();
        let random = panel.series("random/npros=30").unwrap();
        for x in [10.0, 100.0] {
            assert!(best.at(x).unwrap() > worst.at(x).unwrap(), "ltot={x}");
            assert!(best.at(x).unwrap() > random.at(x).unwrap(), "ltot={x}");
        }
    }

    #[test]
    fn random_tracks_worst_for_large_transactions() {
        // Paper: with maxtransize = 500, random and worst placement
        // "exhibit similar behaviour" — mean 250 entities over ≤ 250
        // granules touches nearly all of them.
        let f = quick("fig9");
        let panel = f.panel("throughput").unwrap();
        let worst = panel.series("worst/npros=30").unwrap();
        let random = panel.series("random/npros=30").unwrap();
        for x in [10.0, 100.0] {
            let w = worst.at(x).unwrap();
            let r = random.at(x).unwrap();
            assert!(
                (r - w).abs() / w < 0.35,
                "ltot={x}: random {r} vs worst {w}"
            );
        }
    }
}
