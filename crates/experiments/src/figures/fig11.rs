//! Figure 11 — "Effects of number of locks and granule placement on
//! throughput with mixed transactions: 80% small and 20% large
//! (npros = 30)".
//!
//! Transaction sizes drawn from the paper's §3.6 mixture — 80%
//! `U(1, 50)`, 20% `U(1, 500)`. Expected: every placement curve falls
//! between its Figure 9 (all large) and Figure 10 (all small)
//! counterparts, dragged markedly down by the 20% large transactions
//! (the paper's example: at `ltot = dbsize`, npros = 30, small-only,
//! large-only and mixed throughputs relate roughly 10 : 1 : 2).

use lockgran_core::ModelConfig;
use lockgran_workload::{Placement, SizeDistribution};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 11.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = Placement::ALL
        .iter()
        .map(|&p| {
            (
                p.name().to_string(),
                ModelConfig::table1()
                    .with_npros(30)
                    .with_size(SizeDistribution::eighty_twenty())
                    .with_placement(p),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig11",
        "Effects of number of locks and granule placement on throughput with mixed transactions: 80% small and 20% large (npros = 30)",
        &swept,
        &[Metric::Throughput],
        vec![
            "Sizes: 80% U(1,50) + 20% U(1,500); npros = 30.".to_string(),
            "Expected: curves between fig9 (all large) and fig10 (all small); large tail dominates.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn mix_falls_between_all_small_and_all_large() {
        let mixed = quick("fig11");
        let large = quick("fig9");
        let small = quick("fig10");
        for placement in ["worst", "random"] {
            let m = mixed
                .panel("throughput")
                .unwrap()
                .series(placement)
                .unwrap()
                .at(5000.0)
                .unwrap();
            let l = large
                .panel("throughput")
                .unwrap()
                .series(&format!("{placement}/npros=30"))
                .unwrap()
                .at(5000.0)
                .unwrap();
            let s = small
                .panel("throughput")
                .unwrap()
                .series(&format!("{placement}/npros=30"))
                .unwrap()
                .at(5000.0)
                .unwrap();
            assert!(
                l < m && m < s,
                "{placement}: large {l}, mixed {m}, small {s}"
            );
        }
    }

    #[test]
    fn large_tail_drags_mix_well_below_small_only() {
        // Paper: even 20% large transactions substantially affect
        // throughput — the mix reaches well under half of small-only.
        let mixed = quick("fig11");
        let small = quick("fig10");
        let m = mixed
            .panel("throughput")
            .unwrap()
            .series("worst")
            .unwrap()
            .at(5000.0)
            .unwrap();
        let s = small
            .panel("throughput")
            .unwrap()
            .series("worst/npros=30")
            .unwrap()
            .at(5000.0)
            .unwrap();
        assert!(m < 0.6 * s, "mixed {m} not well below small-only {s}");
    }
}
