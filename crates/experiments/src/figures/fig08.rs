//! Figure 8 — "Effects of number of locks and number of processors on
//! throughput (random partitioning)".
//!
//! The Figure 2 sweep repeated with random partitioning: each transaction
//! fans out to `PU_i ~ U(1, npros)` random distinct processors instead of
//! all of them. Expected (paper §3.4): the processor-count ordering and
//! the convex shape are unchanged, but every curve sits below its
//! horizontal-partitioning counterpart — larger sub-transactions mean
//! longer queueing, service and synchronization times.

use lockgran_core::ModelConfig;
use lockgran_workload::Partitioning;

use super::{figure, npros_grid, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 8.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = npros_grid(opts)
        .iter()
        .map(|&n| {
            (
                format!("npros={n}"),
                ModelConfig::table1()
                    .with_npros(n)
                    .with_partitioning(Partitioning::Random),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig8",
        "Effects of number of locks and number of processors on throughput (random partitioning)",
        &swept,
        &[Metric::Throughput, Metric::ResponseTime],
        vec![
            "Random partitioning: PU_i ~ U(1, npros) distinct processors.".to_string(),
            "Expected: same shape/ordering as fig2 but uniformly lower throughput.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn processor_ordering_is_preserved() {
        let f = quick("fig8");
        let tput = f.panel("throughput").unwrap();
        let one = tput.series("npros=1").unwrap();
        let thirty = tput.series("npros=30").unwrap();
        for (a, b) in one.points.iter().zip(thirty.points.iter()) {
            assert!(b.mean > a.mean, "ltot={}", a.x);
        }
    }

    #[test]
    fn horizontal_partitioning_beats_random() {
        let random = quick("fig8");
        let horizontal = quick("fig2");
        // Paper §3.4: for the same npros, every horizontal curve lies
        // above the corresponding random curve (npros = 1 is identical
        // by construction, so compare a parallel system).
        let h = horizontal
            .panel("throughput")
            .unwrap()
            .series("npros=30")
            .unwrap()
            .clone();
        let r = random
            .panel("throughput")
            .unwrap()
            .series("npros=30")
            .unwrap()
            .clone();
        for (hp, rp) in h.points.iter().zip(r.points.iter()) {
            assert!(
                hp.mean > rp.mean,
                "ltot={}: horizontal {} !> random {}",
                hp.x,
                hp.mean,
                rp.mean
            );
        }
    }
}
