//! Figure 3 — "Effects of number of locks and number of processors on
//! useful I/O time and useful CPU time".
//!
//! Same sweep as Figure 2; the outputs are `usefulios` and `usefulcpus`
//! (per-processor busy time spent on transaction work, lock overhead
//! excluded). Expected shape (paper §3.1): convex in `ltot`; decreasing
//! in `npros` (each sub-transaction shrinks); past the optimum the gap
//! between processor counts narrows because small systems burn more time
//! on lock operations.

use lockgran_core::ModelConfig;

use super::{figure, npros_grid, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 3.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = npros_grid(opts)
        .iter()
        .map(|&n| (format!("npros={n}"), ModelConfig::table1().with_npros(n)))
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig3",
        "Effects of number of locks and number of processors on useful I/O time and useful CPU time",
        &swept,
        &[Metric::UsefulIo, Metric::UsefulCpu],
        vec![
            "usefulios = (totios - lockios)/npros; usefulcpus = (totcpus - lockcpus)/npros."
                .to_string(),
            "Expected: decreasing in npros; convex in ltot.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn useful_time_decreases_with_processors_where_unsaturated() {
        // The paper reports useful time decreasing in npros. In this
        // model the effect appears wherever the system is *not*
        // I/O-saturated: the serial regime (ltot = 1, where lock-op
        // stragglers stall the join) and the fine-granularity regime
        // (ltot = dbsize for npros = 1, drowned in lock work). In the
        // saturated middle the work-conserving servers pin useful time at
        // ~100% busy for every npros — a known deviation recorded in
        // EXPERIMENTS.md.
        let f = quick("fig3");
        for metric in ["useful_io", "useful_cpu"] {
            let panel = f.panel(metric).unwrap();
            let one = panel.series("npros=1").unwrap();
            let thirty = panel.series("npros=30").unwrap();
            assert!(
                thirty.at(1.0).unwrap() < one.at(1.0).unwrap(),
                "{metric} at ltot=1"
            );
        }
    }

    #[test]
    fn useful_time_is_convex_in_lock_count() {
        // Rises from ltot = 1 to the optimum, falls toward ltot = dbsize.
        let f = quick("fig3");
        for s in &f.panel("useful_io").unwrap().series {
            let at_1 = s.at(1.0).unwrap();
            let mid = s.at(10.0).unwrap().max(s.at(100.0).unwrap());
            let fine = s.at(5000.0).unwrap();
            assert!(mid > at_1, "{}: no rise ({mid} !> {at_1})", s.label);
            assert!(mid > fine, "{}: no fall ({mid} !> {fine})", s.label);
        }
    }

    #[test]
    fn small_systems_lose_more_useful_time_past_the_optimum() {
        // Paper §3.1: past the optimum the gap between processor counts
        // narrows because small systems spend proportionally more time on
        // lock operations; at entity-level locking npros = 1 drops below.
        let f = quick("fig3");
        let panel = f.panel("useful_io").unwrap();
        let one = panel.series("npros=1").unwrap();
        let thirty = panel.series("npros=30").unwrap();
        assert!(one.at(5000.0).unwrap() < thirty.at(5000.0).unwrap());
    }

    #[test]
    fn io_dominates_cpu_with_table1_costs() {
        // iotime = 0.2 vs cputime = 0.05: useful I/O per processor must
        // exceed useful CPU per processor everywhere.
        let f = quick("fig3");
        let io = f.panel("useful_io").unwrap();
        let cpu = f.panel("useful_cpu").unwrap();
        for (si, sc) in io.series.iter().zip(cpu.series.iter()) {
            for (pi, pc) in si.points.iter().zip(sc.points.iter()) {
                assert!(pi.mean > pc.mean, "{} ltot={}", si.label, pi.x);
            }
        }
    }
}
