//! Table 1 — "Input parameters used in the simulation experiments".
//!
//! The paper's Table 1 fixes the baseline inputs used by §3.1–§3.4. The
//! scan of the table itself is unreadable, but every value appears in the
//! running text (§2 examples and §3 narration); this module records them
//! and — as a sanity anchor — runs the baseline configuration over the
//! lock sweep so the reader can see the outputs every figure is built
//! from.

use lockgran_core::ModelConfig;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Table 1 (inputs as notes, baseline outputs as a panel set).
pub fn run(opts: &RunOptions) -> Figure {
    let cfg = ModelConfig::table1();
    let notes = vec![
        format!("dbsize       = {}", cfg.dbsize),
        format!("ntrans       = {}", cfg.ntrans),
        "maxtransize  = 500 (NU_i ~ U(1, 500), mean ≈ 250)".to_string(),
        format!("cputime      = {}", cfg.cputime),
        format!("iotime       = {}", cfg.iotime),
        format!("lcputime     = {}", cfg.lcputime),
        format!("liotime      = {}", cfg.liotime),
        format!(
            "npros        = {} (baseline; figures sweep 1–30)",
            cfg.npros
        ),
        format!("tmax         = {} time units", opts.effective_tmax()),
        "partitioning = horizontal, placement = best, conflicts = probabilistic".to_string(),
    ];
    let swept = sweep_family(vec![("table1 baseline".to_string(), cfg)], opts);
    figure(
        "table1",
        "Input parameters used in the simulation experiments (baseline outputs)",
        &swept,
        &[
            Metric::Throughput,
            Metric::ResponseTime,
            Metric::UsefulCpu,
            Metric::UsefulIo,
            Metric::LockOverhead,
            Metric::DenialRate,
        ],
        notes,
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn baseline_outputs_are_positive() {
        let f = quick("table1");
        assert_eq!(f.id, "table1");
        assert_eq!(f.panels.len(), 6);
        let tput = f.panel("throughput").unwrap();
        assert_eq!(tput.series.len(), 1);
        assert!(tput.series[0].points.iter().all(|p| p.mean > 0.0));
        // Notes must record every paper input.
        for key in [
            "dbsize", "ntrans", "cputime", "iotime", "lcputime", "liotime",
        ] {
            assert!(f.notes.iter().any(|n| n.contains(key)), "{key} missing");
        }
    }
}
