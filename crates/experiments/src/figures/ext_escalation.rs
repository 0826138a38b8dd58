//! Extension G — lock escalation over the multigranularity hierarchy.
//!
//! The paper resolves the granularity trade-off *statically*: pick one
//! `ltot` for the whole run. The hierarchical conflict model resolves it
//! *per transaction*: leaf granules are locked individually until a
//! transaction declares at least `escalation_threshold` granules under
//! one area, at which point it trades them for a single area lock. This
//! experiment sweeps `ltot` under thresholds 1, 4, 16 and ∞ (never):
//!
//! * threshold 1 collapses every request to a whole-database lock — the
//!   paper's `ltot = 1` extreme at every sweep point;
//! * threshold ∞ is pure multigranularity locking, which admits exactly
//!   the schedules of the flat explicit table (intent locks never
//!   conflict with each other);
//! * intermediate thresholds interpolate, trading lost concurrency
//!   (coarser effective locks) against fewer lock-table entries.

use lockgran_core::{ConflictMode, HierarchySpec, ModelConfig};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Area count for the database → area → granule tree.
const AREAS: u64 = 16;

/// The swept escalation thresholds (`None` = never escalate).
const THRESHOLDS: [Option<u64>; 4] = [Some(1), Some(4), Some(16), None];

fn threshold_label(t: Option<u64>) -> String {
    match t {
        Some(t) => format!("threshold={t}"),
        None => "threshold=inf".to_string(),
    }
}

/// Run extension experiment G.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = THRESHOLDS
        .iter()
        .map(|&t| {
            (
                threshold_label(t),
                ModelConfig::table1()
                    .with_npros(10)
                    .with_conflict(ConflictMode::Hierarchical)
                    .with_hierarchy(Some(
                        HierarchySpec::default()
                            .with_areas(AREAS)
                            .with_escalation_threshold(t),
                    )),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "extG",
        "Extension: lock escalation thresholds over the multigranularity hierarchy (npros = 10, 16 areas)",
        &swept,
        &[
            Metric::Throughput,
            Metric::ResponseTime,
            Metric::Escalations,
            Metric::MeanActive,
        ],
        vec![
            "Hierarchical mode: database -> area -> granule tree, IX intents above X leaf locks.".to_string(),
            "threshold=1 escalates every request to a whole-database lock (the ltot=1 extreme everywhere).".to_string(),
            "threshold=inf never escalates: pure multigranularity, schedules identical to the explicit table.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn threshold_one_serializes_at_every_granularity() {
        let f = quick("extG");
        let active = f.panel("mean_active").unwrap();
        let s = active.series("threshold=1").unwrap();
        for p in &s.points {
            assert!(
                p.mean <= 1.0 + 1e-9,
                "ltot={}: mean_active {} > 1 under immediate escalation",
                p.x,
                p.mean
            );
        }
    }

    #[test]
    fn never_escalating_reports_zero_escalations() {
        let f = quick("extG");
        let esc = f.panel("escalations").unwrap();
        let inf = esc.series("threshold=inf").unwrap();
        assert!(inf.points.iter().all(|p| p.mean == 0.0));
        // ... and the eager policy escalates constantly.
        let one = esc.series("threshold=1").unwrap();
        assert!(one.points.iter().any(|p| p.mean > 0.0));
    }

    #[test]
    fn lower_thresholds_cost_throughput_at_fine_granularity() {
        // At ltot = 5000 the flat table admits lots of concurrency;
        // escalating at 1 declared granule throws all of it away.
        let f = quick("extG");
        let tput = f.panel("throughput").unwrap();
        let eager = tput.series("threshold=1").unwrap().at(5000.0).unwrap();
        let never = tput.series("threshold=inf").unwrap().at(5000.0).unwrap();
        assert!(
            eager < never,
            "eager escalation ({eager}) should trail never-escalate ({never}) at ltot=5000"
        );
    }
}
