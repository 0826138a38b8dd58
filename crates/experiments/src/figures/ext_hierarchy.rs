//! Extension H — three-way conflict-model validation overlay.
//!
//! extB validates the paper's probabilistic conflict draw against a flat
//! explicit lock table. This experiment adds the third production rung:
//! the full multigranularity hierarchy with intention locks (escalation
//! off). Under uniform access the hierarchical protocol admits exactly
//! the explicit table's schedules — the overlay makes that visible — and
//! under an 80/20 hot spot the real lock tables separate from the
//! probabilistic draw, whose `L_j / ltot` conflict estimate assumes
//! uniform access and cannot see skew at all.

use lockgran_core::{ConflictMode, HierarchySpec, ModelConfig};
use lockgran_workload::HotSpot;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

fn hierarchical(base: ModelConfig) -> ModelConfig {
    base.with_conflict(ConflictMode::Hierarchical)
        .with_hierarchy(Some(
            HierarchySpec::default()
                .with_areas(16)
                .with_escalation_threshold(None),
        ))
}

/// Run extension experiment H.
pub fn run(opts: &RunOptions) -> Figure {
    let base = ModelConfig::table1().with_npros(10);
    let hot = HotSpot::eighty_twenty();
    let configs = vec![
        (
            "probabilistic/uniform".to_string(),
            base.clone().with_conflict(ConflictMode::Probabilistic),
        ),
        (
            "explicit/uniform".to_string(),
            base.clone().with_conflict(ConflictMode::Explicit),
        ),
        (
            "hierarchical/uniform".to_string(),
            hierarchical(base.clone()),
        ),
        (
            "explicit/hot 80/20".to_string(),
            base.clone()
                .with_conflict(ConflictMode::Explicit)
                .with_hot_spot(Some(hot)),
        ),
        (
            "hierarchical/hot 80/20".to_string(),
            hierarchical(base.with_hot_spot(Some(hot))),
        ),
    ];
    let swept = sweep_family(configs, opts);
    figure(
        "extH",
        "Extension: probabilistic vs explicit vs hierarchical conflict models, uniform and 80/20 access (npros = 10)",
        &swept,
        &[Metric::Throughput, Metric::DenialRate],
        vec![
            "Hierarchical mode runs with escalation off (16 areas), so intent locks never conflict.".to_string(),
            "Expected: hierarchical/uniform coincides with explicit/uniform point for point.".to_string(),
            "The probabilistic L_j/ltot draw assumes uniform access; under the 80/20 hot spot only the lock-table models see the extra contention.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn hierarchy_without_escalation_matches_explicit_exactly() {
        // Same access draws, same admitted schedules, same event
        // sequence: the curves must be bit-identical, not just close.
        let f = quick("extH");
        for panel in &f.panels {
            let e = panel.series("explicit/uniform").unwrap();
            let h = panel.series("hierarchical/uniform").unwrap();
            for (pe, ph) in e.points.iter().zip(h.points.iter()) {
                assert_eq!(
                    pe.mean, ph.mean,
                    "{} diverged at ltot={}",
                    panel.metric, pe.x
                );
            }
        }
    }

    #[test]
    fn skew_separates_lock_tables_from_the_probabilistic_draw() {
        let f = quick("extH");
        let denial = f.panel("denial_rate").unwrap();
        let uniform = denial.series("hierarchical/uniform").unwrap();
        let hot = denial.series("hierarchical/hot 80/20").unwrap();
        // At moderate granularity the hot set concentrates conflicts.
        for x in [100.0, 1000.0] {
            assert!(
                hot.at(x).unwrap() > uniform.at(x).unwrap(),
                "ltot={x}: hot spot did not raise hierarchical denials"
            );
        }
    }

    #[test]
    fn probabilistic_stays_in_range_of_the_lock_tables() {
        let f = quick("extH");
        let tput = f.panel("throughput").unwrap();
        let p = tput.series("probabilistic/uniform").unwrap();
        let e = tput.series("explicit/uniform").unwrap();
        for (pp, ee) in p.points.iter().zip(e.points.iter()) {
            let ratio = pp.mean / ee.mean;
            assert!((0.5..=2.0).contains(&ratio), "ltot={}: ratio {ratio}", pp.x);
        }
    }
}
