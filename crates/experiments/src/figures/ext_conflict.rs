//! Extension B — validating the probabilistic conflict approximation.
//!
//! Not a paper figure: the paper computes lock conflicts with the
//! Ries–Stonebraker probabilistic draw and never checks it against a real
//! lock table. This experiment runs the Table 1 sweep under both conflict
//! models so the approximation error is visible as the gap between the
//! curve pairs.

use lockgran_core::{ConflictMode, ModelConfig};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Run extension experiment B.
pub fn run(opts: &RunOptions) -> Figure {
    let mut configs = Vec::new();
    for npros in [10u32, 30] {
        // The two models the paper's approximation question is about; the
        // hierarchical model gets its own three-way overlay in extH.
        for mode in [ConflictMode::Probabilistic, ConflictMode::Explicit] {
            configs.push((
                format!("{}/npros={npros}", mode.name()),
                ModelConfig::table1().with_npros(npros).with_conflict(mode),
            ));
        }
    }
    let swept = sweep_family(configs, opts);
    figure(
        "extB",
        "Extension: probabilistic conflict computation vs a real lock table",
        &swept,
        &[Metric::Throughput, Metric::DenialRate, Metric::MeanActive],
        vec![
            "Explicit mode materializes granule sets and runs conservative locking.".to_string(),
            "Expected: curves pair up — the paper's approximation preserves every conclusion."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn conflict_models_pair_up() {
        let f = quick("extB");
        let tput = f.panel("throughput").unwrap();
        let p = tput.series("probabilistic/npros=10").unwrap();
        let e = tput.series("explicit/npros=10").unwrap();
        for (pp, ee) in p.points.iter().zip(e.points.iter()) {
            let ratio = pp.mean / ee.mean;
            assert!((0.5..=2.0).contains(&ratio), "ltot={}: ratio {ratio}", pp.x);
        }
    }

    #[test]
    fn both_models_show_the_convex_optimum() {
        let f = quick("extB");
        for s in &f.panel("throughput").unwrap().series {
            let peak = s.max_mean().unwrap();
            assert!(s.at(1.0).unwrap() < peak, "{}", s.label);
            assert!(s.at(5000.0).unwrap() < peak, "{}", s.label);
        }
    }
}
