//! Extension J — the model's assumptions, one at a time.
//!
//! The paper's conclusions rest on three assumptions it never varies:
//! lock work is "shared by all processors", the locking mechanism has
//! "preemptive power" over transaction work, and per-entity service is
//! deterministic. This experiment runs the Table 1 sweep under the paper
//! model and under four variants, each changing exactly one field:
//!
//! * `even-split`: every lock operation's work is divided evenly over all
//!   processors (idealized divisible lock work);
//! * `single`: one processor does all lock work (a central lock manager);
//! * `non-preemptive`: lock work waits behind the running transaction
//!   segment instead of preempting it;
//! * `exponential`: exponential service with the paper's means, so the
//!   fork/join barrier waits for the slowest sub-transaction.
//!
//! The fourth assumption, the probabilistic conflict draw, is extB's
//! `npros=10` pair.

use lockgran_core::config::LockDistribution;
use lockgran_core::{ModelConfig, ServiceVariability};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// The paper model and its one-field variants, labelled.
fn variants(paper: ModelConfig) -> [(&'static str, ModelConfig); 5] {
    [
        ("paper", paper.clone()),
        (
            "even-split",
            paper
                .clone()
                .with_lock_distribution(LockDistribution::EvenSplit),
        ),
        (
            "single",
            paper
                .clone()
                .with_lock_distribution(LockDistribution::SingleProcessor),
        ),
        ("non-preemptive", paper.clone().with_lock_preemption(false)),
        (
            "exponential",
            paper.with_service(ServiceVariability::Exponential),
        ),
    ]
}

/// Run extension experiment J.
pub fn run(opts: &RunOptions) -> Figure {
    let mut configs = Vec::new();
    for npros in [10u32, 30] {
        for (variant, cfg) in variants(ModelConfig::table1().with_npros(npros)) {
            configs.push((format!("{variant}/npros={npros}"), cfg));
        }
    }
    let swept = sweep_family(configs, opts);
    figure(
        "extJ",
        "Extension: the model's assumptions, one at a time (lock-work distribution, lock preemption, service variability)",
        &swept,
        &[Metric::Throughput, Metric::ResponseTime],
        vec![
            "paper: per-operation lock work on the granule owners, preemptive, deterministic service."
                .to_string(),
            "Each variant changes one field: even-split or single lock distribution, non-preemptive lock work, exponential service."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_assumption_moves_throughput_as_expected() {
        let f = run(&RunOptions::quick());
        let tput = f.panel("throughput").unwrap();
        let series = |label: String| tput.series(&label).unwrap();
        for npros in [10, 30] {
            let paper = series(format!("paper/npros={npros}"));
            let single = series(format!("single/npros={npros}"));
            let exponential = series(format!("exponential/npros={npros}"));
            let non_preemptive = series(format!("non-preemptive/npros={npros}"));
            // With at most one lock per transaction both policies send
            // the lock operation to the same processor.
            for ltot in [1.0, 10.0] {
                assert_eq!(single.at(ltot), paper.at(ltot), "npros={npros} ltot={ltot}");
            }
            // A central lock manager is the bottleneck at fine granularity.
            assert!(
                single.at(5000.0) < paper.at(5000.0),
                "npros={npros}: single {:?} vs paper {:?}",
                single.at(5000.0),
                paper.at(5000.0)
            );
            for (i, p) in paper.points.iter().enumerate() {
                // The fork/join straggler penalty.
                let e = &exponential.points[i];
                assert!(
                    e.mean < p.mean,
                    "npros={npros} ltot={}: exponential {} vs paper {}",
                    p.x,
                    e.mean,
                    p.mean
                );
                // Preemption barely matters.
                let rel = (non_preemptive.points[i].mean - p.mean).abs() / p.mean;
                assert!(
                    rel < 0.10,
                    "npros={npros} ltot={}: non-preemptive off by {rel:.3}",
                    p.x
                );
            }
        }
    }
}
