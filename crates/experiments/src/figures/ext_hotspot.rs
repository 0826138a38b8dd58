//! Extension D — hot-spot access skew.
//!
//! The paper assumes uniform access to the database; real reference
//! strings concentrate on hot data (the 80/20 rule). Only the explicit
//! lock-table model can represent *which* granules are hot, so this
//! experiment runs it with and without an 80/20 hot spot, for small
//! random transactions (the regime where fine granularity wins under
//! uniform access). Expected: skew depresses throughput at every
//! granularity — hot granules serialize their sharers — and increases
//! the *relative* value of finer granularity (more hot granules = the
//! hot set spreads thinner).

use lockgran_core::{ConflictMode, ModelConfig};
use lockgran_workload::{HotSpot, Placement};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Run extension experiment D.
pub fn run(opts: &RunOptions) -> Figure {
    let base = ModelConfig::table1()
        .with_npros(10)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_conflict(ConflictMode::Explicit);
    let configs = vec![
        ("uniform".to_string(), base.clone()),
        (
            "hot 80/20".to_string(),
            base.clone().with_hot_spot(Some(HotSpot::eighty_twenty())),
        ),
        (
            "hot 95/5".to_string(),
            base.with_hot_spot(Some(HotSpot {
                fraction: 0.05,
                weight: 0.95,
            })),
        ),
    ];
    let swept = sweep_family(configs, opts);
    figure(
        "extD",
        "Extension: hot-spot access skew under the explicit lock table (small random transactions, npros = 10)",
        &swept,
        &[Metric::Throughput, Metric::DenialRate],
        vec![
            "80/20: 80% of accesses hit 20% of the granules; 95/5 is more extreme.".to_string(),
            "Expected: skew costs throughput everywhere and raises denial rates; finer granularity claws some back.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn skew_increases_contention() {
        let f = quick("extD");
        let denial = f.panel("denial_rate").unwrap();
        let uniform = denial.series("uniform").unwrap();
        let hot = denial.series("hot 95/5").unwrap();
        // At moderate granularity the hot set is small and contended.
        for x in [100.0, 1000.0] {
            assert!(
                hot.at(x).unwrap() > uniform.at(x).unwrap(),
                "ltot={x}: skew did not raise denials"
            );
        }
    }

    #[test]
    fn skew_costs_throughput_at_moderate_granularity() {
        let f = quick("extD");
        let tput = f.panel("throughput").unwrap();
        let uniform = tput.series("uniform").unwrap();
        let hot = tput.series("hot 95/5").unwrap();
        for x in [100.0, 1000.0] {
            assert!(
                hot.at(x).unwrap() < uniform.at(x).unwrap(),
                "ltot={x}: skew did not cost throughput"
            );
        }
    }

    #[test]
    fn single_lock_is_skew_insensitive() {
        // With one database lock everything serializes regardless of
        // which entities are touched: uniform and skewed coincide.
        let f = quick("extD");
        let tput = f.panel("throughput").unwrap();
        let u = tput.series("uniform").unwrap().at(1.0).unwrap();
        let h = tput.series("hot 80/20").unwrap().at(1.0).unwrap();
        assert!((u - h).abs() / u < 0.05, "uniform {u} vs hot {h} at ltot=1");
    }
}
