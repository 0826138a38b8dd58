//! Extension F — processor failure and repair.
//!
//! The paper's machine never fails; real shared-nothing lock services
//! lose nodes and with them every transaction whose sub-transactions ran
//! there. This experiment layers an exponential fail/repair process
//! (mean time between failures `mtbf`, mean time to repair `mttr`) on
//! the Table 1 baseline and sweeps `ltot` at several failure rates.
//! A failed processor stalls new work until repair; running transactions
//! with a sub-transaction there abort, release all their locks through
//! the ordinary wake path, and re-execute from the lock request.
//!
//! The question: does fine granularity amplify failure cost (every abort
//! wastes more finished sub-transaction work because transactions
//! actually run concurrently) or dampen it (less blocking means fewer
//! transactions exposed per failure)? The "no failures" series is the
//! Table 1 baseline verbatim — bit-identical, since a config without a
//! `FailureSpec` draws no failure randomness.

use lockgran_core::ModelConfig;
use lockgran_workload::FailureSpec;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Mean time to repair, in time units, shared by every failing series.
const MTTR: f64 = 50.0;

/// Run extension experiment F.
pub fn run(opts: &RunOptions) -> Figure {
    let base = ModelConfig::table1();
    let configs = vec![
        ("no failures".to_string(), base.clone()),
        (
            "mtbf 2000".to_string(),
            base.clone()
                .with_failure(Some(FailureSpec::new(2000.0, MTTR))),
        ),
        (
            "mtbf 500".to_string(),
            base.clone()
                .with_failure(Some(FailureSpec::new(500.0, MTTR))),
        ),
        (
            "mtbf 100".to_string(),
            base.with_failure(Some(FailureSpec::new(100.0, MTTR))),
        ),
    ];
    let swept = sweep_family(configs, opts);
    figure(
        "extF",
        "Extension: processor failure/repair over the Table 1 baseline (exponential MTBF per processor, mttr = 50)",
        &swept,
        &[Metric::Throughput, Metric::ResponseTime, Metric::Aborts],
        vec![
            "Each processor independently fails (exp(mtbf)) and repairs (exp(mttr)); down processors stall new work.".to_string(),
            "A failure aborts every running transaction with a sub-transaction on the failed processor; aborts release all locks and re-execute.".to_string(),
            "The 'no failures' series is the Table 1 baseline, bit-identical to its golden snapshot.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick;
    use crate::sweep::sweep_ltot;

    #[test]
    fn no_failure_series_matches_table1_baseline() {
        // Bit-compare against a direct sweep of the unmodified baseline:
        // the failure extension must not perturb the default model.
        let f = quick("extF");
        let direct = sweep_ltot(&ModelConfig::table1(), &RunOptions::quick());
        let tput = f.panel("throughput").unwrap();
        let series = tput.series("no failures").unwrap();
        for (p, d) in series.points.iter().zip(direct.iter()) {
            assert_eq!(p.x, d.ltot as f64);
            assert_eq!(p.mean, d.estimate(Metric::Throughput).mean);
        }
    }

    #[test]
    fn failures_cause_aborts_and_cost_throughput() {
        let f = quick("extF");
        let aborts = f.panel("aborts").unwrap();
        assert!(
            aborts
                .series("mtbf 100")
                .unwrap()
                .points
                .iter()
                .any(|p| p.mean > 0.0),
            "aggressive failure rate produced no aborts"
        );
        assert!(
            aborts
                .series("no failures")
                .unwrap()
                .points
                .iter()
                .all(|p| p.mean == 0.0),
            "baseline series shows aborts"
        );
        let tput = f.panel("throughput").unwrap();
        let clean = tput.series("no failures").unwrap();
        let failing = tput.series("mtbf 100").unwrap();
        assert!(
            clean
                .points
                .iter()
                .zip(failing.points.iter())
                .any(|(c, h)| h.mean < c.mean),
            "frequent failures never cost throughput at any granularity"
        );
    }

    #[test]
    fn failure_rates_are_ordered_in_abort_volume() {
        let f = quick("extF");
        let aborts = f.panel("aborts").unwrap();
        let total = |label: &str| -> f64 {
            aborts
                .series(label)
                .unwrap()
                .points
                .iter()
                .map(|p| p.mean)
                .sum()
        };
        let rare = total("mtbf 2000");
        let frequent = total("mtbf 100");
        assert!(
            frequent > rare,
            "mtbf 100 ({frequent} aborts) not above mtbf 2000 ({rare})"
        );
    }
}
