//! Extension C — sub-transaction scheduling discipline.
//!
//! The paper's §4 (citing Dandamudi & Chow \[3\]) asserts that "the actual
//! scheduling policy used at the sub-transaction level has only marginal
//! effect on locking granularity". This experiment checks that claim in
//! our model: the Table 1 sweep under FCFS vs shortest-job-first at the
//! per-processor resource queues. Expected: the curves nearly coincide —
//! in particular, the optimum lock count must not move.

use lockgran_core::{ModelConfig, QueueDiscipline};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Run extension experiment C.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = QueueDiscipline::ALL
        .iter()
        .map(|&d| {
            (
                d.name().to_string(),
                ModelConfig::table1().with_npros(10).with_discipline(d),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "extC",
        "Extension: sub-transaction scheduling discipline (FCFS vs SJF), npros = 10",
        &swept,
        &[Metric::Throughput, Metric::ResponseTime],
        vec![
            "Checks the paper's §4 claim that sub-transaction scheduling has only marginal effect."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn discipline_effect_is_marginal() {
        let f = quick("extC");
        let tput = f.panel("throughput").unwrap();
        let fcfs = tput.series("fcfs").unwrap();
        let sjf = tput.series("sjf").unwrap();
        for (a, b) in fcfs.points.iter().zip(sjf.points.iter()) {
            let rel = (a.mean - b.mean).abs() / a.mean;
            assert!(rel < 0.10, "ltot={}: {rel:.3} relative difference", a.x);
        }
        // The optimum does not move.
        assert_eq!(fcfs.argmax(), sjf.argmax());
    }
}
