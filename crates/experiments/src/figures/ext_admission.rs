//! Extension A — transaction-level admission control under heavy load.
//!
//! Not a paper figure: the paper's §3.7 observes that at `ntrans = 200`
//! fine granularity collapses under lock-processing overhead and points
//! to "transaction level scheduling" (their companion papers [3, 4]) as
//! the remedy. This experiment implements that remedy — an admission
//! cap on the number of transactions competing for locks — and repeats
//! the Figure 12 sweep with caps of 20 and 50 against the uncapped
//! system. Expected: the cap restores most of the fine-granularity
//! throughput by cutting denied lock attempts, at the price of pending
//! queueing.

use lockgran_core::ModelConfig;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Run extension experiment A.
pub fn run(opts: &RunOptions) -> Figure {
    let caps: &[Option<u32>] = &[None, Some(50), Some(20)];
    let configs = caps
        .iter()
        .map(|&cap| {
            let label = match cap {
                None => "uncapped".to_string(),
                Some(c) => format!("mpl={c}"),
            };
            (
                label,
                ModelConfig::table1()
                    .with_ntrans(200)
                    .with_npros(20)
                    .with_mpl_limit(cap),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "extA",
        "Extension: admission control (transaction-level scheduling) under heavy load (ntrans = 200, npros = 20)",
        &swept,
        &[Metric::Throughput, Metric::DenialRate, Metric::ResponseTime],
        vec![
            "The paper's §3.7 remedy, implemented: cap the transactions competing for locks."
                .to_string(),
            "Expected: caps recover fine-granularity throughput by slashing denied lock attempts.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn admission_control_rescues_fine_granularity() {
        let f = quick("extA");
        let tput = f.panel("throughput").unwrap();
        let uncapped = tput.series("uncapped").unwrap().at(5000.0).unwrap();
        let capped = tput.series("mpl=20").unwrap().at(5000.0).unwrap();
        assert!(
            capped > uncapped,
            "cap did not help at fine granularity: {capped} !> {uncapped}"
        );
    }

    #[test]
    fn admission_control_slashes_denials() {
        let f = quick("extA");
        let denial = f.panel("denial_rate").unwrap();
        let uncapped = denial.series("uncapped").unwrap().at(5000.0).unwrap();
        let capped = denial.series("mpl=20").unwrap().at(5000.0).unwrap();
        assert!(capped < uncapped, "{capped} !< {uncapped}");
    }

    #[test]
    fn caps_never_hurt_throughput() {
        // Even at the coarse end the cap helps: without it, every
        // completion wakes ~199 blocked transactions whose retry each
        // burns a full lock-overhead charge. With it, at most mpl-1
        // retry. So capped throughput dominates everywhere.
        let f = quick("extA");
        let tput = f.panel("throughput").unwrap();
        let uncapped = tput.series("uncapped").unwrap().clone();
        let capped = tput.series("mpl=20").unwrap().clone();
        for (u, c) in uncapped.points.iter().zip(capped.points.iter()) {
            assert!(
                c.mean >= u.mean * 0.95,
                "ltot={}: capped {} < uncapped {}",
                u.x,
                c.mean,
                u.mean
            );
        }
    }
}
