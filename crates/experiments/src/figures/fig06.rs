//! Figure 6 — "Effects of number of locks and transaction size on
//! throughput and response time (npros = 10)".
//!
//! `maxtransize ∈ {50, 100, 500, 2500, 5000}` (mean transaction size 0.5%
//! … 50% of the database), `npros = 10`. Expected (paper §3.2): smaller
//! transactions yield much higher throughput and steeper curves; the
//! optimum shifts right (more locks) as transactions shrink, but stays
//! below 200 locks; response time is flatter for small transactions.

use lockgran_core::ModelConfig;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// The transaction-size grid (maxtransize values).
pub fn sizes(opts: &RunOptions) -> &'static [u64] {
    if opts.quick {
        &[50, 500, 5000]
    } else {
        &[50, 100, 500, 2500, 5000]
    }
}

/// Reproduce Figure 6.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = sizes(opts)
        .iter()
        .map(|&m| {
            (
                format!("maxtransize={m}"),
                ModelConfig::table1().with_npros(10).with_maxtransize(m),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig6",
        "Effects of number of locks and transaction size on throughput and response time (npros = 10)",
        &swept,
        &[Metric::Throughput, Metric::ResponseTime],
        vec![
            "npros = 10; mean transaction size = maxtransize/2 ≈ 0.5%–50% of dbsize.".to_string(),
            "Expected: smaller transactions → higher throughput, steeper curves, optimum shifts right.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn smaller_transactions_give_higher_throughput() {
        let f = quick("fig6");
        let tput = f.panel("throughput").unwrap();
        let small = tput.series("maxtransize=50").unwrap();
        let large = tput.series("maxtransize=5000").unwrap();
        for (s, l) in small.points.iter().zip(large.points.iter()) {
            assert!(s.mean > l.mean, "ltot={}: {} !> {}", s.x, s.mean, l.mean);
        }
    }

    #[test]
    fn smaller_transactions_give_lower_response_time() {
        let f = quick("fig6");
        let resp = f.panel("response_time").unwrap();
        let small = resp.series("maxtransize=50").unwrap();
        let large = resp.series("maxtransize=5000").unwrap();
        for (s, l) in small.points.iter().zip(large.points.iter()) {
            assert!(s.mean < l.mean, "ltot={}", s.x);
        }
    }

    #[test]
    fn optimum_shifts_right_for_smaller_transactions() {
        let f = quick("fig6");
        let tput = f.panel("throughput").unwrap();
        let small_opt = tput.series("maxtransize=50").unwrap().argmax().unwrap();
        let large_opt = tput.series("maxtransize=5000").unwrap().argmax().unwrap();
        assert!(
            small_opt >= large_opt,
            "small optimum {small_opt} < large optimum {large_opt}"
        );
    }
}
