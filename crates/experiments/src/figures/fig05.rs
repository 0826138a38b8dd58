//! Figure 5 — "Effect of number of processors and number of locks on lock
//! overhead with small transactions (maxtransize = 50)".
//!
//! As Figure 4 but with `maxtransize = 50` (mean 25 entities). Expected
//! (paper §3.1): the concave shape is more pronounced; at few locks the
//! overhead exceeds Figure 4's because small transactions complete
//! faster, raising the lock *request rate*; the late climb starts at the
//! same ~200-lock point but is shallower because `LU_i` is smaller.

use lockgran_core::ModelConfig;

use super::{figure, npros_grid, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 5.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = npros_grid(opts)
        .iter()
        .map(|&n| {
            (
                format!("npros={n}"),
                ModelConfig::table1().with_npros(n).with_maxtransize(50),
            )
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig5",
        "Effect of number of processors and number of locks on lock overhead with small transactions (maxtransize = 50)",
        &swept,
        &[Metric::LockOverhead, Metric::DenialRate],
        vec![
            "maxtransize = 50 (mean transaction ≈ 25 entities); other inputs per Table 1."
                .to_string(),
            "Expected: higher early overhead than fig4 (more lock requests/unit time)."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn small_transactions_issue_more_lock_requests_at_coarse_granularity() {
        let small = quick("fig5");
        let large = quick("fig4");
        // At ltot = 10 (coarse side), the small-transaction system has
        // completed many more transactions, so lock overhead is higher.
        let s = small
            .panel("lock_overhead")
            .unwrap()
            .series("npros=10")
            .unwrap();
        let l = large
            .panel("lock_overhead")
            .unwrap()
            .series("npros=10")
            .unwrap();
        assert!(
            s.at(10.0).unwrap() > l.at(10.0).unwrap(),
            "small {} !> large {}",
            s.at(10.0).unwrap(),
            l.at(10.0).unwrap()
        );
    }

    #[test]
    fn denial_rate_falls_as_locks_increase() {
        let f = quick("fig5");
        for s in &f.panel("denial_rate").unwrap().series {
            let coarse = s.at(1.0).unwrap();
            let fine = s.at(5000.0).unwrap();
            assert!(coarse > fine, "{}: denial {coarse} !> {fine}", s.label);
        }
    }
}
