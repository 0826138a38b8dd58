//! Figure 4 — "Effect of number of processors and number of locks on lock
//! overhead with large transactions (maxtransize = 500)".
//!
//! Table 1 inputs (maxtransize = 500 *is* the baseline); the output is
//! total lock-operation time (`lockcpus + lockios`). Expected shape
//! (paper §3.1): concave dip at few locks (high failure/retry rate at
//! ltot = 1 drives repeated lock charges), then a substantial climb once
//! `ltot` passes ~200 because each transaction requests `LU_i ∝ ltot`
//! locks.

use lockgran_core::ModelConfig;

use super::{figure, npros_grid, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 4.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = npros_grid(opts)
        .iter()
        .map(|&n| (format!("npros={n}"), ModelConfig::table1().with_npros(n)))
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig4",
        "Effect of number of processors and number of locks on lock overhead with large transactions (maxtransize = 500)",
        &swept,
        &[Metric::LockOverhead, Metric::LockCpu, Metric::LockIo],
        vec![
            "Lock overhead = lockcpus + lockios (summed over processors).".to_string(),
            "Expected: rises sharply past ~200 locks; retry-driven bump at very few locks."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn overhead_explodes_at_fine_granularity() {
        let f = quick("fig4");
        for s in &f.panel("lock_overhead").unwrap().series {
            let at_100 = s.at(100.0).unwrap();
            let at_5000 = s.at(5000.0).unwrap();
            assert!(
                at_5000 > 3.0 * at_100,
                "{}: overhead at 5000 locks ({at_5000}) not >> at 100 ({at_100})",
                s.label
            );
        }
    }

    #[test]
    fn overhead_components_sum() {
        let f = quick("fig4");
        let total = f.panel("lock_overhead").unwrap();
        let cpu = f.panel("lock_cpu").unwrap();
        let io = f.panel("lock_io").unwrap();
        for ((st, sc), si) in total
            .series
            .iter()
            .zip(cpu.series.iter())
            .zip(io.series.iter())
        {
            for ((pt, pc), pi) in st.points.iter().zip(sc.points.iter()).zip(si.points.iter()) {
                assert!((pt.mean - (pc.mean + pi.mean)).abs() < 1e-6);
            }
        }
    }
}
