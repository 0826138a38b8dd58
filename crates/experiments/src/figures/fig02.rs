//! Figure 2 — "Effects of number of locks and number of processors on
//! throughput and response time".
//!
//! Table 1 inputs; `npros ∈ {1, 2, 5, 10, 20, 30}`; `ltot` swept 1 …
//! `dbsize`. Expected shape (paper §3.1): throughput convex in `ltot`
//! with the optimum below 200 locks for every processor count, curves
//! steeper (larger penalty away from the optimum) at high `npros`;
//! response time convex, decreasing in `npros` and flattening for large
//! systems.

use lockgran_core::ModelConfig;

use super::{figure, npros_grid, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Reproduce Figure 2.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = npros_grid(opts)
        .iter()
        .map(|&n| (format!("npros={n}"), ModelConfig::table1().with_npros(n)))
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "fig2",
        "Effects of number of locks and number of processors on throughput and response time",
        &swept,
        &[Metric::Throughput, Metric::ResponseTime],
        vec![
            "Table 1 inputs; horizontal partitioning; best placement.".to_string(),
            "Expected: convex throughput, optimum < 200 locks; response time decreasing in npros."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn throughput_increases_with_processors() {
        let f = quick("fig2");
        let tput = f.panel("throughput").unwrap();
        // At every ltot, 30 processors beat 1.
        let one = tput.series("npros=1").unwrap();
        let thirty = tput.series("npros=30").unwrap();
        for (a, b) in one.points.iter().zip(thirty.points.iter()) {
            assert!(b.mean > a.mean, "ltot={}: {} !> {}", a.x, b.mean, a.mean);
        }
    }

    #[test]
    fn response_time_decreases_with_processors() {
        let f = quick("fig2");
        let resp = f.panel("response_time").unwrap();
        let one = resp.series("npros=1").unwrap();
        let thirty = resp.series("npros=30").unwrap();
        for (a, b) in one.points.iter().zip(thirty.points.iter()) {
            assert!(b.mean < a.mean, "ltot={}: {} !< {}", a.x, b.mean, a.mean);
        }
    }

    #[test]
    fn throughput_optimum_is_interior_and_below_200() {
        let f = quick("fig2");
        for s in &f.panel("throughput").unwrap().series {
            let best = s.argmax().unwrap();
            assert!(best < 200.0, "{}: optimum at {best}", s.label);
            // Entity-level locking is strictly worse than the optimum.
            let at_max = s.points.last().unwrap().mean;
            assert!(at_max < s.max_mean().unwrap(), "{}", s.label);
        }
    }
}
