//! Extension E — resource balance (I/O-bound vs CPU-bound systems).
//!
//! The paper's machine is strongly I/O-bound (`iotime = 0.2` vs
//! `cputime = 0.05` per entity), which is why the conclusion singles out
//! "an I/O bound application". This experiment rebalances the per-entity
//! costs at constant total work (`cputime + iotime = 0.25`) and asks
//! whether the granularity story survives when the CPU is the
//! bottleneck. Expected: the convex shape and the small optimum are
//! robust; absolute throughput tracks the bottleneck resource; lock I/O
//! hurts relatively more in the I/O-bound system.

use lockgran_core::ModelConfig;

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// `(label, cputime, iotime)` — total per-entity work constant at 0.25.
pub const BALANCES: [(&str, f64, f64); 3] = [
    ("io-bound (paper)", 0.05, 0.20),
    ("balanced", 0.125, 0.125),
    ("cpu-bound", 0.20, 0.05),
];

/// Run extension experiment E.
pub fn run(opts: &RunOptions) -> Figure {
    let configs = BALANCES
        .iter()
        .map(|&(label, cputime, iotime)| {
            let mut cfg = ModelConfig::table1().with_npros(10);
            cfg.cputime = cputime;
            cfg.iotime = iotime;
            (label.to_string(), cfg)
        })
        .collect();
    let swept = sweep_family(configs, opts);
    figure(
        "extE",
        "Extension: resource balance — I/O-bound vs CPU-bound per-entity costs (npros = 10)",
        &swept,
        &[
            Metric::Throughput,
            Metric::CpuUtilization,
            Metric::IoUtilization,
        ],
        vec![
            "Per-entity work held at cputime + iotime = 0.25; lock costs per Table 1.".to_string(),
            "Expected: the convex optimum below 200 locks is robust to the bottleneck resource."
                .to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn optimum_is_robust_to_resource_balance() {
        let f = quick("extE");
        for s in &f.panel("throughput").unwrap().series {
            let opt = s.argmax().unwrap();
            assert!(opt > 1.0 && opt < 200.0, "{}: optimum at {opt}", s.label);
            let peak = s.max_mean().unwrap();
            assert!(s.at(5000.0).unwrap() < peak, "{}", s.label);
        }
    }

    #[test]
    fn bottleneck_follows_the_cost_balance() {
        let f = quick("extE");
        let cpu = f.panel("cpu_utilization").unwrap();
        let io = f.panel("io_utilization").unwrap();
        // At the optimum, the I/O-bound system saturates its disks and
        // the CPU-bound system saturates its CPUs.
        let at = |panel: &crate::series::Panel, label: &str| {
            panel.series(label).unwrap().at(100.0).unwrap()
        };
        assert!(at(io, "io-bound (paper)") > at(cpu, "io-bound (paper)"));
        assert!(at(cpu, "cpu-bound") > at(io, "cpu-bound"));
    }

    #[test]
    fn lock_io_penalty_is_worst_for_the_io_bound_system() {
        // The fine-granularity collapse (lock I/O on the critical
        // resource) is deepest when I/O is already the bottleneck.
        let f = quick("extE");
        let tput = f.panel("throughput").unwrap();
        let drop = |label: &str| {
            let s = tput.series(label).unwrap();
            1.0 - s.at(5000.0).unwrap() / s.max_mean().unwrap()
        };
        assert!(
            drop("io-bound (paper)") > drop("cpu-bound"),
            "io-bound drop {} !> cpu-bound drop {}",
            drop("io-bound (paper)"),
            drop("cpu-bound")
        );
    }
}
