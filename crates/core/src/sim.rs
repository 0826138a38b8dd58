//! Simulation entry point.
//!
//! [`run`] executes one configuration to its horizon and returns the
//! paper's output parameters; [`run_replicated`] averages independent
//! replications (different seeds) and reports confidence intervals, which
//! the experiment harness uses to draw stable curves.

use lockgran_sim::{Executor, FelKind, SimRng, Tally};

use crate::config::ModelConfig;
use crate::metrics::RunMetrics;
use crate::system::System;
use crate::timeline::{TimelineCollector, TimelinePoint};
use crate::trace::VecTracer;

/// Run one simulation to `cfg.tmax` with the given seed, on the calendar
/// future-event list.
///
/// Deterministic: the same `(cfg, seed)` pair always produces the same
/// metrics, bit for bit. The binary-heap FEL, kept as the reference, gives
/// the same metrics too: `tests/fel_identity.rs` holds the engine to that.
///
/// # Panics
/// Panics if `cfg.validate()` fails.
pub fn run(cfg: &ModelConfig, seed: u64) -> RunMetrics {
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    let horizon = system.tmax();
    let end = ex.run(&mut system, horizon);
    system.finish(end)
}

/// Reusable run state: one executor plus one [`System`], recycled across
/// `(config, seed)` runs.
///
/// [`RunArena::run`] is bit-identical to [`run`] — the reset paths
/// ([`Executor::reset`], [`System::reset`]) restore fresh-construction
/// semantics — but keeps every grown allocation: the future-event list's
/// slabs, the transaction slab's buffers (every slot vacated and redrawn
/// in place), the conflict model's tables, and the workload generator's
/// lock memo. At capacity scale (10⁵ resident transactions, 10⁷-entity
/// databases) rebuilding that state dominates short sweep points, so the
/// experiment harness gives each worker thread one arena and streams its
/// share of the sweep through it.
pub struct RunArena {
    ex: Executor<crate::system::Event>,
    system: Option<System>,
}

impl Default for RunArena {
    fn default() -> Self {
        Self::new()
    }
}

impl RunArena {
    /// An empty arena (production FEL, no system yet).
    pub fn new() -> Self {
        RunArena {
            ex: Executor::with_fel(FelKind::Calendar),
            system: None,
        }
    }

    /// Run one `(cfg, seed)` simulation to its horizon, reusing this
    /// arena's state. Deterministic and bit-identical to [`run`] for every
    /// `(cfg, seed)`, regardless of what ran in the arena before.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails.
    pub fn run(&mut self, cfg: &ModelConfig, seed: u64) -> RunMetrics {
        self.ex.reset();
        let system = match &mut self.system {
            Some(sys) => {
                sys.reset(cfg, seed, &mut self.ex);
                sys
            }
            None => self.system.insert(System::new(cfg, seed, &mut self.ex)),
        };
        let horizon = system.tmax();
        let end = self.ex.run(system, horizon);
        system.finish(end)
    }
}

/// Run one simulation with protocol tracing enabled, returning both the
/// metrics and the full [`VecTracer`] event stream. Tracing records every
/// protocol transition, so use short horizons.
///
/// # Panics
/// Panics if `cfg.validate()` fails.
pub fn run_traced(cfg: &ModelConfig, seed: u64) -> (RunMetrics, VecTracer) {
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    system.enable_tracing();
    let horizon = system.tmax();
    let end = ex.run(&mut system, horizon);
    #[expect(clippy::expect_used, reason = "enable_tracing ran before the executor")]
    let trace = system.take_trace().expect("tracing was enabled");
    (system.finish(end), trace)
}

/// Run one simulation with timeline sampling every `interval` time
/// units, returning the metrics and the window series.
///
/// # Panics
/// Panics if `cfg.validate()` fails or `interval <= 0`.
pub fn run_timeline(
    cfg: &ModelConfig,
    seed: u64,
    interval: f64,
) -> (RunMetrics, Vec<TimelinePoint>) {
    assert!(interval > 0.0, "sampling interval must be positive");
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    system.enable_timeline(interval, &mut ex);
    let horizon = system.tmax();
    let end = ex.run(&mut system, horizon);
    #[expect(
        clippy::expect_used,
        reason = "enable_timeline ran before the executor"
    )]
    let tl: TimelineCollector = system.take_timeline().expect("timeline was enabled");
    (system.finish(end), tl.points)
}

/// Suggest a warm-up (in time units) for a configuration via Welch's
/// procedure over `reps` replications of per-window throughput, or `None`
/// if the series never settles within `tolerance`.
///
/// # Panics
/// Panics if `cfg.validate()` fails, `reps == 0`, or `interval <= 0`.
pub fn suggest_warmup(cfg: &ModelConfig, seed: u64, reps: u32, interval: f64) -> Option<f64> {
    assert!(reps > 0, "need at least one replication");
    let root = SimRng::new(seed);
    let series: Vec<Vec<f64>> = (0..reps)
        .map(|r| {
            let (_, points) = run_timeline(cfg, root.split_index(u64::from(r)).seed(), interval);
            points.iter().map(|p| p.throughput).collect()
        })
        .collect();
    let window = (series.iter().map(Vec::len).min().unwrap_or(0) / 10).max(3);
    lockgran_sim::stats::welch::welch_warmup(&series, window, 0.08)
        .map(|windows| windows as f64 * interval)
}

/// Mean ± 95% CI of a metric over replications.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// Sample mean over replications.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
}

/// Aggregated results of several independent replications.
#[derive(Clone, Debug)]
pub struct ReplicatedMetrics {
    /// Per-replication raw metrics.
    pub runs: Vec<RunMetrics>,
    /// Throughput estimate.
    pub throughput: Estimate,
    /// Response-time estimate.
    pub response_time: Estimate,
    /// Useful per-processor CPU time estimate.
    pub usefulcpus: Estimate,
    /// Useful per-processor I/O time estimate.
    pub usefulios: Estimate,
    /// Total lock overhead (CPU + I/O) estimate.
    pub lock_overhead: Estimate,
}

/// Run `reps` independent replications (seeds derived from `seed`) and
/// aggregate the headline metrics.
///
/// # Panics
/// Panics if `reps == 0` or `cfg.validate()` fails.
pub fn run_replicated(cfg: &ModelConfig, seed: u64, reps: u32) -> ReplicatedMetrics {
    assert!(reps > 0, "need at least one replication");
    let root = SimRng::new(seed);
    let runs: Vec<RunMetrics> = (0..reps)
        .map(|r| run(cfg, root.split_index(u64::from(r)).seed()))
        .collect();
    let estimate = |f: &dyn Fn(&RunMetrics) -> f64| {
        let mut t = Tally::new();
        for m in &runs {
            t.record(f(m));
        }
        Estimate {
            mean: t.mean(),
            ci95: t.ci95_half_width(),
        }
    };
    ReplicatedMetrics {
        throughput: estimate(&|m| m.throughput),
        response_time: estimate(&|m| m.response_time),
        usefulcpus: estimate(&|m| m.usefulcpus),
        usefulios: estimate(&|m| m.usefulios),
        lock_overhead: estimate(&|m| m.lock_overhead()),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConflictMode;
    use lockgran_workload::{Partitioning, Placement};

    /// A short but non-trivial baseline for unit tests.
    fn quick() -> ModelConfig {
        ModelConfig::table1().with_tmax(1_000.0)
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(&quick(), 12345);
        let b = run(&quick(), 12345);
        assert_eq!(a.totcom, b.totcom);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.response_time, b.response_time);
        assert_eq!(a.totcpus, b.totcpus);
        assert_eq!(a.lockios, b.lockios);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&quick(), 1);
        let b = run(&quick(), 2);
        // Throughput is a ratio of integers over the same span; response
        // time is the sharper discriminator.
        assert_ne!(a.response_time, b.response_time);
    }

    #[test]
    fn metrics_are_internally_consistent() {
        for seed in 0..5 {
            let cfg = quick();
            let m = run(&cfg, seed);
            m.check_consistency(cfg.npros).unwrap();
            assert!(m.totcom > 0, "no transactions completed");
            assert!(m.throughput > 0.0);
            assert!(m.response_time > 0.0);
        }
    }

    #[test]
    fn single_database_lock_serializes_throughput() {
        // ltot = 1 forces serial execution: mean active must be ~1 and the
        // denial rate high.
        let m = run(&quick().with_ltot(1), 7);
        assert!(m.mean_active <= 1.0 + 1e-9, "mean active {}", m.mean_active);
        assert!(m.denial_rate > 0.5, "denial rate {}", m.denial_rate);
        m.check_consistency(10).unwrap();
    }

    #[test]
    fn more_locks_allow_more_concurrency() {
        let coarse = run(&quick().with_ltot(1), 3);
        let fine = run(&quick().with_ltot(100), 3);
        assert!(
            fine.mean_active > coarse.mean_active,
            "fine {} vs coarse {}",
            fine.mean_active,
            coarse.mean_active
        );
        assert!(fine.throughput > coarse.throughput);
    }

    #[test]
    fn lock_overhead_grows_with_lock_count() {
        let few = run(&quick().with_ltot(10), 3);
        let many = run(&quick().with_ltot(5_000), 3);
        assert!(
            many.lock_overhead() > few.lock_overhead(),
            "many {} vs few {}",
            many.lock_overhead(),
            few.lock_overhead()
        );
    }

    #[test]
    fn zero_lock_io_time_removes_lock_io() {
        let m = run(&quick().with_liotime(0.0), 5);
        assert_eq!(m.lockios, 0.0);
        assert!(m.lockcpus > 0.0);
        m.check_consistency(10).unwrap();
    }

    #[test]
    fn uniprocessor_runs() {
        let m = run(&quick().with_npros(1), 11);
        assert!(m.totcom > 0);
        m.check_consistency(1).unwrap();
    }

    #[test]
    fn explicit_conflict_mode_runs_and_is_consistent() {
        let cfg = quick().with_conflict(ConflictMode::Explicit);
        let m = run(&cfg, 13);
        assert!(m.totcom > 0);
        m.check_consistency(cfg.npros).unwrap();
    }

    #[test]
    fn explicit_and_probabilistic_agree_roughly() {
        // The probabilistic model approximates explicit conflicts; at the
        // Table 1 baseline the throughputs should be within ~35%.
        let p = run(&quick(), 21);
        let e = run(&quick().with_conflict(ConflictMode::Explicit), 21);
        let ratio = p.throughput / e.throughput;
        assert!(
            (0.65..=1.55).contains(&ratio),
            "throughput ratio {ratio} (prob {} vs explicit {})",
            p.throughput,
            e.throughput
        );
    }

    #[test]
    fn random_partitioning_runs() {
        let m = run(&quick().with_partitioning(Partitioning::Random), 17);
        assert!(m.totcom > 0);
        m.check_consistency(10).unwrap();
    }

    #[test]
    fn worst_placement_runs() {
        let m = run(&quick().with_placement(Placement::Worst).with_ltot(250), 19);
        assert!(m.totcom > 0);
        m.check_consistency(10).unwrap();
    }

    #[test]
    fn warmup_discards_early_completions() {
        let no_warmup = run(&quick(), 23);
        let warm = run(&quick().with_warmup(500.0), 23);
        assert!(warm.totcom < no_warmup.totcom);
        assert!(warm.measured_time < no_warmup.measured_time);
        warm.check_consistency(10).unwrap();
    }

    #[test]
    fn replication_reduces_uncertainty() {
        let cfg = quick();
        let few = run_replicated(&cfg, 1, 2);
        let many = run_replicated(&cfg, 1, 8);
        assert_eq!(few.runs.len(), 2);
        assert_eq!(many.runs.len(), 8);
        assert!(many.throughput.mean > 0.0);
        assert!(many.throughput.ci95.is_finite());
        // Every replication mean lies within a loose band of the grand
        // mean — replications are exchangeable, not wildly dispersed.
        for r in &many.runs {
            let rel = (r.throughput - many.throughput.mean).abs() / many.throughput.mean;
            assert!(rel < 0.5, "replication deviates {rel} from grand mean");
        }
    }
}
