//! Parameter-sweep machinery.
//!
//! Every figure in the paper sweeps the number of locks `ltot` from 1 to
//! `dbsize` while varying one other dimension (processors, transaction
//! size, lock I/O cost, partitioning, placement, multiprogramming level).
//! [`sweep_ltot`] runs the base configuration at each `ltot` with `reps`
//! independent replications; figure modules turn the results into
//! [`crate::Series`] per secondary-dimension value.

use lockgran_core::{ModelConfig, RunArena, RunMetrics};
use lockgran_sim::{SimRng, Tally, WorkerPool};

use crate::metric::Metric;
use crate::series::{Point, Series};

/// The paper's log-spaced lock-count sweep, 1 … dbsize = 5000.
pub const LTOT_SWEEP: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// Reduced sweep for quick mode.
pub const LTOT_SWEEP_QUICK: [u64; 5] = [1, 10, 100, 1000, 5000];

/// How to run a figure.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Quick mode: reduced sweep, shorter horizon, fewer series — used by
    /// unit tests and smoke runs (`--quick`).
    pub quick: bool,
    /// Base RNG seed; replication seeds are derived from it.
    pub seed: u64,
    /// Replications per point (quick mode forces 1).
    pub reps: u32,
    /// Override the simulated horizon (time units).
    pub tmax: Option<f64>,
    /// Worker threads for the `(ltot, rep)` fan-out: 0 = resolve from
    /// `LOCKGRAN_JOBS` / available parallelism, 1 = fully sequential.
    /// Results are bit-identical at any value (see [`WorkerPool`]).
    pub jobs: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            seed: 0x1991_0601, // ICDE 1991
            reps: 3,
            tmax: None,
            jobs: 0,
        }
    }
}

impl RunOptions {
    /// Quick-mode options (for tests and smoke runs).
    pub fn quick() -> Self {
        RunOptions {
            quick: true,
            ..RunOptions::default()
        }
    }

    /// The lock-count sweep for this mode.
    pub fn ltots(&self) -> &'static [u64] {
        if self.quick {
            &LTOT_SWEEP_QUICK
        } else {
            &LTOT_SWEEP
        }
    }

    /// Replications per point for this mode.
    pub fn effective_reps(&self) -> u32 {
        if self.quick {
            1
        } else {
            self.reps.max(1)
        }
    }

    /// Simulated horizon for this mode.
    pub fn effective_tmax(&self) -> f64 {
        self.tmax
            .unwrap_or(if self.quick { 1_500.0 } else { 10_000.0 })
    }

    /// Apply mode-wide overrides (horizon) to a base configuration.
    pub fn apply(&self, cfg: ModelConfig) -> ModelConfig {
        cfg.with_tmax(self.effective_tmax())
    }

    /// Worker count after resolving `jobs = 0` through `LOCKGRAN_JOBS` and
    /// the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        WorkerPool::resolve_jobs(if self.jobs == 0 {
            None
        } else {
            Some(self.jobs)
        })
    }

    /// These options with an explicit worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Results at one sweep point.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The lock count.
    pub ltot: u64,
    /// One [`RunMetrics`] per replication.
    pub runs: Vec<RunMetrics>,
}

impl SweepPoint {
    /// Mean and 95% CI of a metric over this point's replications.
    pub fn estimate(&self, metric: Metric) -> Point {
        let mut t = Tally::new();
        for m in &self.runs {
            t.record(metric.get(m));
        }
        Point {
            x: self.ltot as f64,
            mean: t.mean(),
            ci95: t.ci95_half_width(),
        }
    }
}

/// Run `base` at every `ltot` in `opts.ltots()` with
/// `opts.effective_reps()` replications each.
///
/// Replication seeds derive from `opts.seed` only — not from `ltot` — so
/// every sweep point sees the same transaction streams (common random
/// numbers: curves differ by the system response, not by workload noise).
///
/// All `(ltot, rep)` pairs fan out across a [`WorkerPool`] of
/// `opts.effective_jobs()` threads, each worker streaming its share of
/// the pairs through one private [`RunArena`] — slabs, lock tables, the
/// future-event list and the Yao memo are reused across runs instead of
/// rebuilt per pair. Each pair is still an independent pure function of
/// `(config, seed)` — seeds never depend on execution order, and
/// [`RunArena::run`] is bit-identical to a fresh [`lockgran_core::sim::run`] — and the
/// pool gathers results in submission order, so the output is
/// bit-identical at any worker count (`jobs = 1` runs the exact
/// sequential loop).
///
/// Fault isolation: each `(ltot, rep)` task runs under
/// [`WorkerPool::try_run_with_state`], so one poisoned pair degrades its
/// sweep point (a stderr warning, one fewer replication, a fresh arena
/// for that worker) instead of aborting the whole sweep. Only a point
/// losing *every* replication panics — there is no honest way to report a
/// sweep point with no data.
pub fn sweep_ltot(base: &ModelConfig, opts: &RunOptions) -> Vec<SweepPoint> {
    let root = SimRng::new(opts.seed);
    let reps = opts.effective_reps();
    let rep_seeds: Vec<u64> = (0..reps)
        .map(|r| root.split_index(u64::from(r)).seed())
        .collect();
    let tasks: Vec<_> = opts
        .ltots()
        .iter()
        .flat_map(|&ltot| {
            let cfg = opts.apply(base.clone().with_ltot(ltot));
            rep_seeds.iter().map(move |&seed| {
                let cfg = cfg.clone();
                move |arena: &mut RunArena| arena.run(&cfg, seed)
            })
        })
        .collect();
    let results = WorkerPool::new(opts.effective_jobs()).try_run_with_state(RunArena::new, tasks);
    opts.ltots()
        .iter()
        .zip(results.chunks(reps as usize))
        .map(|(&ltot, chunk)| {
            let runs: Vec<RunMetrics> = chunk
                .iter()
                .filter_map(|r| match r {
                    Ok(m) => Some(m.clone()),
                    Err(p) => {
                        eprintln!(
                            "warning: sweep point ltot={ltot}: {p}; dropping this replication"
                        );
                        None
                    }
                })
                .collect();
            if runs.is_empty() {
                // A point that lost every replication has no data to
                // report; the caller's fault isolation (try_run around
                // the figure) turns this into a figure-level error
                // instead of a process abort.
                panic!("sweep point ltot={ltot}: every replication panicked");
            }
            SweepPoint { ltot, runs }
        })
        .collect()
}

/// Build one labelled series from a sweep.
pub fn series_from(points: &[SweepPoint], metric: Metric, label: impl Into<String>) -> Series {
    Series {
        label: label.into(),
        points: points.iter().map(|p| p.estimate(metric)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_all_points() {
        let base = ModelConfig::table1();
        let opts = RunOptions::quick();
        let pts = sweep_ltot(&base, &opts);
        assert_eq!(pts.len(), LTOT_SWEEP_QUICK.len());
        for (p, &l) in pts.iter().zip(LTOT_SWEEP_QUICK.iter()) {
            assert_eq!(p.ltot, l);
            assert_eq!(p.runs.len(), 1);
            assert!(p.runs[0].totcom > 0);
        }
    }

    #[test]
    fn series_extraction_orders_points() {
        let base = ModelConfig::table1();
        let opts = RunOptions::quick();
        let pts = sweep_ltot(&base, &opts);
        let s = series_from(&pts, Metric::Throughput, "base");
        assert_eq!(s.label, "base");
        let xs: Vec<f64> = s.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![1.0, 10.0, 100.0, 1000.0, 5000.0]);
        assert!(s.points.iter().all(|p| p.mean > 0.0));
        // One replication -> no CI.
        assert!(s.points.iter().all(|p| p.ci95 == 0.0));
    }

    #[test]
    fn sweep_is_deterministic() {
        let base = ModelConfig::table1();
        let opts = RunOptions::quick();
        let a = sweep_ltot(&base, &opts);
        let b = sweep_ltot(&base, &opts);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.runs[0].throughput, y.runs[0].throughput);
            assert_eq!(x.runs[0].response_time, y.runs[0].response_time);
        }
    }

    #[test]
    fn default_options_use_full_sweep() {
        let opts = RunOptions::default();
        assert_eq!(opts.ltots(), &LTOT_SWEEP);
        assert_eq!(opts.effective_reps(), 3);
        assert_eq!(opts.effective_tmax(), 10_000.0);
        let quick = RunOptions::quick();
        assert_eq!(quick.effective_reps(), 1);
        assert_eq!(quick.effective_tmax(), 1_500.0);
    }
}
