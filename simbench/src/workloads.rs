//! The benchmark's workloads: which `(config, seed)` runs each one makes
//! and how they are executed. Every run is derived from the workload
//! seed alone, so the same seed always gives the same runs.

use lockgran_core::{sim::RunArena, ConflictMode, HierarchySpec, ModelConfig, RunMetrics};
use lockgran_experiments::sweep::sweep_ltot;
use lockgran_experiments::RunOptions;
use lockgran_sim::{SimRng, WorkerPool};
use lockgran_workload::{HotSpot, Placement, SizeDistribution};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_sweep", "lock_contention", "capacity"];

/// Replications per `paper_sweep` point (the figures' default).
const SWEEP_REPS: u32 = 3;
/// `lock_contention` lock counts.
const CONTENTION_LTOTS: [u64; 4] = [10, 100, 1_000, 5_000];
/// Seeds per `capacity` point.
const CAPACITY_SEEDS: u64 = 20;

/// How a group's runs are executed.
#[derive(Clone, Debug)]
pub enum Exec {
    /// Through `lockgran_experiments::sweep::sweep_ltot` over this base
    /// configuration (the path every figure of `lockgran all` takes).
    Sweep(ModelConfig),
    /// Through `WorkerPool::try_run_with_state` over per-worker
    /// `RunArena`s, one task per run.
    Arenas,
}

/// A set of runs executed together by one worker pool.
#[derive(Clone, Debug)]
pub struct Group {
    /// Short label for reports.
    pub label: &'static str,
    /// Worker threads of the pool.
    pub workers: usize,
    /// Execution path.
    pub exec: Exec,
    /// The runs, in the order the execution path returns them.
    pub runs: Vec<(ModelConfig, u64)>,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The seed every run seed derives from.
    pub seed: u64,
    /// Groups, executed in order.
    pub groups: Vec<Group>,
}

impl Workload {
    /// Build the named workload for `seed`.
    pub fn new(name: &str, seed: u64) -> Result<Self, String> {
        let (name, groups) = match name {
            "paper_sweep" => ("paper_sweep", paper_sweep(seed)),
            "lock_contention" => ("lock_contention", lock_contention(seed)),
            "capacity" => ("capacity", capacity(seed)),
            other => {
                return Err(format!(
                    "unknown workload '{other}' (expected one of {})",
                    NAMES.join(", ")
                ))
            }
        };
        Ok(Workload { name, seed, groups })
    }

    /// Total runs in one pass.
    pub fn run_count(&self) -> usize {
        self.groups.iter().map(|g| g.runs.len()).sum()
    }

    /// Every run, in pass order.
    pub fn runs(&self) -> impl Iterator<Item = &(ModelConfig, u64)> {
        self.groups.iter().flat_map(|g| g.runs.iter())
    }

    /// Validate every run's configuration.
    pub fn validate(&self) -> Result<(), String> {
        for (cfg, _) in self.runs() {
            cfg.validate()
                .map_err(|e| format!("{}: invalid configuration: {e}", self.name))?;
        }
        Ok(())
    }
}

/// Worker threads for the parallel workload: two, or fewer on a smaller
/// host.
fn sweep_workers() -> usize {
    WorkerPool::available_parallelism().min(2)
}

/// The seed of run `index` under workload seed `seed`.
fn run_seed(seed: u64, index: u64) -> u64 {
    SimRng::new(seed).split_index(index).seed()
}

/// The options `sweep_ltot` runs `paper_sweep` with.
pub fn sweep_options(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        reps: SWEEP_REPS,
        ..RunOptions::default()
    }
    .with_jobs(sweep_workers())
}

/// The paper's own traffic: the full `ltot` sweep with three
/// replications on Table 1 (large transactions, best placement) and on
/// Figure 10's heavy corner (30 processors, small transactions, random
/// placement, so every spawn goes through Yao's formula).
fn paper_sweep(seed: u64) -> Vec<Group> {
    let table1 = ModelConfig::table1();
    let fig10 = ModelConfig::table1()
        .with_npros(30)
        .with_maxtransize(50)
        .with_placement(Placement::Random);
    let opts = sweep_options(seed);
    [("table1", table1), ("fig10-random", fig10)]
        .into_iter()
        .map(|(label, base)| {
            // The same (ltot-major, replication-minor) order and seeds
            // `sweep_ltot` uses.
            let runs = opts
                .ltots()
                .iter()
                .flat_map(|&ltot| {
                    let cfg = opts.apply(base.clone().with_ltot(ltot));
                    (0..u64::from(opts.effective_reps()))
                        .map(move |r| (cfg.clone(), run_seed(seed, r)))
                })
                .collect();
            Group {
                label,
                workers: opts.effective_jobs(),
                exec: Exec::Sweep(base),
                runs,
            }
        })
        .collect()
}

/// Extension I's contention regime under the two lock-table protocols
/// that use the table differently: conservative request-all and
/// incremental two-phase locking with deadlock detection.
fn lock_contention(seed: u64) -> Vec<Group> {
    let base = ModelConfig::table1()
        .with_npros(10)
        .with_ntrans(50)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_hot_spot(Some(HotSpot::eighty_twenty()))
        .with_tmax(50_000.0);
    let s = run_seed(seed, 0);
    [
        ("explicit", ConflictMode::Explicit),
        ("twophase", ConflictMode::Twophase),
    ]
    .into_iter()
    .map(|(label, mode)| Group {
        label,
        workers: 1,
        exec: Exec::Arenas,
        runs: CONTENTION_LTOTS
            .iter()
            .map(|&ltot| (base.clone().with_conflict(mode).with_ltot(ltot), s))
            .collect(),
    })
    .collect()
}

/// `bench_capacity`'s two production-scale points: 10⁷ entities, 10⁵
/// resident transactions behind an MPL of 64.
fn capacity(seed: u64) -> Vec<Group> {
    let base = ModelConfig::table1()
        .with_ltot(10_000)
        .with_ntrans(100_000)
        .with_mpl_limit(Some(64))
        .with_tmax(110_000.0);
    let prob = ModelConfig {
        dbsize: 10_000_000,
        ..base
            .clone()
            .with_placement(Placement::Random)
            .with_size(SizeDistribution::Uniform { max: 100_000 })
    };
    let hier = ModelConfig {
        dbsize: 10_000_000,
        ..base
            .with_size(SizeDistribution::Uniform { max: 2_000 })
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(
                HierarchySpec::default()
                    .with_areas(100)
                    .with_escalation_threshold(Some(64)),
            ))
    };
    [("probabilistic", prob), ("hierarchical", hier)]
        .into_iter()
        .map(|(label, cfg)| Group {
            label,
            workers: 1,
            exec: Exec::Arenas,
            runs: (0..CAPACITY_SEEDS)
                .map(|i| (cfg.clone(), run_seed(seed, i)))
                .collect(),
        })
        .collect()
}

/// Execute one group on its production path. Returns one entry per run,
/// in the group's run order: `None` where the run panicked.
pub fn execute(group: &Group, seed: u64) -> Vec<Option<RunMetrics>> {
    match &group.exec {
        Exec::Sweep(base) => {
            let opts = sweep_options(seed);
            let reps = opts.effective_reps() as usize;
            let mut out = Vec::with_capacity(group.runs.len());
            // `sweep_ltot` drops a panicked replication with a warning,
            // which breaks the alignment inside that point: count the
            // whole point as failed then.
            for point in sweep_ltot(base, &opts) {
                if point.runs.len() == reps {
                    out.extend(point.runs.into_iter().map(Some));
                } else {
                    out.extend((0..reps).map(|_| None));
                }
            }
            out
        }
        Exec::Arenas => {
            let tasks: Vec<_> = group
                .runs
                .iter()
                .map(|(cfg, seed)| move |arena: &mut RunArena| arena.run(cfg, *seed))
                .collect();
            WorkerPool::new(group.workers)
                .try_run_with_state(RunArena::new, tasks)
                .into_iter()
                .map(Result::ok)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockgran_experiments::LTOT_SWEEP;

    #[test]
    fn every_workload_config_validates() {
        for name in NAMES {
            for seed in [0, 1, 7919, u64::MAX] {
                let w = Workload::new(name, seed).unwrap();
                w.validate().unwrap();
                assert!(w.run_count() > 0);
            }
        }
    }

    #[test]
    fn workload_sizes_match_their_definitions() {
        assert_eq!(Workload::new("paper_sweep", 1).unwrap().run_count(), 72);
        assert_eq!(Workload::new("lock_contention", 1).unwrap().run_count(), 8);
        assert_eq!(Workload::new("capacity", 1).unwrap().run_count(), 40);
        assert!(Workload::new("nope", 1).is_err());
    }

    #[test]
    fn runs_are_a_function_of_the_seed() {
        for name in NAMES {
            let a = Workload::new(name, 5).unwrap();
            let b = Workload::new(name, 5).unwrap();
            let c = Workload::new(name, 6).unwrap();
            let seeds = |w: &Workload| w.runs().map(|r| r.1).collect::<Vec<_>>();
            assert_eq!(seeds(&a), seeds(&b));
            assert_ne!(seeds(&a), seeds(&c));
            let cfgs = |w: &Workload| w.runs().map(|r| r.0.clone()).collect::<Vec<_>>();
            assert_eq!(cfgs(&a), cfgs(&c));
        }
    }

    #[test]
    fn sweep_groups_mirror_sweep_ltot_order() {
        let w = Workload::new("paper_sweep", 3).unwrap();
        let g = &w.groups[0];
        assert_eq!(g.runs.len(), LTOT_SWEEP.len() * SWEEP_REPS as usize);
        assert_eq!(g.runs[0].0.ltot, 1);
        assert_eq!(g.runs[3].0.ltot, 2);
        assert_eq!(g.runs[0].1, g.runs[3].1);
        assert_ne!(g.runs[0].1, g.runs[1].1);
    }
}
