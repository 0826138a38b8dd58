//! Arena reuse (`RunArena`) must be observationally invisible.
//!
//! The capacity-scale engine recycles one `Executor` + `System` pair per
//! worker thread across `(config, seed)` runs instead of rebuilding them.
//! The contract is *reset-equals-fresh*: every run through an arena is
//! bit-identical to `sim::run` on a fresh system, no matter what ran in
//! the arena before — only heap capacities may differ. These tests drive
//! one arena through a gauntlet of configurations (all four conflict
//! models, failures, admission control, changed geometry) and compare
//! every run's full `RunMetrics` JSON against fresh construction. The
//! three lock-table modes are presets of one engine, so consecutive
//! lock-table steps cross presets through a single in-place reset.

use lockgran_core::{
    sim, ConflictMode, HierarchySpec, LockDistribution, ModelConfig, RunArena, ServiceVariability,
};
use lockgran_sim::ToJson;
use lockgran_workload::{FailureSpec, Partitioning, Placement};

/// A short but non-trivial baseline.
fn quick() -> ModelConfig {
    ModelConfig::table1().with_tmax(800.0)
}

/// The gauntlet: every configuration family the model supports, in an
/// order that forces the reset paths to cross conflict modes, geometry
/// changes, and optional subsystems (failures, MPL caps, warm-up).
fn gauntlet() -> Vec<(ModelConfig, u64)> {
    vec![
        (quick(), 11),
        // Same config, different seed: RNG re-derivation only.
        (quick(), 12),
        // Geometry change: new ltot invalidates the Yao memo.
        (quick().with_ltot(500).with_placement(Placement::Random), 13),
        // Explicit lock table, random partitioning.
        (
            quick()
                .with_conflict(ConflictMode::Explicit)
                .with_partitioning(Partitioning::Random),
            14,
        ),
        // Incremental 2PL straight after the flat predeclared table: the
        // reset swaps the discipline in place. Coarse locking makes the
        // run deadlock, so victim replay crosses the reset boundary too.
        (
            quick()
                .with_conflict(ConflictMode::Twophase)
                .with_ltot(10)
                .with_placement(Placement::Random),
            20,
        ),
        // Hierarchical with escalation.
        (
            quick()
                .with_conflict(ConflictMode::Hierarchical)
                .with_hierarchy(Some(
                    HierarchySpec::default().with_escalation_threshold(Some(4)),
                )),
            15,
        ),
        // Hierarchical again with a different area count (tree rebuild).
        (
            quick()
                .with_conflict(ConflictMode::Hierarchical)
                .with_hierarchy(Some(HierarchySpec::default().with_areas(25))),
            16,
        ),
        // Incremental 2PL straight after the hierarchy: the reset drops
        // the tree and swaps the discipline. A higher multiprogramming
        // level re-provisions the prewarmed structures.
        (
            quick()
                .with_conflict(ConflictMode::Twophase)
                .with_ntrans(40)
                .with_ltot(50),
            21,
        ),
        // Back to probabilistic (mode change in the other direction),
        // with warm-up, admission control and service variability.
        (
            quick()
                .with_warmup(200.0)
                .with_mpl_limit(Some(8))
                .with_service(ServiceVariability::Exponential),
            17,
        ),
        // A pending queue still about 790 deep at the horizon: the next
        // reset discards arrivals that were queued but never drawn.
        (quick().with_ntrans(2_000).with_mpl_limit(Some(8)), 22),
        // Incremental 2PL behind an MPL cap: the conflict model is
        // prewarmed for the 4 admitted transactions, not the 40 terminals.
        (
            quick()
                .with_conflict(ConflictMode::Twophase)
                .with_ntrans(40)
                .with_mpl_limit(Some(4)),
            23,
        ),
        // Failure extension plus a different lock distribution.
        (
            quick()
                .with_failure(Some(FailureSpec::new(150.0, 30.0)))
                .with_lock_distribution(LockDistribution::SingleProcessor),
            18,
        ),
        // Fewer processors (server vectors shrink) and coarse locking.
        (quick().with_npros(4).with_ltot(2), 19),
    ]
}

#[test]
fn arena_runs_are_bit_identical_to_fresh_runs() {
    let mut arena = RunArena::new();
    for (i, (cfg, seed)) in gauntlet().into_iter().enumerate() {
        let recycled = arena.run(&cfg, seed).to_json().to_string();
        let fresh = sim::run(&cfg, seed).to_json().to_string();
        assert_eq!(recycled, fresh, "gauntlet step {i} diverged from fresh");
    }
}

#[test]
fn arena_repeat_of_same_config_is_bit_identical() {
    // The same (cfg, seed) through one arena twice in a row — the purest
    // reset test: every in-place path (slab drain, conflict reset, memo
    // retention, FEL clear) fires with *matching* geometry.
    let mut arena = RunArena::new();
    for (cfg, seed) in gauntlet() {
        let first = arena.run(&cfg, seed).to_json().to_string();
        let second = arena.run(&cfg, seed).to_json().to_string();
        assert_eq!(first, second);
    }
}

#[test]
fn arena_order_does_not_matter() {
    // Metrics of a run must not depend on the arena's history: run the
    // gauntlet forward and backward through two arenas and compare each
    // point pairwise.
    let steps = gauntlet();
    let mut forward = RunArena::new();
    let fwd: Vec<String> = steps
        .iter()
        .map(|(cfg, seed)| forward.run(cfg, *seed).to_json().to_string())
        .collect();
    let mut backward = RunArena::new();
    let mut bwd: Vec<String> = steps
        .iter()
        .rev()
        .map(|(cfg, seed)| backward.run(cfg, *seed).to_json().to_string())
        .collect();
    bwd.reverse();
    assert_eq!(fwd, bwd);
}
