//! Future-event-list identity: the calendar queue is a pure performance
//! substitution for the binary heap. Both order events by the same stable
//! `(time, seq)` key, so every simulation output — metrics, float
//! rounding, RNG consumption — must be byte-identical across FEL kinds.
//!
//! This is what lets `core::sim::run` default to the calendar queue while
//! every committed artifact (regenerated with the heap in earlier PRs)
//! stays bit-for-bit unchanged.

use lockgran_core::system::System;
use lockgran_core::{ConflictMode, LockDistribution, ModelConfig, ServiceVariability};
use lockgran_sim::{Executor, FelKind, ToJson};
use lockgran_workload::{FailureSpec, HotSpot, Partitioning, Placement};

/// Run one simulation on the given FEL kind and serialize it to JSON text —
/// byte-identical serialized output is exactly the claim the committed
/// figure artifacts rest on.
fn fingerprint(cfg: &ModelConfig, seed: u64, fel: FelKind) -> String {
    let mut ex = Executor::with_fel(fel);
    let mut system = System::new(cfg, seed, &mut ex);
    let horizon = system.tmax();
    let end = ex.run(&mut system, horizon);
    system.finish(end).to_json().to_string()
}

fn assert_identical(label: &str, cfg: &ModelConfig) {
    for seed in [42, 7, 12345] {
        let heap = fingerprint(cfg, seed, FelKind::Heap);
        let calendar = fingerprint(cfg, seed, FelKind::Calendar);
        assert_eq!(heap, calendar, "{label}, seed {seed}: FEL kinds diverged");
    }
}

/// The Table 1 baseline — the configuration every figure sweeps from —
/// run long enough to push the calendar queue through resize bands.
#[test]
fn table1_baseline_is_fel_independent() {
    assert_identical("table1", &ModelConfig::table1().with_tmax(2_000.0));
}

/// A figure-style granularity sweep: every `(ltot, seed)` cell must match.
/// `ltot = 1` serializes the system (long FEL plateaus); `ltot = 5000`
/// maximizes concurrency (dense FEL) — the two FEL stress extremes.
#[test]
fn ltot_sweep_is_fel_independent() {
    for ltot in [1, 10, 100, 1_000, 5_000] {
        let cfg = ModelConfig::table1().with_ltot(ltot).with_tmax(1_000.0);
        assert_identical(&format!("ltot={ltot}"), &cfg);
    }
}

/// Model variants that exercise every event-producing subsystem: explicit
/// conflicts, random partitioning, worst-case placement, exponential
/// service, per-operation lock distribution, and warm-up snapshots.
#[test]
fn model_variants_are_fel_independent() {
    let base = ModelConfig::table1().with_tmax(1_000.0);
    let variants: Vec<(&str, ModelConfig)> = vec![
        (
            "explicit",
            base.clone().with_conflict(ConflictMode::Explicit),
        ),
        (
            "random-partitioning",
            base.clone().with_partitioning(Partitioning::Random),
        ),
        (
            "worst-placement",
            base.clone().with_placement(Placement::Worst).with_ltot(250),
        ),
        (
            "exponential-service",
            base.clone().with_service(ServiceVariability::Exponential),
        ),
        (
            "per-operation-locks",
            base.clone()
                .with_lock_distribution(LockDistribution::PerOperation),
        ),
        ("warmup", base.clone().with_warmup(300.0)),
        ("uniprocessor", base.clone().with_npros(1)),
    ];
    for (label, cfg) in &variants {
        assert_identical(label, cfg);
    }
}

/// Failures and repairs inject far-future events (repair times) next to
/// near-future ones — the sparse-bucket worst case for a calendar queue.
#[test]
fn failure_runs_are_fel_independent() {
    let cfg = ModelConfig::table1()
        .with_failure(Some(FailureSpec::new(150.0, 30.0)))
        .with_tmax(1_500.0);
    assert_identical("failure", &cfg);
}

/// The capacity shape in miniature: 2 000 terminals behind MPL 16, so
/// most of the staggered initial arrivals wait in the calendar's series
/// while admitted transactions complete around them. Arrivals fall on
/// whole time units and Table 1's demands are multiples of 0.01, so
/// hundreds of arrivals tie with a completion on the same tick; the
/// series must break those ties by push order exactly as the heap does.
#[test]
fn capacity_shaped_runs_are_fel_independent() {
    let cfg = ModelConfig::table1()
        .with_ntrans(2_000)
        .with_mpl_limit(Some(16))
        .with_tmax(2_500.0);
    assert_identical("capacity-shaped", &cfg);
}

/// Figure 10's random-placement corner (npros 30, maxtransize 50), the
/// tie-heaviest traffic the paper produces: each lock request spreads its
/// overhead over all 30 processors, so most pushes land on a tick that
/// already holds a pending event. Transactions here have fewer entities
/// than processors (NU < PU), so some sub-transactions get zero-demand
/// stages, whose completions are pushed onto the tick being drained.
#[test]
fn fig10_random_corner_is_fel_independent() {
    let base = ModelConfig::table1()
        .with_npros(30)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_tmax(1_000.0);
    for ltot in [2, 100, 5_000] {
        assert_identical(
            &format!("fig10 random, ltot={ltot}"),
            &base.clone().with_ltot(ltot),
        );
    }
}

/// Extension I's contention shape (50 transactions of up to 50 entities
/// on 10 processors, random placement, 80/20 hot spot) under both lock
/// disciplines: blocking, wake-ups, deadlock aborts and replays all
/// schedule events next to the lock shares' tied completions.
#[test]
fn lock_contention_shape_is_fel_independent() {
    let base = ModelConfig::table1()
        .with_npros(10)
        .with_ntrans(50)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_hot_spot(Some(HotSpot::eighty_twenty()))
        .with_tmax(1_000.0);
    for mode in [ConflictMode::Explicit, ConflictMode::Twophase] {
        for ltot in [10, 1_000] {
            let cfg = base.clone().with_conflict(mode).with_ltot(ltot);
            assert_identical(&format!("lock contention, {mode:?}, ltot={ltot}"), &cfg);
        }
    }
}
