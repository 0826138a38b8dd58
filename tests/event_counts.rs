//! Event counts at the horizon, pinned for fixed `(config, seed)` pairs
//! under the production (calendar) FEL.
//!
//! The goldens pin what a run computes, and `tests/fel_identity.rs` pins
//! that both FELs agree under one model, but neither notices a change to
//! the model's event traffic that leaves the metrics alone: an added or
//! dropped no-op event, such as a stale server completion (DESIGN.md §9
//! keeps those on purpose). `events_processed` is the numerator of the
//! benchmark's `events_per_s`, so a hot-path change must leave these
//! counts exactly as they are.
//!
//! Beside them sit the calendar FEL's miss-path counts: the tick groups it
//! opened and its recent-tick cache hits, which together are the pushes
//! that missed its push memo. They are exact work counts of the FEL, the
//! same on every host; a change to the FEL's grouping moves them on
//! purpose, and a change elsewhere that moves them changed the model's
//! event traffic.

use lockgran_core::system::System;
use lockgran_core::{ConflictMode, ModelConfig};
use lockgran_sim::{Executor, FelKind};
use lockgran_workload::{HotSpot, Placement};

/// What a run to the horizon counts.
#[derive(Debug, PartialEq)]
struct Counts {
    /// Events handled.
    events: u64,
    /// Events still pending at the horizon.
    pending: usize,
    /// Tick groups the calendar opened.
    groups: u64,
    /// Recent-tick cache hits.
    hits: u64,
}

/// The counts of one run.
fn counts(cfg: &ModelConfig, seed: u64) -> Counts {
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    let horizon = system.tmax();
    ex.run(&mut system, horizon);
    Counts {
        events: ex.events_processed(),
        pending: ex.pending(),
        groups: ex.groups_opened(),
        hits: ex.recent_hits(),
    }
}

/// `expected` holds `(events, pending, groups, hits)` at seed 42, then
/// at seed 7.
fn assert_counts(label: &str, cfg: &ModelConfig, expected: [(u64, usize, u64, u64); 2]) {
    for (seed, (events, pending, groups, hits)) in [42, 7].into_iter().zip(expected) {
        let want = Counts {
            events,
            pending,
            groups,
            hits,
        };
        assert_eq!(counts(cfg, seed), want, "{label}, seed {seed}");
    }
}

#[test]
fn table1_event_counts() {
    let cfg = ModelConfig::table1().with_tmax(1_000.0);
    assert_counts(
        "table1 ltot=100",
        &cfg,
        [(8_560, 16, 3_640, 2_008), (8_695, 19, 3_997, 1_842)],
    );
}

/// Fig. 10's random-placement corner, where stale completions are about a
/// tenth of all events.
#[test]
fn fig10_corner_event_counts() {
    let cfg = ModelConfig::table1()
        .with_npros(30)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_ltot(1_000)
        .with_tmax(1_000.0);
    assert_counts(
        "fig10 ltot=1000",
        &cfg,
        [
            (342_718, 49, 27_908, 127_928),
            (346_733, 29, 28_485, 128_313),
        ],
    );
}

/// The benchmark's lock-contention shape under both lock-table
/// disciplines.
#[test]
fn lock_contention_event_counts() {
    let base = ModelConfig::table1()
        .with_npros(10)
        .with_ntrans(50)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_hot_spot(Some(HotSpot::eighty_twenty()))
        .with_ltot(100)
        .with_tmax(1_000.0);
    assert_counts(
        "explicit",
        &base.clone().with_conflict(ConflictMode::Explicit),
        [(39_144, 10, 6_716, 2_020), (40_201, 10, 6_831, 2_854)],
    );
    assert_counts(
        "twophase",
        &base.with_conflict(ConflictMode::Twophase),
        [(38_611, 9, 6_679, 3_351), (37_234, 10, 6_591, 3_217)],
    );
}
