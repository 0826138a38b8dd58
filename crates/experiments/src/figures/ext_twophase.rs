//! Extension I — incremental two-phase locking vs the conservative
//! protocols.
//!
//! Every protocol the paper studies predeclares its full granule set and
//! blocks until all locks are granted at once, so deadlock is impossible
//! by construction (Ries & Stonebraker's setup). Production systems lock
//! incrementally instead: claim each granule as it is touched, accept
//! deadlocks, detect them in the waits-for graph, and abort a victim.
//! This experiment puts the two families side by side under contention —
//! an 80/20 hot spot, a high multiprogramming level, and the usual
//! granularity sweep — where the trade becomes visible: incremental 2PL
//! holds each lock for less of the transaction's lifetime (locks are
//! acquired late, not at admission), but pays for it in deadlock aborts
//! and replayed work as the granularity coarsens and cycles get likely.
//!
//! Four panels: throughput and 95th-percentile response for the headline
//! comparison, deadlock and abort counts for the price the incremental
//! protocol pays (both are identically zero for the conservative
//! protocols — each broken cycle aborts exactly one victim, so the two
//! panels coincide for twophase unless a failure extension also runs).

use lockgran_core::{ConflictMode, ModelConfig};
use lockgran_workload::{HotSpot, Placement};

use super::{figure, sweep_family};
use crate::metric::Metric;
use crate::series::Figure;
use crate::sweep::RunOptions;

/// Run extension experiment I.
pub fn run(opts: &RunOptions) -> Figure {
    // Contention-heavy regime: random placement, small transactions, an
    // 80/20 hot spot and 5× the paper's multiprogramming level. The
    // granularity sweep still covers ltot = 1 … dbsize; the interesting
    // region is the small-ltot end where the hot set is a handful of
    // coarse locks.
    let base = ModelConfig::table1()
        .with_npros(10)
        .with_ntrans(50)
        .with_maxtransize(50)
        .with_placement(Placement::Random)
        .with_hot_spot(Some(HotSpot::eighty_twenty()));
    let configs = vec![
        (
            "explicit (conservative)".to_string(),
            base.clone().with_conflict(ConflictMode::Explicit),
        ),
        (
            "twophase (incremental)".to_string(),
            base.with_conflict(ConflictMode::Twophase),
        ),
    ];
    let swept = sweep_family(configs, opts);
    figure(
        "extI",
        "Extension: incremental 2PL (deadlock detection, youngest-victim abort) vs conservative predeclaration (hot 80/20, ntrans = 50, npros = 10)",
        &swept,
        &[
            Metric::Throughput,
            Metric::ResponseP95,
            Metric::Deadlocks,
            Metric::Aborts,
        ],
        vec![
            "Conservative predeclaration cannot deadlock; its deadlock/abort panels are identically zero.".to_string(),
            "Incremental 2PL acquires locks one at a time; waits-for cycles abort the youngest victim, which replays without losing its admission slot.".to_string(),
            "Expected: deadlocks concentrate at coarse granularity where the hot set collapses onto a few locks.".to_string(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::figures::quick;

    #[test]
    fn conservative_protocol_never_deadlocks() {
        let f = quick("extI");
        for panel in ["deadlocks", "aborts"] {
            let s = f
                .panel(panel)
                .unwrap()
                .series("explicit (conservative)")
                .unwrap();
            assert!(
                s.points.iter().all(|p| p.mean == 0.0),
                "conservative {panel} nonzero"
            );
        }
    }

    #[test]
    fn twophase_aborts_are_exactly_its_deadlock_victims() {
        // No failure extension runs here, so every abort is a deadlock
        // victim and every broken cycle aborts exactly one victim: the
        // two panels must coincide point for point.
        let f = quick("extI");
        let dl = f
            .panel("deadlocks")
            .unwrap()
            .series("twophase (incremental)")
            .unwrap()
            .clone();
        let ab = f
            .panel("aborts")
            .unwrap()
            .series("twophase (incremental)")
            .unwrap()
            .clone();
        for (d, a) in dl.points.iter().zip(ab.points.iter()) {
            assert_eq!(d.mean, a.mean, "ltot={}", d.x);
        }
    }

    #[test]
    fn contention_produces_deadlocks_at_coarse_granularity() {
        let f = quick("extI");
        let dl = f
            .panel("deadlocks")
            .unwrap()
            .series("twophase (incremental)")
            .unwrap();
        assert!(
            dl.points.iter().any(|p| p.mean > 0.0),
            "no deadlocks anywhere in the sweep — the regime is not contended enough"
        );
        // A single database lock cannot form a cycle: transactions hold
        // at most one lock, and a cycle needs two holders each waiting
        // for the other.
        assert_eq!(dl.at(1.0).unwrap(), 0.0, "deadlock with ltot = 1");
    }

    #[test]
    fn both_protocols_complete_work_everywhere() {
        let f = quick("extI");
        for s in &f.panel("throughput").unwrap().series {
            assert!(
                s.points.iter().all(|p| p.mean > 0.0),
                "{}: zero throughput somewhere",
                s.label
            );
        }
    }
}
