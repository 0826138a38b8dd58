//! Differential property test: the pooled, hash-indexed
//! [`LockTable`] against its executable specification
//! [`ReferenceLockTable`] (`lockmgr::reference`).
//!
//! Seeded random request streams drive both tables in lockstep; after
//! every operation the observable outcome must be identical — grant vs
//! queue, blocker lists, wake lists (contents *and* order), holdings
//! order, counters, probes. Small transaction/granule spaces keep
//! contention high so upgrades, upgrade-jumps-queue, waiting-re-request
//! merges and greedy multi-waiter promotion runs all occur constantly.
//!
//! A transaction that holds and awaits nothing may also take the table's
//! fresh path: its probe must name the blocker `first_conflict` names,
//! and a fresh grant must leave the table where `lock_into` would (every
//! other one is made through it). `check_invariants` recounts every
//! granted group's summary.

use lockgran_lockmgr::{GranuleId, LockMode, LockOutcome, LockTable, ReferenceLockTable, TxnId};
use lockgran_sim::SimRng;

const MODES: [LockMode; 5] = [
    LockMode::IS,
    LockMode::IX,
    LockMode::S,
    LockMode::SIX,
    LockMode::X,
];

/// Steps per phase of a phased mode mix.
const PHASE: usize = 400;

/// A mix heavy in the modes that share a granule, in phases: `IS` with
/// `IX`, then `IS` with `S`, then the exclusive modes. Groups grow long
/// within a phase; at its end the first request of the next phase's
/// modes queues behind them, and the group drains from the middle.
const SHARING_PHASES: [&[LockMode]; 3] = [
    &[LockMode::IS, LockMode::IX, LockMode::IX],
    &[LockMode::IS, LockMode::S, LockMode::S],
    &[LockMode::IS, LockMode::SIX, LockMode::X],
];

/// Number of (seed, stream) repetitions. The quick profile
/// (`QUICK_PROP=1`, set by `verify.sh --quick`) trims the seed count.
fn seeds() -> u64 {
    if std::env::var_os("QUICK_PROP").is_some() {
        4
    } else {
        24
    }
}

/// Drive both tables through `ops` random operations by `txns`
/// transactions on `granules` granules, drawing modes from
/// `phases[step / PHASE % phases.len()]`.
fn drive(seed: u64, txns: u64, granules: u64, ops: usize, phases: &[&[LockMode]]) {
    let mut rng = SimRng::new(seed);
    let mut real = LockTable::new();
    let mut spec = ReferenceLockTable::new();
    let mut blockers = Vec::new();
    let mut woken = Vec::new();
    let mut released = Vec::new();

    for step in 0..ops {
        let txn = TxnId(rng.uniform_inclusive(0, txns - 1));
        let granule = GranuleId(rng.uniform_inclusive(0, granules - 1));
        let modes = phases[step / PHASE % phases.len()];
        let mode = modes[rng.uniform_inclusive(0, modes.len() as u64 - 1) as usize];
        let ctx =
            |what: &str| format!("seed {seed} step {step} {what} ({txn:?} {granule:?} {mode})");

        let fresh = (!real.holds_or_awaits(txn)).then(|| real.probe_fresh(granule, mode));
        if let Some(probe) = fresh {
            assert_eq!(
                probe.err(),
                real.first_conflict(txn, granule, mode),
                "{}",
                ctx("fresh probe and first_conflict disagree")
            );
        }

        match rng.uniform_inclusive(0, 9) {
            // Lock-heavy mix keeps queues deep.
            0..=5 => {
                let granted = match fresh {
                    Some(Ok(at)) if step % 2 == 0 => {
                        real.grant_fresh(txn, granule, mode, at);
                        blockers.clear();
                        true
                    }
                    _ => real.lock_into(txn, granule, mode, &mut blockers),
                };
                let expected = spec.lock(txn, granule, mode);
                match expected {
                    LockOutcome::Granted => {
                        assert!(granted, "{}", ctx("spec granted, real queued"))
                    }
                    LockOutcome::Queued { blockers: want } => {
                        assert!(!granted, "{}", ctx("spec queued, real granted"));
                        assert_eq!(blockers, want, "{}", ctx("blocker list diverged"));
                    }
                }
            }
            6..=7 => {
                real.unlock_into(txn, granule, &mut woken);
                let want = spec.unlock(txn, granule);
                assert_eq!(woken, want, "{}", ctx("unlock wake list diverged"));
            }
            _ => {
                real.release_all_into(txn, &mut released);
                let want = spec.release_all(txn);
                assert_eq!(released, want, "{}", ctx("release_all wake list diverged"));
            }
        }

        // Probes after every op (cheap, and they exercise the read paths
        // at every intermediate state).
        assert_eq!(
            real.held_mode(txn, granule),
            spec.held_mode(txn, granule),
            "{}",
            ctx("held_mode diverged")
        );
        assert_eq!(
            real.would_grant(txn, granule, mode),
            spec.would_grant(txn, granule, mode),
            "{}",
            ctx("would_grant diverged")
        );
        let want = spec.conflicts_with(txn, granule, mode);
        assert_eq!(
            real.conflicts_with(txn, granule, mode),
            want,
            "{}",
            ctx("conflicts_with diverged")
        );
        assert_eq!(
            real.first_conflict(txn, granule, mode),
            want.first().copied(),
            "{}",
            ctx("first_conflict diverged")
        );

        // Full-state audit every 64 steps (holdings of every txn, entry
        // count, counters) plus the production invariant checker.
        if step % 64 == 0 {
            for t in 0..txns {
                let t = TxnId(t);
                let holdings: Vec<GranuleId> = real.holdings(t).collect();
                assert_eq!(
                    holdings,
                    spec.holdings(t),
                    "seed {seed} step {step}: holdings of {t:?} diverged"
                );
            }
            assert_eq!(
                real.active_granules(),
                spec.active_granules(),
                "seed {seed} step {step}"
            );
            assert_eq!(
                real.grant_count(),
                spec.grant_count(),
                "seed {seed} step {step}"
            );
            assert_eq!(
                real.wait_count(),
                spec.wait_count(),
                "seed {seed} step {step}"
            );
            real.check_invariants().unwrap();
        }
    }
}

/// High contention: few granules, many transactions.
#[test]
fn differential_high_contention() {
    for seed in 0..seeds() {
        drive(seed, 8, 4, 2_000, &[&MODES]);
    }
}

/// Medium contention with a wider granule space (more distinct entries,
/// more pool churn and hash growth in the production table).
#[test]
fn differential_wide_granule_space() {
    for seed in 0..seeds() {
        drive(1_000 + seed, 12, 64, 2_000, &[&MODES]);
    }
}

/// Two-transaction duels: maximizes upgrade deadlock-free interleavings
/// (S+S then both upgrade, re-request while waiting, etc.).
#[test]
fn differential_upgrade_duels() {
    for seed in 0..seeds() {
        drive(2_000 + seed, 2, 3, 2_000, &[&MODES]);
    }
}

/// Long granted groups: about a hundred transactions on two granules,
/// mostly in sharing modes, so groups reach dozens of members, lose
/// members from the middle, and go through upgrades.
#[test]
fn differential_long_granted_groups() {
    for seed in 0..seeds() {
        drive(3_000 + seed, 96, 2, 4_000, &SHARING_PHASES);
    }
}
