//! Every spelling a config enum accepted before its declaration moved into
//! `named_enum!`: JSON wire names, matched case-sensitively, and CLI
//! names and aliases, matched in any ASCII case.

use std::fmt::Debug;
use std::str::FromStr;

use lockgran::lockmgr::mode::LockMode;
use lockgran::prelude::*;
use lockgran::sim::{FromJson, Json, ToJson};

/// `wire` lists each variant's JSON string, `cli` every CLI spelling with
/// the variant it must parse to.
fn check<T>(wire: &[(&str, T)], cli: &[(&str, T)])
where
    T: Copy + Debug + PartialEq + FromJson + ToJson + FromStr,
{
    for &(name, variant) in wire {
        assert_eq!(variant.to_json(), Json::Str(name.into()));
        assert_eq!(T::from_json(&Json::Str(name.into())), Ok(variant));
        for other_case in [name.to_ascii_lowercase(), name.to_ascii_uppercase()] {
            if other_case != name {
                assert!(
                    T::from_json(&Json::Str(other_case.clone())).is_err(),
                    "wire name {other_case:?} must not match {name:?}"
                );
            }
        }
    }
    for &(name, variant) in cli {
        let mixed: String = name
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        for spelling in [name.to_string(), name.to_ascii_uppercase(), mixed] {
            assert!(
                spelling.parse::<T>().ok() == Some(variant),
                "{spelling:?} must parse to {variant:?}"
            );
        }
    }
    assert!("bogus".parse::<T>().is_err());
}

#[test]
fn conflict_modes() {
    use ConflictMode::*;
    check(
        &[
            ("Probabilistic", Probabilistic),
            ("Explicit", Explicit),
            ("Hierarchical", Hierarchical),
            ("Twophase", Twophase),
        ],
        &[
            ("probabilistic", Probabilistic),
            ("prob", Probabilistic),
            ("explicit", Explicit),
            ("table", Explicit),
            ("hierarchical", Hierarchical),
            ("hier", Hierarchical),
            ("twophase", Twophase),
            ("2pl", Twophase),
        ],
    );
}

#[test]
fn placements_keep_the_papers_order() {
    use Placement::*;
    assert_eq!(Placement::ALL, [Best, Random, Worst]);
    check(
        &[("Best", Best), ("Random", Random), ("Worst", Worst)],
        &[("best", Best), ("random", Random), ("worst", Worst)],
    );
}

#[test]
fn partitionings() {
    use Partitioning::*;
    check(
        &[("Horizontal", Horizontal), ("Random", Random)],
        &[("horizontal", Horizontal), ("random", Random)],
    );
}

#[test]
fn lock_distributions() {
    use LockDistribution::*;
    check(
        &[
            ("PerOperation", PerOperation),
            ("EvenSplit", EvenSplit),
            ("SingleProcessor", SingleProcessor),
        ],
        &[
            ("per-op", PerOperation),
            ("perop", PerOperation),
            ("per-operation", PerOperation),
            ("even-split", EvenSplit),
            ("even", EvenSplit),
            ("single", SingleProcessor),
            ("single-processor", SingleProcessor),
        ],
    );
}

#[test]
fn service_variabilities_and_disciplines() {
    use QueueDiscipline::*;
    use ServiceVariability::*;
    check(
        &[
            ("Deterministic", Deterministic),
            ("Exponential", Exponential),
        ],
        &[
            ("deterministic", Deterministic),
            ("det", Deterministic),
            ("exponential", Exponential),
            ("exp", Exponential),
        ],
    );
    check(
        &[("Fcfs", Fcfs), ("Sjf", Sjf)],
        &[("fcfs", Fcfs), ("sjf", Sjf)],
    );
}

#[test]
fn metrics() {
    use Metric::*;
    let all = [
        ("Throughput", "throughput", Throughput),
        ("ResponseTime", "response_time", ResponseTime),
        ("ResponseP95", "response_p95", ResponseP95),
        ("UsefulCpu", "useful_cpu", UsefulCpu),
        ("UsefulIo", "useful_io", UsefulIo),
        ("LockOverhead", "lock_overhead", LockOverhead),
        ("LockCpu", "lock_cpu", LockCpu),
        ("LockIo", "lock_io", LockIo),
        ("DenialRate", "denial_rate", DenialRate),
        ("MeanActive", "mean_active", MeanActive),
        ("CpuUtilization", "cpu_utilization", CpuUtilization),
        ("IoUtilization", "io_utilization", IoUtilization),
        ("Aborts", "aborts", Aborts),
        ("Deadlocks", "deadlocks", Deadlocks),
        ("Escalations", "escalations", Escalations),
        ("IntentLocks", "intent_locks", IntentLocks),
    ];
    assert_eq!(Metric::ALL.len(), all.len());
    let wire: Vec<_> = all.iter().map(|&(w, _, m)| (w, m)).collect();
    let cli: Vec<_> = all.iter().map(|&(_, c, m)| (c, m)).collect();
    check(&wire, &cli);
}

#[test]
fn lock_modes() {
    use LockMode::*;
    let all = [("IS", IS), ("IX", IX), ("S", S), ("SIX", SIX), ("X", X)];
    check(&all, &all);
}
