//! Integration tests: every rule against its fixture file, asserting
//! span-accurate positive diagnostics, silent negatives, and working
//! `lint:allow` suppressions. The fixtures live under `tests/fixtures/`,
//! which the workspace walker excludes — they are violations on purpose.

use std::path::Path;

use lockgran_lint::{lint_manifest, lint_rust_source_as, Diagnostic, Scope};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Lint a Rust fixture as library code and return `(line, col, code)`
/// triples, in output order.
fn lint_fixture(name: &str) -> Vec<(u32, u32, &'static str)> {
    let src = fixture(name);
    let diags = lint_rust_source_as(name, &src, Scope::Library);
    triples(&diags)
}

/// Lint a fixture under a synthetic workspace-relative path. The L- and
/// R-rules only fire inside specific crates (`crates/core/`, …), so their
/// fixtures must be presented as if they lived there.
fn lint_fixture_at(name: &str, rel: &str) -> Vec<(u32, u32, &'static str)> {
    let src = fixture(name);
    let diags = lint_rust_source_as(rel, &src, Scope::Library);
    triples(&diags)
}

fn triples(diags: &[Diagnostic]) -> Vec<(u32, u32, &'static str)> {
    diags
        .iter()
        .map(|d| (d.line, d.col, d.rule.code()))
        .collect()
}

#[test]
fn d001_hash_containers() {
    assert_eq!(
        lint_fixture("d001.rs"),
        vec![
            (4, 23, "D001"),
            (5, 23, "D001"),
            (9, 16, "D001"),
            (9, 36, "D001"),
            // Flagged even inside #[cfg(test)]: hash iteration order can
            // flake assertions.
            (23, 27, "D001"),
        ]
    );
}

#[test]
fn d002_wall_clock() {
    assert_eq!(
        lint_fixture("d002.rs"),
        vec![(3, 16, "D002"), (6, 19, "D002"), (7, 29, "D002")]
    );
}

#[test]
fn d003_float_comparisons() {
    assert_eq!(
        lint_fixture("d003.rs"),
        vec![
            (4, 15, "D003"),
            (5, 15, "D003"),
            (6, 17, "D003"),
            (7, 15, "D003"),
        ]
    );
}

#[test]
fn d004_raw_threading() {
    assert_eq!(
        lint_fixture("d004.rs"),
        vec![
            (3, 16, "D004"),  // use std::sync::mpsc
            (6, 31, "D004"),  // std::thread::spawn
            (7, 18, "D004"),  // std::thread::scope
            (10, 26, "D004"), // std::thread::Builder
        ]
    );
}

#[test]
fn d005_ordered_maps_in_hot_lock_module() {
    // The lock table and the locking engine that drives it.
    for rel in ["crates/lockmgr/src/table.rs", "crates/core/src/locking.rs"] {
        assert_eq!(
            lint_fixture_at("d005.rs", rel),
            vec![
                (3, 23, "D005"),
                (4, 23, "D005"),
                (7, 14, "D005"),
                (8, 12, "D005"),
                // The allowed occurrence (line 12) is suppressed.
            ],
            "{rel}"
        );
    }
}

#[test]
fn d005_gated_to_hot_lock_modules() {
    // The reference oracle keeps its ordered maps on purpose; the same
    // source there (or in any other crate) is exempt. (Its now-idle
    // allow is reported as stale, which is W001's job, not D005's.)
    for rel in [
        "crates/lockmgr/src/reference.rs",
        "crates/core/src/conflict.rs",
    ] {
        let diags = lint_fixture_at("d005.rs", rel);
        assert!(diags.iter().all(|d| d.2 != "D005"), "{rel}: {diags:?}");
    }
}

#[test]
fn p001_panicking_calls() {
    assert_eq!(
        lint_fixture("p001.rs"),
        vec![(4, 15, "P001"), (5, 15, "P001")]
    );
}

#[test]
fn p002_front_removal() {
    assert_eq!(
        lint_fixture("p002.rs"),
        vec![(7, 12, "P002"), (12, 27, "P002")]
    );
}

#[test]
fn p002_exempt_outside_library_scope() {
    let src = fixture("p002.rs");
    assert!(lint_rust_source_as("p002.rs", &src, Scope::TestCode).is_empty());
    assert!(lint_rust_source_as("p002.rs", &src, Scope::Bench).is_empty());
}

#[test]
fn z001_external_dependencies() {
    let src = fixture("z001_external_dep.toml");
    let diags = lint_manifest("z001_external_dep.toml", &src);
    let lines: Vec<(u32, &str)> = diags.iter().map(|d| (d.line, d.rule.code())).collect();
    assert_eq!(
        lines,
        vec![
            (12, "Z001"), // serde = "1.0"
            (13, "Z001"), // rand = { git = … }
            (18, "Z001"), // criterion = { version = … }
            (20, "Z001"), // [dependencies.libc] without path/workspace
        ],
        "{diags:?}"
    );
    assert!(diags.iter().any(|d| d.message.contains("serde")));
    assert!(diags.iter().any(|d| d.message.contains("libc")));
}

#[test]
fn allow_file_suppresses_one_rule_everywhere() {
    assert_eq!(lint_fixture("allow_file.rs"), vec![(14, 7, "P001")]);
}

#[test]
fn bench_scope_exempts_determinism_rules() {
    let src = fixture("d001.rs");
    let diags = lint_rust_source_as("d001.rs", &src, Scope::Bench);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn test_scope_exempts_panics_but_not_containers() {
    let p = fixture("p001.rs");
    assert!(lint_rust_source_as("p001.rs", &p, Scope::TestCode).is_empty());
    let d = fixture("d001.rs");
    assert!(!lint_rust_source_as("d001.rs", &d, Scope::TestCode).is_empty());
}

#[test]
fn l001_lock_released_after_early_exit() {
    assert_eq!(
        lint_fixture_at("l001.rs", "crates/core/src/l001.rs"),
        vec![(5, 23, "L001"), (7, 9, "L001"), (28, 13, "L001")]
    );
}

#[test]
fn l001_gated_to_lock_crates() {
    // The same source outside crates/core + crates/lockmgr is exempt
    // (the acquire/release vocabulary is only a protocol there).
    let diags = lint_fixture_at("l001.rs", "crates/experiments/src/l001.rs");
    assert!(diags.iter().all(|d| d.2 != "L001"), "{diags:?}");
}

#[test]
fn l001_applies_to_core_locking_engine() {
    // The locking engine lives at crates/core/src/locking.rs; the
    // acquire/release pairing rules must keep gating it.
    assert_eq!(
        lint_fixture_at("l001.rs", "crates/core/src/locking.rs"),
        vec![(5, 23, "L001"), (7, 9, "L001"), (28, 13, "L001")]
    );
}

#[test]
fn l002_applies_to_core_locking_engine() {
    assert_eq!(
        lint_fixture_at("l002.rs", "crates/core/src/locking.rs"),
        vec![(4, 15, "L002"), (5, 7, "L002")]
    );
}

#[test]
fn l002_discarded_acquire_results() {
    assert_eq!(
        lint_fixture_at("l002.rs", "crates/lockmgr/src/l002.rs"),
        vec![(4, 15, "L002"), (5, 7, "L002")]
    );
}

#[test]
fn r001_draw_under_pool_branch() {
    assert_eq!(
        lint_fixture_at("r001.rs", "crates/core/src/r001.rs"),
        vec![(6, 38, "R001")]
    );
}

#[test]
fn r002_shared_stream_draw_under_cc_branch() {
    assert_eq!(
        lint_fixture_at("r002.rs", "crates/core/src/r002.rs"),
        vec![(8, 43, "R002")]
    );
}

#[test]
fn e001_wildcard_hiding_marked_enum_variants() {
    assert_eq!(lint_fixture("e001.rs"), vec![(22, 9, "E001")]);
}

#[test]
fn e001_sees_enums_declared_in_named_enum_blocks() {
    assert_eq!(lint_fixture("e001_named_enum.rs"), vec![(23, 9, "E001")]);
}

#[test]
fn w001_stale_allow_reported_once() {
    assert_eq!(lint_fixture("w001.rs"), vec![(3, 1, "W001")]);
}
