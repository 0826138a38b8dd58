//! Integration tests: every rule against its fixture file, asserting
//! span-accurate positive diagnostics, silent negatives, and working
//! `lint:allow` suppressions. The fixtures live under `tests/fixtures/`,
//! which the workspace walker skips — they are violations on purpose.
//! The fixtures of the rules clippy enforces are checked by the root
//! package's `tests/rule_fixtures.rs`.

use std::path::Path;

use lockgran_lint::{lint_rust_source, lint_workspace};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Lint a fixture under a synthetic workspace-relative path and return
/// `(line, col, code)` triples, in output order. The crate-gated rules
/// only fire inside specific crates (`crates/core/`, …), so their
/// fixtures must be presented as if they lived there.
fn lint_fixture_at(name: &str, rel: &str) -> Vec<(u32, u32, &'static str)> {
    lint_rust_source(rel, &fixture(name))
        .iter()
        .map(|d| (d.line, d.col, d.rule.code()))
        .collect()
}

fn lint_fixture(name: &str) -> Vec<(u32, u32, &'static str)> {
    lint_fixture_at(name, &format!("crates/x/src/{name}"))
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
fn p002_front_removal() {
    assert_eq!(
        lint_fixture("p002.rs"),
        vec![(7, 12, "P002"), (12, 27, "P002")]
    );
}

#[test]
fn p002_exempt_outside_library_scope() {
    // Only library code is read: the same file under tests/, benches/,
    // examples/ or simbench/ is never linted.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("library-scope");
    let src = fixture("p002.rs");
    for dir in ["src", "tests", "benches", "examples", "simbench/src"] {
        let dir = root.join("crates/x").join(dir);
        std::fs::create_dir_all(&dir).expect("create scratch crate");
        std::fs::write(dir.join("p002.rs"), &src).expect("write scratch file");
    }
    let diags = lint_workspace(&root).expect("lint scratch workspace");
    let paths: Vec<&str> = diags.iter().map(|d| d.path.as_str()).collect();
    assert_eq!(paths, ["crates/x/src/p002.rs"; 2], "{diags:?}");
}

/// L001's findings in `l001.rs`.
const L001_FINDINGS: [(u32, u32, &str); 3] = [(5, 23, "L001"), (7, 9, "L001"), (28, 13, "L001")];

#[test]
fn l001_lock_released_after_early_exit() {
    assert_eq!(
        lint_fixture_at("l001.rs", "crates/core/src/l001.rs"),
        L001_FINDINGS
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
        L001_FINDINGS
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
fn w001_stale_allow_reported_once() {
    assert_eq!(lint_fixture("w001.rs"), vec![(3, 1, "W001")]);
}
