//! The workspace checked against the source policy that rustc and
//! clippy cannot express (DESIGN.md §7), with the scanner of
//! `tests/source_policy/`:
//!
//! - **D005:** no `BTreeMap` or `BTreeSet` in the lock stack's hot
//!   modules. A per-request lookup there would cost O(log n); their
//!   per-transaction state is indexed by slot and their granule index
//!   is a `DetMap`.
//! - **P002:** no `.remove(0)` in library code. It shifts the whole
//!   `Vec`; a FIFO is a `VecDeque`.
//! - **Z001:** no lock file names a package from outside the tree (the
//!   zero-dependency policy, DESIGN.md §5).
//!
//! `tests/rule_fixtures.rs` runs the same scanner over
//! `tests/fixtures/{d005,p002}.rs`, which must flag exactly their
//! `// VIOLATION` lines, so a scan that silently matches nothing fails.

mod source_policy;

use std::path::Path;

use source_policy::{flagged, library_files, FRONT_REMOVAL, ORDERED_MAPS};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The locking engine and the lock-manager modules it drives per
/// request.
const HOT_LOCK_MODULES: [&str; 6] = [
    "crates/core/src/locking.rs",
    "crates/lockmgr/src/table.rs",
    "crates/lockmgr/src/deadlock.rs",
    "crates/lockmgr/src/conservative.rs",
    "crates/lockmgr/src/twophase.rs",
    "crates/lockmgr/src/hierarchy.rs",
];

/// The one library file that may remove from the front: the reference
/// oracle is literal FIFO on purpose, and its queues are a handful deep.
const FRONT_REMOVAL_EXEMPT: &str = "crates/lockmgr/src/reference.rs";

fn read(rel: &str) -> String {
    std::fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Each of `files` with the lines `needles` flag in it, files with none
/// left out.
fn findings(files: &[&str], needles: &[&str]) -> Vec<(String, Vec<u32>)> {
    files
        .iter()
        .map(|f| (f.to_string(), flagged(&read(f), needles)))
        .filter(|(_, lines)| !lines.is_empty())
        .collect()
}

#[test]
fn workspace_scan_covers_all_crates() {
    let files = library_files(Path::new(ROOT));
    assert!(files.len() > 60, "scanned only {} files", files.len());
    for krate in ["sim", "core", "lockmgr", "workload", "experiments", "bench"] {
        assert!(
            files
                .iter()
                .any(|f| f.starts_with(&format!("crates/{krate}/src/"))),
            "scan missed crates/{krate}"
        );
    }
    assert!(
        files.iter().any(|f| f == "src/lib.rs"),
        "scan missed the root package"
    );
    for module in HOT_LOCK_MODULES.iter().chain([&FRONT_REMOVAL_EXEMPT]) {
        assert!(files.iter().any(|f| f == module), "{module} is missing");
    }
    for skipped in ["tests/", "benches/", "simbench/"] {
        assert!(
            !files.iter().any(|f| f.contains(skipped)),
            "{skipped} must not be scanned"
        );
    }
}

/// D005: the hot lock modules use no ordered map or set.
#[test]
fn hot_lock_modules_use_no_ordered_maps() {
    assert_eq!(
        findings(&HOT_LOCK_MODULES, &ORDERED_MAPS),
        Vec::<(String, Vec<u32>)>::new()
    );
}

/// P002: library code never removes the front of a `Vec`.
#[test]
fn library_code_never_removes_from_the_front() {
    let files = library_files(Path::new(ROOT));
    let scanned: Vec<&str> = files
        .iter()
        .map(String::as_str)
        .filter(|&f| f != FRONT_REMOVAL_EXEMPT)
        .collect();
    assert_eq!(
        findings(&scanned, &FRONT_REMOVAL),
        Vec::<(String, Vec<u32>)>::new()
    );
}

/// Every package of a `Cargo.lock` that comes from outside the tree, as
/// `name (source)`. Path and workspace packages have no `source` line;
/// registry (`registry+…`) and git (`git+…`) packages do.
fn external_packages(lock: &str) -> Vec<String> {
    let mut name = "";
    let mut out = Vec::new();
    for line in lock.lines() {
        if let Some(n) = line.strip_prefix("name = ") {
            name = n.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            out.push(format!("{name} ({})", source.trim_matches('"')));
        }
    }
    out
}

/// Z001: the zero-dependency policy, checked on what cargo resolved.
#[test]
fn lock_files_name_no_external_package() {
    for lock in ["Cargo.lock", "simbench/Cargo.lock"] {
        assert_eq!(
            external_packages(&read(lock)),
            Vec::<String>::new(),
            "{lock}"
        );
    }
}

#[test]
fn z001_external_dependencies() {
    assert_eq!(
        external_packages(&read("tests/fixtures/z001_external_dep.lock")),
        [
            "serde (registry+https://github.com/rust-lang/crates.io-index)",
            "rand (git+https://example.invalid/rand.git#0123456789abcdef0123456789abcdef01234567)",
        ]
    );
}
