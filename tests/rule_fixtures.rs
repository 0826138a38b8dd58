//! The policy that clippy and the source-policy scan enforce, checked
//! against their rule fixtures.
//!
//! Each clippy rule's fixture under `tests/fixtures/` is compiled by
//! `clippy-driver` as a standalone library crate, with the root
//! `clippy.toml` and the library pass's lint flags read from
//! `scripts/verify.sh`. Clippy must flag exactly the lines marked
//! `// VIOLATION`, and every `#[expect]` case must be fulfilled. So
//! dropping a ban from `clippy.toml` or a flag from `verify.sh` fails
//! here, not silently. The D005 and P002 fixtures hold the scanner of
//! `tests/source_policy/` to the same contract.

mod source_policy;

use std::path::{Path, PathBuf};
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn fixture_path(name: &str) -> PathBuf {
    Path::new(ROOT).join("tests/fixtures").join(name)
}

/// The library pass's lint flags: the `library_lints=(…)` array in
/// `scripts/verify.sh`, the one place they are kept.
fn library_lints() -> Vec<String> {
    let script = std::fs::read_to_string(Path::new(ROOT).join("scripts/verify.sh"))
        .expect("read scripts/verify.sh");
    let (_, list) = script
        .split_once("library_lints=(")
        .expect("verify.sh defines library_lints=(…)");
    let (list, _) = list.split_once(')').expect("library_lints is closed");
    list.split_whitespace().map(str::to_string).collect()
}

/// The two workspace clippy passes of `verify.sh`, both under the root
/// `clippy.toml` and `-D warnings`.
#[derive(Clone, Copy, Debug)]
enum Pass {
    /// `--lib --bins` with the library lints: the fixture as a library.
    Library,
    /// `--all-targets`: the fixture as a test crate, no library lints.
    AllTargets,
}

/// Lines (1-based, sorted, deduplicated) that clippy flags in a fixture
/// compiled the way `pass` compiles code.
fn clippy_lines(name: &str, pass: Pass) -> Vec<u32> {
    // The clippy-driver of the toolchain that runs this test.
    let driver = Path::new(env!("CARGO"))
        .with_file_name(format!("clippy-driver{}", std::env::consts::EXE_SUFFIX));
    let path = fixture_path(name);
    let mut cmd = Command::new(&driver);
    cmd.env("CLIPPY_CONF_DIR", ROOT)
        .args(["--edition=2021", "--emit=metadata", "--error-format=short"])
        .arg("--out-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("clippy-{name}-{pass:?}")))
        .args(["-D", "warnings"]);
    match pass {
        Pass::Library => cmd.arg("--crate-type=lib").args(library_lints()),
        Pass::AllTargets => cmd.arg("--test"),
    };
    let out = cmd.arg(&path).output().unwrap_or_else(|e| {
        panic!(
            "run {} (is the clippy component installed?): {e}",
            driver.display()
        )
    });
    let stderr = String::from_utf8_lossy(&out.stderr);
    let prefix = format!("{}:", path.display());
    let mut lines: Vec<u32> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix)?.split(':').next()?.parse().ok())
        .collect();
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(
        out.status.success(),
        lines.is_empty(),
        "clippy-driver on {name}:\n{stderr}"
    );
    lines
}

/// Lines of a fixture marked `// VIOLATION`.
fn violation_lines(name: &str) -> Vec<u32> {
    let src = std::fs::read_to_string(fixture_path(name)).expect("read fixture");
    (1..)
        .zip(src.lines())
        .filter(|(_, l)| l.contains("// VIOLATION"))
        .map(|(n, _)| n)
        .collect()
}

/// The library pass flags exactly the fixture's `// VIOLATION` lines.
fn assert_library_pass_flags_violations(name: &str) {
    let expected = violation_lines(name);
    assert!(!expected.is_empty(), "{name} marks no violation");
    assert_eq!(clippy_lines(name, Pass::Library), expected, "{name}");
}

#[test]
fn d001_hash_containers() {
    assert_library_pass_flags_violations("d001.rs");
}

#[test]
fn d002_wall_clock() {
    assert_library_pass_flags_violations("d002.rs");
}

#[test]
fn d003_float_comparisons() {
    assert_library_pass_flags_violations("d003.rs");
}

#[test]
fn d004_raw_threading() {
    assert_library_pass_flags_violations("d004.rs");
}

#[test]
fn p001_panicking_calls() {
    assert_library_pass_flags_violations("p001.rs");
}

#[test]
fn e001_wildcard_hiding_enum_variants() {
    assert_library_pass_flags_violations("e001.rs");
}

#[test]
fn e001_sees_enums_declared_in_named_enum_blocks() {
    assert_library_pass_flags_violations("e001_named_enum.rs");
}

#[test]
fn allow_attributes_suppression_needs_expect() {
    assert_library_pass_flags_violations("allow_attributes.rs");
}

#[test]
fn test_scope_exempts_panics_but_not_containers() {
    // The all-targets pass compiles test code under clippy.toml's bans
    // but without the library lints.
    assert_eq!(
        clippy_lines("d001.rs", Pass::AllTargets),
        violation_lines("d001.rs")
    );
    assert!(clippy_lines("p001.rs", Pass::AllTargets).is_empty());
}

/// The source-policy scan flags exactly the fixture's `// VIOLATION`
/// lines.
fn assert_scan_flags_violations(name: &str, needles: &[&str]) {
    let expected = violation_lines(name);
    assert!(!expected.is_empty(), "{name} marks no violation");
    let src = std::fs::read_to_string(fixture_path(name)).expect("read fixture");
    assert_eq!(source_policy::flagged(&src, needles), expected, "{name}");
}

#[test]
fn d005_ordered_maps_in_hot_lock_module() {
    assert_scan_flags_violations("d005.rs", &source_policy::ORDERED_MAPS);
}

#[test]
fn p002_front_removal() {
    assert_scan_flags_violations("p002.rs", &source_policy::FRONT_REMOVAL);
}

#[test]
fn p002_exempt_outside_library_scope() {
    // Only library code is read: the same file under tests/, benches/,
    // examples/ or simbench/ is never scanned.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("library-scope");
    let src = std::fs::read_to_string(fixture_path("p002.rs")).expect("read fixture");
    for dir in ["src", "tests", "benches", "examples", "simbench/src"] {
        let dir = root.join("crates/x").join(dir);
        std::fs::create_dir_all(&dir).expect("create scratch crate");
        std::fs::write(dir.join("p002.rs"), &src).expect("write scratch file");
    }
    assert_eq!(
        source_policy::library_files(&root),
        ["crates/x/src/p002.rs"]
    );
}
