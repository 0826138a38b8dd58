//! The workspace must be lint-clean and free of external dependencies.
//! The lint check is the one `scripts/verify.sh` runs via
//! `cargo run -p lockgran-lint`, kept as a test so `cargo test` alone also
//! catches policy regressions.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lockgran_lint::Rule;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels below the workspace root")
        .to_path_buf()
}

/// Rule codes in the first column of the markdown table rows of `text`
/// (after stripping `prefix` from each line).
fn table_codes(text: &str, prefix: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix(prefix)?.strip_prefix("| "))
        .filter_map(|row| row.split(" |").next())
        .filter(|c| c.len() == 4 && c.as_bytes()[1..].iter().all(u8::is_ascii_digit))
        .map(str::to_string)
        .collect()
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    let diags = lockgran_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        diags.is_empty(),
        "workspace has lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_scan_covers_all_crates() {
    let root = workspace_root();
    let files = lockgran_lint::walk::discover(&root).expect("walk workspace");
    for krate in [
        "sim",
        "core",
        "lockmgr",
        "workload",
        "experiments",
        "bench",
        "lint",
    ] {
        assert!(
            files
                .iter()
                .any(|f| f.rel.starts_with(&format!("crates/{krate}/src/"))),
            "scan missed crates/{krate}"
        );
    }
    assert!(
        files.iter().any(|f| f.rel == "src/lib.rs"),
        "scan missed the root package"
    );
    for skipped in ["tests/", "benches/", "simbench/"] {
        assert!(
            !files.iter().any(|f| f.rel.contains(skipped)),
            "{skipped} must not be scanned"
        );
    }
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
    let root = workspace_root();
    for lock in ["Cargo.lock", "simbench/Cargo.lock"] {
        let text = std::fs::read_to_string(root.join(lock)).expect("read lock file");
        assert_eq!(external_packages(&text), Vec::<String>::new(), "{lock}");
    }
}

#[test]
fn z001_external_dependencies() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/z001_external_dep.lock");
    let lock = std::fs::read_to_string(path).expect("read fixture");
    assert_eq!(
        external_packages(&lock),
        [
            "serde (registry+https://github.com/rust-lang/crates.io-index)",
            "rand (git+https://example.invalid/rand.git#0123456789abcdef0123456789abcdef01234567)",
        ]
    );
}

/// The three catalogs of rule codes — DESIGN.md §7's table, the crate
/// docs' table and `Rule::ALL` — name the same rules.
#[test]
fn rule_catalogs_agree() {
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let start = design
        .find("### Rule catalog")
        .expect("DESIGN.md §7 catalog");
    let section = &design[start..];
    let end = section[3..].find("\n#").map_or(section.len(), |i| i + 3);
    let design_codes = table_codes(&section[..end], "");
    let lib = std::fs::read_to_string(root.join("crates/lint/src/lib.rs")).expect("read lib.rs");
    let lib_codes = table_codes(&lib, "//! ");
    let all: BTreeSet<String> = Rule::ALL.iter().map(|r| r.code().to_string()).collect();
    assert_eq!(design_codes, all, "DESIGN.md §7 catalog vs Rule::ALL");
    assert_eq!(lib_codes, all, "lib.rs doc catalog vs Rule::ALL");
}
