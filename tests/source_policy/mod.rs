//! The source-policy scanner: a plain text scan for what rustc and
//! clippy cannot express (DESIGN.md §7). `tests/self_check.rs` runs it
//! over the workspace, `tests/rule_fixtures.rs` over its fixtures.

use std::path::{Path, PathBuf};

/// D005: ordered maps and sets.
pub const ORDERED_MAPS: [&str; 2] = ["BTreeMap", "BTreeSet"];
/// P002: a front shift of a `Vec`.
pub const FRONT_REMOVAL: [&str; 1] = [".remove(0)"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The library source files of the workspace at `root`, root-relative
/// and sorted: `src/` and each `crates/*/src/`.
pub fn library_files(root: &Path) -> Vec<String> {
    let mut dirs = vec![root.join("src")];
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(krate.expect("crate entry").path().join("src"));
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        rust_files(dir, &mut files);
    }
    let mut rel: Vec<String> = files
        .iter()
        .map(|f| {
            let rel = f.strip_prefix(root).expect("file under the root");
            rel.to_string_lossy().into_owned()
        })
        .collect();
    rel.sort();
    rel
}

/// The 1-based lines of `src` whose code names any of `needles`. Code is
/// what comes before the file's `#[cfg(test)]` line (each library
/// file's test module is its last item), less any text after `//`.
pub fn flagged(src: &str, needles: &[&str]) -> Vec<u32> {
    (1..)
        .zip(src.lines())
        .take_while(|(_, line)| line.trim() != "#[cfg(test)]")
        .filter(|(_, line)| {
            let code = line.split_once("//").map_or(*line, |(code, _)| code);
            needles.iter().any(|n| code.contains(n))
        })
        .map(|(n, _)| n)
        .collect()
}
