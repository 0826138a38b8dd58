//! Workspace file discovery.
//!
//! Walks the workspace root for library `.rs` sources, skipping build
//! output (`target/`), VCS metadata, test code (`tests/`, `benches/` and
//! `examples/` directories, which also hold the linter's own rule
//! fixtures) and `simbench/`, a separate workspace that clippy checks in
//! its own passes. Files are returned sorted by path so diagnostics come
//! out in a stable order regardless of the host filesystem's directory
//! iteration order — the linter holds itself to the determinism bar it
//! enforces.

use std::fs;
use std::path::{Path, PathBuf};

/// A discovered source file with its workspace-relative display path.
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
}

/// Directories that hold no library code.
const SKIPPED_DIRS: [&str; 5] = ["target", "tests", "benches", "examples", "simbench"];

/// Recursively collect the library `.rs` files under `root`.
pub fn discover(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    walk_dir(root, root, &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIPPED_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile { abs: path, rel });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_this_crate_sorted() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = discover(root).expect("walk own crate");
        let rels: Vec<&str> = files.iter().map(|f| f.rel.as_str()).collect();
        assert!(rels.contains(&"src/walk.rs"));
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "discovery order must be path-sorted");
        assert!(
            !rels.iter().any(|r| r.starts_with("tests/")),
            "test files and fixtures must be excluded"
        );
    }
}
