//! CLI entry point: `cargo run -p lockgran-lint [-- --root DIR] [--github]`.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use lockgran_lint::{lint_workspace, walk, Diagnostic};

const USAGE: &str = "\
lockgran-lint — lock-protocol, determinism-flow and policy static analysis

USAGE:
    cargo run -p lockgran-lint [-- OPTIONS]

OPTIONS:
    --root <DIR>   Workspace root to scan (default: this workspace)
    --github       Emit diagnostics as GitHub Actions annotations
                   (`::error file=…`) so CI surfaces them inline
    -h, --help     Show this help
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut github = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root requires a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--github" => github = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(default_root);
    let scan = walk::discover(&root).and_then(|files| Ok((files.len(), lint_workspace(&root)?)));
    let (scanned, diags) = match scan {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("lockgran-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &diags {
        if github {
            println!("{}", render_annotation(d));
        } else {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        if !github {
            println!("lockgran-lint: clean ({scanned} files scanned)");
        }
        return ExitCode::SUCCESS;
    }
    let files: std::collections::BTreeSet<&str> = diags.iter().map(|d| d.path.as_str()).collect();
    eprintln!(
        "lockgran-lint: {} violation(s) in {} file(s) ({scanned} files scanned)",
        diags.len(),
        files.len()
    );
    ExitCode::FAILURE
}

/// One GitHub Actions workflow-command annotation.
fn render_annotation(d: &Diagnostic) -> String {
    format!(
        "::error file={},line={},col={},title={}::{}",
        gh_property(&d.path),
        d.line,
        d.col,
        d.rule.code(),
        gh_message(&d.message)
    )
}

/// Escape a workflow-command property value (`%`, CR, LF, `:`, `,`).
fn gh_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escape a workflow-command message (`%`, CR, LF).
fn gh_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// The workspace root when `--root` is not given: two levels above this
/// crate's manifest (compiled in), falling back to the current directory
/// when the binary is run outside the source tree.
fn default_root() -> PathBuf {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match compiled.parent().and_then(|p| p.parent()) {
        Some(ws) if ws.join("Cargo.toml").exists() => ws.to_path_buf(),
        _ => PathBuf::from("."),
    }
}
