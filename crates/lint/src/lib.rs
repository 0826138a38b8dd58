//! `lockgran-lint` — lock-protocol, determinism-flow and policy static
//! analysis for the lockgran workspace.
//!
//! The paper reproduction stands on bit-for-bit reproducibility: the
//! Table 1 golden snapshot and the determinism tests only mean something
//! if nothing in the simulator can produce run-to-run variation. Clippy
//! enforces most of that policy (see DESIGN.md §7: the root `clippy.toml`
//! bans hash containers, wall clocks and raw threads, and the library pass
//! in `scripts/verify.sh` bans panics, exact float compares and wildcard
//! arms over enums). This crate checks the rest — what clippy cannot
//! express — with its own [Rust lexer](lexer) and
//! [recursive-descent parser](parse), in keeping with the workspace's
//! zero-dependency policy.
//!
//! # Architecture
//!
//! The analyzer runs in layers:
//!
//! 1. [`lexer`] — token stream with exact line/column spans; comments are
//!    scanned for suppression directives.
//! 2. [`parse`] — a resolved AST: the item tree (fns, impls, mods),
//!    function bodies as a control-flow tree, and call / exit / binding
//!    events extracted from the opaque statement runs.
//! 3. [`symbols`] — a conservative may-release closure over the
//!    workspace's name-keyed call graph.
//! 4. Rules — token rules ([`rules`]) plus the AST-level families: lock
//!    protocol ([`flow`] L-rules) and determinism dataflow ([`flow`]
//!    R-rules).
//!
//! # Rule catalog
//!
//! | Code | Checks for | Scope |
//! |------|------------|-------|
//! | D005 | `BTreeMap`/`BTreeSet` on the lock-manager hot path (use `DetMap`) | locking-engine hot modules |
//! | P002 | `.remove(0)` front-shift (use `VecDeque::pop_front`) | library code |
//! | L001 | `return`/`?` escaping between a lock acquire and its release | `core`, `lockmgr` library |
//! | L002 | acquire-family call whose result is discarded | `core`, `lockmgr` library |
//! | R001 | RNG draw under a branch depending on pool/job config | `core`, `workload` library |
//! | R002 | shared-stream RNG draw under a CC-dependent branch | `core`, `workload` library |
//! | W001 | stale `lint:allow` that no longer suppresses anything | library code |
//!
//! Only library code is read: the walker skips `tests/`, `benches/` and
//! `examples/` directories and `simbench/`, and the rules skip
//! `#[cfg(test)]` / `#[test]` regions. A finding is suppressed in place
//! with a `// lint:allow(RULE): reason` comment (see [`allow`]).

#![warn(missing_docs)]

pub mod allow;
pub mod context;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod walk;

use std::fmt;
use std::path::Path;

use allow::AllowSet;
use lexer::Token;
use parse::Item;
use symbols::SymbolTable;

/// A rule code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Ordered maps on the lock-manager hot path (use `DetMap`).
    D005,
    /// O(n) front-removal from a `Vec` in library code.
    P002,
    /// Early exit between a lock acquire and its release.
    L001,
    /// Discarded result of a lock acquisition.
    L002,
    /// RNG draw under a pool/job-configuration-dependent branch.
    R001,
    /// Shared-stream RNG draw under a CC-model-dependent branch.
    R002,
    /// Stale `lint:allow` directive that suppresses nothing.
    W001,
}

impl Rule {
    /// The stable diagnostic code, as used in `lint:allow(...)`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::D005 => "D005",
            Rule::P002 => "P002",
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::R001 => "R001",
            Rule::R002 => "R002",
            Rule::W001 => "W001",
        }
    }

    /// Every rule in the catalog.
    pub const ALL: [Rule; 7] = [
        Rule::D005,
        Rule::P002,
        Rule::L001,
        Rule::L002,
        Rule::R001,
        Rule::R002,
        Rule::W001,
    ];
}

/// One finding, with a 1-based source position.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path (display form, `/`-separated).
    pub path: String,
    /// 1-based line of the flagged token.
    pub line: u32,
    /// 1-based column (in characters) of the flagged token.
    pub col: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation, including the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path,
            self.line,
            self.col,
            self.rule.code(),
            self.message
        )
    }
}

/// One fully analyzed Rust source file: the input to every rule layer.
pub struct FileAnalysis {
    /// Workspace-relative path (display form).
    pub rel: String,
    /// The source text.
    pub src: String,
    /// The token stream (with test regions marked).
    pub tokens: Vec<Token>,
    /// The parsed item tree.
    pub items: Vec<Item>,
    /// Suppression directives, widened to the code they cover.
    pub allows: AllowSet,
}

/// Lex, test-mark, and parse one file.
pub fn analyze_rust_source(rel: &str, src: &str) -> FileAnalysis {
    let mut lexed = lexer::lex(src);
    context::mark_test_regions(&mut lexed.tokens, src);
    let mut allows = AllowSet::new(lexed.allows);
    allows.extend_to_code(&allow::code_token_lines(&lexed.tokens, src));
    FileAnalysis {
        rel: rel.to_string(),
        src: src.to_string(),
        items: parse::parse(&lexed.tokens, src),
        tokens: lexed.tokens,
        allows,
    }
}

/// Append a diagnostic unless a `lint:allow` suppresses it.
pub(crate) fn emit(
    fa: &FileAnalysis,
    out: &mut Vec<Diagnostic>,
    rule: Rule,
    line: u32,
    col: u32,
    message: String,
) {
    if fa.allows.suppresses(rule.code(), line) {
        return;
    }
    out.push(Diagnostic {
        path: fa.rel.clone(),
        line,
        col,
        rule,
        message,
    });
}

/// Run every rule over one analyzed file.
fn check_file(fa: &FileAnalysis, table: &SymbolTable, out: &mut Vec<Diagnostic>) {
    rules::check_tokens(fa, out);
    flow::check_lock_protocol(fa, table, out);
    flow::check_determinism_flow(fa, out);
    stale_allows(fa, out);
}

/// W001: report directives that suppressed nothing. Runs after every
/// other rule.
fn stale_allows(fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let unused: Vec<(u32, Vec<String>)> = fa
        .allows
        .directives()
        .iter()
        .filter(|d| !d.used.get())
        .map(|d| (d.line, d.rules.clone()))
        .collect();
    for (line, rules) in unused {
        // A directive naming W001 vouches for itself (and marks itself
        // used through this very check).
        if fa.allows.suppresses(Rule::W001.code(), line) {
            continue;
        }
        out.push(Diagnostic {
            path: fa.rel.clone(),
            line,
            col: 1,
            rule: Rule::W001,
            message: format!(
                "stale `lint:allow({})` — it no longer suppresses anything; \
                 remove it, or fix its rule list if the finding moved",
                rules.join(", ")
            ),
        });
    }
}

/// Lint one Rust source file as library code. `rel` is the
/// workspace-relative path the crate-gated rules match on. The symbol
/// table is built from this file alone, so cross-file call-graph facts
/// are limited to what the file itself defines.
pub fn lint_rust_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let fa = analyze_rust_source(rel, src);
    let mut table = SymbolTable::default();
    table.add_file(&fa.items);
    table.finalize();
    let mut out = Vec::new();
    check_file(&fa, &table, &mut out);
    out
}

/// Lint every library source file under `root`. Runs in two passes: the
/// first analyzes every file and folds it into the workspace symbol
/// table, the second runs the rules with the complete table in hand.
/// Diagnostics come back sorted by (path, line, col, rule).
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut analyses: Vec<FileAnalysis> = Vec::new();
    let mut table = SymbolTable::default();
    for file in walk::discover(root)? {
        let src = std::fs::read_to_string(&file.abs)
            .map_err(|e| format!("read {}: {e}", file.abs.display()))?;
        let fa = analyze_rust_source(&file.rel, &src);
        table.add_file(&fa.items);
        analyses.push(fa);
    }
    table.finalize();
    let mut out = Vec::new();
    for fa in &analyses {
        check_file(fa, &table, &mut out);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            ["D005", "P002", "L001", "L002", "R001", "R002", "W001"]
        );
        // `ALL` is a hand-written mirror of the enum (this crate cannot use
        // the workspace's `named_enum!`). The match is exhaustive, so a new
        // variant does not compile until it gets a slot here, and a slot
        // that `ALL` does not hold fails the count below.
        let slot = |rule: Rule| match rule {
            Rule::D005 => 0,
            Rule::P002 => 1,
            Rule::L001 => 2,
            Rule::L002 => 3,
            Rule::R001 => 4,
            Rule::R002 => 5,
            Rule::W001 => 6,
        };
        const SLOTS: usize = 7;
        assert_eq!(Rule::ALL.len(), SLOTS, "`ALL` misses a variant");
        for (i, rule) in Rule::ALL.into_iter().enumerate() {
            assert_eq!(slot(rule), i, "{rule:?} is out of place in `ALL`");
        }
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            path: "crates/sim/src/engine.rs".into(),
            line: 42,
            col: 7,
            rule: Rule::P002,
            message: "msg".into(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/engine.rs:42:7: P002: msg");
    }

    #[test]
    fn stale_allow_is_reported_in_library_scope_only() {
        let src = "// lint:allow(P002): nothing here triggers P002\nfn f() {}\n";
        let diags = lint_rust_source("crates/sim/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.code(), "W001");
        assert_eq!(diags[0].line, 1);
        // Test, bench and example files are never read (see `walk`), so
        // their allows cannot be reported.
    }

    #[test]
    fn used_allow_is_not_stale() {
        let src = "fn f(v: &mut Vec<u8>) -> u8 {\n    // lint:allow(P002): two elements at most\n    v.remove(0)\n}\n";
        assert!(lint_rust_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn stale_allow_can_vouch_for_itself() {
        let src = "// lint:allow(P002, W001): kept while the refactor lands\nfn f() {}\n";
        assert!(lint_rust_source("crates/sim/src/x.rs", src).is_empty());
    }
}
