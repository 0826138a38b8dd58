//! `lockgran-lint` — determinism & policy static analysis for the
//! lockgran workspace.
//!
//! The paper reproduction stands on bit-for-bit reproducibility: the
//! Table 1 golden snapshot and the determinism tests only mean something
//! if nothing in the simulator can produce run-to-run variation. This
//! crate machine-checks the conventions that guard that property, using
//! its own [Rust lexer](lexer) and [recursive-descent parser](parse) —
//! no external parser, in keeping with the workspace's zero-dependency
//! policy (which rule Z001 itself enforces).
//!
//! # Architecture
//!
//! The analyzer runs in layers:
//!
//! 1. [`lexer`] — token stream with exact line/column spans; comments are
//!    scanned for suppression directives and markers.
//! 2. [`parse`] — a resolved AST: the item tree (fns, impls, enums,
//!    mods), function bodies as a control-flow tree, and call / exit /
//!    binding events extracted from the opaque statement runs.
//! 3. [`symbols`] — a per-workspace symbol table: enum variant lists,
//!    `lint:exhaustive` marks, and a conservative may-release closure
//!    over the name-keyed call graph.
//! 4. Rules — token rules ([`rules`], [`manifest`]) plus the AST-level
//!    families: lock protocol ([`flow`] L-rules), determinism dataflow
//!    ([`flow`] R-rules), and wildcard exhaustiveness ([`enums`] E001).
//!
//! # Rule catalog
//!
//! | Code | Checks for | Scope |
//! |------|------------|-------|
//! | D001 | `HashMap`/`HashSet` (iteration-order nondeterminism) | all but `crates/bench` |
//! | D002 | `std::time::{Instant, SystemTime}` (wall-clock reads) | all but `crates/bench` |
//! | D003 | `==`/`!=` against a float literal | library code |
//! | D004 | raw `thread::spawn` / `mpsc` outside the worker pool | all but `crates/sim/src/pool.rs` |
//! | D005 | `BTreeMap`/`BTreeSet` on the lock-manager hot path (use `DetMap`) | locking-engine hot modules |
//! | P001 | `.unwrap()` / `.expect("…")` panics | library code |
//! | P002 | `.remove(0)` front-shift (use `VecDeque::pop_front`) | library code |
//! | Z001 | non-local dependency in a `Cargo.toml` | all manifests |
//! | L001 | `return`/`?` escaping between a lock acquire and its release | `core`, `lockmgr` library |
//! | L002 | acquire-family call whose result is discarded | `core`, `lockmgr` library |
//! | R001 | RNG draw under a branch depending on pool/job config | `core`, `workload` library |
//! | R002 | shared-stream RNG draw under a CC-dependent branch | `core`, `workload` library |
//! | E001 | `_` arm hiding variants of a `lint:exhaustive` enum | library code |
//! | W001 | stale `lint:allow` that no longer suppresses anything | library code |
//!
//! "Library code" excludes `tests/`, `benches/`, `examples/` directories
//! and `#[cfg(test)]` / `#[test]` regions, where panics and exact float
//! asserts are idiomatic.
//!
//! # Suppressions
//!
//! ```text
//! // lint:allow(P001): poisoning is unrecoverable for a lock table
//! ```
//!
//! suppresses the named rule(s) on the comment's line and through the
//! next line holding code (so a justification may wrap over several
//! comment lines); `// lint:allow-file(RULE): reason` suppresses for the
//! whole file. The `: reason` tail is not parsed but is the convention —
//! an allow without a justification should not survive review. A
//! directive that suppresses nothing is itself flagged (W001), so allows
//! cannot outlive the code they vouched for. Doc comments (`///`, `//!`)
//! never register directives — examples in documentation stay examples.
//!
//! One marker directive feeds E001: `lint:exhaustive(Enum)` (see
//! [`allow`]). Config enums and structs need no drift rules: the
//! `named_enum!` and `json_struct!` macros of `lockgran_sim::json`
//! generate their name, parse and JSON mirrors from one declaration.

#![warn(missing_docs)]

pub mod allow;
pub mod context;
pub mod enums;
pub mod flow;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod walk;

use std::fmt;
use std::path::Path;

use allow::{AllowSet, Marker};
use lexer::Token;
use parse::Ast;
use symbols::SymbolTable;

/// A rule code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Hash containers with nondeterministic iteration order.
    D001,
    /// Wall-clock reads in simulation code.
    D002,
    /// Exact float comparison against a literal.
    D003,
    /// Raw threading primitives outside the deterministic worker pool.
    D004,
    /// Ordered maps on the lock-manager hot path (use `DetMap`).
    D005,
    /// Panicking calls in library code.
    P001,
    /// O(n) front-removal from a `Vec` in library code.
    P002,
    /// External dependency in a manifest.
    Z001,
    /// Early exit between a lock acquire and its release.
    L001,
    /// Discarded result of a lock acquisition.
    L002,
    /// RNG draw under a pool/job-configuration-dependent branch.
    R001,
    /// Shared-stream RNG draw under a CC-model-dependent branch.
    R002,
    /// Wildcard arm hiding variants of a `lint:exhaustive` enum.
    E001,
    /// Stale `lint:allow` directive that suppresses nothing.
    W001,
}

impl Rule {
    /// The stable diagnostic code, as used in `lint:allow(...)`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::P001 => "P001",
            Rule::P002 => "P002",
            Rule::Z001 => "Z001",
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::R001 => "R001",
            Rule::R002 => "R002",
            Rule::E001 => "E001",
            Rule::W001 => "W001",
        }
    }

    /// Every rule in the catalog.
    pub const ALL: [Rule; 14] = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::D005,
        Rule::P001,
        Rule::P002,
        Rule::Z001,
        Rule::L001,
        Rule::L002,
        Rule::R001,
        Rule::R002,
        Rule::E001,
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

/// How a file's contents should be judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Library code: all rules apply; `#[cfg(test)]` regions within it
    /// are exempt from the library-only rules.
    Library,
    /// Dedicated test/bench/example files: determinism rules apply
    /// (a nondeterministic test flakes), panic/float rules do not.
    TestCode,
    /// `crates/bench`: measures wall-clock time by design; only the
    /// raw-threading rule (D004) applies.
    Bench,
}

/// Classify a workspace-relative path. `None` means the file is not
/// linted at all.
pub fn classify(rel: &str) -> Option<Scope> {
    if rel.contains("tests/fixtures/") {
        return None; // rule fixtures are violations on purpose
    }
    if rel.starts_with("crates/bench/") {
        return Some(Scope::Bench);
    }
    let in_test_dir = rel
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
    if in_test_dir {
        Some(Scope::TestCode)
    } else {
        Some(Scope::Library)
    }
}

/// One fully analyzed Rust source file: the input to every rule layer.
pub struct FileAnalysis {
    /// Workspace-relative path (display form).
    pub rel: String,
    /// The file's scope classification.
    pub scope: Scope,
    /// The source text.
    pub src: String,
    /// The token stream (with test regions marked).
    pub tokens: Vec<Token>,
    /// The parsed item tree.
    pub ast: Ast,
    /// Exhaustiveness markers found in comments.
    pub markers: Vec<Marker>,
    /// Suppression directives, widened to the code they cover.
    pub allows: AllowSet,
}

/// Lex, scope-mark, and parse one file.
pub fn analyze_rust_source(rel: &str, src: &str, scope: Scope) -> FileAnalysis {
    let mut lexed = lexer::lex(src);
    context::mark_test_regions(&mut lexed.tokens, src);
    let mut allows = AllowSet::new(lexed.allows);
    allows.extend_to_code(&allow::code_token_lines(&lexed.tokens, src));
    let ast = parse::parse(&lexed.tokens, src);
    FileAnalysis {
        rel: rel.to_string(),
        scope,
        src: src.to_string(),
        tokens: lexed.tokens,
        ast,
        markers: lexed.markers,
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

/// Run every applicable rule over one analyzed file.
fn check_file(fa: &FileAnalysis, table: &SymbolTable, out: &mut Vec<Diagnostic>) {
    rules::check_tokens(&fa.rel, &fa.src, &fa.tokens, fa.scope, &fa.allows, out);
    if fa.scope == Scope::Library {
        flow::check_lock_protocol(fa, table, out);
        flow::check_determinism_flow(fa, out);
        enums::check_exhaustiveness(fa, table, out);
        stale_allows(fa, out);
    }
}

/// W001: report directives that suppressed nothing. Runs after every
/// other rule, in library scope only — a file linted under a reduced
/// scope (tests, benches) legitimately leaves allows idle.
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

/// Lint one Rust source file. `rel` selects the scope (see [`classify`]).
pub fn lint_rust_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let Some(scope) = classify(rel) else {
        return Vec::new();
    };
    lint_rust_source_as(rel, src, scope)
}

/// Lint Rust source under an explicit scope (used by fixture tests).
/// The symbol table is built from this file alone, so cross-file
/// call-graph facts are limited to what the file itself defines.
pub fn lint_rust_source_as(rel: &str, src: &str, scope: Scope) -> Vec<Diagnostic> {
    let fa = analyze_rust_source(rel, src, scope);
    let mut table = SymbolTable::default();
    table.add_file(&fa.ast, &fa.markers);
    table.finalize();
    let mut out = Vec::new();
    check_file(&fa, &table, &mut out);
    out
}

/// Lint one `Cargo.toml`.
pub fn lint_manifest(rel: &str, src: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    manifest::check_manifest(rel, src, &mut out);
    out
}

/// Lint every source file and manifest under `root`. Runs in two passes:
/// the first analyzes every file and folds it into the workspace symbol
/// table, the second runs the rules with the complete table in hand.
/// Diagnostics come back sorted by (path, line, col, rule).
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let files = walk::discover(root)?;
    let mut out = Vec::new();
    let mut analyses: Vec<FileAnalysis> = Vec::new();
    let mut table = SymbolTable::default();
    for file in &files {
        let src = std::fs::read_to_string(&file.abs)
            .map_err(|e| format!("read {}: {e}", file.abs.display()))?;
        if file.rel.ends_with("Cargo.toml") {
            out.extend(lint_manifest(&file.rel, &src));
        } else if let Some(scope) = classify(&file.rel) {
            let fa = analyze_rust_source(&file.rel, &src, scope);
            table.add_file(&fa.ast, &fa.markers);
            analyses.push(fa);
        }
    }
    table.finalize();
    for fa in &analyses {
        check_file(fa, &table, &mut out);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(out)
}

/// The number of files [`lint_workspace`] would scan — exposed so the CLI
/// can report coverage alongside the verdict.
pub fn count_scanned(root: &Path) -> Result<usize, String> {
    Ok(walk::discover(root)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        assert_eq!(classify("crates/sim/src/engine.rs"), Some(Scope::Library));
        assert_eq!(
            classify("crates/core/tests/protocol.rs"),
            Some(Scope::TestCode)
        );
        assert_eq!(classify("tests/determinism.rs"), Some(Scope::TestCode));
        assert_eq!(classify("crates/bench/src/lib.rs"), Some(Scope::Bench));
        assert_eq!(classify("crates/lint/tests/fixtures/d001.rs"), None);
    }

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(
            codes,
            [
                "D001", "D002", "D003", "D004", "D005", "P001", "P002", "Z001", "L001", "L002",
                "R001", "R002", "E001", "W001"
            ]
        );
        // `ALL` is a hand-written mirror of the enum (this crate cannot use
        // the workspace's `named_enum!`). The match is exhaustive, so a new
        // variant does not compile until it gets a slot here, and a slot
        // that `ALL` does not hold fails the count below.
        let slot = |rule: Rule| match rule {
            Rule::D001 => 0,
            Rule::D002 => 1,
            Rule::D003 => 2,
            Rule::D004 => 3,
            Rule::D005 => 4,
            Rule::P001 => 5,
            Rule::P002 => 6,
            Rule::Z001 => 7,
            Rule::L001 => 8,
            Rule::L002 => 9,
            Rule::R001 => 10,
            Rule::R002 => 11,
            Rule::E001 => 12,
            Rule::W001 => 13,
        };
        const SLOTS: usize = 14;
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
            rule: Rule::D001,
            message: "msg".into(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/engine.rs:42:7: D001: msg");
    }

    #[test]
    fn stale_allow_is_reported_in_library_scope_only() {
        let src = "// lint:allow(D001): nothing here triggers D001\nfn f() {}\n";
        let diags = lint_rust_source_as("crates/sim/src/x.rs", src, Scope::Library);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule.code(), "W001");
        assert_eq!(diags[0].line, 1);
        assert!(
            lint_rust_source_as("crates/sim/tests/x.rs", src, Scope::TestCode).is_empty(),
            "reduced scopes leave allows idle legitimately"
        );
        assert!(
            lint_rust_source_as("crates/bench/src/x.rs", src, Scope::Bench).is_empty(),
            "bench scope runs almost nothing; allows stay idle"
        );
    }

    #[test]
    fn used_allow_is_not_stale() {
        let src = "fn f(o: Option<u32>) -> u32 {\n    // lint:allow(P001): test helper\n    o.unwrap()\n}\n";
        assert!(lint_rust_source_as("crates/sim/src/x.rs", src, Scope::Library).is_empty());
    }

    #[test]
    fn stale_allow_can_vouch_for_itself() {
        let src = "// lint:allow(D001, W001): kept while the refactor lands\nfn f() {}\n";
        assert!(lint_rust_source_as("crates/sim/src/x.rs", src, Scope::Library).is_empty());
    }
}
