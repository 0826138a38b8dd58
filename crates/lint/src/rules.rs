//! The token-level rule catalog: D001, D002, D003, D004, D005, P001,
//! P002.
//!
//! Each rule is a linear scan over the token stream with a small amount
//! of lookahead/lookbehind. Rules receive the file's [`Scope`] so they
//! can exempt bench code (which legitimately reads wall clocks) and
//! test regions (which legitimately panic and compare floats exactly).

use crate::allow::AllowSet;
use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, Rule, Scope};

/// Run every token rule applicable to `scope` over one file.
pub fn check_tokens(
    path: &str,
    src: &str,
    tokens: &[Token],
    scope: Scope,
    allows: &AllowSet,
    out: &mut Vec<Diagnostic>,
) {
    let mut sink = Sink { path, allows, out };
    if scope != Scope::Bench {
        check_hash_containers(src, tokens, &mut sink);
        check_wall_clock(src, tokens, &mut sink);
    }
    if scope == Scope::Library {
        check_float_eq(src, tokens, &mut sink);
        check_panicky_calls(src, tokens, &mut sink);
        check_front_removal(src, tokens, &mut sink);
    }
    // D004 applies everywhere (benches and tests included — an unordered
    // spawn in either can still produce order-dependent results) except
    // inside the worker pool itself, which is the one sanctioned home for
    // raw threading.
    if path != "crates/sim/src/pool.rs" {
        check_raw_threading(src, tokens, &mut sink);
    }
    // D005 is gated to the locking engine's per-request modules; ordered
    // maps elsewhere (the reference oracle, reporting code) are
    // legitimate and stay unflagged.
    if HOT_LOCK_MODULES.contains(&path) {
        check_ordered_map_hot_path(src, tokens, &mut sink);
    }
}

/// The locking engine's modules on the per-request path, where every map
/// lookup sits inside the acquire/release cycle: the engine itself, its
/// two disciplines, the hierarchy context layer and the table beneath.
const HOT_LOCK_MODULES: [&str; 6] = [
    "crates/core/src/locking.rs",
    "crates/lockmgr/src/table.rs",
    "crates/lockmgr/src/deadlock.rs",
    "crates/lockmgr/src/conservative.rs",
    "crates/lockmgr/src/twophase.rs",
    "crates/lockmgr/src/hierarchy.rs",
];

struct Sink<'a> {
    path: &'a str,
    allows: &'a AllowSet,
    out: &'a mut Vec<Diagnostic>,
}

impl Sink<'_> {
    fn emit(&mut self, rule: Rule, tok: &Token, message: String) {
        if self.allows.suppresses(rule.code(), tok.line) {
            return;
        }
        self.out.push(Diagnostic {
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        });
    }
}

/// D001: `HashMap` / `HashSet` anywhere in a simulation crate (including
/// its tests — a hash container in a test can still make the *assertion
/// order* nondeterministic and flake).
fn check_hash_containers(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for t in tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(src);
        if name == "HashMap" || name == "HashSet" {
            let ordered = if name == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            sink.emit(
                Rule::D001,
                t,
                format!(
                    "`{name}` iterates in nondeterministic order; use `{ordered}`, \
                     or `lockgran_sim::DetMap` for a `u64`-keyed hot path \
                     (or add `// lint:allow(D001): <why order cannot leak>`)"
                ),
            );
        }
    }
}

/// D002: wall-clock reads (`Instant`, `SystemTime`) outside `crates/bench`.
/// Simulated time must come from the event calendar, never the host.
fn check_wall_clock(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for t in tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(src);
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        // Any occurrence is flagged, qualified or not: a local type named
        // `Instant` inside a deterministic simulator would be a smell in
        // its own right, and an allow can vouch for it.
        sink.emit(
            Rule::D002,
            t,
            format!(
                "wall-clock type `{name}` in simulation code; simulated time \
                 must come from the engine's clock (bench code is exempt)"
            ),
        );
    }
}

/// D003: `==` / `!=` where either operand is a float literal. A full
/// type-aware check needs inference; comparing *against a literal* is
/// the high-confidence case and the one that bites (`x == 0.1`).
fn check_float_eq(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for i in 0..tokens.len().saturating_sub(1) {
        let a = &tokens[i];
        let b = &tokens[i + 1];
        if a.in_test {
            continue;
        }
        let is_eq = a.is_punct(src, '=') && b.is_punct(src, '=');
        let is_ne = a.is_punct(src, '!') && b.is_punct(src, '=');
        if !(is_eq || is_ne) {
            continue;
        }
        // Adjacency is unambiguous: `<=`, `>=` and `=>` all pair a
        // non-`=` with the `=`, so they can never match the
        // (`=`,`=`) / (`!`,`=`) windows above.
        // Operand after: optional unary minus, then a literal?
        let mut r = i + 2;
        if tokens.get(r).is_some_and(|t| t.is_punct(src, '-')) {
            r += 1;
        }
        let rhs_float = tokens.get(r).is_some_and(|t| t.kind == TokenKind::Float);
        // Operand before: token immediately left of the operator.
        let lhs_float = i > 0 && tokens[i - 1].kind == TokenKind::Float;
        if rhs_float || lhs_float {
            let op = if is_eq { "==" } else { "!=" };
            sink.emit(
                Rule::D003,
                a,
                format!(
                    "exact float comparison `{op}` against a literal; compare \
                     with an epsilon or restructure (floats that look equal \
                     may differ in the last ulp)"
                ),
            );
        }
    }
}

/// D004: raw threading primitives outside `crates/sim/src/pool.rs`.
///
/// Flags `thread::spawn`, `thread::scope` and `thread::Builder` (however
/// the `thread` path segment is reached), plus any use of the `mpsc`
/// module. Ad-hoc threads and channels deliver results in completion
/// order, which varies run to run; `lockgran_sim::pool::WorkerPool`
/// gathers in submission order and is the one sanctioned way to fan
/// work out.
fn check_raw_threading(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(src);
        if name == "mpsc" {
            sink.emit(
                Rule::D004,
                t,
                "`mpsc` channels deliver in completion order; fan work out \
                 through `lockgran_sim::pool::WorkerPool`, which gathers \
                 results in submission order (or add \
                 `// lint:allow(D004): <why ordering cannot leak>`)"
                    .to_string(),
            );
            continue;
        }
        if name != "spawn" && name != "scope" && name != "Builder" {
            continue;
        }
        // Only when reached through the `thread` module: `thread::spawn`,
        // `std::thread::Builder`, … — a local method named `spawn` or a
        // lint `Scope` is not a finding.
        let through_thread = i >= 3
            && tokens[i - 1].is_punct(src, ':')
            && tokens[i - 2].is_punct(src, ':')
            && tokens[i - 3].is_ident(src, "thread");
        if through_thread {
            sink.emit(
                Rule::D004,
                t,
                format!(
                    "raw `thread::{name}` outside the worker pool; use \
                     `lockgran_sim::pool::WorkerPool` so results gather in \
                     submission order (or add \
                     `// lint:allow(D004): <why ordering cannot leak>`)"
                ),
            );
        }
    }
}

/// D005: `BTreeMap` / `BTreeSet` inside a locking-engine hot-path module
/// (see [`HOT_LOCK_MODULES`]). Per-request granule and transaction
/// lookups were rebuilt on the O(1) `lockgran_sim::DetMap`; an ordered
/// map sneaking back in reintroduces O(log n) pointer-chasing on every
/// acquire/release. Ordered iteration that is actually required (a
/// diagnostic dump, a deterministic sweep) can be vouched for with an
/// allow.
fn check_ordered_map_hot_path(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for t in tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(src);
        if name == "BTreeMap" || name == "BTreeSet" {
            sink.emit(
                Rule::D005,
                t,
                format!(
                    "`{name}` on the lock-manager hot path costs O(log n) \
                     pointer-chasing per request; use `lockgran_sim::DetMap` \
                     (O(1), deterministic insertion-order iteration) or add \
                     `// lint:allow(D005): <why ordered lookup is required>`"
                ),
            );
        }
    }
}

/// P001: `.unwrap()` / `.expect("…")` in non-test library code. The
/// `.expect(` form is only flagged when its first argument is a string
/// literal — `parser.expect(b'{')` is a domain method, not a panic.
fn check_panicky_calls(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(src);
        if name != "unwrap" && name != "expect" {
            continue;
        }
        // Must be a method call: preceded by `.`, followed by `(`.
        if i == 0 || !tokens[i - 1].is_punct(src, '.') {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct(src, '(')) {
            continue;
        }
        if name == "unwrap" {
            if !tokens.get(i + 2).is_some_and(|n| n.is_punct(src, ')')) {
                continue; // `.unwrap(x)` is not Option/Result::unwrap
            }
            sink.emit(
                Rule::P001,
                t,
                "`.unwrap()` in library code; return a `Result` with context, \
                 or `.expect(\"<invariant>\")` plus a `// lint:allow(P001): …`"
                    .to_string(),
            );
        } else {
            // expect: require a string-literal argument.
            if !tokens.get(i + 2).is_some_and(|n| n.kind == TokenKind::Str) {
                continue;
            }
            sink.emit(
                Rule::P001,
                t,
                "`.expect(…)` in library code; return a `Result` with context, \
                 or document the invariant with `// lint:allow(P001): …`"
                    .to_string(),
            );
        }
    }
}

/// P002: `.remove(0)` in non-test library code. On a `Vec` this shifts
/// every remaining element left — O(n) per call, O(n²) when used to
/// drain — which is exactly the hidden cost that sat in the calendar
/// queue's `pop` until PR 5. The deque-shaped fix is
/// `VecDeque::pop_front`; positional `Vec` use cases usually want
/// `swap_remove(0)` (order-free) or a reversed iteration.
fn check_front_removal(src: &str, tokens: &[Token], sink: &mut Sink<'_>) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.in_test || t.kind != TokenKind::Ident || t.text(src) != "remove" {
            continue;
        }
        // Must be the method call `.remove(0)`: preceded by `.`, followed
        // by `(`, a literal zero, `)`. Other arguments are positional
        // removals with no cheaper general substitute, and `map.remove(0)`
        // on a keyed container takes `&0` or a non-literal key.
        if i == 0 || !tokens[i - 1].is_punct(src, '.') {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct(src, '(')) {
            continue;
        }
        let zero = tokens
            .get(i + 2)
            .is_some_and(|n| n.kind == TokenKind::Int && n.text(src) == "0");
        if !zero || !tokens.get(i + 3).is_some_and(|n| n.is_punct(src, ')')) {
            continue;
        }
        sink.emit(
            Rule::P002,
            t,
            "`.remove(0)` shifts every element left (O(n) per call); use a \
             `VecDeque` with `pop_front()`, or `swap_remove(0)` if order \
             does not matter (or add `// lint:allow(P002): <why O(n) is \
             acceptable here>`)"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::mark_test_regions;
    use crate::lexer::lex;

    fn run_at(path: &str, src: &str, scope: Scope) -> Vec<Diagnostic> {
        let mut lexed = lex(src);
        mark_test_regions(&mut lexed.tokens, src);
        let allows = AllowSet::new(lexed.allows);
        let mut out = Vec::new();
        check_tokens(path, src, &lexed.tokens, scope, &allows, &mut out);
        out
    }

    fn run(src: &str, scope: Scope) -> Vec<Diagnostic> {
        run_at("f.rs", src, scope)
    }

    fn codes(src: &str, scope: Scope) -> Vec<&'static str> {
        run(src, scope).iter().map(|d| d.rule.code()).collect()
    }

    #[test]
    fn d001_flags_hash_containers() {
        assert_eq!(
            codes("use std::collections::HashMap;", Scope::Library),
            vec!["D001"]
        );
        assert_eq!(codes("let s: HashSet<u32>;", Scope::TestCode), vec!["D001"]);
        assert!(codes("use std::collections::BTreeMap;", Scope::Library).is_empty());
        assert!(codes("use std::collections::HashMap;", Scope::Bench).is_empty());
    }

    #[test]
    fn d001_span_points_at_the_ident() {
        let d = &run("let m: HashMap<u32, u32> = x;", Scope::Library)[0];
        assert_eq!((d.line, d.col), (1, 8));
    }

    #[test]
    fn d002_flags_wall_clock() {
        assert_eq!(
            codes("let t = std::time::Instant::now();", Scope::Library),
            vec!["D002"]
        );
        assert_eq!(
            codes("use std::time::SystemTime;", Scope::TestCode),
            vec!["D002"]
        );
        assert!(codes("let t = Instant::now();", Scope::Bench).is_empty());
    }

    #[test]
    fn d003_flags_float_literal_comparison() {
        assert_eq!(codes("if x == 0.5 { }", Scope::Library), vec!["D003"]);
        assert_eq!(codes("if x != 1e-9 { }", Scope::Library), vec!["D003"]);
        assert_eq!(codes("if 0.5 == x { }", Scope::Library), vec!["D003"]);
        assert_eq!(codes("if x == -0.5 { }", Scope::Library), vec!["D003"]);
    }

    #[test]
    fn d003_ignores_safe_comparisons() {
        assert!(codes("if x == 5 { }", Scope::Library).is_empty());
        assert!(codes("if x <= 0.5 { }", Scope::Library).is_empty());
        assert!(codes("if x >= 0.5 { }", Scope::Library).is_empty());
        assert!(codes("let y = x * 0.5;", Scope::Library).is_empty());
        assert!(codes("match x { _ => 0.5 };", Scope::Library).is_empty());
        // Inside a test region: exempt.
        assert!(codes("#[test]\nfn t() { assert!(x == 0.5); }", Scope::Library).is_empty());
    }

    #[test]
    fn d004_flags_raw_threading() {
        assert_eq!(
            codes("std::thread::spawn(|| {});", Scope::Library),
            vec!["D004"]
        );
        assert_eq!(
            codes("thread::scope(|s| {});", Scope::Library),
            vec!["D004"]
        );
        assert_eq!(
            codes("std::thread::Builder::new();", Scope::Library),
            vec!["D004"]
        );
        assert_eq!(codes("use std::sync::mpsc;", Scope::Library), vec!["D004"]);
        // Applies to tests and benches too: completion-order results flake.
        assert_eq!(
            codes("#[test]\nfn t() { thread::spawn(|| {}); }", Scope::Library),
            vec!["D004"]
        );
        assert_eq!(codes("thread::spawn(f);", Scope::TestCode), vec!["D004"]);
        assert_eq!(
            codes("let (tx, rx) = mpsc::channel();", Scope::Bench),
            vec!["D004"]
        );
    }

    #[test]
    fn d004_exempts_the_pool_and_unrelated_names() {
        // The worker pool is the sanctioned home for raw threading.
        assert!(run_at(
            "crates/sim/src/pool.rs",
            "std::thread::spawn(|| {});",
            Scope::Library
        )
        .is_empty());
        // `spawn`/`scope`/`Builder` not reached through `thread`.
        assert!(codes("pool.spawn(task);", Scope::Library).is_empty());
        assert!(codes("let s: Scope = scope;", Scope::Library).is_empty());
        assert!(codes("http::Builder::new();", Scope::Library).is_empty());
        // Sleeping is not a fan-out.
        assert!(codes("thread::sleep(d);", Scope::Library).is_empty());
    }

    #[test]
    fn d005_flags_ordered_maps_in_hot_lock_modules() {
        for module in HOT_LOCK_MODULES {
            assert_eq!(
                run_at(module, "use std::collections::BTreeMap;", Scope::Library)
                    .iter()
                    .map(|d| d.rule.code())
                    .collect::<Vec<_>>(),
                vec!["D005"],
                "{module}"
            );
        }
        let diags = run_at(
            "crates/lockmgr/src/table.rs",
            "struct T { waits: BTreeSet<u64> }",
            Scope::Library,
        );
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("DetMap"));
    }

    #[test]
    fn d005_exempts_cold_modules_and_other_crates() {
        // The reference oracle and the lock-mode algebra are off the
        // per-request path; ordered maps there are legitimate.
        for path in [
            "crates/lockmgr/src/reference.rs",
            "crates/lockmgr/src/mode.rs",
            "crates/core/src/system.rs",
        ] {
            assert!(
                run_at(path, "use std::collections::BTreeMap;", Scope::Library).is_empty(),
                "{path}"
            );
        }
    }

    #[test]
    fn p001_flags_unwrap_and_string_expect() {
        assert_eq!(codes("let x = o.unwrap();", Scope::Library), vec!["P001"]);
        assert_eq!(
            codes("let x = o.expect(\"must\");", Scope::Library),
            vec!["P001"]
        );
    }

    #[test]
    fn p001_ignores_domain_expect_and_tests() {
        // Parser combinator style: expect(b'{') is not Option::expect.
        assert!(codes("self.expect(b'{')?;", Scope::Library).is_empty());
        assert!(codes("fn expect(&mut self, b: u8) {}", Scope::Library).is_empty());
        assert!(codes("#[test]\nfn t() { o.unwrap(); }", Scope::Library).is_empty());
        assert!(codes("o.unwrap();", Scope::TestCode).is_empty());
        // unwrap_or is a different method.
        assert!(codes("o.unwrap_or(1);", Scope::Library).is_empty());
    }

    #[test]
    fn p002_flags_front_removal() {
        assert_eq!(codes("let x = v.remove(0);", Scope::Library), vec!["P002"]);
        assert_eq!(codes("queue.remove(0);", Scope::Library), vec!["P002"]);
    }

    #[test]
    fn p002_ignores_other_removals_and_tests() {
        // Positional removal elsewhere has no cheaper general substitute.
        assert!(codes("v.remove(1);", Scope::Library).is_empty());
        assert!(codes("v.remove(idx);", Scope::Library).is_empty());
        // Keyed containers take a reference or a non-literal key.
        assert!(codes("map.remove(&0);", Scope::Library).is_empty());
        // Not a method call.
        assert!(codes("remove(0);", Scope::Library).is_empty());
        // Test regions and test files are exempt.
        assert!(codes("#[test]\nfn t() { v.remove(0); }", Scope::Library).is_empty());
        assert!(codes("v.remove(0);", Scope::TestCode).is_empty());
        assert!(codes("v.remove(0);", Scope::Bench).is_empty());
        // Suppression works.
        let allowed = "// lint:allow(P002): three-element fixed list\nv.remove(0);";
        assert!(codes(allowed, Scope::Library).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "// lint:allow(P001): invariant\nlet x = o.unwrap();";
        assert!(codes(src, Scope::Library).is_empty());
        let trailing = "let x = o.unwrap(); // lint:allow(P001): invariant";
        assert!(codes(trailing, Scope::Library).is_empty());
        // Wrong rule code does not suppress.
        let wrong = "// lint:allow(D001)\nlet x = o.unwrap();";
        assert_eq!(codes(wrong, Scope::Library), vec!["P001"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        assert!(codes("let s = \"HashMap\";", Scope::Library).is_empty());
        assert!(codes("// HashMap in a comment\nlet x = 1;", Scope::Library).is_empty());
    }
}
