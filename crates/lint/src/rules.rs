//! The token-level rules: D005 and P002.
//!
//! Each rule is a linear scan over the token stream with a small amount
//! of lookahead/lookbehind. P002 skips test regions, which legitimately
//! drain vectors from the front.

use crate::lexer::TokenKind;
use crate::{emit, Diagnostic, FileAnalysis, Rule};

/// Run every token rule over one file.
pub fn check_tokens(fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    check_front_removal(fa, out);
    // D005 is gated to the locking engine's per-request modules; ordered
    // maps elsewhere (the reference oracle, reporting code) are
    // legitimate and stay unflagged.
    if HOT_LOCK_MODULES.contains(&fa.rel.as_str()) {
        check_ordered_map_hot_path(fa, out);
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

/// D005: `BTreeMap` / `BTreeSet` inside a locking-engine hot-path module
/// (see [`HOT_LOCK_MODULES`]). Per-request granule and transaction
/// lookups were rebuilt on the O(1) `lockgran_sim::DetMap`; an ordered
/// map sneaking back in reintroduces O(log n) pointer-chasing on every
/// acquire/release. Ordered iteration that is actually required (a
/// diagnostic dump, a deterministic sweep) can be vouched for with an
/// allow.
fn check_ordered_map_hot_path(fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for t in &fa.tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text(&fa.src);
        if name == "BTreeMap" || name == "BTreeSet" {
            emit(
                fa,
                out,
                Rule::D005,
                t.line,
                t.col,
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

/// P002: `.remove(0)` in non-test library code. On a `Vec` this shifts
/// every remaining element left — O(n) per call, O(n²) when used to
/// drain — which is exactly the hidden cost that sat in the calendar
/// queue's `pop` until PR 5. The deque-shaped fix is
/// `VecDeque::pop_front`; positional `Vec` use cases usually want
/// `swap_remove(0)` (order-free) or a reversed iteration.
fn check_front_removal(fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let (src, tokens) = (fa.src.as_str(), fa.tokens.as_slice());
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
        emit(
            fa,
            out,
            Rule::P002,
            t.line,
            t.col,
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
    use crate::lint_rust_source;

    fn codes_at(path: &str, src: &str) -> Vec<&'static str> {
        lint_rust_source(path, src)
            .iter()
            .map(|d| d.rule.code())
            .collect()
    }

    fn codes(src: &str) -> Vec<&'static str> {
        codes_at("f.rs", src)
    }

    #[test]
    fn d005_flags_ordered_maps_in_hot_lock_modules() {
        for module in super::HOT_LOCK_MODULES {
            assert_eq!(
                codes_at(module, "use std::collections::BTreeMap;"),
                vec!["D005"],
                "{module}"
            );
        }
        let diags = lint_rust_source(
            "crates/lockmgr/src/table.rs",
            "struct T { waits: BTreeSet<u64> }",
        );
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("DetMap"));
        assert_eq!(
            (diags[0].line, diags[0].col),
            (1, 19),
            "span points at the ident"
        );
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
                codes_at(path, "use std::collections::BTreeMap;").is_empty(),
                "{path}"
            );
        }
    }

    #[test]
    fn p002_flags_front_removal() {
        assert_eq!(codes("fn f() { let x = v.remove(0); }"), vec!["P002"]);
        assert_eq!(codes("fn f() { queue.remove(0); }"), vec!["P002"]);
    }

    #[test]
    fn p002_ignores_other_removals_and_tests() {
        // Positional removal elsewhere has no cheaper general substitute.
        assert!(codes("fn f() { v.remove(1); }").is_empty());
        assert!(codes("fn f() { v.remove(idx); }").is_empty());
        // Keyed containers take a reference or a non-literal key.
        assert!(codes("fn f() { map.remove(&0); }").is_empty());
        // Not a method call.
        assert!(codes("fn f() { remove(0); }").is_empty());
        // Test regions are exempt.
        assert!(codes("#[test]\nfn t() { v.remove(0); }").is_empty());
        // Suppression works.
        let allowed =
            "fn f() {\n    // lint:allow(P002): three-element fixed list\n    v.remove(0);\n}";
        assert!(codes(allowed).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "// lint:allow(P002): invariant\nfn f() { v.remove(0); }";
        assert!(codes(src).is_empty());
        let trailing = "fn f() { v.remove(0); } // lint:allow(P002): invariant";
        assert!(codes(trailing).is_empty());
        // Wrong rule code does not suppress (and the idle allow is stale).
        let wrong = "// lint:allow(D005)\nfn f() { v.remove(0); }";
        assert_eq!(codes(wrong), vec!["P002", "W001"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let path = "crates/lockmgr/src/table.rs";
        assert!(codes_at(path, "const S: &str = \"BTreeMap\";").is_empty());
        assert!(codes_at(path, "// BTreeMap in a comment\nconst X: u32 = 1;").is_empty());
        assert!(codes("const S: &str = \"v.remove(0)\";").is_empty());
    }
}
