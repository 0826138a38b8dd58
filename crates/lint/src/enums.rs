//! Exhaustiveness rule (E001).
//!
//! rustc checks that `match` covers every variant — until someone writes
//! `_`. **E001** flags a `match` on an enum marked
//! `lint:exhaustive(Name)` that names more than half the variants but
//! hides the rest behind a `_` arm. Such a match clearly *intends*
//! per-variant handling; the wildcard means a new variant is absorbed
//! silently instead of failing to compile.
//!
//! The name, parse and JSON mirrors of an enum need no rule: the
//! `named_enum!` macro generates them from the declaration, so they
//! cannot drift from it.

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::parse::{visit_fns, Arm, Block, Stmt};
use crate::symbols::SymbolTable;
use crate::{emit, Diagnostic, FileAnalysis, Rule};

/// Run E001 over one file (library scope only; the caller gates).
pub fn check_exhaustiveness(fa: &FileAnalysis, table: &SymbolTable, out: &mut Vec<Diagnostic>) {
    visit_fns(&fa.ast.items, &mut |f, _| {
        let Some(body) = &f.body else { return };
        if fa.tokens.get(f.span.0).is_some_and(|t| t.in_test) {
            return;
        }
        walk_matches(fa, table, body, out);
    });
}

fn walk_matches(fa: &FileAnalysis, table: &SymbolTable, block: &Block, out: &mut Vec<Diagnostic>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Match { arms, .. } => {
                check_one_match(fa, table, arms, out);
                for a in arms {
                    walk_matches(fa, table, &a.body, out);
                }
            }
            Stmt::If { then_b, else_b, .. } => {
                walk_matches(fa, table, then_b, out);
                if let Some(e) = else_b {
                    walk_matches(fa, table, e, out);
                }
            }
            Stmt::Loop { body, .. } => walk_matches(fa, table, body, out),
            Stmt::Block(b) => walk_matches(fa, table, b, out),
            Stmt::Run(_) => {}
        }
    }
}

fn check_one_match(
    fa: &FileAnalysis,
    table: &SymbolTable,
    arms: &[Arm],
    out: &mut Vec<Diagnostic>,
) {
    let mut enum_name: Option<String> = None;
    let mut named: BTreeSet<String> = BTreeSet::new();
    let mut wildcard: Option<(u32, u32)> = None;
    for arm in arms {
        let toks = &fa.tokens[arm.pat.0..arm.pat.1.min(fa.tokens.len())];
        if toks.len() == 1 && toks[0].kind == TokenKind::Ident && toks[0].text(&fa.src) == "_" {
            wildcard = Some((arm.line, arm.col));
            continue;
        }
        // Look for `Enum::Variant` paths where Enum is lint:exhaustive.
        for w in 0..toks.len().saturating_sub(3) {
            let [a, c1, c2, b] = [&toks[w], &toks[w + 1], &toks[w + 2], &toks[w + 3]];
            if a.kind == TokenKind::Ident
                && c1.is_punct(&fa.src, ':')
                && c2.is_punct(&fa.src, ':')
                && b.kind == TokenKind::Ident
            {
                let head = a.text(&fa.src);
                if !table.exhaustive.contains(head) {
                    continue;
                }
                let Some(variants) = table.enums.get(head) else {
                    continue;
                };
                let tail = b.text(&fa.src);
                if variants.iter().any(|v| v == tail) {
                    enum_name = Some(head.to_string());
                    named.insert(tail.to_string());
                }
            }
        }
    }
    if let (Some(en), Some((line, col))) = (enum_name.as_deref(), wildcard) {
        let total = table.enums[en].len();
        if named.len() * 2 > total {
            emit(
                fa,
                out,
                Rule::E001,
                line,
                col,
                format!(
                    "match on `{en}` (marked lint:exhaustive) names {}/{} \
                     variants but hides the rest behind `_`; name the \
                     remaining variants so a new one fails to compile \
                     instead of being absorbed silently",
                    named.len(),
                    total
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_rust_source_as, Scope};

    fn codes_at(src: &str) -> Vec<(u32, &'static str)> {
        lint_rust_source_as("crates/x/src/f.rs", src, Scope::Library)
            .iter()
            .map(|d| (d.line, d.rule.code()))
            .collect()
    }

    #[test]
    fn e001_flags_wildcard_hiding_variants() {
        let src = "\
// lint:exhaustive(Metric)
enum Metric { A, B, C, D }
fn render(m: Metric) -> u32 {
    match m {
        Metric::A => 1,
        Metric::B => 2,
        Metric::C => 3,
        _ => 0,
    }
}
";
        assert_eq!(codes_at(src), vec![(8, "E001")]);
    }

    #[test]
    fn e001_silent_for_dispatchy_matches_and_unmarked_enums() {
        let src = "\
// lint:exhaustive(Metric)
enum Metric { A, B, C, D }
enum Other { X, Y, Z }
fn pick(m: Metric) -> bool {
    match m {
        Metric::A => true,
        _ => false,
    }
}
fn other(o: Other) -> u32 {
    match o {
        Other::X => 1,
        Other::Y => 2,
        _ => 0,
    }
}
";
        // `pick` names 1/4 (dispatch, fine); `Other` is unmarked.
        assert!(codes_at(src).is_empty());
    }
}
