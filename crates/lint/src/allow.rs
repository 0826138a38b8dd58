//! Suppression directives.
//!
//! A diagnostic can be silenced in place with a comment:
//!
//! ```text
//! // lint:allow(P002): the oracle favours the most literal FIFO
//! let next = queue.remove(0);
//! ```
//!
//! The directive names one or more rule codes (comma-separated) and an
//! optional `: reason` tail. It suppresses matching diagnostics on the
//! directive's own line and through the *next line that holds code* — so
//! it works as a trailing comment, on the line directly above the
//! flagged expression, and when the justification wraps across several
//! comment lines before the code resumes.
//!
//! Each directive tracks whether it ever suppressed a diagnostic; a
//! directive that suppressed nothing is itself reported as stale (rule
//! W001), so allows cannot silently outlive the code they vouched for.

use std::cell::Cell;

use crate::lexer::Token;

/// One parsed `lint:allow` directive.
#[derive(Clone, Debug)]
pub struct AllowDirective {
    /// Rule codes named in the directive (uppercased).
    pub rules: Vec<String>,
    /// 1-based line the directive's comment starts on.
    pub line: u32,
    /// Last line the directive covers (inclusive). Initialized to
    /// `line + 1`; [`AllowSet::extend_to_code`] widens it to the next
    /// line holding a token, so a justification wrapped over several
    /// comment lines still reaches the code below it.
    pub until: u32,
    /// Set when the directive suppresses at least one diagnostic; a
    /// directive still unset after all rules ran is stale (W001).
    pub used: Cell<bool>,
}

/// The lines holding *code* tokens — tokens that are part of attribute
/// machinery (`#[...]` / `#![...]`, possibly spanning lines) are
/// excluded, so a `lint:allow` above an attribute extends through the
/// attribute to the item it decorates.
pub fn code_token_lines(tokens: &[Token], src: &str) -> Vec<u32> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct(src, '#') {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct(src, '!')) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct(src, '[')) {
                let mut depth = 0usize;
                while j < tokens.len() {
                    if tokens[j].is_punct(src, '[') {
                        depth += 1;
                    } else if tokens[j].is_punct(src, ']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = (j + 1).min(tokens.len());
                continue;
            }
        }
        out.push(tokens[i].line);
        i += 1;
    }
    out
}

impl AllowDirective {
    /// Scan one comment's text (including its `//` / `/*` markers) for
    /// directives and append them to `out`. `line` is the line the
    /// comment starts on.
    pub fn scan(comment: &str, line: u32, out: &mut Vec<AllowDirective>) {
        let mut rest = comment;
        while let Some(at) = rest.find("lint:allow") {
            let after = &rest[at + "lint:allow".len()..];
            let Some(args) = after.strip_prefix('(') else {
                rest = &rest[at + 1..];
                continue;
            };
            let Some(close) = args.find(')') else {
                rest = &rest[at + 1..];
                continue;
            };
            let rules: Vec<String> = args[..close]
                .split(',')
                .map(|r| r.trim().to_ascii_uppercase())
                .filter(|r| !r.is_empty())
                .collect();
            if !rules.is_empty() {
                out.push(AllowDirective {
                    rules,
                    line,
                    until: line + 1,
                    used: Cell::new(false),
                });
            }
            rest = &rest[at + "lint:allow".len()..];
        }
    }
}

/// The set of directives for one file, indexed for fast suppression
/// checks.
pub struct AllowSet {
    directives: Vec<AllowDirective>,
}

impl AllowSet {
    /// Build a set from the directives collected while lexing one file.
    pub fn new(directives: Vec<AllowDirective>) -> Self {
        AllowSet { directives }
    }

    /// Widen each directive's window to the first line at or past
    /// `line + 1` that holds a token, so comment-only lines between the
    /// directive and the code it vouches for don't break the link.
    /// `token_lines` must be ascending (lex order guarantees this).
    pub fn extend_to_code(&mut self, token_lines: &[u32]) {
        for d in &mut self.directives {
            if let Some(&next) = token_lines.iter().find(|&&l| l > d.line) {
                d.until = d.until.max(next);
            }
        }
    }

    /// Is `rule` suppressed at `line`?
    ///
    /// A directive covers its own line through `until` (the next code
    /// line). Every directive that matches is marked used, which is what
    /// keeps it off the stale-allow (W001) report.
    pub fn suppresses(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for d in &self.directives {
            if d.rules.iter().any(|r| r == rule) && d.line <= line && line <= d.until {
                d.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// The raw directive list (used by the stale-allow pass and tests).
    pub fn directives(&self) -> &[AllowDirective] {
        &self.directives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_one(comment: &str) -> Vec<AllowDirective> {
        let mut out = Vec::new();
        AllowDirective::scan(comment, 7, &mut out);
        out
    }

    #[test]
    fn parses_single_rule_with_reason() {
        let ds = scan_one("// lint:allow(P002): justified");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rules, vec!["P002"]);
    }

    #[test]
    fn parses_multiple_rules() {
        let ds = scan_one("// lint:allow(d005, L001)");
        assert_eq!(ds[0].rules, vec!["D005", "L001"]);
    }

    #[test]
    fn ignores_malformed() {
        assert!(scan_one("// lint:allow no parens").is_empty());
        assert!(scan_one("// lint:allow()").is_empty());
    }

    #[test]
    fn suppression_covers_directive_line_and_next() {
        let set = AllowSet::new(scan_one("// lint:allow(P002)"));
        assert!(set.suppresses("P002", 7));
        assert!(set.suppresses("P002", 8));
        assert!(!set.suppresses("P002", 9));
        assert!(!set.suppresses("P002", 6));
        assert!(!set.suppresses("D005", 7));
    }

    #[test]
    fn extend_to_code_skips_comment_only_lines() {
        // Directive on line 7, wrapped comment on 8, code resumes on 9.
        let mut set = AllowSet::new(scan_one("// lint:allow(P002): a long\n"));
        set.extend_to_code(&[1, 3, 9, 12]);
        assert!(set.suppresses("P002", 9));
        assert!(!set.suppresses("P002", 10));
        assert!(!set.suppresses("P002", 12));
    }

    #[test]
    fn suppression_marks_directive_used() {
        let set = AllowSet::new(scan_one("// lint:allow(P002)"));
        assert!(!set.directives()[0].used.get());
        assert!(!set.suppresses("D005", 7)); // wrong rule: not a use
        assert!(!set.directives()[0].used.get());
        assert!(!set.suppresses("P002", 99)); // out of range: not a use
        assert!(!set.directives()[0].used.get());
        assert!(set.suppresses("P002", 8));
        assert!(set.directives()[0].used.get());
    }

    #[test]
    fn code_lines_skip_attribute_machinery() {
        // line 1: #[derive(Debug)]   (attribute only)
        // line 2: struct S;          (code)
        let src = "#[derive(Debug)]\nstruct S;";
        let tokens = crate::lexer::lex(src).tokens;
        let lines = code_token_lines(&tokens, src);
        assert_eq!(lines, vec![2, 2, 2]);
    }

    #[test]
    fn extend_to_code_crosses_attribute_lines() {
        // Directive on line 1, attribute on line 2, code on line 3: the
        // allow must reach the decorated item, not stop at the attribute.
        let src = "// lint:allow(P002): two elements at most\n#[inline]\nfn f() { v.remove(0); }";
        let lexed = crate::lexer::lex(src);
        let mut set = AllowSet::new(lexed.allows);
        set.extend_to_code(&code_token_lines(&lexed.tokens, src));
        assert!(set.suppresses("P002", 3), "allow must cover the fn line");
    }
}
