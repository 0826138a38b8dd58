//! Test-region detection.
//!
//! P002 and the flow rules apply only to *library* code: test code
//! legitimately drains vectors from the front, and its lock and RNG calls
//! follow no protocol.
//! This pass walks the token stream, finds items gated by `#[cfg(test)]` /
//! `#[test]` / `#[bench]` attributes, and marks every token inside their
//! bodies as `in_test`. Whole files under `tests/`, `benches/` or
//! `examples/` directories are skipped by the walker and never reach
//! this pass.

use crate::lexer::{Token, TokenKind};

/// Mark tokens inside test-gated item bodies.
pub fn mark_test_regions(tokens: &mut [Token], src: &str) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct(src, '#') && !tokens[i].in_test {
            // Outer attribute `#[...]`; inner attributes (`#![...]`) are
            // not item gates in this codebase and are skipped as plain
            // tokens.
            if let Some((attr_end, gates_test)) = parse_attribute(tokens, src, i) {
                if gates_test {
                    mark_item_body(tokens, src, attr_end);
                }
                i = attr_end;
                continue;
            }
        }
        i += 1;
    }
}

/// Parse the attribute starting at `tokens[i]` (a `#`). Returns the index
/// one past the closing `]` and whether the attribute gates test code.
fn parse_attribute(tokens: &[Token], src: &str, i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1;
    if tokens.get(j)?.is_punct(src, '!') {
        return None; // inner attribute
    }
    if !tokens.get(j)?.is_punct(src, '[') {
        return None;
    }
    j += 1;
    let mut depth = 1usize;
    let mut idents: Vec<&str> = Vec::new();
    while depth > 0 {
        let t = tokens.get(j)?;
        if t.is_punct(src, '[') {
            depth += 1;
        } else if t.is_punct(src, ']') {
            depth -= 1;
        } else if t.kind == TokenKind::Ident {
            idents.push(t.text(src));
        }
        j += 1;
    }
    // `#[test]`, `#[cfg(test)]`, `#[bench]` gate test code. A negated
    // `#[cfg(not(test))]` does not, despite mentioning `test`.
    let negated = idents.contains(&"not");
    let gates = !negated
        && match idents.as_slice() {
            ["cfg", rest @ ..] => rest.contains(&"test"),
            other => matches!(other.last(), Some(&"test" | &"bench")),
        };
    Some((j, gates))
}

/// From the first token after an attribute, skip any further attributes
/// and the item header, then mark the `{ … }` body (if any) as test code.
fn mark_item_body(tokens: &mut [Token], src: &str, mut i: usize) {
    // Skip stacked attributes (e.g. `#[test]` + `#[ignore]`).
    while i < tokens.len() && tokens[i].is_punct(src, '#') {
        match parse_attribute(tokens, src, i) {
            Some((end, _)) => i = end,
            None => break,
        }
    }
    // Scan the item header for its body `{` at bracket depth 0; a `;`
    // first means a body-less item (`mod tests;`, `use …;`).
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let body_start = loop {
        let Some(t) = tokens.get(i) else { return };
        if t.kind == TokenKind::Punct {
            match t.text(src).as_bytes().first() {
                Some(b'(') => paren += 1,
                Some(b')') => paren -= 1,
                Some(b'[') => bracket += 1,
                Some(b']') => bracket -= 1,
                Some(b';') if paren == 0 && bracket == 0 => return,
                Some(b'{') if paren == 0 && bracket == 0 => break i,
                _ => {}
            }
        }
        i += 1;
    };
    // Mark to the matching `}`.
    let mut depth = 0i32;
    for t in tokens[body_start..].iter_mut() {
        if t.kind == TokenKind::Punct {
            match t.text(src).as_bytes().first() {
                Some(b'{') => depth += 1,
                Some(b'}') => depth -= 1,
                _ => {}
            }
        }
        t.in_test = true;
        if depth == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn test_idents(src: &str) -> Vec<String> {
        let mut out = lex(src);
        mark_test_regions(&mut out.tokens, src);
        out.tokens
            .iter()
            .filter(|t| t.in_test && t.kind == TokenKind::Ident)
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n}";
        let marked = test_idents(src);
        assert!(marked.contains(&"helper".to_string()));
        assert!(!marked.contains(&"lib".to_string()));
    }

    #[test]
    fn test_fn_is_marked() {
        let src = "#[test]\nfn check() { body(); }\nfn lib() { outside(); }";
        let marked = test_idents(src);
        assert!(marked.contains(&"body".to_string()));
        assert!(!marked.contains(&"outside".to_string()));
    }

    #[test]
    fn stacked_attributes() {
        let src = "#[test]\n#[ignore]\nfn check() { inner(); }";
        assert!(test_idents(src).contains(&"inner".to_string()));
    }

    #[test]
    fn cfg_not_test_is_library_code() {
        let src = "#[cfg(not(test))]\nfn lib() { body(); }";
        assert!(test_idents(src).is_empty());
    }

    #[test]
    fn derive_attribute_does_not_gate() {
        let src = "#[derive(Debug)]\nstruct S { x: u32 }";
        assert!(test_idents(src).is_empty());
    }

    #[test]
    fn fn_with_brace_in_signature_generics() {
        // `(` depth guards against misreading closure braces in headers.
        let src = "#[test]\nfn check(f: impl Fn(u32) -> u32) { inner(); }";
        assert!(test_idents(src).contains(&"inner".to_string()));
    }
}
