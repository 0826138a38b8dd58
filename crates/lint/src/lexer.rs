//! A small hand-written Rust lexer.
//!
//! It only distinguishes the token classes the rules and the parser care
//! about and treats every punctuation character as its own token —
//! multi-character operators (`==`, `::`, `->`, …) are recognized from
//! *adjacent* punctuation tokens, which keeps the lexer trivial and the
//! adjacency information exact.
//!
//! What it does get right, because the rules depend on it:
//!
//! * comments (line, nested block) are skipped but scanned for
//!   `lint:allow` directives;
//! * all string literal forms (`"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
//!   `c"…"`) lex as a single [`TokenKind::Str`] token, so rule patterns
//!   never fire on text inside strings;
//! * char literals are disambiguated from lifetimes (`'a'` vs `'a`);
//! * float literals are distinguished from integer literals, including
//!   the exponent and suffix forms (`1e3`, `2f64`) but not hex.

use crate::allow::AllowDirective;

/// The coarse token classes the rule layer matches on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `impl`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`). Never participates in any rule; kept
    /// distinct so it cannot be confused with a char literal.
    Lifetime,
    /// Any string literal form, including raw and byte strings.
    Str,
    /// Char or byte-char literal (`'x'`, `b'{'`).
    Char,
    /// Integer literal (any base), including suffixed forms.
    Int,
    /// Float literal (`1.0`, `1e3`, `2f64`).
    Float,
    /// A single punctuation character (`=`, `.`, `(`, …).
    Punct,
}

/// One token with its byte span and 1-based source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in characters) of the first character.
    pub col: u32,
    /// Set by the scope pass when the token sits inside test-only code
    /// (`#[cfg(test)]` module or `#[test]` function body).
    pub in_test: bool,
}

impl Token {
    /// The token's source text.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// True for a punctuation token matching `c`.
    pub fn is_punct(&self, src: &str, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text(src).starts_with(c)
    }

    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, src: &str, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == name
    }
}

/// Result of lexing one file: the token stream plus every suppression
/// directive found in comments.
pub struct LexOutput {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// Suppression directives found in comments, in source order.
    pub allows: Vec<AllowDirective>,
}

struct Cursor<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'s> Cursor<'s> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    /// Advance by one character (not byte), maintaining line/col.
    fn bump(&mut self) {
        match self.peek() {
            None => {}
            Some(b'\n') => {
                self.pos += 1;
                self.line += 1;
                self.col = 1;
            }
            Some(b) if b < 0x80 => {
                self.pos += 1;
                self.col += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 scalar: skip its continuation bytes and
                // count it as one column.
                self.pos += 1;
                while matches!(self.peek(), Some(b) if (0x80..0xC0).contains(&b)) {
                    self.pos += 1;
                }
                self.col += 1;
            }
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic() || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

/// Lex `src` into tokens and suppression directives.
pub fn lex(src: &str) -> LexOutput {
    let mut cur = Cursor {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    let mut allows = Vec::new();

    while let Some(b) = cur.peek() {
        // Whitespace.
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if b == b'/' && cur.peek_at(1) == Some(b'/') {
            let line = cur.line;
            let start = cur.pos;
            while cur.peek().is_some_and(|b| b != b'\n') {
                cur.bump();
            }
            let text = &src[start..cur.pos];
            // Doc comments are documentation, not directives: a rendered
            // allow-directive example in rustdoc text must not register
            // (it would then be reported stale by W001). `////…` rulers
            // are not doc comments.
            let doc =
                (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
            if !doc {
                AllowDirective::scan(text, line, &mut allows);
            }
            continue;
        }
        if b == b'/' && cur.peek_at(1) == Some(b'*') {
            let line = cur.line;
            let start = cur.pos;
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 && cur.peek().is_some() {
                if cur.peek() == Some(b'/') && cur.peek_at(1) == Some(b'*') {
                    depth += 1;
                    cur.bump();
                    cur.bump();
                } else if cur.peek() == Some(b'*') && cur.peek_at(1) == Some(b'/') {
                    depth -= 1;
                    cur.bump();
                    cur.bump();
                } else {
                    cur.bump();
                }
            }
            // Block comments may span lines; a directive applies at the
            // line the comment *starts* on (multi-line allow comments are
            // not supported and not used in-tree). Block doc comments are
            // documentation, like their line-comment cousins.
            let text = &src[start..cur.pos];
            let doc = text.starts_with("/**") || text.starts_with("/*!");
            if !doc {
                AllowDirective::scan(text, line, &mut allows);
            }
            continue;
        }

        let (line, col, start) = (cur.line, cur.col, cur.pos);

        // String-literal prefixes and identifiers share a start set, so
        // resolve the literal forms first.
        if is_ident_start(b) {
            if let Some(kind) = lex_prefixed_literal(&mut cur) {
                tokens.push(Token {
                    kind,
                    start,
                    end: cur.pos,
                    line,
                    col,
                    in_test: false,
                });
                continue;
            }
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                start,
                end: cur.pos,
                line,
                col,
                in_test: false,
            });
            continue;
        }

        if b == b'"' {
            lex_quoted(&mut cur);
            tokens.push(Token {
                kind: TokenKind::Str,
                start,
                end: cur.pos,
                line,
                col,
                in_test: false,
            });
            continue;
        }

        if b == b'\'' {
            let kind = lex_quote(&mut cur);
            tokens.push(Token {
                kind,
                start,
                end: cur.pos,
                line,
                col,
                in_test: false,
            });
            continue;
        }

        if b.is_ascii_digit() {
            let kind = lex_number(&mut cur);
            tokens.push(Token {
                kind,
                start,
                end: cur.pos,
                line,
                col,
                in_test: false,
            });
            continue;
        }

        // Anything else: a single punctuation character.
        cur.bump();
        tokens.push(Token {
            kind: TokenKind::Punct,
            start,
            end: cur.pos,
            line,
            col,
            in_test: false,
        });
    }

    LexOutput { tokens, allows }
}

/// Try to lex a literal that starts with an identifier-like prefix:
/// `r"…"`, `r#"…"#`, `b"…"`, `br"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`,
/// `b'x'`. Returns `None` (without consuming anything) when the cursor
/// sits on a plain identifier — including raw identifiers (`r#type`).
fn lex_prefixed_literal(cur: &mut Cursor<'_>) -> Option<TokenKind> {
    let b0 = cur.peek()?;
    // Byte-char literal.
    if b0 == b'b' && cur.peek_at(1) == Some(b'\'') {
        cur.bump(); // b
        lex_quote(cur);
        return Some(TokenKind::Char);
    }
    // String prefixes: the prefix is 1–2 of {r, b, c} followed by zero or
    // more `#` and then a quote.
    let prefix_len = match (b0, cur.peek_at(1)) {
        (b'r' | b'b' | b'c', Some(b'"' | b'#')) => 1,
        (b'b' | b'c', Some(b'r')) if matches!(cur.peek_at(2), Some(b'"' | b'#')) => 2,
        _ => return None,
    };
    let raw = prefix_len == 2 || b0 == b'r';
    // Count the hashes after the prefix.
    let mut hashes = 0usize;
    while cur.peek_at(prefix_len + hashes) == Some(b'#') {
        hashes += 1;
    }
    if cur.peek_at(prefix_len + hashes) != Some(b'"') {
        // `r#type` raw identifier (or stray `#`): not a literal.
        return None;
    }
    if !raw && hashes > 0 {
        return None;
    }
    for _ in 0..prefix_len + hashes {
        cur.bump();
    }
    if raw {
        cur.bump(); // opening quote
                    // Scan for `"` followed by `hashes` hash marks.
        'outer: while let Some(b) = cur.peek() {
            cur.bump();
            if b == b'"' {
                for i in 0..hashes {
                    if cur.peek_at(i) != Some(b'#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    } else {
        lex_quoted(cur);
    }
    Some(TokenKind::Str)
}

/// Lex a `"`-delimited string with escapes; the cursor sits on the
/// opening quote.
fn lex_quoted(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(b) = cur.peek() {
        cur.bump();
        match b {
            b'"' => break,
            b'\\' => cur.bump(), // skip escaped char ("\\", "\"", …)
            _ => {}
        }
    }
}

/// Lex from a `'`: either a lifetime or a char literal.
fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // '
    match cur.peek() {
        Some(b'\\') => {
            // Escaped char literal: skip the escape body to the closing
            // quote ('\n', '\u{7D}', '\x7f').
            cur.bump();
            while cur.peek().is_some_and(|b| b != b'\'') {
                cur.bump();
            }
            cur.bump();
            TokenKind::Char
        }
        Some(b) if is_ident_start(b) => {
            while cur.peek().is_some_and(is_ident_continue) {
                cur.bump();
            }
            if cur.peek() == Some(b'\'') {
                cur.bump();
                TokenKind::Char // 'x'
            } else {
                TokenKind::Lifetime // 'static
            }
        }
        Some(_) => {
            // '0', '{', … — a char literal over a non-ident char.
            while cur.peek().is_some_and(|b| b != b'\'') {
                cur.bump();
            }
            cur.bump();
            TokenKind::Char
        }
        None => TokenKind::Lifetime,
    }
}

/// Lex a numeric literal; the cursor sits on the first digit.
fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    if cur.peek() == Some(b'0') && matches!(cur.peek_at(1), Some(b'x' | b'o' | b'b')) {
        cur.bump();
        cur.bump();
        while cur.peek().is_some_and(is_ident_continue) {
            cur.bump();
        }
        return TokenKind::Int;
    }
    let mut float = false;
    while cur.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        cur.bump();
    }
    // Fractional part: `1.5` but not `1.method()` or `1..2`.
    if cur.peek() == Some(b'.') && cur.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        float = true;
        cur.bump();
        while cur.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            cur.bump();
        }
    } else if cur.peek() == Some(b'.')
        && !cur
            .peek_at(1)
            .is_some_and(|b| is_ident_start(b) || b == b'.')
    {
        // `1.` trailing-dot float (e.g. `1. + x`); rare but legal.
        float = true;
        cur.bump();
    }
    // Exponent.
    if matches!(cur.peek(), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(cur.peek_at(1), Some(b'+' | b'-')));
        if cur.peek_at(1 + sign).is_some_and(|b| b.is_ascii_digit()) {
            float = true;
            cur.bump();
            if sign == 1 {
                cur.bump();
            }
            while cur.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                cur.bump();
            }
        }
    }
    // Suffix (`u64`, `f64`, …).
    if cur.peek().is_some_and(is_ident_start) {
        let suffix_start = cur.pos;
        while cur.peek().is_some_and(is_ident_continue) {
            cur.bump();
        }
        let suffix = &cur.src[suffix_start..cur.pos];
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
    }
    if float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("use std::collections::BTreeMap;");
        assert_eq!(ks[0], (TokenKind::Ident, "use".into()));
        assert_eq!(ks[1], (TokenKind::Ident, "std".into()));
        assert_eq!(ks[2], (TokenKind::Punct, ":".into()));
        assert_eq!(ks[7], (TokenKind::Ident, "BTreeMap".into()));
        assert_eq!(ks.last().map(|k| k.1.clone()), Some(";".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let ks = kinds(r#"let s = "HashMap == 1.0";"#);
        assert!(ks.iter().all(|(_, t)| t != "HashMap"));
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
    }

    #[test]
    fn raw_and_byte_strings() {
        let ks = kinds(r##"let a = r#"raw "inner" text"#; let b = b"bytes";"##);
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let ks = kinds("let r#type = 1;");
        assert!(ks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "r"));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "type"));
    }

    #[test]
    fn char_vs_lifetime() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let d = b'{'; }");
        assert_eq!(
            ks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
    }

    #[test]
    fn numbers() {
        let ks = kinds("1 1.5 1e3 2f64 0xff 3u32 1..2 x.0");
        let floats: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(floats, vec!["1.5", "1e3", "2f64"]);
        let ints: Vec<_> = ks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Int)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(ints, vec!["1", "0xff", "3u32", "1", "2", "0"]);
    }

    #[test]
    fn nested_block_comments() {
        let ks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(ks.len(), 2);
    }

    #[test]
    fn line_and_col_are_one_based() {
        let toks = lex("ab\n  cd").tokens;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn allow_directives_are_collected() {
        let out = lex("// lint:allow(P002): reasons\nlet x = 1;");
        assert_eq!(out.allows.len(), 1);
        assert_eq!(out.allows[0].rules, vec!["P002".to_string()]);
        assert_eq!(out.allows[0].line, 1);
    }

    #[test]
    fn doc_comments_do_not_register_directives() {
        let src = "\
//! // lint:allow(P002): example in module docs
/// // lint:allow(D005): example in item docs
/** lint:allow(L001): example in block docs */
//// lint:allow(L002): a ruler comment is not a doc comment
fn f() {}
";
        let out = lex(src);
        assert_eq!(out.allows.len(), 1, "only the //// line counts");
        assert_eq!(out.allows[0].rules, vec!["L002".to_string()]);
    }
}
