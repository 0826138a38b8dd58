//! Recursive-descent parser: token stream → resolved AST.
//!
//! This is deliberately *not* a full Rust parser. It resolves exactly the
//! structure the analysis rules need — the item tree (functions, and the
//! impls, traits and modules that nest them), function bodies as a
//! control-flow tree (`if` / `match` / loops / nested blocks), and, inside
//! the opaque statement runs between those constructs, the **events** the
//! rules reason about: method and function calls with their receivers,
//! `return` / `?` exits, panic calls, and `let` bindings with their
//! initializer spans (for the determinism-taint dataflow).
//!
//! The parser is error-tolerant by construction: anything it does not
//! recognize is swallowed into an opaque run (events are still extracted
//! from it), so a novel construct degrades analysis precision instead of
//! producing a parse failure. Constructs nested inside parenthesized
//! expressions (`f(if c { a } else { b })`) stay opaque — a conservative
//! loss, shared with every syntactic analyzer at this altitude.

use crate::lexer::{Token, TokenKind};

/// A half-open token-index range into the file's token stream.
pub type TokRange = (usize, usize);

/// One item (top-level or nested in a `mod` / `impl` / `trait` body).
pub enum Item {
    /// A function with an optional body (trait methods may lack one).
    Fn(FnItem),
    /// The items of an `impl` or `trait` block or an inline module.
    Nested(Vec<Item>),
}

/// A function item.
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The body, when present.
    pub body: Option<Block>,
    /// True when the item sits in a test region (see `context`).
    pub in_test: bool,
}

/// A `{ ... }` body as a statement sequence.
#[derive(Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// One statement-level construct.
pub enum Stmt {
    /// `if cond { then } else { else_ }` (an `else if` chain nests).
    If {
        /// Token range of the condition.
        cond: TokRange,
        /// The `then` block.
        then_b: Block,
        /// The `else` block, when present.
        else_b: Option<Block>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Token range of the scrutinee expression.
        scrutinee: TokRange,
        /// The arm bodies, in order.
        arms: Vec<Block>,
    },
    /// `loop` / `while` / `for` — `cond` covers the header expression.
    Loop {
        /// Header tokens (`while` condition / `for` iterator), if any.
        cond: Option<TokRange>,
        /// The loop body.
        body: Block,
    },
    /// A bare `{ ... }` (or `unsafe { ... }`) block.
    Block(Block),
    /// An opaque statement/expression run with its extracted events.
    Run(Run),
}

/// An opaque statement run.
pub struct Run {
    /// Events extracted from the run, in source order.
    pub events: Vec<Event>,
    /// Names bound by a leading `let` pattern (for taint propagation).
    pub let_binds: Vec<String>,
    /// Initializer range of a leading `let`, when present.
    pub let_init: Option<TokRange>,
    /// True when the run discards a call result: `let _ = call(..);` or a
    /// bare `call(..);` expression statement.
    pub discards_result: bool,
}

/// One extracted event.
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Event kinds extracted from opaque runs.
pub enum EventKind {
    /// A call. `recv` is the identifier directly left of the final `.`
    /// for method calls (`self.conflict.try_acquire(..)` → `conflict`),
    /// `None` for free-function calls.
    Call {
        /// Receiver identifier, when syntactically evident.
        recv: Option<String>,
        /// The called name.
        name: String,
    },
    /// A `?` propagation — a conditional early exit.
    Try,
    /// A `return`. `conditional` when it is nested mid-statement (e.g.
    /// the `else` arm of a `let … else`), so fall-through also exists.
    Return {
        /// Whether fall-through past the `return` is possible.
        conditional: bool,
    },
    /// A diverging macro: `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!`. Panic exits are exempt from lock pairing.
    Panic,
}

/// Parse a whole file into its top-level items.
pub fn parse(tokens: &[Token], src: &str) -> Vec<Item> {
    Parser { tokens, src }.items(0, tokens.len())
}

struct Parser<'a> {
    tokens: &'a [Token],
    src: &'a str,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.tokens[i].text(self.src)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        i < self.tokens.len() && self.tokens[i].is_punct(self.src, c)
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        i < self.tokens.len() && self.tokens[i].is_ident(self.src, name)
    }

    fn is_any_ident(&self, i: usize) -> bool {
        i < self.tokens.len() && self.tokens[i].kind == TokenKind::Ident
    }

    /// Skip one `#[...]` attribute starting at `i` (a `#`). Returns the
    /// index one past the closing `]`, or `i + 1` if malformed.
    fn skip_attribute(&self, i: usize) -> usize {
        let mut j = i + 1;
        if self.is_punct(j, '!') {
            j += 1;
        }
        if !self.is_punct(j, '[') {
            return i + 1;
        }
        j += 1;
        let mut depth = 1usize;
        while j < self.tokens.len() && depth > 0 {
            if self.is_punct(j, '[') {
                depth += 1;
            } else if self.is_punct(j, ']') {
                depth -= 1;
            }
            j += 1;
        }
        j
    }

    /// From an opening delimiter at `i`, return the index of its matching
    /// closer (balancing all three bracket kinds), or `hi` when unclosed.
    fn matching(&self, i: usize, hi: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < hi {
            if let TokenKind::Punct = self.tokens[j].kind {
                match self.text(j).as_bytes().first() {
                    Some(b'{' | b'(' | b'[') => depth += 1,
                    Some(b'}' | b')' | b']') => {
                        depth -= 1;
                        if depth == 0 {
                            return j;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        hi
    }

    /// Scan items in `[lo, hi)`.
    fn items(&mut self, lo: usize, hi: usize) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            if self.is_punct(i, '#') {
                i = self.skip_attribute(i);
                continue;
            }
            if !self.is_any_ident(i) {
                i += 1;
                continue;
            }
            match self.text(i) {
                "pub" => {
                    // `pub` / `pub(crate)` visibility prefix.
                    i += 1;
                    if self.is_punct(i, '(') {
                        i = self.matching(i, hi) + 1;
                    }
                }
                "unsafe" | "async" | "const" if self.is_fn_ahead(i + 1, hi) => {
                    i += 1; // qualifier before `fn`
                }
                "fn" => {
                    let (item, next) = self.fn_item(i, hi);
                    out.push(item);
                    i = next;
                }
                "impl" | "trait" | "mod" => {
                    let (item, next) = self.nested_items(i, hi);
                    if let Some(it) = item {
                        out.push(it);
                    }
                    i = next;
                }
                "const" | "static" | "struct" | "enum" | "union" | "use" | "type" | "extern" => {
                    i = self.skip_to_item_end(i + 1, hi);
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }`
                    let mut j = i + 1;
                    while j < hi && !self.is_punct(j, '{') {
                        j += 1;
                    }
                    i = self.matching(j, hi) + 1;
                }
                _ => i += 1,
            }
        }
        out
    }

    /// Is the next meaningful token (skipping more qualifiers) `fn`?
    fn is_fn_ahead(&self, mut i: usize, hi: usize) -> bool {
        while i < hi && self.is_any_ident(i) {
            match self.text(i) {
                "fn" => return true,
                "unsafe" | "async" | "extern" | "const" => i += 1,
                _ => return false,
            }
        }
        // `extern "C" fn`
        i < hi && self.tokens[i].kind == TokenKind::Str && self.is_ident(i + 1, "fn")
    }

    /// Skip to one past the `;` ending a body-less item, or past the
    /// matching `}` if a brace opens first (struct with fields).
    fn skip_to_item_end(&self, lo: usize, hi: usize) -> usize {
        let mut i = lo;
        while i < hi {
            if self.is_punct(i, ';') {
                return i + 1;
            }
            if self.is_punct(i, '{') || self.is_punct(i, '(') || self.is_punct(i, '[') {
                i = self.matching(i, hi) + 1;
                // A brace-bodied struct has no trailing `;`.
                if i > 0 && self.is_punct(i - 1, '}') {
                    return i;
                }
                continue;
            }
            i += 1;
        }
        hi
    }

    /// Parse `fn name <sig> { body }` with `fn` at `i`.
    fn fn_item(&mut self, i: usize, hi: usize) -> (Item, usize) {
        let mut j = i + 1;
        let name = if self.is_any_ident(j) {
            let n = self.text(j).to_string();
            j += 1;
            n
        } else {
            String::new()
        };
        // Scan the signature: body `{` appears at paren/bracket depth 0.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        while j < hi {
            if let TokenKind::Punct = self.tokens[j].kind {
                match self.text(j).as_bytes().first() {
                    Some(b'(') => paren += 1,
                    Some(b')') => paren -= 1,
                    Some(b'[') => bracket += 1,
                    Some(b']') => bracket -= 1,
                    Some(b';') if paren == 0 && bracket == 0 => {
                        // Body-less (trait method declaration).
                        let item = Item::Fn(FnItem {
                            name,
                            body: None,
                            in_test: self.tokens[i].in_test,
                        });
                        return (item, j + 1);
                    }
                    Some(b'{') if paren == 0 && bracket == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let body_open = j;
        let body_close = self.matching(body_open, hi);
        let body = self.block(body_open + 1, body_close);
        let item = Item::Fn(FnItem {
            name,
            body: Some(body),
            in_test: self.tokens[i].in_test,
        });
        (item, (body_close + 1).min(hi))
    }

    /// Parse the body of an `impl` / `trait` block or an inline module
    /// (keyword at `i`); a body-less `mod name;` yields no item.
    fn nested_items(&mut self, i: usize, hi: usize) -> (Option<Item>, usize) {
        let mut j = i + 1;
        while j < hi && !self.is_punct(j, '{') {
            if self.is_punct(j, ';') {
                return (None, j + 1);
            }
            j += 1;
        }
        let close = self.matching(j, hi);
        let items = self.items(j + 1, close);
        (Some(Item::Nested(items)), (close + 1).min(hi))
    }

    // ----- statement / body parsing -----

    /// Parse the statements of a block body in `[lo, hi)`.
    fn block(&mut self, lo: usize, hi: usize) -> Block {
        Block {
            stmts: self.stmts(lo, hi),
        }
    }

    fn stmts(&mut self, lo: usize, hi: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            if self.is_punct(i, ';') {
                i += 1;
                continue;
            }
            if self.is_punct(i, '#') {
                i = self.skip_attribute(i);
                continue;
            }
            if self.is_ident(i, "if") {
                let (s, next) = self.if_stmt(i, hi);
                out.push(s);
                i = next;
            } else if self.is_ident(i, "match") {
                let (s, next) = self.match_stmt(i, hi);
                out.push(s);
                i = next;
            } else if self.is_ident(i, "while") || self.is_ident(i, "for") {
                let mut j = i + 1;
                while j < hi && !self.is_punct(j, '{') {
                    if self.is_punct(j, '(') || self.is_punct(j, '[') {
                        j = self.matching(j, hi);
                    }
                    j += 1;
                }
                let close = self.matching(j, hi);
                let body = self.block(j + 1, close);
                out.push(Stmt::Loop {
                    cond: Some((i + 1, j)),
                    body,
                });
                i = (close + 1).min(hi);
            } else if self.is_ident(i, "loop") {
                let mut j = i + 1;
                while j < hi && !self.is_punct(j, '{') {
                    j += 1;
                }
                let close = self.matching(j, hi);
                let body = self.block(j + 1, close);
                out.push(Stmt::Loop { cond: None, body });
                i = (close + 1).min(hi);
            } else if self.is_punct(i, '{')
                || (self.is_ident(i, "unsafe") && self.is_punct(i + 1, '{'))
            {
                let open = if self.is_punct(i, '{') { i } else { i + 1 };
                let close = self.matching(open, hi);
                let body = self.block(open + 1, close);
                out.push(Stmt::Block(body));
                i = (close + 1).min(hi);
            } else if self.is_ident(i, "fn") {
                // Nested function item inside a body: parse and discard
                // the item structure, but keep its body's events out of
                // this function's flow (a nested fn does not run here).
                let (_, next) = self.fn_item(i, hi);
                i = next;
            } else {
                let (s, next) = self.run_stmt(i, hi);
                out.push(s);
                i = next;
            }
        }
        out
    }

    fn if_stmt(&mut self, i: usize, hi: usize) -> (Stmt, usize) {
        // Condition: tokens to the `{` at group depth 0 (struct literals
        // are not legal in conditions, so the first depth-0 `{` is the
        // block).
        let mut j = i + 1;
        while j < hi && !self.is_punct(j, '{') {
            if self.is_punct(j, '(') || self.is_punct(j, '[') {
                j = self.matching(j, hi);
            }
            j += 1;
        }
        let cond = (i + 1, j);
        let close = self.matching(j, hi);
        let then_b = self.block(j + 1, close);
        let mut next = (close + 1).min(hi);
        let mut else_b = None;
        if self.is_ident(next, "else") {
            if self.is_ident(next + 1, "if") {
                let (nested, after) = self.if_stmt(next + 1, hi);
                else_b = Some(Block {
                    stmts: vec![nested],
                });
                next = after;
            } else if self.is_punct(next + 1, '{') {
                let eclose = self.matching(next + 1, hi);
                else_b = Some(self.block(next + 2, eclose));
                next = (eclose + 1).min(hi);
            }
        }
        (
            Stmt::If {
                cond,
                then_b,
                else_b,
            },
            next,
        )
    }

    fn match_stmt(&mut self, i: usize, hi: usize) -> (Stmt, usize) {
        let mut j = i + 1;
        while j < hi && !self.is_punct(j, '{') {
            if self.is_punct(j, '(') || self.is_punct(j, '[') {
                j = self.matching(j, hi);
            }
            j += 1;
        }
        let scrutinee = (i + 1, j);
        let close = self.matching(j, hi);
        let mut arms = Vec::new();
        let mut k = j + 1;
        while k < close {
            if self.is_punct(k, ',') || self.is_punct(k, '#') {
                k = if self.is_punct(k, '#') {
                    self.skip_attribute(k)
                } else {
                    k + 1
                };
                continue;
            }
            // Pattern: to the `=>` (an `=` immediately followed by `>`)
            // at group depth 0.
            while k < close {
                if self.is_punct(k, '(') || self.is_punct(k, '[') || self.is_punct(k, '{') {
                    k = self.matching(k, close) + 1;
                    continue;
                }
                if self.is_punct(k, '=') && self.is_punct(k + 1, '>') {
                    break;
                }
                k += 1;
            }
            k += 2; // past `=>`
            if k >= close {
                break;
            }
            let body = if self.is_punct(k, '{') {
                let bclose = self.matching(k, close);
                let b = self.block(k + 1, bclose);
                k = bclose + 1;
                b
            } else {
                // Expression arm: to the `,` at group depth 0 (or the
                // match's closing brace).
                let estart = k;
                while k < close && !self.is_punct(k, ',') {
                    if self.is_punct(k, '(') || self.is_punct(k, '[') || self.is_punct(k, '{') {
                        k = self.matching(k, close) + 1;
                        continue;
                    }
                    k += 1;
                }
                Block {
                    stmts: self.stmts(estart, k),
                }
            };
            arms.push(body);
        }
        (Stmt::Match { scrutinee, arms }, (close + 1).min(hi))
    }

    /// Parse an opaque run: from `i` to the terminating `;` at group
    /// depth 0, a depth-0 control keyword, or `hi`. Extracts events.
    fn run_stmt(&mut self, i: usize, hi: usize) -> (Stmt, usize) {
        let start = i;
        let mut j = i;
        // A leading `let` keeps binding info for taint propagation.
        let is_let = self.is_ident(i, "let");
        let mut let_binds = Vec::new();
        let mut let_init = None;
        while j < hi {
            if self.is_punct(j, '(') || self.is_punct(j, '[') || self.is_punct(j, '{') {
                j = self.matching(j, hi) + 1;
                continue;
            }
            if self.is_punct(j, ';') {
                j += 1;
                break;
            }
            // Split before a statement-level control construct so its
            // branch structure is preserved (`let x = match e { .. };`
            // contributes `match` as its own statement).
            if j > i
                && (self.is_ident(j, "match") || self.is_ident(j, "if"))
                && !self.is_ident(j - 1, "else")
                && !self.is_ident(j - 1, "let")
            {
                break;
            }
            j += 1;
        }
        // `matching() + 1` can land one past `hi` at end of input.
        let j = j.min(hi);
        if is_let {
            // Pattern idents up to the `=`; the initializer is what follows.
            // Only lowercase/underscore-leading idents are bindings — the
            // uppercase ones in a pattern (`Some`, `ConflictDecision::…`)
            // are constructors, and idents after a depth-0 `:` are type
            // annotation, not bindings.
            let mut k = start + 1;
            let mut depth = 0i32;
            let mut in_type = false;
            while k < j {
                if let TokenKind::Punct = self.tokens[k].kind {
                    match self.text(k).as_bytes().first() {
                        Some(b'(' | b'[' | b'{') => depth += 1,
                        Some(b')' | b']' | b'}') => depth -= 1,
                        Some(b'=') if depth == 0 => break,
                        Some(b':') if depth == 0 => {
                            let path_sep = self.is_punct(k + 1, ':')
                                || (k > start && self.is_punct(k - 1, ':'));
                            if !path_sep {
                                in_type = true;
                            }
                        }
                        _ => {}
                    }
                }
                if !in_type && self.is_any_ident(k) {
                    let t = self.text(k);
                    let binds = t
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_');
                    if binds && !matches!(t, "mut" | "ref" | "box" | "_") {
                        let_binds.push(t.to_string());
                    }
                }
                k += 1;
            }
            if k < j && self.is_punct(k, '=') {
                let_init = Some((k + 1, j));
            }
        }
        let events = self.extract_events(start, j);
        let discards_result = self.run_discards_result(start, j, &events);
        (
            Stmt::Run(Run {
                events,
                let_binds,
                let_init,
                discards_result,
            }),
            j,
        )
    }

    /// Does this run discard a call result? True for `let _ = …;` and for
    /// a bare call expression statement (no `=` at depth 0, not a
    /// `return` / `break` value, ends in `;`).
    fn run_discards_result(&self, lo: usize, hi: usize, events: &[Event]) -> bool {
        if !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Call { .. }))
        {
            return false;
        }
        if self.is_ident(lo, "let") {
            // `_` lexes as an identifier, not punctuation.
            return self.is_ident(lo + 1, "_") && self.is_punct(lo + 2, '=');
        }
        if self.is_any_ident(lo) && matches!(self.text(lo), "return" | "break" | "continue" | "use")
        {
            return false;
        }
        // No assignment at group depth 0 and a trailing `;` → the value
        // is dropped.
        let mut j = lo;
        let mut assigned = false;
        while j < hi {
            if self.is_punct(j, '(') || self.is_punct(j, '[') || self.is_punct(j, '{') {
                j = self.matching(j, hi) + 1;
                continue;
            }
            if self.is_punct(j, '=') && !self.is_punct(j + 1, '=') {
                // Exclude `==`/`!=`/`<=`/`>=`/`=>`; `+=` etc. still assign.
                let prev_cmp = j > lo
                    && (self.is_punct(j - 1, '=')
                        || self.is_punct(j - 1, '!')
                        || self.is_punct(j - 1, '<')
                        || self.is_punct(j - 1, '>'));
                let arrow = self.is_punct(j + 1, '>');
                if !prev_cmp && !arrow {
                    assigned = true;
                }
            }
            j += 1;
        }
        !assigned && j > lo && self.is_punct(j - 1, ';')
    }

    /// Extract call / exit events from the tokens of one run.
    fn extract_events(&self, lo: usize, hi: usize) -> Vec<Event> {
        let mut out = Vec::new();
        for j in lo..hi {
            let t = &self.tokens[j];
            let kind = if t.kind == TokenKind::Ident {
                match self.text(j) {
                    "return" => Some(EventKind::Return {
                        conditional: j != lo,
                    }),
                    "break" | "continue" => None,
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if self.is_punct(j + 1, '!') =>
                    {
                        Some(EventKind::Panic)
                    }
                    _ => self.call(j, hi),
                }
            } else if self.is_punct(j, '?') {
                // `?` after a value position is the try operator;
                // after `:` it is `?Sized`.
                let after_value = j > lo
                    && (self.tokens[j - 1].kind == TokenKind::Ident
                        || self.is_punct(j - 1, ')')
                        || self.is_punct(j - 1, ']'));
                after_value.then_some(EventKind::Try)
            } else {
                None
            };
            if let Some(kind) = kind {
                out.push(Event {
                    kind,
                    line: t.line,
                    col: t.col,
                });
            }
        }
        out
    }

    /// A call at ident `j`: `name(..)`, `.name(..)`, or the turbofish
    /// `.name::<T>(..)`.
    fn call(&self, j: usize, hi: usize) -> Option<EventKind> {
        let name = self.text(j);
        if matches!(
            name,
            "if" | "else" | "match" | "while" | "for" | "loop" | "let" | "mut" | "ref" | "move"
        ) {
            return None;
        }
        // Find the argument `(`: immediately after, or after `::<..>`.
        let mut k = j + 1;
        if self.is_punct(k, ':') && self.is_punct(k + 1, ':') && self.is_punct(k + 2, '<') {
            let mut depth = 1i32;
            k += 3;
            while k < hi && depth > 0 {
                if self.is_punct(k, '<') {
                    depth += 1;
                } else if self.is_punct(k, '>') {
                    depth -= 1;
                }
                k += 1;
            }
        }
        if !self.is_punct(k, '(') {
            return None;
        }
        let is_method = j >= 1 && self.is_punct(j - 1, '.');
        let recv = if is_method && j >= 2 && self.tokens[j - 2].kind == TokenKind::Ident {
            Some(self.text(j - 2).to_string())
        } else {
            None
        };
        // Free calls include enum constructors (`Some(x)`): they are
        // indistinguishable syntactically, and the rule layer filters by
        // name, so the noise is harmless.
        Some(EventKind::Call {
            recv,
            name: name.to_string(),
        })
    }
}

/// Walk helper: apply `f` to every opaque run in the block tree.
pub fn visit_runs<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Run)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Run(r) => f(r),
            Stmt::If { then_b, else_b, .. } => {
                visit_runs(then_b, f);
                if let Some(e) = else_b {
                    visit_runs(e, f);
                }
            }
            Stmt::Match { arms, .. } => {
                for a in arms {
                    visit_runs(a, f);
                }
            }
            Stmt::Loop { body, .. } => visit_runs(body, f),
            Stmt::Block(b) => visit_runs(b, f),
        }
    }
}

/// Walk helper: visit every function item, including those nested in
/// impls, traits, and modules.
pub fn visit_fns<'a>(items: &'a [Item], f: &mut dyn FnMut(&'a FnItem)) {
    for item in items {
        match item {
            Item::Fn(func) => f(func),
            Item::Nested(nested) => visit_fns(nested, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<Item> {
        parse(&lex(src).tokens, src)
    }

    fn fn_names(items: &[Item]) -> Vec<String> {
        let mut out = Vec::new();
        visit_fns(items, &mut |f| out.push(f.name.clone()));
        out
    }

    #[test]
    fn items_are_discovered() {
        let src = r#"
            pub enum E { A, B(u32), C { x: u8 } }
            impl E { pub fn m(&self) -> u32 { 1 } }
            mod inner { fn nested() {} }
            pub fn top(x: u32) -> u32 { x }
        "#;
        let items = parse_src(src);
        assert_eq!(fn_names(&items), vec!["m", "nested", "top"]);
        // The enum is skipped whole; the impl and the module nest items.
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn body_control_flow_tree() {
        let src = r#"
            fn f(x: u32) -> u32 {
                if x > 1 { g(x)?; } else { h(); }
                match x { 0 => a(), _ => { b(); } }
                while x > 0 { c(); }
                x
            }
        "#;
        let items = parse_src(src);
        let mut bodies = Vec::new();
        visit_fns(&items, &mut |f| bodies.push(f.body.as_ref()));
        let body = bodies[0].expect("body");
        assert!(matches!(body.stmts[0], Stmt::If { .. }));
        match &body.stmts[1] {
            Stmt::Match { arms, .. } => assert_eq!(arms.len(), 2),
            _ => panic!("expected match"),
        }
        assert!(matches!(body.stmts[2], Stmt::Loop { .. }));
    }

    #[test]
    fn events_extracted_with_receivers() {
        let src = "fn f() { self.conflict.try_acquire(slot, &mut rng)?; }";
        let items = parse_src(src);
        let mut found = Vec::new();
        visit_fns(&items, &mut |f| {
            if let Some(b) = &f.body {
                if let Stmt::Run(r) = &b.stmts[0] {
                    for e in &r.events {
                        match &e.kind {
                            EventKind::Call { recv, name, .. } => {
                                found.push(format!("{:?}.{}", recv, name))
                            }
                            EventKind::Try => found.push("?".to_string()),
                            _ => {}
                        }
                    }
                }
            }
        });
        assert_eq!(found, vec!["Some(\"conflict\").try_acquire", "?"]);
    }

    #[test]
    fn let_binds_and_discards() {
        let src = "fn f() { let x = rng.next_u64(); let _ = t.try_acquire(); q.release(); }";
        let items = parse_src(src);
        let mut runs = Vec::new();
        visit_fns(&items, &mut |f| {
            if let Some(b) = &f.body {
                for s in &b.stmts {
                    if let Stmt::Run(r) = s {
                        runs.push((r.let_binds.clone(), r.discards_result));
                    }
                }
            }
        });
        assert_eq!(runs[0].0, vec!["x".to_string()]);
        assert!(!runs[0].1);
        assert!(runs[1].1, "let _ = call() discards");
        assert!(runs[2].1, "bare call statement discards");
    }

    #[test]
    fn let_else_is_one_run_with_conditional_return() {
        let src = "fn f() { let Some(v) = opt else { return; }; v.use_it(); }";
        let items = parse_src(src);
        let mut kinds = Vec::new();
        visit_fns(&items, &mut |f| {
            if let Some(b) = &f.body {
                if let Stmt::Run(r) = &b.stmts[0] {
                    for e in &r.events {
                        if let EventKind::Return { conditional } = e.kind {
                            kinds.push(conditional);
                        }
                    }
                }
            }
        });
        assert_eq!(kinds, vec![true], "nested return is conditional");
    }

    #[test]
    fn match_in_let_preserves_branches() {
        let src = "fn f() { let d = match mode { M::A => 1, M::B => 2 }; }";
        let items = parse_src(src);
        let mut match_count = 0;
        visit_fns(&items, &mut |f| {
            if let Some(b) = &f.body {
                for s in &b.stmts {
                    if let Stmt::Match { arms, .. } = s {
                        match_count = arms.len();
                    }
                }
            }
        });
        assert_eq!(match_count, 2);
    }
}
