//! Intraprocedural flow rules: lock-protocol pairing (L) and
//! determinism dataflow (R).
//!
//! # L-rules — lock acquire/release pairing
//!
//! Scope: `crates/core` and `crates/lockmgr` library code. The engine's
//! own protocol is event-driven — `decide()` acquires, `complete()` /
//! `abort()` release, in separate handlers — so whole-program pairing is
//! out of reach for a static checker. What *is* checkable, and is where
//! the DGCC/incremental-2PL work will introduce bugs, is scope-local
//! pairing: when one function both acquires and releases, every exit
//! between the acquire and the (textually later) release must not
//! escape with the lock still held.
//!
//! * **L001** — a `return` / `?` escapes between an acquire-family call
//!   (`acquire`, `try_acquire`) and a later release-family call
//!   (`release`, `release_all`, `cancel`, or any function the
//!   call-graph closure says may release). Panic exits are exempt:
//!   a panicking simulation run is already fatal, poisoning is handled
//!   at the sweep boundary.
//! * **L002** — the result of an acquire-family call is discarded
//!   (`let _ = t.try_acquire(..)` or a bare `t.acquire(..);`
//!   statement). The grant/queue decision (or the guard object) is
//!   lost, so the caller can neither pair the release nor observe a
//!   denial.
//!
//! The held-state interpreter is conservative: branches merge with OR
//! (held on *any* path counts as held), loops are evaluated once, and a
//! release anywhere in a call chain credits the whole chain.
//!
//! # R-rules — determinism dataflow
//!
//! Scope: `crates/core` and `crates/workload` library code. Bit-identical
//! goldens across `--jobs` counts and comparable draw sequences across
//! conflict models both die the same way: an RNG draw that only happens
//! under a branch whose condition depends on the wrong thing. The check
//! is intraprocedural on purpose — the engine legitimately *routes* to
//! draw-bearing code from model-dependent decisions (a granted
//! transaction starts its subtransactions, which draw service times);
//! what it must never do is place the draw itself under the branch.
//!
//! * **R001** — an RNG draw under a branch whose condition depends on
//!   pool/job configuration (`jobs`, `njobs`, `WorkerPool`,
//!   `available_parallelism`, the `LOCKGRAN_JOBS` env var). Results
//!   would vary with `--jobs`.
//! * **R002** — an RNG draw from a *shared* stream (a named
//!   `*_rng` stream other than the conflict stream) under a branch
//!   whose condition depends on a concurrency-control value
//!   (`ConflictDecision`, `ConflictMode`, `Granted`/`BlockedBy`,
//!   escalation/hierarchy configuration). Draw order would diverge
//!   across conflict models, which is exactly the bug class that forces
//!   RNG re-pins. Draws through a plain `rng` parameter are not
//!   flagged — the *caller* picked the stream, and model-owned streams
//!   are allowed to depend on the model.
//!
//! Taint propagates through `let` bindings to a fixpoint, so
//! `let decision = self.conflict.try_acquire(..); match decision { .. }`
//! taints the match arms even though the condition names no seed
//! directly.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::parse::{visit_fns, visit_runs, Block, EventKind, FnItem, Run, Stmt, TokRange};
use crate::symbols::SymbolTable;
use crate::{emit, Diagnostic, FileAnalysis, Rule};

/// Identifiers whose presence in a branch condition marks it as
/// depending on the concurrency-control model.
const CC_SEEDS: [&str; 10] = [
    "ConflictDecision",
    "ConflictMode",
    "Granted",
    "BlockedBy",
    "conflict",
    "escalation",
    "escalation_threshold",
    "hierarchical",
    "hierarchy",
    "cc_stats",
];

/// Identifiers whose presence in a branch condition marks it as
/// depending on pool/job configuration.
const POOL_SEEDS: [&str; 5] = [
    "jobs",
    "njobs",
    "available_parallelism",
    "WorkerPool",
    "pool",
];

/// `SimRng` draw methods (and the engine's draw-consuming entry points).
const DRAW_FAMILY: [&str; 10] = [
    "next_u64",
    "uniform01",
    "uniform_inclusive",
    "bernoulli",
    "sample_distinct",
    "sample",
    "sample_into",
    "draw",
    "next_spec_into",
    "register_access",
];

/// Taint kind bit: concurrency-control dependence.
const CC: u8 = 1;
/// Taint kind bit: pool/job-configuration dependence.
const POOL: u8 = 2;

// ----- L-rules -----

/// Run L001/L002 over every non-test function in a core/lockmgr file.
pub fn check_lock_protocol(fa: &FileAnalysis, table: &SymbolTable, out: &mut Vec<Diagnostic>) {
    if !(fa.rel.starts_with("crates/core/") || fa.rel.starts_with("crates/lockmgr/")) {
        return;
    }
    visit_fns(&fa.items, &mut |f| {
        let Some(body) = f.body.as_ref().filter(|_| !f.in_test) else {
            return;
        };
        check_discarded_acquires(fa, body, out);
        check_pairing(fa, table, f, body, out);
    });
}

/// L002: an acquire whose result is dropped on the floor.
fn check_discarded_acquires(fa: &FileAnalysis, body: &Block, out: &mut Vec<Diagnostic>) {
    visit_runs(body, &mut |r| {
        if !r.discards_result {
            return;
        }
        for e in &r.events {
            if let EventKind::Call { name, .. } = &e.kind {
                if SymbolTable::is_acquire_call(name) {
                    emit(
                        fa,
                        out,
                        Rule::L002,
                        e.line,
                        e.col,
                        format!(
                            "result of `{name}` is discarded; the grant/queue \
                             decision is lost, so the lock can be neither \
                             released nor observed as denied — bind and handle \
                             it"
                        ),
                    );
                }
            }
        }
    });
}

/// L001 driver: gate to functions that both acquire and release, then
/// interpret the body with a held-lock bit.
fn check_pairing(
    fa: &FileAnalysis,
    table: &SymbolTable,
    f: &FnItem,
    body: &Block,
    out: &mut Vec<Diagnostic>,
) {
    let mut has_acquire = false;
    let mut release_lines: Vec<u32> = Vec::new();
    visit_runs(body, &mut |r| {
        for e in &r.events {
            if let EventKind::Call { name, .. } = &e.kind {
                if SymbolTable::is_acquire_call(name) {
                    has_acquire = true;
                } else if table.is_release_call(name) {
                    release_lines.push(e.line);
                }
            }
        }
    });
    if !has_acquire || release_lines.is_empty() {
        return;
    }
    let mut sim = LockSim {
        fa,
        table,
        fn_name: &f.name,
        release_lines,
        out,
    };
    sim.walk_block(body, false);
}

/// Result of interpreting one block: whether the lock may be held on
/// fall-through, and whether every path through the block exits the
/// function.
struct BlockOut {
    held: bool,
    diverged: bool,
}

struct LockSim<'a> {
    fa: &'a FileAnalysis,
    table: &'a SymbolTable,
    fn_name: &'a str,
    release_lines: Vec<u32>,
    out: &'a mut Vec<Diagnostic>,
}

impl LockSim<'_> {
    fn later_release(&self, line: u32) -> bool {
        self.release_lines.iter().any(|&l| l > line)
    }

    fn flag(&mut self, line: u32, col: u32, what: &str) {
        emit(
            self.fa,
            self.out,
            Rule::L001,
            line,
            col,
            format!(
                "{what} escapes `{}` while a lock may still be held: the \
                 release below this exit is skipped on this path — release \
                 (or cancel) before exiting",
                self.fn_name
            ),
        );
    }

    fn walk_block(&mut self, block: &Block, held0: bool) -> BlockOut {
        let mut held = held0;
        for stmt in &block.stmts {
            match stmt {
                Stmt::Run(r) => match self.walk_run(r, held) {
                    Some(h) => held = h,
                    None => {
                        return BlockOut {
                            held: false,
                            diverged: true,
                        }
                    }
                },
                Stmt::If { then_b, else_b, .. } => {
                    let t = self.walk_block(then_b, held);
                    let e = match else_b {
                        Some(eb) => self.walk_block(eb, held),
                        None => BlockOut {
                            held,
                            diverged: false,
                        },
                    };
                    if t.diverged && e.diverged {
                        return BlockOut {
                            held: false,
                            diverged: true,
                        };
                    }
                    held = (!t.diverged && t.held) || (!e.diverged && e.held);
                }
                Stmt::Match { arms, .. } => {
                    if arms.is_empty() {
                        continue;
                    }
                    let outs: Vec<BlockOut> =
                        arms.iter().map(|a| self.walk_block(a, held)).collect();
                    if outs.iter().all(|o| o.diverged) {
                        return BlockOut {
                            held: false,
                            diverged: true,
                        };
                    }
                    held = outs.iter().filter(|o| !o.diverged).any(|o| o.held);
                }
                Stmt::Loop { body, .. } => {
                    // Body may run zero or more times; one evaluation with
                    // an OR-merge against the entry state is the
                    // conservative fixed point for a boolean lattice.
                    let b = self.walk_block(body, held);
                    if !b.diverged {
                        held = held || b.held;
                    }
                }
                Stmt::Block(inner) => {
                    let o = self.walk_block(inner, held);
                    if o.diverged {
                        return BlockOut {
                            held: false,
                            diverged: true,
                        };
                    }
                    held = o.held;
                }
            }
        }
        BlockOut {
            held,
            diverged: false,
        }
    }

    /// Interpret one run; `None` means every path through it exits.
    fn walk_run(&mut self, r: &Run, held0: bool) -> Option<bool> {
        let mut held = held0;
        let mut acquired_in_run = false;
        for e in &r.events {
            match &e.kind {
                EventKind::Call { name, .. } => {
                    if SymbolTable::is_acquire_call(name) {
                        held = true;
                        acquired_in_run = true;
                    } else if self.table.is_release_call(name) {
                        held = false;
                    }
                }
                EventKind::Try => {
                    // A `?` directly on the acquire expression propagates
                    // the *failure to acquire* — nothing is held on that
                    // path — so only a `?` in a later statement counts.
                    if held && !acquired_in_run && self.later_release(e.line) {
                        self.flag(e.line, e.col, "`?`");
                    }
                }
                EventKind::Return { conditional } => {
                    if held && self.later_release(e.line) {
                        self.flag(e.line, e.col, "`return`");
                    }
                    if !conditional {
                        return None;
                    }
                }
                EventKind::Panic => return None, // exempt exit
            }
        }
        Some(held)
    }
}

// ----- R-rules -----

/// Run R001/R002 over every non-test function in a core/workload file.
pub fn check_determinism_flow(fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    if !(fa.rel.starts_with("crates/core/") || fa.rel.starts_with("crates/workload/")) {
        return;
    }
    visit_fns(&fa.items, &mut |f| {
        let Some(body) = f.body.as_ref().filter(|_| !f.in_test) else {
            return;
        };
        let bindings = tainted_bindings(fa, body);
        walk_taint(fa, body, &bindings, 0, out);
    });
}

/// Scan a token range for taint: seed identifiers, tainted bindings,
/// and the `LOCKGRAN_JOBS` env var inside string literals.
fn scan_taint(fa: &FileAnalysis, range: TokRange, bindings: &BTreeMap<String, u8>) -> u8 {
    let mut mask = 0u8;
    let hi = range.1.min(fa.tokens.len());
    for t in &fa.tokens[range.0.min(hi)..hi] {
        let s = t.text(&fa.src);
        if t.kind == TokenKind::Ident {
            if CC_SEEDS.contains(&s) {
                mask |= CC;
            }
            if POOL_SEEDS.contains(&s) {
                mask |= POOL;
            }
            if let Some(&b) = bindings.get(s) {
                mask |= b;
            }
        } else if t.kind == TokenKind::Str && s.contains("LOCKGRAN_JOBS") {
            mask |= POOL;
        }
    }
    mask
}

/// Propagate taint through `let` bindings to a fixpoint.
fn tainted_bindings(fa: &FileAnalysis, body: &Block) -> BTreeMap<String, u8> {
    let mut runs: Vec<(&Run, TokRange)> = Vec::new();
    visit_runs(body, &mut |r| {
        if let Some(init) = r.let_init.filter(|_| !r.let_binds.is_empty()) {
            runs.push((r, init));
        }
    });
    let mut bindings: BTreeMap<String, u8> = BTreeMap::new();
    // Bindings are usually defined before use, so this converges in one
    // or two rounds; the cap guards pathological cycles.
    for _ in 0..8 {
        let mut changed = false;
        for &(r, init) in &runs {
            let mask = scan_taint(fa, init, &bindings);
            if mask == 0 {
                continue;
            }
            for b in &r.let_binds {
                let entry = bindings.entry(b.clone()).or_insert(0);
                if *entry | mask != *entry {
                    *entry |= mask;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    bindings
}

/// Is this receiver an identifiable shared (non-conflict) RNG stream?
/// A plain `rng` parameter stays unflagged — the caller chose the
/// stream, and model-owned streams may depend on the model.
fn shared_stream(recv: &Option<String>) -> bool {
    match recv {
        Some(r) => r != "rng" && r.contains("rng") && !r.contains("conflict"),
        None => false,
    }
}

/// Walk the block tree carrying the inherited taint mask; flag draws
/// inside tainted regions.
fn walk_taint(
    fa: &FileAnalysis,
    block: &Block,
    bindings: &BTreeMap<String, u8>,
    inherited: u8,
    out: &mut Vec<Diagnostic>,
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                let mask = inherited | scan_taint(fa, *cond, bindings);
                walk_taint(fa, then_b, bindings, mask, out);
                if let Some(e) = else_b {
                    walk_taint(fa, e, bindings, mask, out);
                }
            }
            Stmt::Match { scrutinee, arms } => {
                let mask = inherited | scan_taint(fa, *scrutinee, bindings);
                for a in arms {
                    walk_taint(fa, a, bindings, mask, out);
                }
            }
            Stmt::Loop { cond, body } => {
                let mask = inherited
                    | cond
                        .map(|c| scan_taint(fa, c, bindings))
                        .unwrap_or_default();
                walk_taint(fa, body, bindings, mask, out);
            }
            Stmt::Block(b) => walk_taint(fa, b, bindings, inherited, out),
            Stmt::Run(r) => {
                if inherited == 0 {
                    continue;
                }
                for e in &r.events {
                    let EventKind::Call { recv, name, .. } = &e.kind else {
                        continue;
                    };
                    if !DRAW_FAMILY.contains(&name.as_str()) {
                        continue;
                    }
                    if inherited & POOL != 0 {
                        emit(
                            fa,
                            out,
                            Rule::R001,
                            e.line,
                            e.col,
                            format!(
                                "RNG draw `{name}` is reachable only under a \
                                 branch that depends on pool/job configuration; \
                                 results would vary with `--jobs` — hoist the \
                                 draw out of the branch or re-pin its stream"
                            ),
                        );
                    } else if inherited & CC != 0 && shared_stream(recv) {
                        emit(
                            fa,
                            out,
                            Rule::R002,
                            e.line,
                            e.col,
                            format!(
                                "RNG draw `{name}` on shared stream `{}` under a \
                                 branch that depends on the concurrency-control \
                                 model; draw order would diverge across conflict \
                                 models — hoist the draw or give the model its \
                                 own stream",
                                recv.as_deref().unwrap_or("?")
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_rust_source;

    fn codes_at(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        lint_rust_source(path, src)
            .iter()
            .map(|d| (d.line, d.rule.code()))
            .collect()
    }

    #[test]
    fn l001_flags_early_return_and_try_between_acquire_and_release() {
        let src = "\
fn locked_step(t: &mut Table, g: u64) -> Result<u64, Err> {
    let d = t.try_acquire(g)?;
    let v = compute(d)?;
    if v == 0 {
        return Err(Err::Zero);
    }
    t.release(g);
    Ok(v)
}
";
        let diags = codes_at("crates/lockmgr/src/f.rs", src);
        assert_eq!(diags, vec![(3, "L001"), (5, "L001")]);
    }

    #[test]
    fn l001_silent_when_released_before_exit_or_on_panic_exit() {
        let src = "\
fn ok_step(t: &mut Table, g: u64) -> Result<u64, Err> {
    let d = t.try_acquire(g)?;
    if bad(d) {
        t.cancel(g);
        return Err(Err::Bad);
    }
    if worse(d) {
        panic!(\"corrupt table\");
    }
    t.release(g);
    Ok(d)
}
";
        assert!(codes_at("crates/lockmgr/src/f.rs", src).is_empty());
    }

    #[test]
    fn l001_credits_release_through_the_call_graph() {
        let src = "\
fn teardown(t: &mut Table, g: u64) {
    t.release(g);
}
fn step(t: &mut Table, g: u64) -> Result<(), Err> {
    let d = t.try_acquire(g)?;
    check(d)?;
    teardown(t, g);
    Ok(())
}
";
        // The `?` at line 6 escapes before `teardown`, which the call
        // graph knows releases — so it is still a leak.
        assert_eq!(codes_at("crates/core/src/f.rs", src), vec![(6, "L001")]);
    }

    #[test]
    fn l001_out_of_scope_crates_are_ignored() {
        let src = "\
fn f(t: &mut T) -> Result<(), E> {
    let d = t.try_acquire(1)?;
    oops()?;
    t.release(1);
    Ok(())
}
";
        assert!(codes_at("crates/sim/src/f.rs", src).is_empty());
        assert!(codes_at("crates/experiments/src/f.rs", src).is_empty());
    }

    #[test]
    fn l002_flags_discarded_acquires() {
        let src = "\
fn f(t: &mut T) {
    let _ = t.try_acquire(1);
    t.acquire(2);
    let d = t.try_acquire(3);
    handle(d);
}
";
        assert_eq!(
            codes_at("crates/lockmgr/src/f.rs", src),
            vec![(2, "L002"), (3, "L002")]
        );
    }

    #[test]
    fn r002_flags_shared_stream_draw_under_cc_branch() {
        let src = "\
fn f(&mut self) {
    let decision = self.conflict.try_acquire(1, 2, &g, &mut self.conflict_rng);
    match decision {
        ConflictDecision::Granted => {
            let dt = self.service_rng.uniform01();
            self.schedule(dt);
        }
        ConflictDecision::BlockedBy(t) => self.block(t),
    }
}
";
        assert_eq!(codes_at("crates/core/src/f.rs", src), vec![(5, "R002")]);
    }

    #[test]
    fn r002_allows_conflict_stream_and_plain_rng_params() {
        let src = "\
fn f(&mut self, rng: &mut SimRng) {
    if self.escalation_threshold > 0 {
        let x = self.conflict_rng.bernoulli(0.5);
        let y = rng.uniform01();
        use_both(x, y);
    }
}
";
        assert!(codes_at("crates/core/src/f.rs", src).is_empty());
    }

    #[test]
    fn r001_flags_draw_under_jobs_branch() {
        let src = "\
fn f(&mut self) {
    if self.jobs > 1 {
        let x = self.service_rng.next_u64();
        seed(x);
    }
}
";
        assert_eq!(codes_at("crates/core/src/f.rs", src), vec![(3, "R001")]);
    }

    #[test]
    fn r_rules_taint_flows_through_bindings() {
        let src = "\
fn f(&mut self) {
    let chosen = pick(self.conflict.stats());
    let derived = chosen + 1;
    if derived > 3 {
        let x = self.access_rng.uniform_inclusive(0, 9);
        touch(x);
    }
}
";
        assert_eq!(codes_at("crates/core/src/f.rs", src), vec![(5, "R002")]);
    }

    #[test]
    fn r_rules_unconditional_draws_are_fine() {
        let src = "\
fn f(&mut self) {
    let x = self.service_rng.uniform01();
    if self.conflict_mode_is_hierarchical() {
        self.route(x);
    }
}
";
        // The draw happens before the branch; routing on CC state is fine.
        assert!(codes_at("crates/core/src/f.rs", src).is_empty());
    }
}
