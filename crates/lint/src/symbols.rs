//! The workspace symbol table.
//!
//! Built in a first pass over every parsed file, consumed by the L-rules
//! in a second pass. It resolves one thing: a conservative may-release
//! closure over the call graph. A function *may release* a lock if it
//! directly calls one of the release-family methods (`release` /
//! `release_all` / `cancel`) or calls — by name, anywhere in the
//! workspace — a function that may. Name-keyed rather than
//! type-resolved: that over-approximates (two unrelated `close` methods
//! alias), which for the L-rules errs in the safe direction of crediting
//! a release rather than inventing a leak.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{visit_fns, visit_runs, EventKind, Item};

/// Method names that take a lock.
pub const ACQUIRE_FAMILY: [&str; 2] = ["acquire", "try_acquire"];

/// Method names that give a lock back (or abandon the request).
pub const RELEASE_FAMILY: [&str; 3] = ["release", "release_all", "cancel"];

/// Cross-file facts shared by every rule in the second pass.
#[derive(Default)]
pub struct SymbolTable {
    /// Function name → names it calls (union over same-named fns).
    calls: BTreeMap<String, BTreeSet<String>>,
    /// Functions that transitively reach a release-family call.
    may_release: BTreeSet<String>,
}

impl SymbolTable {
    /// Fold one parsed file into the table.
    pub fn add_file(&mut self, items: &[Item]) {
        visit_fns(items, &mut |f| {
            let Some(body) = &f.body else { return };
            let callees = self.calls.entry(f.name.clone()).or_default();
            visit_runs(body, &mut |r| {
                for e in &r.events {
                    if let EventKind::Call { name, .. } = &e.kind {
                        callees.insert(name.clone());
                    }
                }
            });
        });
    }

    /// Close the may-release relation over the call graph. Call once,
    /// after every file has been added.
    pub fn finalize(&mut self) {
        let mut frontier: Vec<String> = self
            .calls
            .iter()
            .filter(|(_, callees)| RELEASE_FAMILY.iter().any(|r| callees.contains(*r)))
            .map(|(name, _)| name.clone())
            .collect();
        while let Some(name) = frontier.pop() {
            if !self.may_release.insert(name.clone()) {
                continue;
            }
            for (caller, callees) in &self.calls {
                if callees.contains(&name) && !self.may_release.contains(caller) {
                    frontier.push(caller.clone());
                }
            }
        }
    }

    /// Does a call to `name` (possibly transitively) release a lock?
    pub fn is_release_call(&self, name: &str) -> bool {
        RELEASE_FAMILY.contains(&name) || self.may_release.contains(name)
    }

    /// Is `name` a direct lock acquisition?
    pub fn is_acquire_call(name: &str) -> bool {
        ACQUIRE_FAMILY.contains(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse;

    fn table_for(src: &str) -> SymbolTable {
        let mut t = SymbolTable::default();
        t.add_file(&parse(&lex(src).tokens, src));
        t.finalize();
        t
    }

    #[test]
    fn may_release_closes_over_calls() {
        let src = "
            fn direct(t: &mut T) { t.release(); }
            fn indirect(t: &mut T) { direct(t); }
            fn twice(t: &mut T) { indirect(t); }
            fn unrelated() { compute(); }
        ";
        let t = table_for(src);
        assert!(t.is_release_call("release"));
        assert!(t.is_release_call("direct"));
        assert!(t.is_release_call("indirect"));
        assert!(t.is_release_call("twice"));
        assert!(!t.is_release_call("unrelated"));
        assert!(!t.is_release_call("compute"));
        assert!(SymbolTable::is_acquire_call("try_acquire"));
        assert!(!SymbolTable::is_acquire_call("lock_stats"));
    }
}
