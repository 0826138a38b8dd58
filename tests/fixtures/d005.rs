//! Fixture: D005 — ordered maps inside a lock-manager hot-path module.

use std::collections::BTreeMap; // VIOLATION
use std::collections::BTreeSet; // VIOLATION

pub struct Table {
    entries: BTreeMap<u64, u32>, // VIOLATION
    dirty: BTreeSet<u64>,        // VIOLATION
}

// A BTreeMap named only in a comment is fine.
pub fn size(table: &Table) -> usize {
    table.entries.len() + table.dirty.len()
}
