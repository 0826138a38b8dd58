//! D001 fixture: hash containers, banned by `disallowed-types` in the
//! root clippy.toml. Clippy must flag exactly the lines marked VIOLATION.

use std::collections::HashMap; // VIOLATION
use std::collections::HashSet; // VIOLATION
use std::collections::{BTreeMap, BTreeSet}; // ok

pub fn build() -> BTreeMap<u64, u64> {
    let stale: HashMap<u64, u64> = HashMap::new(); // VIOLATION
    let _ = stale;
    #[expect(
        clippy::disallowed_types,
        reason = "FFI boundary requires the std hasher here"
    )]
    let vouched: HashSet<u64> = HashSet::default();
    let _ = vouched;
    let _ = "HashMap in a string is fine";
    // HashMap in a comment is fine
    let _ordered: BTreeSet<u64> = BTreeSet::new();
    BTreeMap::new()
}
