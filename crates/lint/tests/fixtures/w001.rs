//! W001 fixture: stale allows that no longer suppress anything.

// lint:allow(P002): nothing below removes from the front any more
pub fn stale() -> u32 {
    1
}

pub fn used(v: &mut Vec<u32>) -> u32 {
    // lint:allow(P002): v never holds more than two elements
    v.remove(0)
}

// lint:allow(D005, W001): kept while the ordered-map refactor lands
pub fn vouched() -> u32 {
    2
}
