//! P001 fixture: panicking calls, flagged by `clippy::unwrap_used` and
//! `clippy::expect_used` in the library pass. Clippy must flag exactly
//! the lines marked VIOLATION.

pub fn take(o: Option<u64>, r: Result<u64, String>) -> u64 {
    let a = o.unwrap(); // VIOLATION
    let b = r.expect("value must be present"); // VIOLATION
    let ok_default = o.unwrap_or(0); // ok: non-panicking sibling
    a + b + ok_default
}

#[expect(
    clippy::unwrap_used,
    reason = "caller checked is_some() on the hot path"
)]
pub fn vouched(o: Option<u64>) -> u64 {
    o.unwrap()
}

pub fn wrapped(o: Option<u64>) -> u64 {
    #[expect(
        clippy::expect_used,
        reason = "a justification on a `let` covers its whole initializer, \
                  however many lines the chain spans"
    )]
    let v = o
        .map(|v| v + 1)
        .expect("caller passes Some");
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!("1".parse::<u64>().unwrap(), 1); // ok: test code
    }
}
