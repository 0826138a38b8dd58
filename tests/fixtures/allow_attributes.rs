//! `#[allow]` fixture: a finding suppressed with `#[allow]`, flagged by
//! `clippy::allow_attributes` in the library pass. A suppression takes
//! `#[expect(…, reason = …)]`, which fails clippy once it goes stale.
//! Clippy must flag exactly the lines marked VIOLATION.

#[allow(clippy::too_many_arguments)] // VIOLATION
pub fn sum_allowed(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) -> u8 {
    a + b + c + d + e + f + g + h
}

#[expect(
    clippy::too_many_arguments,
    reason = "a fulfilled expectation with its reason is the accepted form"
)]
pub fn sum_expected(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) -> u8 {
    a + b + c + d + e + f + g + h
}
