//! E001 fixture: wildcard arms that hide enum variants, flagged by
//! `clippy::wildcard_enum_match_arm` and
//! `clippy::match_wildcard_for_single_variants` in the library pass.
//! Clippy must flag exactly the lines marked VIOLATION.

pub enum Metric {
    A,
    B,
    C,
    D,
}

pub fn render(m: Metric) -> u32 {
    match m {
        Metric::A => 1,
        Metric::B => 2,
        Metric::C => 3,
        _ => 0, // VIOLATION: hides the one variant left
    }
}

pub fn dispatch(m: &Metric) -> u32 {
    match m {
        Metric::A => 1,
        _ => 0, // VIOLATION: hides three variants
    }
}

pub fn not_an_enum(n: u32) -> u32 {
    match n {
        0 => 1,
        _ => 0, // ok: integers have no variants to hide
    }
}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "a view of one variant; every other variant, a future one included, has none"
)]
pub fn vouched(m: &Metric) -> Option<u32> {
    match m {
        Metric::A => Some(1),
        _ => None,
    }
}
