//! D003 fixture: exact float comparisons, flagged by `clippy::float_cmp`
//! in the library pass. Clippy must flag exactly the lines marked
//! VIOLATION.

pub fn check(x: f64, n: u64) -> bool {
    let a = x == 0.5; // VIOLATION
    let b = x != 1e-9; // VIOLATION
    let c = 0.5 == x; // VIOLATION
    let d = x == -2.5; // VIOLATION
    let e = x == x.trunc(); // VIOLATION: no literal, still an exact compare
    let ok_zero = x.fract() == 0.0; // ok: compares against zero are exact
    let ok_int = n == 5; // ok: integer comparison
    let ok_le = x <= 0.5; // ok: ordered comparison
    let ok_ge = x >= 0.5; // ok: ordered comparison
    let ok_mul = x * 0.5; // ok: arithmetic
    #[expect(
        clippy::float_cmp,
        reason = "sentinel propagated verbatim, never computed"
    )]
    let vouched = x == 0.25;
    a || b || c || d || e || ok_zero || ok_int || ok_le || ok_ge || ok_mul > 0.0 || vouched
}
