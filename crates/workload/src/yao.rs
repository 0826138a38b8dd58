//! Yao's block-access estimate.
//!
//! Yao's classical formula [CACM 1977] gives the expected number of
//! granules touched when `k` entities are chosen at random without
//! replacement from a database of `d` entities packed into `g` granules of
//! `d / g` entities each:
//!
//! ```text
//! E[granules] = g * (1 - C(d - d/g, k) / C(d, k))
//! ```
//!
//! The paper (§3.5, citing Ries & Stonebraker [TODS 1979]) uses exactly
//! this expression to model **random placement** of the lock count
//! `LU_i`. Binomial coefficients at `d = 5000` overflow everything, so the
//! ratio is evaluated as a running product
//! `Π_{i=0}^{k-1} (m - i) / (d - i)` with `m = d - d/g`, which is exact in
//! real arithmetic and numerically benign (every factor is in `[0, 1]`).
//!
//! ## Capacity scaling
//!
//! The running product is `O(k)` per evaluation — fine at the paper's
//! `d = 5000`, hopeless when transactions touch 10⁵ entities of a
//! 10⁷-entity database. Above [`YAO_PRODUCT_MAX_D`] the public entry
//! point therefore routes to [`yao_expected_granules_closed`], an `O(1)`
//! ln-gamma (Euler–Maclaurin) evaluation of the same ratio. At or below
//! the threshold the original product runs unchanged, so every committed
//! golden (all at `d = 5000`) stays bit-identical. The closed form is
//! written so that every floating-point summand is of the same order as
//! `ln r` itself (no large-term cancellation); see
//! [`yao_expected_granules_closed`] for the error budget.

/// Largest database size evaluated with the exact `O(k)` running
/// product. Above this, [`yao_expected_granules`] switches to the `O(1)`
/// closed form. The committed artifacts all use `d = 5000`, far below
/// the threshold, so routing cannot move a golden. The value also bounds
/// [`crate::LocksMemo`]: every `nu` that can reach the product path fits
/// in a bounded memo table.
pub const YAO_PRODUCT_MAX_D: u64 = 1 << 16;

/// Smallest `m - k` tail for which the Euler–Maclaurin expansion is used
/// inside the closed form; below it the complementary product (bounded
/// by underflow to ~1100 factors) takes over.
const EM_MIN_TAIL: u64 = 512;

/// Expected number of granules touched: `d` entities, `g` granules, `k`
/// entities accessed. Returns a real number in `[0, g]`.
///
/// Edge cases follow the combinatorics: `k = 0` touches nothing; `k > m`
/// (more accesses than entities *outside* any one granule) forces every
/// granule to be touched with probability 1 only when `k > d - d/g`.
///
/// For `d <= YAO_PRODUCT_MAX_D` this is the exact running product (the
/// historical evaluation, bit-identical to every committed golden); for
/// larger databases it delegates to the `O(1)`
/// [`yao_expected_granules_closed`].
///
/// # Panics
/// Panics if `g == 0`, `d == 0`, or `g > d`.
pub fn yao_expected_granules(d: u64, g: u64, k: u64) -> f64 {
    assert!(d > 0, "database must be non-empty");
    assert!(g > 0, "granule count must be positive");
    assert!(g <= d, "cannot have more granules than entities");
    if d > YAO_PRODUCT_MAX_D {
        return yao_expected_granules_closed(d, g, k);
    }
    if k == 0 {
        return 0.0;
    }
    if k >= d {
        return g as f64;
    }
    // Entities not in a fixed granule. Granule size is d/g entities; the
    // formula treats granules as equal-sized, as the paper assumes.
    let granule_size = d / g;
    let m = d - granule_size;
    if k > m {
        // Too many accesses to avoid any granule.
        return g as f64;
    }
    // ratio = C(m, k) / C(d, k) = prod_{i=0..k-1} (m - i) / (d - i)
    let mut ratio = 1.0f64;
    for i in 0..k {
        ratio *= (m - i) as f64 / (d - i) as f64;
        // Early exit once the product underflows to exactly 0.0 — it can never
        // recover, every factor is < 1.
        if ratio == 0.0 {
            break;
        }
    }
    g as f64 * (1.0 - ratio)
}

/// Closed-form (`O(1)`) evaluation of Yao's expectation for large
/// databases: same combinatorial edge cases as
/// [`yao_expected_granules`], but the binomial ratio
/// `r = C(m, k) / C(d, k)` (`m = d - d/g`) is evaluated as
/// `exp(ln r)` with `ln r = lnΓ-difference` via a fourth-order
/// Euler–Maclaurin expansion instead of `k` multiplications.
///
/// ## Numerical design
///
/// A naive `lnΓ(m+1) - lnΓ(m-k+1) - lnΓ(d+1) + lnΓ(d-k+1)` loses ~9
/// digits to cancellation exactly where precision matters (`r → 1`, i.e.
/// `E → 0`). Instead the four-term difference is rearranged so **every
/// summand is of the same order as `ln r` itself**:
///
/// ```text
/// ln r = (m + ½)·ln1p(s·k / (d·(m-k)))      s = d/g
///      +  k     ·ln1p(-s / (d-k))
///      +  s     ·ln1p(-k / d)
///      + Bernoulli x⁻¹, x⁻³, x⁻⁵ pair-differences
/// ```
///
/// (the first line folds the integral and trapezoid terms — they share
/// the same `ln1p` argument). Relative error on `ln r` is a few ulps,
/// so the relative error on `E = g·(1 - r)` is ~1e-15 across the
/// domain — comfortably inside the 1e-12 agreement bound the property
/// tests assert against the running product.
///
/// The expansion needs a tail `m - k >= EM_MIN_TAIL`; closer to the
/// `k = m` boundary the ratio is instead the complementary product
/// `Π_{j=0}^{s-1} (d-k-j)/(d-j)` (same value by the symmetry
/// `C(m,k)/C(d,k) = C(d-k,s)/C(d,s)`), whose factors are then at most
/// `(s + EM_MIN_TAIL)/d <= ~0.5 + ε`, so it underflows to exactly 0 in
/// at most ~1100 iterations — still effectively `O(1)`.
///
/// # Panics
/// Panics under the same conditions as [`yao_expected_granules`].
pub fn yao_expected_granules_closed(d: u64, g: u64, k: u64) -> f64 {
    assert!(d > 0, "database must be non-empty");
    assert!(g > 0, "granule count must be positive");
    assert!(g <= d, "cannot have more granules than entities");
    if k == 0 {
        return 0.0;
    }
    if k >= d {
        return g as f64;
    }
    let s = d / g;
    let m = d - s;
    if k > m {
        return g as f64;
    }
    let ratio = if m - k >= EM_MIN_TAIL {
        ln_binom_ratio(d, m, k, s).exp()
    } else {
        complementary_ratio(d, k, s)
    };
    // The true expectation never exceeds min(k, g); clamp the last few
    // ulps of exp/multiply rounding so callers can rely on the bound.
    (g as f64 * (1.0 - ratio)).clamp(0.0, k.min(g) as f64)
}

/// `ln( C(m, k) / C(d, k) )` with `m = d - s`, by a cancellation-free
/// Euler–Maclaurin expansion of `Σ ln j` differences. Requires
/// `m - k >= EM_MIN_TAIL` (truncation error then < 1e-16 relative).
fn ln_binom_ratio(d: u64, m: u64, k: u64, s: u64) -> f64 {
    let (df, mf, kf, sf) = (d as f64, m as f64, k as f64, s as f64);
    let mk = mf - kf; // m - k
    let dk = df - kf; // d - k
                      // Integral + trapezoid terms of Σ_{j=a+1}^{b} ln j, paired across
                      // the (m-k, m) and (d-k, d) ranges so each summand is O(ln r).
    let t0 = (mf + 0.5) * (sf * kf / (df * mk)).ln_1p();
    let t1 = kf * (-sf / dk).ln_1p();
    let t2 = sf * (-kf / df).ln_1p();
    // Bernoulli corrections, each evaluated as a single pair-difference.
    let c1 = -(kf * sf / 12.0) * (mf + df - kf) / (df * dk * mf * mk);
    let am = mk * mk + mk * mf + mf * mf;
    let ad = dk * dk + dk * df + df * df;
    let c3 = (kf / 360.0) * (am / (mf.powi(3) * mk.powi(3)) - ad / (df.powi(3) * dk.powi(3)));
    let c5 =
        ((1.0 / mf.powi(5) - 1.0 / mk.powi(5)) - (1.0 / df.powi(5) - 1.0 / dk.powi(5))) / 1260.0;
    t0 + t1 + t2 + c1 + c3 + c5
}

/// `C(d-s, k) / C(d, k)` through the complementary `s`-factor product
/// `Π_{j=0}^{s-1} (d-k-j)/(d-j)`. Used for the `k → m` boundary where
/// the Euler–Maclaurin tail is too short; there the factors are small
/// enough that the product underflows to exactly 0 within ~1100 steps.
fn complementary_ratio(d: u64, k: u64, s: u64) -> f64 {
    let mut ratio = 1.0f64;
    for j in 0..s {
        ratio *= (d - k - j) as f64 / (d - j) as f64;
        // Early exit once the product underflows to exactly 0.0 — it can never
        // recover, every factor is < 1.
        if ratio == 0.0 {
            break;
        }
    }
    ratio
}

/// Exact expectation of the number of granules touched when `k` distinct
/// entities are drawn uniformly from `d` entities arranged into `g`
/// granules whose sizes may be *unequal* (sizes given explicitly). Used as
/// a reference implementation to validate [`yao_expected_granules`]:
/// by linearity of expectation,
/// `E = Σ_j (1 - C(d - s_j, k) / C(d, k))` over granule sizes `s_j`.
///
/// # Panics
/// Panics if sizes don't sum to `d` or any size is zero.
pub fn exact_expected_granules(d: u64, sizes: &[u64], k: u64) -> f64 {
    assert_eq!(
        sizes.iter().sum::<u64>(),
        d,
        "granule sizes must sum to dbsize"
    );
    assert!(
        sizes.iter().all(|&s| s > 0),
        "granule sizes must be positive"
    );
    if k == 0 {
        return 0.0;
    }
    sizes
        .iter()
        .map(|&s| {
            if k > d - s {
                1.0
            } else {
                let mut ratio = 1.0f64;
                for i in 0..k {
                    ratio *= (d - s - i) as f64 / (d - i) as f64;
                }
                1.0 - ratio
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_accesses_touch_nothing() {
        assert_eq!(yao_expected_granules(5000, 100, 0), 0.0);
    }

    #[test]
    fn full_scan_touches_every_granule() {
        assert_eq!(yao_expected_granules(5000, 100, 5000), 100.0);
        assert_eq!(yao_expected_granules(5000, 100, 6000), 100.0);
    }

    #[test]
    fn single_access_touches_one_granule_in_expectation_times_probability() {
        // With k = 1: E = g * (1 - (d - d/g)/d) = g * (d/g)/d = 1.
        for &(d, g) in &[(5000u64, 1u64), (5000, 10), (5000, 100), (5000, 5000)] {
            let e = yao_expected_granules(d, g, 1);
            assert!((e - 1.0).abs() < 1e-9, "d={d} g={g} E={e}");
        }
    }

    #[test]
    fn one_granule_database() {
        // g = 1: any access touches the single granule.
        for k in [1u64, 10, 100] {
            assert!((yao_expected_granules(5000, 1, k) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn record_level_granularity_equals_k() {
        // g = d: every entity is its own granule, so E = k exactly.
        for k in [1u64, 17, 250, 499] {
            let e = yao_expected_granules(5000, 5000, k);
            assert!((e - k as f64).abs() < 1e-6, "k={k} E={e}");
        }
    }

    #[test]
    fn bounded_by_min_k_g() {
        for g in [1u64, 2, 10, 50, 200, 1000, 5000] {
            for k in [1u64, 5, 50, 250, 500, 2500] {
                let e = yao_expected_granules(5000, g, k);
                assert!(e <= g as f64 + 1e-9, "E={e} > g={g}");
                assert!(e <= k as f64 + 1e-9, "E={e} > k={k}");
                assert!(e >= 1.0 - 1e-9, "E={e} < 1 for k={k} >= 1");
            }
        }
    }

    #[test]
    fn monotone_in_access_count() {
        let mut prev = 0.0;
        for k in 0..500 {
            let e = yao_expected_granules(5000, 200, k);
            assert!(e >= prev - 1e-12, "not monotone at k={k}");
            prev = e;
        }
    }

    #[test]
    fn matches_exact_formula_for_equal_granules() {
        // For d divisible by g the approximation *is* the exact formula.
        for &(d, g) in &[(100u64, 10u64), (5000, 50), (5000, 500)] {
            let sizes = vec![d / g; g as usize];
            for k in [1u64, 3, 10, 40] {
                let approx = yao_expected_granules(d, g, k);
                let exact = exact_expected_granules(d, &sizes, k);
                assert!(
                    (approx - exact).abs() < 1e-9,
                    "d={d} g={g} k={k}: {approx} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn exact_handles_unequal_granules() {
        // 10 entities: one granule of 9, one of 1. Drawing k=1:
        // E = (1 - C(1,1)/C(10,1)) + (1 - C(9,1)/C(10,1)) = 0.9 + 0.1 = 1.
        let e = exact_expected_granules(10, &[9, 1], 1);
        assert!((e - 1.0).abs() < 1e-12);
        // Drawing all 10 touches both.
        let e = exact_expected_granules(10, &[9, 1], 10);
        assert!((e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_scale_values_are_sane() {
        // dbsize = 5000, average transaction 250 entities.
        // Coarse (g = 10): essentially all granules touched.
        let coarse = yao_expected_granules(5000, 10, 250);
        assert!(coarse > 9.9, "coarse {coarse}");
        // Fine (g = 5000): about 250 granules touched.
        let fine = yao_expected_granules(5000, 5000, 250);
        assert!((fine - 250.0).abs() < 1e-3, "fine {fine}");
    }

    #[test]
    #[should_panic(expected = "granules than entities")]
    fn rejects_more_granules_than_entities() {
        yao_expected_granules(10, 11, 1);
    }

    /// The running product, re-stated inline: the bit-for-bit reference
    /// the router must reproduce at paper scale.
    fn product_reference(d: u64, g: u64, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if k >= d {
            return g as f64;
        }
        let m = d - d / g;
        if k > m {
            return g as f64;
        }
        let mut ratio = 1.0f64;
        for i in 0..k {
            ratio *= (m - i) as f64 / (d - i) as f64;
            if ratio == 0.0 {
                break;
            }
        }
        g as f64 * (1.0 - ratio)
    }

    /// Golden stability: at and below the routing threshold the public
    /// entry point is the running product, *bit for bit* — so committed
    /// artifacts (all at d = 5000) cannot move.
    #[test]
    fn routing_keeps_product_path_bit_identical() {
        for &d in &[10u64, 100, 5000, YAO_PRODUCT_MAX_D] {
            for &g in &[1u64, 2, 10, 100, 1000] {
                if g > d {
                    continue;
                }
                for &k in &[0u64, 1, 3, 10, 250, 500, 4999, d / 2, d - 1] {
                    let routed = yao_expected_granules(d, g, k);
                    let reference = product_reference(d, g, k);
                    assert_eq!(
                        routed.to_bits(),
                        reference.to_bits(),
                        "router diverged from product at d={d} g={g} k={k}"
                    );
                }
            }
        }
    }

    /// The closed form agrees with the running product to 1e-12 relative
    /// over a grid that includes the paper's d = 5000 — both the
    /// Euler–Maclaurin branch (small k) and the complementary-product
    /// branch (k near m).
    #[test]
    fn closed_form_agrees_with_product_to_1e12() {
        for &d in &[600u64, 5000, 50_000] {
            for &g in &[2u64, 5, 10, 50, 200, 1000, 5000] {
                if g > d {
                    continue;
                }
                let m = d - d / g;
                for &k in &[
                    1u64,
                    2,
                    5,
                    17,
                    50,
                    250,
                    500,
                    d / 10,
                    d / 2,
                    m.saturating_sub(1),
                    m,
                ] {
                    if k == 0 || k > m {
                        continue;
                    }
                    let exact = product_reference(d, g, k);
                    let closed = yao_expected_granules_closed(d, g, k);
                    let rel = (closed - exact).abs() / exact.abs().max(f64::MIN_POSITIVE);
                    assert!(
                        rel <= 1e-12,
                        "closed form off by {rel:.3e} at d={d} g={g} k={k}: \
                         {closed} vs {exact}"
                    );
                }
            }
        }
    }

    /// At capacity scale (d = 10⁷) the closed form stays monotone
    /// non-decreasing in the access count.
    #[test]
    fn capacity_scale_monotone_in_access_count() {
        const D: u64 = 10_000_000;
        for &g in &[2u64, 100, 10_000, 1_000_000, D] {
            let mut prev = 0.0;
            let mut k = 1u64;
            while k < D {
                let e = yao_expected_granules(D, g, k);
                assert!(
                    e >= prev - 1e-9,
                    "not monotone at d={D} g={g} k={k}: {e} < {prev}"
                );
                prev = e;
                // Geometric sweep (with a +1 floor so it always advances).
                k = (k * 3 / 2).max(k + 1);
            }
        }
    }

    /// At capacity scale the estimate respects the combinatorial bounds
    /// `0 <= E <= min(k, g)` (and `E >= 1` once anything is accessed).
    #[test]
    fn capacity_scale_bounded_by_min_k_g() {
        const D: u64 = 10_000_000;
        for &g in &[1u64, 2, 64, 5000, 100_000, 1_000_000, D] {
            for &k in &[1u64, 10, 1000, 100_000, 1_000_000, D - 1, D] {
                let e = yao_expected_granules(D, g, k);
                assert!(e >= 1.0 - 1e-9, "E={e} < 1 at g={g} k={k}");
                assert!(e <= g as f64, "E={e} > g={g} at k={k}");
                assert!(e <= k as f64, "E={e} > k={k} at g={g}");
            }
        }
    }

    /// Capacity-scale sanity: the same limit behaviors the paper-scale
    /// tests pin, at d = 10⁷ (single access → 1 granule; record-level
    /// granularity → exactly k; coarse granularity saturates).
    #[test]
    fn capacity_scale_values_are_sane() {
        const D: u64 = 10_000_000;
        let e = yao_expected_granules(D, 1000, 1);
        assert!((e - 1.0).abs() < 1e-9, "single access: {e}");
        let e = yao_expected_granules(D, D, 100_000);
        assert!((e - 100_000.0).abs() < 1e-6, "record level: {e}");
        let e = yao_expected_granules(D, 10, 100_000);
        assert!(e > 9.9999, "coarse saturation: {e}");
    }
}
