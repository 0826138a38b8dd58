//! Granule placement models: how many locks a transaction needs (`LU_i`).
//!
//! The number of locks a transaction must set depends on how its `NU_i`
//! entities are laid out over the `ltot` granules (paper §2 and §3.5,
//! following Ries & Stonebraker):
//!
//! * [`Placement::Best`] — entities are packed into as few granules as
//!   possible (pure sequential access, e.g. a range scan):
//!   `LU = ceil(NU · ltot / dbsize)`.
//! * [`Placement::Worst`] — every accessed entity lies in a distinct
//!   granule: `LU = min(NU, ltot)`.
//! * [`Placement::Random`] — entities are scattered uniformly; the
//!   expected granule count is Yao's formula (see [`crate::yao`]),
//!   rounded to the nearest whole lock.
//!
//! All three return at least 1 lock for a non-empty transaction and never
//! more than `ltot`.

use lockgran_sim::named_enum;

use crate::yao::yao_expected_granules;

named_enum! {
    /// Granule placement strategy (determines `LU_i`). Declared in the
    /// order the paper presents the strategies, which is the order of
    /// `ALL`.
    pub enum Placement {
        /// Sequential packing: fewest possible granules.
        Best => "best",
        /// Uniform random scatter: Yao's mean-value estimate.
        Random => "random",
        /// Adversarial scatter: one granule per entity (capped at `ltot`).
        Worst => "worst",
    }
}

impl Placement {
    /// Number of locks (`LU_i`) required by a transaction accessing `nu`
    /// entities of a `dbsize`-entity database guarded by `ltot` granule
    /// locks.
    ///
    /// Returns 0 iff `nu == 0`; otherwise a value in `[1, min(nu, ltot)]`
    /// for `Best`/`Worst`, and `[1, ltot]` for `Random` (Yao's estimate
    /// also never exceeds `min(nu, ltot)`).
    ///
    /// # Panics
    /// Panics if `ltot == 0`, `dbsize == 0` or `ltot > dbsize`.
    pub fn locks_required(self, nu: u64, ltot: u64, dbsize: u64) -> u64 {
        assert!(dbsize > 0, "dbsize must be positive");
        assert!(ltot > 0, "ltot must be positive");
        assert!(ltot <= dbsize, "ltot cannot exceed dbsize");
        if nu == 0 {
            return 0;
        }
        let nu = nu.min(dbsize);
        match self {
            // ceil(nu * ltot / dbsize), in integer arithmetic. The product
            // is widened because it can exceed u64 for valid configs; the
            // quotient is at most `ltot`, so it narrows back exactly.
            Placement::Best => {
                let lu = (u128::from(nu) * u128::from(ltot)).div_ceil(u128::from(dbsize));
                (lu as u64).max(1)
            }
            Placement::Worst => nu.min(ltot),
            Placement::Random => {
                let e = yao_expected_granules(dbsize, ltot, nu);
                // Round to nearest lock; a transaction always needs >= 1.
                (e.round() as u64).clamp(1, ltot)
            }
        }
    }
}

/// Memoized [`Placement::locks_required`] for fixed `(placement, ltot,
/// dbsize)` — the per-run hot path.
///
/// `locks_required` is pure in `nu`, but for [`Placement::Random`] each
/// call evaluates Yao's running product in `O(nu)` multiplications; the
/// workload generator calls it once per spawned transaction (thousands of
/// times per run) over at most `maxtransize` distinct `nu` values. This
/// table computes each `nu` once, lazily, and answers repeats with an
/// array load. Entries are exactly the function's own outputs, so
/// memoization cannot change any simulated result.
///
/// The table is bounded by [`LocksMemo::MAX_ENTRIES`] so a 10⁷-entity
/// domain with 10⁵-entity transactions doesn't allocate a 10⁵-slot table
/// per sweep point (or thrash one). The bound is aligned with
/// [`crate::yao::YAO_PRODUCT_MAX_D`]: any `nu` that can reach the `O(nu)`
/// running-product path (`dbsize <= YAO_PRODUCT_MAX_D`, hence
/// `nu <= dbsize <= YAO_PRODUCT_MAX_D`) always fits in the memo, while
/// lookups beyond the bound only ever fall back to the `O(1)` closed-form
/// evaluation — the fallback is never the expensive path.
#[derive(Clone, Debug)]
pub struct LocksMemo {
    placement: Placement,
    ltot: u64,
    dbsize: u64,
    /// `cache[nu] = locks_required(nu)`; `0` marks an unfilled slot
    /// (valid because `locks_required(nu) >= 1` for `nu >= 1`, and
    /// `nu = 0` maps to `0` locks without needing the cache).
    cache: Vec<u64>,
}

impl LocksMemo {
    /// Upper bound on memoized `nu` slots: `YAO_PRODUCT_MAX_D + 1`, so
    /// every `nu` the running-product path can see is memoized, and
    /// unmemoized lookups are all `O(1)` closed-form calls.
    pub const MAX_ENTRIES: usize = crate::yao::YAO_PRODUCT_MAX_D as usize + 1;

    /// A memo table for transactions of up to `max_nu` entities (capped
    /// at [`LocksMemo::MAX_ENTRIES`] slots).
    ///
    /// # Panics
    /// Panics (on first lookup) under the same conditions as
    /// [`Placement::locks_required`].
    pub fn new(placement: Placement, ltot: u64, dbsize: u64, max_nu: u64) -> Self {
        LocksMemo {
            placement,
            ltot,
            dbsize,
            cache: vec![0; (max_nu as usize).saturating_add(1).min(Self::MAX_ENTRIES)],
        }
    }

    /// Memoized `LU_i` for a transaction accessing `nu` entities. Falls
    /// back to the direct computation for `nu` beyond the table bound.
    pub fn locks_required(&mut self, nu: u64) -> u64 {
        if nu == 0 {
            return 0;
        }
        let Some(slot) = self.cache.get_mut(nu as usize) else {
            return self.placement.locks_required(nu, self.ltot, self.dbsize);
        };
        if *slot == 0 {
            *slot = self.placement.locks_required(nu, self.ltot, self.dbsize);
        }
        *slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DB: u64 = 5000;

    #[test]
    fn best_placement_matches_paper_formula() {
        // LU = ceil(NU * ltot / dbsize); e.g. 10% of the database needs
        // 10% of the locks.
        assert_eq!(Placement::Best.locks_required(500, 100, DB), 10);
        assert_eq!(Placement::Best.locks_required(250, 100, DB), 5);
        assert_eq!(Placement::Best.locks_required(1, 1, DB), 1);
        assert_eq!(Placement::Best.locks_required(1, DB, DB), 1);
        assert_eq!(Placement::Best.locks_required(DB, DB, DB), DB);
        // Rounds *up*: 251 entities at ltot = 100 -> ceil(5.02) = 6.
        assert_eq!(Placement::Best.locks_required(251, 100, DB), 6);
    }

    #[test]
    fn best_placement_survives_u64_product_overflow() {
        // nu · ltot crosses 2⁶⁴ exactly at nu = ltot = dbsize = 2³²; one
        // entity fewer stays just inside u64.
        let n = 1u64 << 32;
        assert_eq!(Placement::Best.locks_required(n - 1, n, n), n - 1);
        assert_eq!(Placement::Best.locks_required(n, n, n), n);
        // Entity-level locking over a 10¹⁸-entity database.
        let big = 1_000_000_000_000_000_000u64;
        assert_eq!(Placement::Best.locks_required(500, big, big), 500);
        assert_eq!(Placement::Best.locks_required(big, big, big), big);
        assert_eq!(Placement::Best.locks_required(1, 2, big), 1);
    }

    #[test]
    fn worst_placement_is_min() {
        assert_eq!(Placement::Worst.locks_required(250, 100, DB), 100);
        assert_eq!(Placement::Worst.locks_required(250, 500, DB), 250);
        assert_eq!(Placement::Worst.locks_required(250, DB, DB), 250);
        assert_eq!(Placement::Worst.locks_required(1, 1, DB), 1);
    }

    #[test]
    fn random_placement_between_best_and_worst() {
        for &ltot in &[1u64, 2, 10, 100, 500, 1000, DB] {
            for &nu in &[1u64, 25, 250, 500, 2500] {
                let best = Placement::Best.locks_required(nu, ltot, DB);
                let worst = Placement::Worst.locks_required(nu, ltot, DB);
                let random = Placement::Random.locks_required(nu, ltot, DB);
                assert!(
                    best <= random + 1 && random <= worst,
                    "ltot={ltot} nu={nu}: best={best} random={random} worst={worst}"
                );
            }
        }
    }

    #[test]
    fn random_placement_near_worst_when_few_locks() {
        // For large transactions and ltot << NU, random placement touches
        // essentially all granules (paper: throughput dips until ltot
        // reaches the mean transaction size).
        let lu = Placement::Random.locks_required(250, 50, DB);
        assert!(lu >= 49, "expected nearly all 50 granules, got {lu}");
    }

    #[test]
    fn random_placement_near_nu_when_fine_granularity() {
        let lu = Placement::Random.locks_required(250, DB, DB);
        assert!((lu as i64 - 250).unsigned_abs() <= 7, "got {lu}");
    }

    #[test]
    fn zero_entities_need_zero_locks() {
        for p in Placement::ALL {
            assert_eq!(p.locks_required(0, 100, DB), 0);
        }
    }

    #[test]
    fn nonzero_entities_need_at_least_one_lock() {
        for p in Placement::ALL {
            for &ltot in &[1u64, 7, 100, DB] {
                assert!(p.locks_required(1, ltot, DB) >= 1);
            }
        }
    }

    #[test]
    fn never_exceeds_ltot() {
        for p in Placement::ALL {
            for &ltot in &[1u64, 3, 77, 100, DB] {
                for &nu in &[1u64, 100, 5000, 9999] {
                    assert!(p.locks_required(nu, ltot, DB) <= ltot);
                }
            }
        }
    }

    #[test]
    fn whole_database_lock_serializes_everything() {
        // ltot = 1: every strategy requires exactly the single lock.
        for p in Placement::ALL {
            assert_eq!(p.locks_required(250, 1, DB), 1);
        }
    }

    #[test]
    fn memo_agrees_with_direct_computation() {
        for p in Placement::ALL {
            let mut memo = LocksMemo::new(p, 100, DB, 500);
            for nu in [0u64, 1, 2, 49, 250, 499, 500, 777, 5000] {
                // Twice: first fill, then the cached load.
                assert_eq!(memo.locks_required(nu), p.locks_required(nu, 100, DB));
                assert_eq!(memo.locks_required(nu), p.locks_required(nu, 100, DB));
            }
        }
    }

    #[test]
    fn memo_is_bounded_at_capacity_scale() {
        // A 10⁷-entity domain must not allocate a 10⁷-slot table, and
        // beyond-bound lookups still agree with the direct computation.
        let (ltot, db) = (1_000_000u64, 10_000_000u64);
        let mut memo = LocksMemo::new(Placement::Random, ltot, db, db);
        assert_eq!(memo.cache.len(), LocksMemo::MAX_ENTRIES);
        for nu in [1u64, 65_535, 65_536, 65_537, 100_000, db] {
            let direct = Placement::Random.locks_required(nu, ltot, db);
            // Twice: fill (or fallback), then repeat.
            assert_eq!(memo.locks_required(nu), direct, "nu={nu}");
            assert_eq!(memo.locks_required(nu), direct, "nu={nu}");
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in Placement::ALL {
            let parsed: Placement = p.name().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("other".parse::<Placement>().is_err());
    }
}
