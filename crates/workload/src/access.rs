//! Explicit granule-set sampling.
//!
//! The paper never materializes which granules a transaction locks — it
//! works with lock *counts* and a probabilistic conflict draw. To validate
//! that approximation against a real lock table (see
//! `lockgran-core::locking`), we need concrete granule sets whose
//! statistics match each placement model:
//!
//! * [`AccessPattern::Sequential`] — a contiguous run of granules starting
//!   at a random offset (wrapping), matching **best placement**: `NU`
//!   consecutive entities occupy `ceil(NU · ltot / dbsize)` (± 1 for
//!   alignment) consecutive granules.
//! * [`AccessPattern::Scattered`] — `k` granules sampled uniformly without
//!   replacement, matching **random placement** (the realized granule
//!   count of a uniform entity sample, rather than Yao's mean).
//! * Worst placement is `Scattered` with `k = min(NU, ltot)`.

use lockgran_sim::{json_struct, SimRng};

use crate::placement::Placement;

json_struct! {
    /// Hot-spot access skew (the classic "b–c rule": fraction `c` of the
    /// database receives fraction `b` of the accesses, e.g. 80% of accesses
    /// to 20% of the granules).
    ///
    /// The paper assumes uniform access; real reference strings are skewed
    /// (Rodriguez-Rosell 1976, which the paper itself cites for sequential
    /// behaviour). Skew only affects the *explicit* conflict model — the
    /// probabilistic partition draw has no notion of which granules are hot,
    /// which is precisely why this extension is interesting.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct HotSpot {
        /// Fraction of the granule space that is hot (0 < fraction < 1).
        pub fraction: f64,
        /// Fraction of accesses that go to the hot region
        /// (`fraction < weight < 1` for actual skew).
        pub weight: f64,
    }
}

impl HotSpot {
    /// The classic 80/20 rule.
    pub fn eighty_twenty() -> Self {
        HotSpot {
            fraction: 0.2,
            weight: 0.8,
        }
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.fraction > 0.0 && self.fraction < 1.0) {
            return Err("hot-spot fraction must be in (0, 1)".into());
        }
        if !(self.weight > 0.0 && self.weight < 1.0) {
            return Err("hot-spot weight must be in (0, 1)".into());
        }
        Ok(())
    }
}

/// How a transaction's entity accesses map onto concrete granule ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Contiguous granule run (sequential scan).
    Sequential,
    /// Uniform scatter without replacement.
    Scattered,
}

impl AccessPattern {
    /// The access pattern that realizes a placement model.
    pub fn for_placement(p: Placement) -> AccessPattern {
        match p {
            Placement::Best => AccessPattern::Sequential,
            Placement::Worst | Placement::Random => AccessPattern::Scattered,
        }
    }
}

/// Sample the concrete set of granule ids (each in `0..ltot`) locked by a
/// transaction that accesses `nu` entities under placement model
/// `placement` into `out` (cleared first), so steady-state callers reuse
/// one buffer instead of allocating per transaction. The set size equals
/// [`Placement::locks_required`]`(nu, ltot, dbsize)` so that the explicit
/// and probabilistic conflict models see identical lock counts.
///
/// # Panics
/// Panics if `ltot == 0`, `dbsize == 0` or `ltot > dbsize`.
pub fn sample_granules_into(
    rng: &mut SimRng,
    placement: Placement,
    nu: u64,
    ltot: u64,
    dbsize: u64,
    out: &mut Vec<u64>,
) {
    out.clear();
    let count = placement.locks_required(nu, ltot, dbsize);
    if count == 0 {
        return;
    }
    match AccessPattern::for_placement(placement) {
        AccessPattern::Sequential => {
            let start = rng.uniform_inclusive(0, ltot - 1);
            out.extend((0..count).map(|i| (start + i) % ltot));
        }
        AccessPattern::Scattered => rng.sample_distinct_into(ltot, count, out),
    }
}

/// Sample a scattered granule set under hot-spot skew into `out` (cleared
/// first): each pick lands in the hot region (granules
/// `0..ceil(fraction · ltot)`) with probability `weight`, uniformly within
/// the chosen region, retrying duplicates. Degenerates gracefully when the
/// requested count exceeds either region's capacity. Set size matches
/// [`Placement::locks_required`] like [`sample_granules_into`].
///
/// # Panics
/// Panics if `skew.validate()` fails, `ltot == 0`, `dbsize == 0` or
/// `ltot > dbsize`.
pub fn sample_granules_hot_into(
    rng: &mut SimRng,
    placement: Placement,
    nu: u64,
    ltot: u64,
    dbsize: u64,
    skew: HotSpot,
    out: &mut Vec<u64>,
) {
    if let Err(e) = skew.validate() {
        panic!("invalid hot spot: {e}");
    }
    out.clear();
    let count = placement.locks_required(nu, ltot, dbsize);
    if count == 0 {
        return;
    }
    if AccessPattern::for_placement(placement) == AccessPattern::Sequential {
        // Sequential runs: skew biases the *start* of the run into the
        // hot region with probability `weight`.
        let hot = ((skew.fraction * ltot as f64).ceil() as u64).clamp(1, ltot);
        let start = if rng.bernoulli(skew.weight) {
            rng.uniform_inclusive(0, hot - 1)
        } else if hot < ltot {
            rng.uniform_inclusive(hot, ltot - 1)
        } else {
            rng.uniform_inclusive(0, ltot - 1)
        };
        out.extend((0..count).map(|i| (start + i) % ltot));
        return;
    }

    let hot = ((skew.fraction * ltot as f64).ceil() as u64).clamp(1, ltot);
    let cold = ltot - hot;
    out.reserve(count as usize);
    // Rejection sampling with a bounded number of tries per element;
    // afterwards fill deterministically so the contract (exact count)
    // always holds. Duplicates are found in `out` itself, as
    // `SimRng::sample_distinct_into` does, so a spawn allocates nothing.
    let mut budget = count * 64;
    while (out.len() as u64) < count && budget > 0 {
        budget -= 1;
        let g = if cold == 0 || rng.bernoulli(skew.weight) {
            rng.uniform_inclusive(0, hot - 1)
        } else {
            rng.uniform_inclusive(hot, ltot - 1)
        };
        if !out.contains(&g) {
            out.push(g);
        }
    }
    let mut next = 0;
    while (out.len() as u64) < count {
        if !out.contains(&next) {
            out.push(next);
        }
        next += 1;
    }
}

/// Maps the paper's flat granule ids (`0..ltot`) onto a three-level
/// database → area → granule hierarchy for multigranularity locking.
///
/// The paper's model has a single flat granule axis; hierarchical
/// protocols need each granule placed under an intermediate "area" node
/// (file/relation analogue). Granule `g` lives in area `g / per_area` —
/// the mapping is order-preserving, so the sequential runs produced by
/// best placement stay clustered within areas, exactly the locality
/// escalation exploits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyMap {
    areas: u64,
    per_area: u64,
}

impl HierarchyMap {
    /// Build the mapping for `ltot` granules grouped into at most `areas`
    /// areas. The requested area count is clamped to `ltot` (an area must
    /// hold at least one granule) and trailing empty areas are dropped, so
    /// every area contains at least one live granule.
    ///
    /// # Panics
    /// Panics if `ltot == 0` or `areas == 0`.
    pub fn new(ltot: u64, areas: u64) -> Self {
        assert!(ltot > 0, "ltot must be positive");
        assert!(areas > 0, "areas must be positive");
        let clamped = areas.min(ltot);
        let per_area = ltot.div_ceil(clamped);
        // Recompute the area count so rounding never leaves empty areas
        // (e.g. ltot = 100, areas = 16 → per_area = 7 → 15 areas).
        let areas = ltot.div_ceil(per_area);
        HierarchyMap { areas, per_area }
    }

    /// Number of areas (middle hierarchy level).
    pub fn areas(&self) -> u64 {
        self.areas
    }

    /// Granule capacity of each area (the last area may be ragged).
    pub fn per_area(&self) -> u64 {
        self.per_area
    }

    /// Per-level fan-outs for an implicit database → area → granule tree
    /// (`lockgran-lockmgr`'s `GranuleTree::new` input). The leaf level has
    /// `areas × per_area ≥ ltot` slots; ids `ltot..` are simply never
    /// requested.
    pub fn fanouts(&self) -> [u64; 2] {
        [self.areas, self.per_area]
    }

    /// The area containing granule `g`.
    pub fn area_of(&self, granule: u64) -> u64 {
        granule / self.per_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DB: u64 = 5000;

    fn assert_valid(set: &[u64], ltot: u64) {
        let mut s = set.to_vec();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), set.len(), "duplicate granules");
        assert!(set.iter().all(|&g| g < ltot), "granule out of range");
    }

    #[test]
    fn set_size_matches_placement_formula() {
        let mut rng = SimRng::new(1);
        let mut set = Vec::new();
        for p in Placement::ALL {
            for &(nu, ltot) in &[(250u64, 100u64), (25, 100), (500, DB), (1, 1)] {
                sample_granules_into(&mut rng, p, nu, ltot, DB, &mut set);
                assert_eq!(
                    set.len() as u64,
                    p.locks_required(nu, ltot, DB),
                    "{p:?} nu={nu} ltot={ltot}"
                );
                assert_valid(&set, ltot);
            }
        }
    }

    #[test]
    fn sequential_sets_are_contiguous_runs() {
        let mut rng = SimRng::new(2);
        let mut set = Vec::new();
        for _ in 0..100 {
            sample_granules_into(&mut rng, Placement::Best, 500, 100, DB, &mut set);
            // 500 entities over 100 granules of 50 -> 10 consecutive ids.
            assert_eq!(set.len(), 10);
            for w in set.windows(2) {
                assert_eq!(w[1], (w[0] + 1) % 100, "not contiguous: {set:?}");
            }
        }
    }

    #[test]
    fn sequential_wraps_around() {
        let mut rng = SimRng::new(3);
        let mut saw_wrap = false;
        let mut set = Vec::new();
        for _ in 0..1000 {
            sample_granules_into(&mut rng, Placement::Best, 500, 100, DB, &mut set);
            if set.windows(2).any(|w| w[1] < w[0]) {
                saw_wrap = true;
                break;
            }
        }
        assert!(saw_wrap, "wrap-around never observed in 1000 draws");
    }

    #[test]
    fn scattered_sets_cover_range() {
        let mut rng = SimRng::new(4);
        let mut seen = [false; 100];
        let mut set = Vec::new();
        for _ in 0..500 {
            sample_granules_into(&mut rng, Placement::Random, 50, 100, DB, &mut set);
            for &g in &set {
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some granules never sampled");
    }

    #[test]
    fn worst_placement_locks_everything_when_ltot_small() {
        let mut rng = SimRng::new(5);
        let mut set = Vec::new();
        sample_granules_into(&mut rng, Placement::Worst, 250, 100, DB, &mut set);
        assert_eq!(set.len(), 100);
        assert_valid(&set, 100);
    }

    #[test]
    fn zero_entities_empty_set() {
        let mut rng = SimRng::new(6);
        let mut set = vec![7];
        sample_granules_into(&mut rng, Placement::Best, 0, 100, DB, &mut set);
        assert!(set.is_empty());
    }

    #[test]
    fn hot_spot_sets_are_valid_and_skewed() {
        let mut rng = SimRng::new(7);
        let skew = HotSpot::eighty_twenty();
        let mut hot_hits = 0u64;
        let mut total = 0u64;
        let mut set = Vec::new();
        for _ in 0..500 {
            sample_granules_hot_into(&mut rng, Placement::Random, 50, 100, DB, skew, &mut set);
            assert_eq!(
                set.len() as u64,
                Placement::Random.locks_required(50, 100, DB)
            );
            assert_valid(&set, 100);
            hot_hits += set.iter().filter(|&&g| g < 20).count() as u64;
            total += set.len() as u64;
        }
        // 80% of accesses target the 20 hot granules; with distinctness
        // the realized share is lower but must far exceed uniform (20%).
        let share = hot_hits as f64 / total as f64;
        assert!(share > 0.4, "hot share {share} not skewed");
    }

    #[test]
    fn hot_spot_sequential_biases_run_start() {
        let mut rng = SimRng::new(8);
        let skew = HotSpot::eighty_twenty();
        let mut hot_starts = 0;
        let mut set = Vec::new();
        for _ in 0..1000 {
            sample_granules_hot_into(&mut rng, Placement::Best, 50, 100, DB, skew, &mut set);
            assert_eq!(set.len(), 1);
            if set[0] < 20 {
                hot_starts += 1;
            }
        }
        assert!(
            (700..=900).contains(&hot_starts),
            "hot starts {hot_starts}/1000, expected ~800"
        );
    }

    #[test]
    fn hot_spot_fills_even_when_count_exceeds_hot_region() {
        let mut rng = SimRng::new(9);
        // weight ~1: nearly all draws go to a 2-granule hot region, but a
        // 50-granule set must still materialize.
        let skew = HotSpot {
            fraction: 0.02,
            weight: 0.99,
        };
        let mut set = Vec::new();
        sample_granules_hot_into(&mut rng, Placement::Worst, 50, 100, DB, skew, &mut set);
        assert_eq!(set.len(), 50);
        assert_valid(&set, 100);
    }

    #[test]
    fn hierarchy_map_covers_every_granule_without_empty_areas() {
        for &(ltot, areas) in &[
            (100u64, 16u64),
            (1, 16),
            (10, 16),
            (5000, 16),
            (7, 3),
            (100, 1),
        ] {
            let m = HierarchyMap::new(ltot, areas);
            assert!(m.areas() >= 1 && m.areas() <= areas.min(ltot));
            // Leaf capacity covers the granule space.
            assert!(
                m.areas() * m.per_area() >= ltot,
                "ltot={ltot} areas={areas}"
            );
            // Every granule maps to a live area; every area is non-empty.
            let mut seen = vec![false; m.areas() as usize];
            for g in 0..ltot {
                let a = m.area_of(g);
                assert!(a < m.areas(), "granule {g} mapped past the last area");
                seen[a as usize] = true;
            }
            assert!(
                seen.iter().all(|&b| b),
                "empty area for ltot={ltot} areas={areas}"
            );
        }
    }

    #[test]
    fn hierarchy_map_is_order_preserving() {
        let m = HierarchyMap::new(100, 16);
        assert_eq!(m.fanouts(), [m.areas(), m.per_area()]);
        for g in 1..100 {
            assert!(m.area_of(g) >= m.area_of(g - 1));
        }
        // Whole-database degenerate case: one area holding everything.
        let one = HierarchyMap::new(50, 1);
        assert_eq!(one.areas(), 1);
        assert_eq!(one.per_area(), 50);
        assert!((0..50).all(|g| one.area_of(g) == 0));
    }

    #[test]
    fn hot_spot_validation() {
        assert!(HotSpot {
            fraction: 0.0,
            weight: 0.5
        }
        .validate()
        .is_err());
        assert!(HotSpot {
            fraction: 0.5,
            weight: 1.0
        }
        .validate()
        .is_err());
        assert!(HotSpot::eighty_twenty().validate().is_ok());
    }
}
