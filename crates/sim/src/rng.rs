//! Seedable, splittable random-number streams.
//!
//! [`SimRng`] is a self-contained **xoshiro256++** generator (Blackman &
//! Vigna 2019) exposed through the handful of sampling primitives the
//! model needs. The generator is implemented in-tree — no external crate
//! — so the byte sequence of every stream is owned by this repository.
//! Three design points matter:
//!
//! * **Determinism** — every stream is created from an explicit 64-bit
//!   seed; the same seed always yields the same run on every platform.
//! * **Stream stability** — the mapping `seed → byte sequence` is part of
//!   this crate's public contract. It can only change in a commit that
//!   deliberately re-pins the seed-sensitive expected values in the test
//!   suite (see `tests/determinism.rs`); dependency upgrades can never
//!   shift it, because there is no dependency.
//! * **Stream splitting** — [`SimRng::split`] derives an independent child
//!   stream by hashing the parent seed with a label. This lets the
//!   workload generator, the conflict model, and the partitioner consume
//!   randomness without perturbing each other: changing how many draws one
//!   component makes cannot shift the sequence another component sees.
//!   (Common-random-numbers variance reduction across sweep points falls
//!   out for free.)
//!
//! ## Algorithm
//!
//! The 256-bit state is initialized by iterating the splitmix64 finalizer
//! over the (already splitmix64-decorrelated) user seed, which guarantees
//! a non-zero state and decouples nearby seeds. Each `next_u64` applies
//! the xoshiro256++ output function `rotl(s0 + s3, 23) + s0` followed by
//! the linear state transition. Bounded draws use Lemire's unbiased
//! multiply-shift rejection; `uniform01` uses the top 53 bits.

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 finalizer — used to decorrelate derived seeds and to expand
/// a 64-bit seed into the 256-bit xoshiro state. A single
/// multiply-xor-shift chain is enough to turn related seeds (seed, seed+1,
/// seed ^ label) into statistically independent streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the decorrelated seed into 256 bits of state with a
        // splitmix64 sequence (the initialization Vigna recommends). The
        // sequence cannot be all-zero: splitmix64 is a bijection of a
        // strictly increasing counter.
        let mut z = splitmix64(seed);
        let mut state = [0u64; 4];
        for s in &mut state {
            z = splitmix64(z);
            *s = z;
        }
        SimRng { state, seed }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next raw 64-bit output of the generator.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Derive an independent child stream identified by `label`.
    /// Deterministic: the same (seed, label) pair always yields the same
    /// child, regardless of how much the parent has been used.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h = self.seed;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        SimRng::new(h)
    }

    /// Derive an independent child stream identified by an index (e.g. a
    /// replication number).
    pub fn split_index(&self, index: u64) -> SimRng {
        SimRng::new(splitmix64(self.seed ^ splitmix64(index)))
    }

    /// Uniform draw from the closed integer range `[lo, hi]`, unbiased
    /// (Lemire's multiply-shift rejection).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            // Full 2^64 range.
            return self.next_u64();
        }
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
                low = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform draw from the half-open real interval `[0, 1)` (the top 53
    /// bits of one output, so every value is a multiple of 2⁻⁵³).
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform01() < p.clamp(0.0, 1.0)
    }

    /// Sample `k` *distinct* values from `0..n` into `chosen` (cleared
    /// first) using Floyd's algorithm: O(k) expected work, independent of
    /// `n`, and no allocation once `chosen` has grown to `k`. The values
    /// come in Floyd's insertion order, which is deterministic for a given
    /// stream state, and the draws do not depend on the element type `T`.
    ///
    /// # Panics
    /// Panics if `k > n`, or if `0..n` does not fit `T`.
    pub fn sample_distinct_into<T>(&mut self, n: u64, k: u64, chosen: &mut Vec<T>)
    where
        T: TryFrom<u64> + PartialEq,
    {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        assert!(
            n == 0 || T::try_from(n - 1).is_ok(),
            "0..{n} does not fit the element type"
        );
        // Every value drawn is below `n`, so it fits (asserted above).
        let fit = |x: u64| T::try_from(x).unwrap_or_else(|_| unreachable!("{x} < {n}"));
        chosen.clear();
        for j in (n - k)..n {
            let t = fit(self.uniform_inclusive(0, j));
            let pick = if chosen.contains(&t) { fit(j) } else { t };
            chosen.push(pick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation check: the raw xoshiro256++ sequence for
    /// the all-explicit state {1, 2, 3, 4} must match the published
    /// algorithm. Values computed independently from the Blackman–Vigna
    /// reference C code (xoshiro256plusplus.c).
    #[test]
    fn matches_reference_vectors() {
        let mut rng = SimRng::new(0);
        rng.state = [1, 2, 3, 4];
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(
                a.uniform_inclusive(0, 1_000_000),
                b.uniform_inclusive(0, 1_000_000)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100)
            .filter(|_| {
                a.uniform_inclusive(0, u64::MAX - 1) == b.uniform_inclusive(0, u64::MAX - 1)
            })
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_independent_of_parent_consumption() {
        let parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        // Burn draws on parent2 — children must still agree.
        for _ in 0..50 {
            parent2.uniform01();
        }
        let mut c1 = parent1.split("workload");
        let mut c2 = parent2.split("workload");
        for _ in 0..100 {
            assert_eq!(c1.uniform_inclusive(0, 999), c2.uniform_inclusive(0, 999));
        }
    }

    #[test]
    fn split_labels_decorrelate() {
        let parent = SimRng::new(7);
        let mut a = parent.split("workload");
        let mut b = parent.split("conflict");
        let matches = (0..100)
            .filter(|_| {
                a.uniform_inclusive(0, u64::MAX - 1) == b.uniform_inclusive(0, u64::MAX - 1)
            })
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn uniform_inclusive_covers_endpoints() {
        let mut rng = SimRng::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match rng.uniform_inclusive(1, 5) {
                1 => saw_lo = true,
                5 => saw_hi = true,
                v => assert!((1..=5).contains(&v)),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn uniform_inclusive_full_range_does_not_panic() {
        let mut rng = SimRng::new(17);
        for _ in 0..100 {
            let _ = rng.uniform_inclusive(0, u64::MAX);
        }
    }

    #[test]
    fn uniform_inclusive_mean_is_centered() {
        // The paper's NU_i ~ U(1, maxtransize) has mean (1+max)/2.
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.uniform_inclusive(1, 500)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 250.5).abs() < 2.0, "mean {mean} too far from 250.5");
    }

    #[test]
    fn uniform01_in_range_and_centered() {
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.uniform01();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = SimRng::new(9);
        let mut v: Vec<u64> = Vec::new();
        for _ in 0..200 {
            rng.sample_distinct_into(30, 13, &mut v);
            assert_eq!(v.len(), 13);
            let mut s = v.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 13, "duplicates in {v:?}");
            assert!(v.iter().all(|&x| x < 30));
        }
    }

    #[test]
    fn sample_distinct_full_population() {
        let mut rng = SimRng::new(5);
        let mut v: Vec<u64> = Vec::new();
        rng.sample_distinct_into(8, 8, &mut v);
        v.sort_unstable();
        assert_eq!(v, (0..8).collect::<Vec<_>>());
    }

    /// The element type changes only how the values are stored: from one
    /// stream state, `u32` and `u64` buffers receive the same values, and
    /// both streams end in the same state.
    #[test]
    fn sample_distinct_draws_do_not_depend_on_element_type() {
        let mut narrow_rng = SimRng::new(77);
        let mut wide_rng = SimRng::new(77);
        let mut narrow: Vec<u32> = Vec::new();
        let mut wide: Vec<u64> = Vec::new();
        for k in 0..=40 {
            narrow_rng.sample_distinct_into(40, k, &mut narrow);
            wide_rng.sample_distinct_into(40, k, &mut wide);
            let widened: Vec<u64> = narrow.iter().map(|&x| u64::from(x)).collect();
            assert_eq!(widened, wide, "k = {k}");
        }
        assert_eq!(narrow_rng.next_u64(), wide_rng.next_u64());
    }

    #[test]
    #[should_panic(expected = "does not fit the element type")]
    fn sample_distinct_rejects_a_range_wider_than_the_element_type() {
        let mut v: Vec<u32> = Vec::new();
        SimRng::new(1).sample_distinct_into(u64::from(u32::MAX) + 2, 1, &mut v);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(1);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(2.0)); // clamped
    }
}
