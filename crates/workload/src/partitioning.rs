//! Data partitioning: sub-transaction fan-out (`PU_i`).
//!
//! In the shared-nothing architecture the database is declustered over the
//! processors' private disks, and a transaction splits into one
//! sub-transaction per processor that holds relevant data (paper §2):
//!
//! * [`Partitioning::Horizontal`] — relations are round-robin partitioned
//!   over *all* disks, so every transaction splits into `npros`
//!   sub-transactions (`PU_i = npros`).
//! * [`Partitioning::Random`] — relations are randomly partitioned over a
//!   subset of disks; the paper models this as `PU_i ~ U(1, npros)` with
//!   the sub-transactions landing on distinct random processors.

use lockgran_sim::{named_enum, SimRng};

named_enum! {
    /// Declustering strategy (determines `PU_i` and processor assignment).
    pub enum Partitioning {
        /// Round-robin over all disks: full fan-out.
        Horizontal => "horizontal",
        /// Random subset of disks: fan-out uniform on `[1, npros]`.
        Random => "random",
    }
}

impl Partitioning {
    /// Draw the processors a transaction's sub-transactions run on. The
    /// result has between 1 and `npros` *distinct* processor indices in
    /// `0..npros` ("no two sub-transactions are assigned to the same
    /// processor", paper §2).
    ///
    /// # Panics
    /// Panics if `npros == 0`.
    pub fn assign_processors(self, rng: &mut SimRng, npros: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.assign_processors_into(rng, npros, &mut out);
        out
    }

    /// Allocation-free form of [`Partitioning::assign_processors`]: fills
    /// `out` (cleared first) so the per-transaction draw reuses one buffer
    /// across the whole run. Consumes the RNG identically to the
    /// allocating form — the processor sequence is bit-for-bit the same.
    ///
    /// # Panics
    /// Panics if `npros == 0`.
    pub fn assign_processors_into(self, rng: &mut SimRng, npros: u32, out: &mut Vec<u32>) {
        assert!(npros > 0, "need at least one processor");
        out.clear();
        match self {
            Partitioning::Horizontal => out.extend(0..npros),
            Partitioning::Random => {
                let fanout = rng.uniform_inclusive(1, u64::from(npros));
                // Floyd's algorithm, draw-identical to
                // `SimRng::sample_distinct` (one `uniform_inclusive(0, j)`
                // per selected element, in the same j order).
                let n = u64::from(npros);
                for j in (n - fanout)..n {
                    let t = rng.uniform_inclusive(0, j) as u32;
                    if out.contains(&t) {
                        out.push(j as u32);
                    } else {
                        out.push(t);
                    }
                }
            }
        }
    }

    /// Expected fan-out for a system of `npros` processors.
    pub fn mean_fanout(self, npros: u32) -> f64 {
        match self {
            Partitioning::Horizontal => f64::from(npros),
            Partitioning::Random => (1.0 + f64::from(npros)) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_uses_every_processor() {
        let mut rng = SimRng::new(1);
        let procs = Partitioning::Horizontal.assign_processors(&mut rng, 10);
        assert_eq!(procs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn random_fanout_is_distinct_and_in_range() {
        let mut rng = SimRng::new(2);
        for _ in 0..500 {
            let procs = Partitioning::Random.assign_processors(&mut rng, 10);
            assert!(!procs.is_empty() && procs.len() <= 10);
            let mut sorted = procs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                procs.len(),
                "duplicate processors in {procs:?}"
            );
            assert!(procs.iter().all(|&p| p < 10));
        }
    }

    #[test]
    fn random_fanout_mean_matches() {
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let total: usize = (0..n)
            .map(|_| Partitioning::Random.assign_processors(&mut rng, 10).len())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 5.5).abs() < 0.1, "mean fan-out {mean}");
        assert_eq!(Partitioning::Random.mean_fanout(10), 5.5);
    }

    #[test]
    fn random_assignment_matches_sample_distinct_draws() {
        // The in-place Floyd loop must consume the RNG exactly like the
        // historical `sample_distinct`-based implementation — this is what
        // keeps every committed artifact bit-identical.
        let mut a = SimRng::new(77);
        let mut b = SimRng::new(77);
        let mut buf = Vec::new();
        for _ in 0..500 {
            Partitioning::Random.assign_processors_into(&mut a, 10, &mut buf);
            let fanout = b.uniform_inclusive(1, 10);
            let reference: Vec<u32> = b
                .sample_distinct(10, fanout)
                .into_iter()
                .map(|p| p as u32)
                .collect();
            assert_eq!(buf, reference);
        }
    }

    #[test]
    fn uniprocessor_degenerates_to_single_subtransaction() {
        let mut rng = SimRng::new(4);
        for p in Partitioning::ALL {
            let procs = p.assign_processors(&mut rng, 1);
            assert_eq!(procs, vec![0]);
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in Partitioning::ALL {
            let parsed: Partitioning = p.name().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("vertical".parse::<Partitioning>().is_err());
    }
}
