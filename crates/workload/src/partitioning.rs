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
    /// Draw the processors a transaction's sub-transactions run on into
    /// `out` (cleared first), so the per-transaction draw reuses one
    /// buffer across the whole run. The result has between 1 and `npros`
    /// *distinct* processor indices in `0..npros` ("no two
    /// sub-transactions are assigned to the same processor", paper §2).
    ///
    /// # Panics
    /// Panics if `npros == 0`.
    pub fn assign_processors_into(self, rng: &mut SimRng, npros: u32, out: &mut Vec<u32>) {
        assert!(npros > 0, "need at least one processor");
        match self {
            Partitioning::Horizontal => {
                out.clear();
                out.extend(0..npros);
            }
            Partitioning::Random => {
                let fanout = rng.uniform_inclusive(1, u64::from(npros));
                rng.sample_distinct_into(u64::from(npros), fanout, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_uses_every_processor() {
        let mut rng = SimRng::new(1);
        let mut procs = Vec::new();
        Partitioning::Horizontal.assign_processors_into(&mut rng, 10, &mut procs);
        assert_eq!(procs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn random_fanout_is_distinct_and_in_range() {
        let mut rng = SimRng::new(2);
        let mut procs = Vec::new();
        for _ in 0..500 {
            Partitioning::Random.assign_processors_into(&mut rng, 10, &mut procs);
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
        let mut procs = Vec::new();
        let n = 20_000;
        let total: usize = (0..n)
            .map(|_| {
                Partitioning::Random.assign_processors_into(&mut rng, 10, &mut procs);
                procs.len()
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 5.5).abs() < 0.1, "mean fan-out {mean}");
    }

    #[test]
    fn uniprocessor_degenerates_to_single_subtransaction() {
        let mut rng = SimRng::new(4);
        let mut procs = Vec::new();
        for p in Partitioning::ALL {
            p.assign_processors_into(&mut rng, 1, &mut procs);
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
