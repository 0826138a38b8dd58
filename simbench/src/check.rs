//! Output correctness: the fresh-run reference every measured pass is
//! compared against, the consistency check, and the pinned digests.

use lockgran_core::{system::System, ModelConfig, RunMetrics};
use lockgran_sim::{Executor, FelKind, ToJson, WorkerPool};

use crate::stats::Digest;
use crate::workloads::Workload;

/// Digests of the default seeds' outputs, as `workload seed hex` lines.
const PINNED: &str = include_str!("../digests.txt");

/// The canonical text of one run's metrics: compact JSON, whose floats
/// are shortest round-trip, so equal text means bit-identical metrics.
pub fn metrics_text(m: &RunMetrics) -> String {
    m.to_json().to_string_compact()
}

/// Run one simulation on a fresh executor and system (no arena reuse),
/// returning its metrics and the number of events it handled.
pub fn fresh_run(cfg: &ModelConfig, seed: u64) -> (RunMetrics, u64) {
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    let horizon = system.tmax();
    let end = ex.run(&mut system, horizon);
    (system.finish(end), ex.events_processed())
}

/// The expected output of one run.
#[derive(Clone, Debug)]
pub struct Expected {
    /// [`metrics_text`] of the fresh run.
    pub text: String,
    /// Transactions completed.
    pub totcom: u64,
    /// Events handled.
    pub events: u64,
}

/// The fresh-run reference of one workload pass.
pub struct Reference {
    /// One entry per run in pass order; `None` where the fresh run
    /// panicked or failed its consistency check.
    pub runs: Vec<Option<Expected>>,
    /// Why runs failed, one line each.
    pub problems: Vec<String>,
}

impl Reference {
    /// Build the reference: every run of `w` on a fresh executor, spread
    /// over each group's worker count. Each run's metrics must pass
    /// `RunMetrics::check_consistency`.
    pub fn build(w: &Workload) -> Self {
        let mut runs = Vec::with_capacity(w.run_count());
        let mut problems = Vec::new();
        for g in &w.groups {
            let tasks: Vec<_> = g
                .runs
                .iter()
                .map(|(cfg, seed)| move || fresh_run(cfg, *seed))
                .collect();
            let results = WorkerPool::new(g.workers).try_run(tasks);
            for ((cfg, seed), r) in g.runs.iter().zip(results) {
                let expected = match r {
                    Ok((m, events)) => match m.check_consistency(cfg.npros) {
                        Ok(()) => Some(Expected {
                            text: metrics_text(&m),
                            totcom: m.totcom,
                            events,
                        }),
                        Err(e) => {
                            problems.push(format!(
                                "{} ltot={} seed={seed}: inconsistent metrics: {e}",
                                g.label, cfg.ltot
                            ));
                            None
                        }
                    },
                    Err(p) => {
                        problems.push(format!("{} ltot={} seed={seed}: {p}", g.label, cfg.ltot));
                        None
                    }
                };
                runs.push(expected);
            }
        }
        Reference { runs, problems }
    }

    /// A reference from already-checked metrics texts (`None` = failed).
    pub fn from_texts(texts: Vec<Option<String>>) -> Self {
        let runs = texts
            .into_iter()
            .map(|t| {
                t.map(|text| Expected {
                    text,
                    totcom: 0,
                    events: 0,
                })
            })
            .collect();
        Reference {
            runs,
            problems: Vec::new(),
        }
    }

    /// Digest of the whole pass: every run's metrics text in order (a
    /// failed run folds in a marker, so it never matches a pin).
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for r in &self.runs {
            match r {
                Some(e) => d.update(e.text.as_bytes()),
                None => d.update(b"failed"),
            }
            d.update(b"\n");
        }
        d
    }

    /// Events handled in one pass.
    pub fn events(&self) -> u64 {
        self.runs.iter().flatten().map(|e| e.events).sum()
    }

    /// Transactions completed in one pass.
    pub fn totcom(&self) -> u64 {
        self.runs.iter().flatten().map(|e| e.totcom).sum()
    }

    /// Runs that failed.
    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.is_none()).count()
    }

    /// Compare one measured pass against the reference, run by run: a
    /// run fails when it panicked or its metrics are not bit-identical
    /// to the fresh run's. Returns the number of failed runs.
    pub fn compare(&self, measured: &[Option<RunMetrics>], problems: &mut Vec<String>) -> usize {
        let mut failed = 0;
        for (i, (exp, got)) in self.runs.iter().zip(measured).enumerate() {
            let ok = match (exp, got) {
                (Some(e), Some(m)) => e.text == metrics_text(m),
                _ => false,
            };
            if !ok {
                failed += 1;
                if problems.len() < 8 {
                    problems.push(format!("run #{i}: not bit-identical to its fresh run"));
                }
            }
        }
        failed + self.runs.len().saturating_sub(measured.len())
    }
}

/// Outcome of the pinned-digest check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DigestCheck {
    /// The digest equals the pinned one.
    Match,
    /// No digest is pinned for this workload and seed.
    NotPinned,
    /// The digest differs from the pinned one (`pinned`, `actual`).
    Mismatch(String, String),
}

/// Look up the pinned digest of `workload` at `seed` in `table` (the
/// `digests.txt` format: `workload seed hex` per line, `#` comments).
pub fn pinned_digest(table: &str, workload: &str, seed: u64) -> Result<Option<String>, String> {
    for (n, line) in table.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [name, s, hex] = f[..] else {
            return Err(format!("digest table line {}: expected 3 fields", n + 1));
        };
        let s: u64 = s
            .parse()
            .map_err(|e| format!("digest table line {}: seed: {e}", n + 1))?;
        if name == workload && s == seed {
            return Ok(Some(hex.to_string()));
        }
    }
    Ok(None)
}

/// Check `actual` against the digest pinned in `digests.txt` for
/// `workload` at `seed`.
pub fn check_digest(workload: &str, seed: u64, actual: Digest) -> Result<DigestCheck, String> {
    Ok(match pinned_digest(PINNED, workload, seed)? {
        None => DigestCheck::NotPinned,
        Some(p) if p == actual.hex() => DigestCheck::Match,
        Some(p) => DigestCheck::Mismatch(p, actual.hex()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.update(bytes);
        d
    }

    #[test]
    fn digest_table_lookup() {
        let t = "# comment\npaper_sweep 1 00000000000000aa\n\ncapacity 1 00000000000000bb\n";
        assert_eq!(
            pinned_digest(t, "capacity", 1).unwrap().as_deref(),
            Some("00000000000000bb")
        );
        assert_eq!(pinned_digest(t, "capacity", 2).unwrap(), None);
        assert!(pinned_digest("capacity 1\n", "capacity", 1).is_err());
        assert!(pinned_digest("capacity x 0a\n", "capacity", 1).is_err());
    }

    #[test]
    fn check_digest_uses_the_builtin_table() {
        let d = digest_of(b"x");
        assert!(matches!(
            check_digest("capacity", 1, d).unwrap(),
            DigestCheck::Mismatch(..)
        ));
        assert_eq!(
            check_digest("capacity", 1_000_003, d).unwrap(),
            DigestCheck::NotPinned
        );
    }

    #[test]
    fn builtin_table_pins_every_default_seed() {
        for name in crate::workloads::NAMES {
            for seed in (0..=31).chain([7919]) {
                assert!(
                    pinned_digest(PINNED, name, seed).unwrap().is_some(),
                    "{name} {seed}"
                );
            }
        }
    }

    #[test]
    fn metrics_text_is_stable_across_runs() {
        let cfg = ModelConfig::table1().with_tmax(300.0);
        let (a, ea) = fresh_run(&cfg, 11);
        let (b, eb) = fresh_run(&cfg, 11);
        assert_eq!(metrics_text(&a), metrics_text(&b));
        assert_eq!(ea, eb);
        assert!(ea > 0);
    }
}
