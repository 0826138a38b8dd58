//! The benchmark's output: readable lines, then one JSON result line.

use crate::check::{check_digest, DigestCheck};
use crate::stats::Digest;
use crate::workloads::Workload;

/// Everything one invocation reports.
pub struct Report {
    /// Header line naming the workload and host.
    header: String,
    workload: &'static str,
    seed: u64,
    /// Simulation runs attempted (every pass counts its runs).
    pub attempted: usize,
    /// Runs that panicked, failed the consistency check or were not
    /// bit-identical to their reference.
    pub failed: usize,
    /// The outputs missed the pinned digest: then every run failed.
    digest_mismatch: bool,
    /// Why runs failed.
    pub problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    missing: Vec<(String, String)>,
}

impl Report {
    /// An empty report for workload `w`.
    pub fn new(w: &Workload) -> Self {
        Report {
            header: format!(
                "workload {} seed {}: {} runs in {} groups; host parallelism {}",
                w.name,
                w.seed,
                w.run_count(),
                w.groups.len(),
                lockgran_sim::WorkerPool::available_parallelism()
            ),
            workload: w.name,
            seed: w.seed,
            attempted: 0,
            failed: 0,
            digest_mismatch: false,
            problems: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
            missing: Vec::new(),
        }
    }

    /// Add a free-form line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Add one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Mark a metric as missing, with the reason.
    pub fn missing(&mut self, name: &str, reason: String) {
        self.missing.push((name.to_string(), reason));
    }

    /// Compare the reference pass's digest with the pinned one. A
    /// mismatch fails every run: each one reproduces the wrong output.
    pub fn check_digest(&mut self, actual: Digest) -> Result<(), String> {
        match check_digest(self.workload, self.seed, actual)? {
            DigestCheck::Match => self.note(format!("output digest {} matches the pin", actual.hex())),
            DigestCheck::NotPinned => self.note(format!(
                "output digest {} (no pin for this seed; consistency and bit-identity still checked)",
                actual.hex()
            )),
            DigestCheck::Mismatch(pinned, actual) => {
                self.problems
                    .push(format!("output digest {actual} differs from the pinned {pinned}"));
                self.digest_mismatch = true;
            }
        }
        Ok(())
    }

    /// Runs that failed, counting every run after a digest mismatch.
    fn failed_runs(&self) -> usize {
        if self.digest_mismatch {
            self.attempted
        } else {
            self.failed
        }
    }

    /// Whether every run was correct.
    pub fn correct(&self) -> bool {
        self.failed_runs() == 0 && self.attempted > 0
    }

    /// Print the readable lines and, last, the JSON result line.
    pub fn print(&self) {
        println!("{}", self.header);
        for n in &self.notes {
            println!("  {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>18.6} {unit}");
        }
        for (name, reason) in &self.missing {
            println!("  {name:<34} {:>18} ({reason})", "missing");
        }
        let failed = self.failed_runs();
        let error_rate = failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<34} {error_rate:>18.6} ratio ({failed} of {} runs failed)",
            "error_rate", self.attempted
        );
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        println!("{}", self.json());
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed_runs(),
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (`null` is not a number the
/// result may carry, so non-finite values print as 0 and are caught by
/// the readable lines).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let w = Workload::new("lock_contention", 1).unwrap();
        let mut r = Report::new(&w);
        r.attempted = 8;
        r.metric("wall_s", 1.25, "s");
        r.metric("events_per_s", 2e6, "1/s");
        let j = lockgran_sim::json::parse(&r.json()).unwrap();
        assert_eq!(j.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(j.get("attempted").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(j.get("failed").and_then(|v| v.as_u64()), Some(0));
        let m = j.get("metrics").unwrap();
        let wall = m.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        // The empty digest is not the one pinned for seed 1.
        r.check_digest(crate::stats::Digest::default()).unwrap();
        assert!(!r.correct());
        assert!(r.json().contains("\"failed\": 8"));
    }
}
