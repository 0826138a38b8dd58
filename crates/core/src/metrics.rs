//! Output parameters.
//!
//! [`RunMetrics`] carries the paper's §2 output parameters under their
//! original names plus extended diagnostics (blocking rates, queue
//! levels, response-time distribution) that the experiment harness
//! reports and simbench digests.

use lockgran_sim::{Json, ToJson};

/// All measurements from one simulation run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    // ----- the paper's output parameters (§2) -----
    /// `totcpus`: time units the CPU resources were busy (all work),
    /// summed over processors.
    pub totcpus: f64,
    /// `totios`: time units the I/O resources were busy (all work),
    /// summed over processors.
    pub totios: f64,
    /// `lockcpus`: CPU time spent requesting/setting/releasing locks,
    /// summed over processors.
    pub lockcpus: f64,
    /// `lockios`: I/O time spent requesting/setting/releasing locks,
    /// summed over processors.
    pub lockios: f64,
    /// `usefulcpus = (totcpus − lockcpus) / npros`: average per-processor
    /// CPU time spent on transaction processing.
    pub usefulcpus: f64,
    /// `usefulios = (totios − lockios) / npros`: average per-processor I/O
    /// time spent on transaction processing.
    pub usefulios: f64,
    /// `totcom`: transactions completed within the measurement window.
    pub totcom: u64,
    /// `throughput = totcom / tmax`: completions per time unit.
    pub throughput: f64,
    /// Mean response time: pending-queue entry → lock release.
    pub response_time: f64,

    // ----- extended diagnostics -----
    /// Measurement window length in time units (tmax − warmup).
    pub measured_time: f64,
    /// Lock request attempts (first tries + retries).
    pub lock_attempts: u64,
    /// Attempts that were denied (transaction blocked).
    pub lock_denials: u64,
    /// Fraction of attempts denied.
    pub denial_rate: f64,
    /// Time-average number of active (lock-holding) transactions.
    pub mean_active: f64,
    /// Time-average number of blocked transactions.
    pub mean_blocked: f64,
    /// Time-average number of transactions waiting for an admission slot
    /// (always 0 without an `mpl_limit`).
    pub mean_pending: f64,
    /// Mean CPU utilization across processors (all work).
    pub cpu_utilization: f64,
    /// Mean I/O utilization across processors (all work).
    pub io_utilization: f64,
    /// Response-time standard deviation.
    pub response_time_std: f64,
    /// 95th-percentile response time (histogram upper-edge estimate; equal
    /// to the histogram bound if the tail overflows).
    pub response_time_p95: f64,
    /// Mean number of lock request attempts per completed transaction.
    pub attempts_per_txn: f64,
    /// Transactions aborted within the measurement window: processor
    /// failures killing a running transaction (failure extension) plus
    /// 2PL deadlock victims (twophase conflict model). 0 without either
    /// extension active.
    pub aborts: u64,
    /// Processor failure events within the measurement window (failure
    /// extension; 0 without a `FailureSpec`).
    pub failures: u64,
    /// Lock escalations performed within the measurement window
    /// (hierarchical conflict model only; 0 otherwise).
    pub escalations: u64,
    /// Intention locks (`IS`/`IX`/`SIX`) granted within the measurement
    /// window (hierarchical conflict model only; 0 otherwise).
    pub intent_locks: u64,
    /// Waits-for cycles broken within the measurement window, each by
    /// aborting its youngest transaction (twophase conflict model only;
    /// 0 otherwise). Every deadlock victim is also counted in `aborts`.
    pub deadlocks: u64,
    /// 95% CI half-width of the mean response time from the in-run
    /// batch-means estimator (0 until at least two batches close). Unlike
    /// the cross-replication CI this needs a single run, with O(1) memory
    /// at any horizon.
    pub response_ci95_batch: f64,
    /// Number of closed batches behind `response_ci95_batch`.
    pub response_batches: u64,
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("totcpus", self.totcpus.to_json()),
            ("totios", self.totios.to_json()),
            ("lockcpus", self.lockcpus.to_json()),
            ("lockios", self.lockios.to_json()),
            ("usefulcpus", self.usefulcpus.to_json()),
            ("usefulios", self.usefulios.to_json()),
            ("totcom", self.totcom.to_json()),
            ("throughput", self.throughput.to_json()),
            ("response_time", self.response_time.to_json()),
            ("measured_time", self.measured_time.to_json()),
            ("lock_attempts", self.lock_attempts.to_json()),
            ("lock_denials", self.lock_denials.to_json()),
            ("denial_rate", self.denial_rate.to_json()),
            ("mean_active", self.mean_active.to_json()),
            ("mean_blocked", self.mean_blocked.to_json()),
            ("mean_pending", self.mean_pending.to_json()),
            ("cpu_utilization", self.cpu_utilization.to_json()),
            ("io_utilization", self.io_utilization.to_json()),
            ("response_time_std", self.response_time_std.to_json()),
            ("response_time_p95", self.response_time_p95.to_json()),
            ("attempts_per_txn", self.attempts_per_txn.to_json()),
            ("aborts", self.aborts.to_json()),
            ("failures", self.failures.to_json()),
            ("escalations", self.escalations.to_json()),
            ("intent_locks", self.intent_locks.to_json()),
            ("deadlocks", self.deadlocks.to_json()),
            ("response_ci95_batch", self.response_ci95_batch.to_json()),
            ("response_batches", self.response_batches.to_json()),
        ])
    }
}

impl RunMetrics {
    /// Total lock overhead (CPU + I/O), summed over processors.
    pub fn lock_overhead(&self) -> f64 {
        self.lockcpus + self.lockios
    }

    /// Sanity-check internal consistency (used by integration tests).
    pub fn check_consistency(&self, npros: u32) -> Result<(), String> {
        if self.lockcpus > self.totcpus + 1e-9 {
            return Err(format!(
                "lockcpus ({}) exceeds totcpus ({})",
                self.lockcpus, self.totcpus
            ));
        }
        if self.lockios > self.totios + 1e-9 {
            return Err(format!(
                "lockios ({}) exceeds totios ({})",
                self.lockios, self.totios
            ));
        }
        let expect_useful_cpu = (self.totcpus - self.lockcpus) / f64::from(npros);
        if (self.usefulcpus - expect_useful_cpu).abs() > 1e-6 {
            return Err("usefulcpus inconsistent with totcpus/lockcpus".into());
        }
        let expect_useful_io = (self.totios - self.lockios) / f64::from(npros);
        if (self.usefulios - expect_useful_io).abs() > 1e-6 {
            return Err("usefulios inconsistent with totios/lockios".into());
        }
        if self.measured_time > 0.0 {
            let expect_tput = self.totcom as f64 / self.measured_time;
            if (self.throughput - expect_tput).abs() > 1e-9 {
                return Err("throughput != totcom / measured_time".into());
            }
        }
        if self.lock_denials > self.lock_attempts {
            return Err("more denials than attempts".into());
        }
        if self.deadlocks > self.aborts {
            return Err("more deadlock victims than aborts".into());
        }
        if !(0.0..=1.0 + 1e-9).contains(&self.cpu_utilization) {
            return Err(format!(
                "cpu utilization {} out of range",
                self.cpu_utilization
            ));
        }
        if !(0.0..=1.0 + 1e-9).contains(&self.io_utilization) {
            return Err(format!(
                "io utilization {} out of range",
                self.io_utilization
            ));
        }
        Ok(())
    }
}
