//! Named output metrics.
//!
//! A [`Metric`] names one scalar of [`RunMetrics`] so that figure modules,
//! the CLI and the emitters can refer to the paper's output parameters
//! symbolically.

use lockgran_core::RunMetrics;
use lockgran_sim::named_enum;

named_enum! {
    /// A scalar output of one simulation run; its name is the identifier
    /// used in CSV/JSON columns.
    pub enum Metric {
        /// `throughput = totcom / tmax`.
        Throughput => "throughput",
        /// Mean response time.
        ResponseTime => "response_time",
        /// 95th-percentile response time (histogram estimate).
        ResponseP95 => "response_p95",
        /// `usefulcpus`: per-processor transaction CPU time.
        UsefulCpu => "useful_cpu",
        /// `usefulios`: per-processor transaction I/O time.
        UsefulIo => "useful_io",
        /// `lockcpus + lockios`: total lock overhead.
        LockOverhead => "lock_overhead",
        /// `lockcpus` only.
        LockCpu => "lock_cpu",
        /// `lockios` only.
        LockIo => "lock_io",
        /// Fraction of lock request attempts denied.
        DenialRate => "denial_rate",
        /// Time-average number of active transactions.
        MeanActive => "mean_active",
        /// Mean CPU utilization.
        CpuUtilization => "cpu_utilization",
        /// Mean I/O utilization.
        IoUtilization => "io_utilization",
        /// Transaction aborts: processor-failure kills (failure extension)
        /// plus deadlock victims (twophase conflict model).
        Aborts => "aborts",
        /// Waits-for cycles broken by aborting a victim (twophase conflict
        /// model).
        Deadlocks => "deadlocks",
        /// Lock escalations (hierarchical conflict model).
        Escalations => "escalations",
        /// Intention locks granted (hierarchical conflict model).
        IntentLocks => "intent_locks",
    }
}

impl Metric {
    /// Extract this metric from a run.
    pub fn get(self, m: &RunMetrics) -> f64 {
        match self {
            Metric::Throughput => m.throughput,
            Metric::ResponseTime => m.response_time,
            Metric::ResponseP95 => m.response_time_p95,
            Metric::UsefulCpu => m.usefulcpus,
            Metric::UsefulIo => m.usefulios,
            Metric::LockOverhead => m.lock_overhead(),
            Metric::LockCpu => m.lockcpus,
            Metric::LockIo => m.lockios,
            Metric::DenialRate => m.denial_rate,
            Metric::MeanActive => m.mean_active,
            Metric::CpuUtilization => m.cpu_utilization,
            Metric::IoUtilization => m.io_utilization,
            Metric::Aborts => m.aborts as f64,
            Metric::Deadlocks => m.deadlocks as f64,
            Metric::Escalations => m.escalations as f64,
            Metric::IntentLocks => m.intent_locks as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_round_trip() {
        for m in Metric::ALL {
            assert_eq!(m.name().parse::<Metric>().unwrap(), m);
        }
        assert!("bogus".parse::<Metric>().is_err());
    }
}
