//! Per-transaction runtime state.
//!
//! A [`Transaction`] carries its workload spec (`NU_i`, `LU_i`, the
//! processor set realizing `PU_i`), the granule set used by the explicit
//! conflict model, and the fork/join bookkeeping the system model needs:
//! how many lock-overhead shares and how many sub-transaction stages are
//! still outstanding.

use lockgran_sim::{Dur, Time};
use lockgran_workload::TransactionSpec;

/// Lifecycle phase of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Lock-overhead shares are being processed at the resources.
    LockPhase,
    /// Blocked on an active transaction, waiting to be woken.
    Blocked,
    /// Locks held; sub-transactions running (I/O then CPU per processor).
    Running,
    /// All sub-transactions complete; the transaction has left the system.
    Done,
}

/// Runtime state of one transaction instance.
#[derive(Clone, Debug)]
pub struct Transaction {
    /// Monotone serial, unique within a run.
    pub serial: u64,
    /// The workload draw (`NU_i`, `LU_i`, processors).
    pub spec: TransactionSpec,
    /// Explicit granule set (empty under the probabilistic model).
    pub granules: Vec<u64>,
    /// When the transaction arrived into the pending queue. Under an MPL
    /// cap it is drawn and admitted later, when it leaves the queue; its
    /// response time still runs from here.
    pub arrived: Time,
    /// Lock request attempts so far (1 = first try).
    pub attempts: u32,
    /// Current phase.
    pub phase: TxnPhase,
    /// Outstanding lock-overhead share jobs for the current attempt.
    pub lock_shares_outstanding: u32,
    /// Outstanding sub-transactions (each finishes after its CPU stage).
    pub subtxns_outstanding: u32,
    /// Per-processor CPU-stage demand, filled in when the transaction is
    /// admitted (index-aligned with `spec.processors`).
    pub cpu_shares: Vec<Dur>,
}

impl Transaction {
    /// A freshly arrived transaction.
    pub fn new(serial: u64, spec: TransactionSpec, granules: Vec<u64>, arrived: Time) -> Self {
        Transaction {
            serial,
            spec,
            granules,
            arrived,
            attempts: 0,
            phase: TxnPhase::LockPhase,
            lock_shares_outstanding: 0,
            subtxns_outstanding: 0,
            cpu_shares: Vec::new(),
        }
    }

    /// `PU_i`: the sub-transaction fan-out.
    pub fn fanout(&self) -> u32 {
        self.spec.fanout()
    }

    /// Total lock CPU overhead per attempt (`LU_i · lcputime`).
    pub fn lock_cpu_demand(&self, lcputime: Dur) -> Dur {
        lcputime.times(self.spec.locks)
    }

    /// Total lock I/O overhead per attempt (`LU_i · liotime`).
    pub fn lock_io_demand(&self, liotime: Dur) -> Dur {
        liotime.times(self.spec.locks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TransactionSpec {
        TransactionSpec {
            entities: 250,
            locks: 5,
            processors: vec![0, 1, 2, 3],
        }
    }

    #[test]
    fn demand_formulas_match_paper() {
        let t = Transaction::new(1, spec(), vec![], Time::ZERO);
        // LCPUtime_i = LU_i * lcputime = 5 * 0.01 = 0.05 units.
        assert_eq!(t.lock_cpu_demand(Dur::from_units(0.01)).units(), 0.05);
        // LIOtime_i = LU_i * liotime = 5 * 0.2 = 1.0 units.
        assert_eq!(t.lock_io_demand(Dur::from_units(0.2)).units(), 1.0);
    }

    #[test]
    fn initial_state() {
        let t = Transaction::new(9, spec(), vec![1, 2], Time::from_units(3.0));
        assert_eq!(t.serial, 9);
        assert_eq!(t.phase, TxnPhase::LockPhase);
        assert_eq!(t.attempts, 0);
        assert_eq!(t.fanout(), 4);
        assert_eq!(t.granules, vec![1, 2]);
        assert_eq!(t.arrived, Time::from_units(3.0));
    }
}
