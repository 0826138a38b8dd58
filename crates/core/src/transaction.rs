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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TxnPhase {
    /// Lock-overhead shares are being processed at the resources.
    LockPhase,
    /// Blocked on an active transaction, waiting to be woken.
    Blocked,
    /// Locks held; sub-transactions running (I/O then CPU per processor).
    Running,
    /// All sub-transactions complete; the transaction has left the system
    /// and its slab slot is free for the next admission.
    #[default]
    Done,
}

/// Runtime state of one transaction instance. The default is a vacated
/// slab slot.
#[derive(Clone, Debug, Default)]
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
    /// Per-processor CPU-stage demand, filled in when the sub-transactions
    /// start (index-aligned with `spec.processors`).
    pub cpu_shares: Vec<Dur>,
}

impl Transaction {
    /// `PU_i`: the sub-transaction fan-out.
    pub fn fanout(&self) -> u32 {
        self.spec.fanout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state() {
        let t = Transaction::default();
        assert_eq!(
            t.phase,
            TxnPhase::Done,
            "a default transaction is a vacated slot"
        );
        assert_eq!(t.attempts, 0);
        assert_eq!(t.fanout(), 0);
        assert!(t.granules.is_empty() && t.cpu_shares.is_empty());
        assert_eq!(t.arrived, Time::ZERO);
    }
}
