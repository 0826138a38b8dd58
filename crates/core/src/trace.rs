//! Structured event tracing.
//!
//! A [`VecTracer`] records the model's protocol-level transitions —
//! arrivals, lock requests, grants, denials, wake-ups, sub-transaction
//! stages, completions. Tracing is opt-in (a system without a tracer
//! records nothing) and is used by the protocol-order tests to verify
//! the paper's lifecycle: *request → (denied → blocked → woken →
//! request)* … *→ granted → I/O → CPU → complete*.

use lockgran_sim::Time;

/// One protocol-level transition of a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Entered the system (fresh transaction).
    Arrived {
        /// Transaction serial.
        serial: u64,
    },
    /// Began a lock request attempt (overhead charging starts).
    LockRequested {
        /// Transaction serial.
        serial: u64,
        /// Attempt number (1 = first).
        attempt: u32,
    },
    /// All locks granted; the transaction becomes active.
    Granted {
        /// Transaction serial.
        serial: u64,
    },
    /// Request denied; blocked on `blocker`.
    Denied {
        /// Transaction serial.
        serial: u64,
        /// The active transaction it waits for.
        blocker: u64,
    },
    /// Woken by its blocker's completion; will re-request.
    Woken {
        /// Transaction serial.
        serial: u64,
    },
    /// A sub-transaction finished its I/O stage on `proc`.
    SubIoDone {
        /// Transaction serial.
        serial: u64,
        /// Processor index.
        proc: u32,
    },
    /// A sub-transaction finished its CPU stage on `proc`.
    SubCpuDone {
        /// Transaction serial.
        serial: u64,
        /// Processor index.
        proc: u32,
    },
    /// All sub-transactions joined; locks released.
    Completed {
        /// Transaction serial.
        serial: u64,
    },
    /// A running transaction was aborted (a processor hosting one of its
    /// sub-transactions failed); its locks were released and it will
    /// re-request.
    Aborted {
        /// Transaction serial.
        serial: u64,
    },
    /// A transaction still in its lock phase was aborted as the victim of
    /// a 2PL deadlock cycle (incremental two-phase locking only): its
    /// partial locks were released and it will replay its lock phase.
    /// Unlike [`TraceEvent::Aborted`], the victim never held a full grant.
    DeadlockAborted {
        /// Transaction serial.
        serial: u64,
    },
    /// A processor failed; its CPU and disk stall until repair.
    Failed {
        /// Processor index.
        proc: u32,
    },
    /// A failed processor came back; stalled work resumes.
    Repaired {
        /// Processor index.
        proc: u32,
    },
}

impl TraceEvent {
    /// The transaction this event belongs to, if any (`Failed` and
    /// `Repaired` are machine-level events with no owning transaction).
    pub fn serial(&self) -> Option<u64> {
        match *self {
            TraceEvent::Arrived { serial }
            | TraceEvent::LockRequested { serial, .. }
            | TraceEvent::Granted { serial }
            | TraceEvent::Denied { serial, .. }
            | TraceEvent::Woken { serial }
            | TraceEvent::SubIoDone { serial, .. }
            | TraceEvent::SubCpuDone { serial, .. }
            | TraceEvent::Completed { serial }
            | TraceEvent::Aborted { serial }
            | TraceEvent::DeadlockAborted { serial } => Some(serial),
            TraceEvent::Failed { .. } | TraceEvent::Repaired { .. } => None,
        }
    }
}

/// Keeps every event in memory (tests, debugging, timeline dumps).
#[derive(Default, Debug)]
pub struct VecTracer {
    /// The recorded `(time, event)` stream, in simulation order.
    pub events: Vec<(Time, TraceEvent)>,
}

impl VecTracer {
    /// Record one event at simulated time `now`.
    pub fn record(&mut self, now: Time, event: TraceEvent) {
        self.events.push((now, event));
    }

    /// Events of one transaction, in order.
    pub fn of(&self, serial: u64) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|(_, e)| e.serial() == Some(serial))
            .map(|(_, e)| e)
            .collect()
    }

    /// Validate the lifecycle of every *completed* transaction in the
    /// trace against the paper's protocol. Returns the first violation.
    pub fn check_protocol(&self) -> Result<(), String> {
        use TraceEvent::*;
        let completed: Vec<u64> = self
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Completed { serial } => Some(*serial),
                Arrived { .. }
                | LockRequested { .. }
                | Granted { .. }
                | Denied { .. }
                | Woken { .. }
                | SubIoDone { .. }
                | SubCpuDone { .. }
                | Aborted { .. }
                | DeadlockAborted { .. }
                | Failed { .. }
                | Repaired { .. } => None,
            })
            .collect();
        for serial in completed {
            let evs = self.of(serial);
            // 1. Starts with arrival, ends with completion.
            if !matches!(evs.first(), Some(Arrived { .. })) {
                return Err(format!("txn {serial}: does not start with Arrived"));
            }
            if !matches!(evs.last(), Some(Completed { .. })) {
                return Err(format!("txn {serial}: does not end with Completed"));
            }
            // 2. Grant/abort accounting: each abort forces a re-execution,
            //    so a completed transaction has exactly `aborts + 1`
            //    grants. Every denial is followed by a wake then a new
            //    request; attempts number consecutively. Resource work is
            //    only legal while holding locks (between a grant and its
            //    completion/abort), and within each execution cycle the
            //    CPU stage on a processor comes strictly after its I/O
            //    stage.
            let mut granted = 0u32;
            let mut aborted = 0u32;
            let mut expect_attempt = 1;
            let mut last_was_denied = false;
            let mut holding = false;
            let mut io_procs = Vec::new();
            for e in &evs {
                match e {
                    LockRequested { attempt, .. } => {
                        if *attempt != expect_attempt {
                            return Err(format!(
                                "txn {serial}: attempt {attempt}, expected {expect_attempt}"
                            ));
                        }
                        expect_attempt += 1;
                    }
                    Granted { .. } => {
                        granted += 1;
                        last_was_denied = false;
                        holding = true;
                        io_procs.clear();
                    }
                    Denied { .. } => last_was_denied = true,
                    Woken { .. } => {
                        if !last_was_denied {
                            return Err(format!("txn {serial}: woken without denial"));
                        }
                        last_was_denied = false;
                    }
                    Aborted { .. } => {
                        if !holding {
                            return Err(format!("txn {serial}: aborted without holding locks"));
                        }
                        aborted += 1;
                        holding = false;
                        last_was_denied = false;
                        io_procs.clear();
                    }
                    DeadlockAborted { .. } => {
                        // A deadlock victim was still acquiring: it never
                        // held a full grant, so this neither counts as an
                        // execution abort nor requires holding locks.
                        if holding {
                            return Err(format!(
                                "txn {serial}: deadlock abort while holding a full grant"
                            ));
                        }
                        last_was_denied = false;
                        io_procs.clear();
                    }
                    SubIoDone { proc, .. } => {
                        if !holding {
                            return Err(format!("txn {serial}: resource work before grant"));
                        }
                        io_procs.push(*proc);
                    }
                    SubCpuDone { proc, .. } => {
                        if !holding {
                            return Err(format!("txn {serial}: resource work before grant"));
                        }
                        if !io_procs.contains(proc) {
                            return Err(format!(
                                "txn {serial}: CPU stage on proc {proc} before its I/O stage"
                            ));
                        }
                    }
                    Completed { .. } => {
                        if !holding {
                            return Err(format!("txn {serial}: completed without holding locks"));
                        }
                        holding = false;
                    }
                    // The arrival was checked above. Machine-level events
                    // carry no serial, so `of` never yields them.
                    Arrived { .. } | Failed { .. } | Repaired { .. } => {}
                }
            }
            if granted != aborted + 1 {
                return Err(format!(
                    "txn {serial}: granted {granted} times with {aborted} aborts"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(units: f64) -> Time {
        Time::from_units(units)
    }

    #[test]
    fn vec_tracer_records_in_order() {
        let mut tr = VecTracer::default();
        tr.record(t(0.0), TraceEvent::Arrived { serial: 1 });
        tr.record(
            t(1.0),
            TraceEvent::LockRequested {
                serial: 1,
                attempt: 1,
            },
        );
        assert_eq!(tr.events.len(), 2);
        assert_eq!(tr.of(1).len(), 2);
        assert_eq!(tr.of(2).len(), 0);
    }

    #[test]
    fn protocol_accepts_clean_lifecycle() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for (time, e) in [
            (0.0, Arrived { serial: 1 }),
            (
                0.0,
                LockRequested {
                    serial: 1,
                    attempt: 1,
                },
            ),
            (
                0.5,
                Denied {
                    serial: 1,
                    blocker: 9,
                },
            ),
            (2.0, Woken { serial: 1 }),
            (
                2.0,
                LockRequested {
                    serial: 1,
                    attempt: 2,
                },
            ),
            (2.5, Granted { serial: 1 }),
            (3.0, SubIoDone { serial: 1, proc: 0 }),
            (3.5, SubCpuDone { serial: 1, proc: 0 }),
            (3.5, Completed { serial: 1 }),
        ] {
            tr.record(t(time), e);
        }
        tr.check_protocol().unwrap();
    }

    #[test]
    fn protocol_rejects_double_grant() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Granted { serial: 1 },
            Granted { serial: 1 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr.check_protocol().unwrap_err().contains("granted 2 times"));
    }

    #[test]
    fn protocol_rejects_cpu_before_io() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Granted { serial: 1 },
            SubCpuDone { serial: 1, proc: 3 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("before its I/O stage"));
    }

    #[test]
    fn protocol_rejects_work_before_grant() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            SubIoDone { serial: 1, proc: 0 },
            Granted { serial: 1 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("resource work before grant"));
    }

    #[test]
    fn protocol_rejects_wake_without_denial() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Woken { serial: 1 },
            Granted { serial: 1 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("woken without denial"));
    }

    #[test]
    fn protocol_accepts_abort_and_reexecution() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Granted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            Failed { proc: 1 },
            Aborted { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 2,
            },
            Granted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            SubCpuDone { serial: 1, proc: 0 },
            Repaired { proc: 1 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        tr.check_protocol().unwrap();
    }

    #[test]
    fn protocol_rejects_work_between_abort_and_regrant() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Granted { serial: 1 },
            Aborted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            LockRequested {
                serial: 1,
                attempt: 2,
            },
            Granted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            SubCpuDone { serial: 1, proc: 0 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("resource work before grant"));
    }

    #[test]
    fn protocol_requires_cpu_after_io_per_execution_cycle() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        // The I/O stage from the first (aborted) execution must not
        // satisfy the CPU-after-I/O rule of the second execution.
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Granted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            Aborted { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 2,
            },
            Granted { serial: 1 },
            SubCpuDone { serial: 1, proc: 0 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("before its I/O stage"));
    }

    #[test]
    fn machine_events_have_no_serial() {
        assert_eq!(TraceEvent::Failed { proc: 3 }.serial(), None);
        assert_eq!(TraceEvent::Repaired { proc: 3 }.serial(), None);
        assert_eq!(TraceEvent::Aborted { serial: 9 }.serial(), Some(9));
        assert_eq!(TraceEvent::DeadlockAborted { serial: 9 }.serial(), Some(9));
    }

    #[test]
    fn protocol_accepts_deadlock_abort_and_replay() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        // Victim lifecycle: denied, then aborted while blocked (instead of
        // woken), then a full replay of the lock phase. Exactly one grant.
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Denied {
                serial: 1,
                blocker: 9,
            },
            DeadlockAborted { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 2,
            },
            Granted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            SubCpuDone { serial: 1, proc: 0 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        tr.check_protocol().unwrap();
    }

    #[test]
    fn protocol_accepts_requester_self_abort_without_denial() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        // The requester itself can be the victim mid-attempt: the abort
        // arrives with no preceding denial and replays immediately.
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            DeadlockAborted { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 2,
            },
            Granted { serial: 1 },
            SubIoDone { serial: 1, proc: 0 },
            SubCpuDone { serial: 1, proc: 0 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        tr.check_protocol().unwrap();
    }

    #[test]
    fn protocol_rejects_deadlock_abort_while_holding() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Granted { serial: 1 },
            DeadlockAborted { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 2,
            },
            Granted { serial: 1 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("deadlock abort while holding"));
    }

    #[test]
    fn protocol_rejects_wake_after_deadlock_abort() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        // The abort cancels the pending wait: a Woken with no fresh
        // denial afterwards is a protocol violation.
        for e in [
            Arrived { serial: 1 },
            LockRequested {
                serial: 1,
                attempt: 1,
            },
            Denied {
                serial: 1,
                blocker: 9,
            },
            DeadlockAborted { serial: 1 },
            Woken { serial: 1 },
            Granted { serial: 1 },
            Completed { serial: 1 },
        ] {
            tr.record(t(0.0), e);
        }
        assert!(tr
            .check_protocol()
            .unwrap_err()
            .contains("woken without denial"));
    }

    #[test]
    fn incomplete_transactions_are_ignored() {
        use TraceEvent::*;
        let mut tr = VecTracer::default();
        tr.record(t(0.0), Arrived { serial: 7 });
        tr.record(
            t(0.0),
            LockRequested {
                serial: 7,
                attempt: 1,
            },
        );
        // Never completes: no protocol judgement is made.
        tr.check_protocol().unwrap();
    }
}
