//! # lockgran-core — the paper's model
//!
//! The closed-system simulation model of **Dandamudi & Au, "Locking
//! Granularity in Multiprocessor Database Systems" (ICDE 1991)**: a fixed
//! multiprogramming level of `ntrans` transactions cycles through a
//! shared-nothing machine of `npros` processors (each with a private CPU
//! and disk), guarded by `ltot` physical granule locks acquired with a
//! conservative (pre-declaration) protocol.
//!
//! * [`config`] — every input parameter of the paper's Table 1, plus the
//!   sweep dimensions of §3 (placement, partitioning, conflict model).
//! * [`conflict`] — the [`ConcurrencyControl`] trait (conflict decisions
//!   plus declared-access sampling and protocol statistics) and the
//!   paper's probabilistic Ries–Stonebraker implementation of it.
//! * [`locking`] — the lock-table alternative to the partition draw: one
//!   engine ([`LockingCC`]) over a real lock table ([`lockgran_lockmgr`]),
//!   built from a tree (flat, or Gray's database → area → granule
//!   hierarchy with IS/IX intention locks and lock escalation) and an
//!   acquisition discipline (the paper's predeclared protocol, or
//!   incremental claim-as-needed 2PL with waits-for deadlock detection
//!   and youngest-victim abort). Its presets are the explicit,
//!   hierarchical and twophase conflict modes, used to validate the
//!   probabilistic approximation and to re-examine the Ries & Stonebraker
//!   claim the paper leans on.
//! * [`transaction`] — per-transaction runtime state (`NU_i`, `LU_i`,
//!   `PU_i`, fork/join bookkeeping).
//! * [`system`] — the event-driven model itself: lock phase shared across
//!   processors with preemptive priority, sub-transaction fork/join over
//!   per-processor I/O→CPU FCFS stages, block/wake on conflicts.
//! * [`metrics`] — the paper's output parameters (`throughput`, response
//!   time, `usefulcpus`, `usefulios`, `lockcpus`, `lockios`, …) plus
//!   extended diagnostics.
//! * [`sim`] — the entry point: [`run`](sim::run) a [`ModelConfig`] to a
//!   [`RunMetrics`].
//!
//! ## Quickstart
//!
//! ```
//! use lockgran_core::{ModelConfig, sim};
//!
//! // Paper Table 1 defaults, 10 processors, 100 granule locks.
//! let cfg = ModelConfig::table1()
//!     .with_npros(10)
//!     .with_ltot(100)
//!     .with_tmax(500.0); // short run for the doc test
//! let m = sim::run(&cfg, 42);
//! assert!(m.throughput > 0.0);
//! assert!(m.response_time > 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod conflict;
pub mod locking;
pub mod metrics;
pub mod sim;
pub mod system;
pub mod timeline;
pub mod trace;
pub mod transaction;

pub use config::{ConflictMode, HierarchySpec, LockDistribution, ModelConfig, ServiceVariability};
pub use conflict::{
    build_concurrency_control, AccessSampler, CcStats, ConcurrencyControl, ConflictDecision,
    ProbabilisticConflict,
};
pub use lockgran_sim::QueueDiscipline;
pub use locking::LockingCC;
pub use metrics::RunMetrics;
pub use sim::RunArena;
pub use timeline::{TimelineCollector, TimelinePoint};
pub use trace::{TraceEvent, VecTracer};
pub use transaction::{Transaction, TxnPhase};
