//! # lockgran-lockmgr — a real lock manager
//!
//! The paper *approximates* lock conflicts probabilistically and never
//! builds a lock table. This crate builds the real thing, for two
//! reasons:
//!
//! 1. **Validation.** `lockgran-core` offers an explicit conflict model
//!    backed by this lock table; comparing it against the paper's
//!    probabilistic model quantifies how much the approximation matters
//!    (an ablation the paper could not run).
//! 2. **Substrate completeness.** A locking-granularity library that a
//!    downstream user would adopt needs an actual lock manager, not just a
//!    coin flip.
//!
//! Components, layered like a textbook multigranularity lock manager
//! (the lock table at the bottom knows nothing of the hierarchy):
//!
//! * [`mode`] — lock modes `S`/`X` plus the intention modes `IS`/`IX`/`SIX`
//!   with Gray's compatibility matrix.
//! * [`table`] — a pooled lock table with granted groups and FIFO wait
//!   queues (no starvation: a request conflicts with earlier waiters too).
//!   A transaction is named by its slot ([`TxnId`]), so every
//!   per-transaction structure in this crate is a vector indexed by it;
//!   only the granule index hashes.
//! * [`hierarchy`] — the context layer: the granule tree behind
//!   multi-granularity (intention) locking, the root-first intent chain
//!   of a request, and lock escalation over a predeclared set. It mirrors
//!   the paper's closing remark that "providing granularity at the block
//!   level and at the file level, as is done in the Gamma database
//!   machine, may be adequate".
//! * [`conservative`] — static (pre-declaration) locking, the protocol the
//!   paper simulates: all locks are acquired before any resource is used,
//!   so deadlock is impossible.
//! * [`twophase`] — incremental two-phase locking with a waits-for graph
//!   and deadlock detection (extension beyond the paper).
//! * [`deadlock`] — the waits-for graph and cycle detection: one node per
//!   slot, carrying its transaction's age, and one pooled edge slab, each
//!   edge on its waiter's age-ascending out-list and its holder's
//!   in-list, so the search makes no hash lookups, a leaving transaction
//!   touches only its own edges, and the youngest on a cycle is the
//!   victim.
//! * [`reference`](mod@reference) — a naive ordered-map lock table with
//!   identical semantics, the oracle for the differential property test
//!   pinning [`table`]'s pooled implementation to an executable
//!   specification.
//!   The waits-for graph's ordered-map oracle lives in its differential
//!   test (`tests/prop_waitsfor.rs`), not in the library.
//!
//! ## Production status
//!
//! Every module but [`reference`](mod@reference) is live production code:
//! the two schedulers are the acquisition disciplines of `lockgran-core`'s
//! single locking engine (`LockingCC`), which builds its requests through
//! [`hierarchy`] in hierarchical mode. Together they back the explicit,
//! hierarchical and incremental-2PL conflict models (extB/extD/extG/extH/
//! extI sweeps). Nothing in this crate carries a `dead_code` allow.

#![warn(missing_docs)]

pub mod conservative;
pub mod deadlock;
pub mod hierarchy;
pub mod mode;
pub mod reference;
pub mod table;
pub mod twophase;

pub use conservative::{merge_by_supremum, ConservativeOutcome, ConservativeScheduler};
pub use deadlock::WaitsForGraph;
pub use hierarchy::{
    escalate_predeclared_into, EscalationPolicy, GranuleTree, HierarchyLevel, NodeId,
};
pub use mode::LockMode;
pub use reference::ReferenceLockTable;
pub use table::{FreshSlot, GranuleId, LockOutcome, LockTable, TxnId};
pub use twophase::{AcquireEffects, AcquireStatus, RetryOutcome, TwoPhaseScheduler};
