//! # lockgran-sim — deterministic discrete-event simulation engine
//!
//! A small, fully deterministic discrete-event simulation (DES) kernel used
//! as the substrate for the locking-granularity model of Dandamudi & Au
//! (ICDE 1991). The paper's study is a closed queueing-network simulation;
//! this crate provides everything such a simulation needs and nothing more:
//!
//! * [`time`] — an integer-tick simulated clock ([`Time`], [`Dur`]). Using
//!   integer ticks instead of `f64` seconds makes event ordering exact and
//!   runs bit-for-bit reproducible across platforms.
//! * [`event`] — a future-event list ([`EventQueue`]) with stable FIFO
//!   ordering among simultaneous events.
//! * [`engine`] — a minimal executor ([`Executor`], [`Model`]) that pumps
//!   events into a user model until a horizon is reached.
//! * [`server`] — a single-server resource ([`Server`]) with two priority
//!   classes and preemptive-resume scheduling. The paper gives the locking
//!   mechanism "preemptive power over running transactions for I/O and CPU
//!   resources"; the high-priority class models exactly that.
//! * [`rng`] — a seedable, splittable in-tree xoshiro256++ generator
//!   ([`SimRng`]) so that independent stochastic streams (workload,
//!   conflicts, placement) can be varied independently and the byte
//!   sequence of every stream is owned by this repository.
//! * [`json`] — a minimal JSON document model ([`Json`]) with a writer and
//!   parser, the [`ToJson`]/[`FromJson`] traits, and the [`named_enum!`]
//!   and [`json_struct!`] macros that declare config and output types
//!   once and generate their JSON, name and parse code (zero-dependency
//!   serialization).
//! * [`stats`] — Welford tallies, time-weighted levels, histograms and
//!   batch-means confidence intervals. Busy time is the servers' own
//!   per-class accounting ([`Server`]).
//! * [`pool`] — a fixed-size worker pool ([`WorkerPool`]) with
//!   deterministic, submission-ordered scatter/gather for running many
//!   *independent* simulations in parallel.
//!
//! The kernel itself is intentionally synchronous and single-threaded:
//! one simulation is one deterministic event loop. Parallelism lives one
//! level up — whole `(config, seed)` runs are independent pure functions,
//! so the experiment harness fans them out across a [`WorkerPool`] and
//! reassembles results by submission index, which is bit-identical to
//! running them sequentially.
//!
//! ## Example
//!
//! ```
//! use lockgran_sim::{Dur, Executor, Model, Time};
//!
//! struct Ping { count: u32 }
//! #[derive(Debug)]
//! enum Ev { Tick }
//!
//! impl Model for Ping {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: Time, _ev: Ev, ex: &mut Executor<Ev>) {
//!         self.count += 1;
//!         if self.count < 10 {
//!             ex.schedule_in(Dur::from_units(1.0), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut model = Ping { count: 0 };
//! let mut ex = Executor::new();
//! ex.schedule(Time::ZERO, Ev::Tick);
//! ex.run(&mut model, Time::from_units(100.0));
//! assert_eq!(model.count, 10);
//! ```

#![warn(missing_docs)]

pub mod calendar;
pub mod detmap;
pub mod engine;
pub mod event;
pub mod json;
pub mod pool;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use detmap::DetMap;
pub use engine::{Executor, FelKind, Model};
pub use event::EventQueue;
pub use json::{FromJson, Json, ToJson};
pub use pool::{TaskPanic, WorkerPool};
pub use rng::SimRng;
pub use server::{
    CancelOutcome, Class, Completion, CompletionOutcome, Job, JobId, QueueDiscipline, Server, Token,
};
pub use stats::{BatchMeans, Histogram, Tally, TimeWeighted};
pub use time::{Dur, Time, TICKS_PER_UNIT};
