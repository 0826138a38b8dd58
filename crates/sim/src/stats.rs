//! Output statistics.
//!
//! Small, allocation-free accumulators used both inside the simulation
//! (queue populations, response times) and by the experiment harness
//! (replication confidence intervals).

mod batch;
mod histogram;
mod tally;
mod timeweighted;
pub mod welch;

pub use batch::BatchMeans;
pub use histogram::Histogram;
pub use tally::Tally;
pub use timeweighted::TimeWeighted;
pub use welch::welch_warmup;
