//! # lockgran-experiments — regenerating the paper's evaluation
//!
//! One module per table/figure of Dandamudi & Au (ICDE 1991), §3:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`figures::table1`] | Table 1 — input parameters & baseline outputs |
//! | [`figures::fig02`]  | Fig 2 — throughput & response vs `ltot` × `npros` |
//! | [`figures::fig03`]  | Fig 3 — useful I/O & CPU time vs `ltot` × `npros` |
//! | [`figures::fig04`]  | Fig 4 — lock overhead, large transactions |
//! | [`figures::fig05`]  | Fig 5 — lock overhead, small transactions |
//! | [`figures::fig06`]  | Fig 6 — throughput & response vs transaction size |
//! | [`figures::fig07`]  | Fig 7 — throughput vs lock I/O time |
//! | [`figures::fig08`]  | Fig 8 — throughput under random partitioning |
//! | [`figures::fig09`]  | Fig 9 — placement strategies, large transactions |
//! | [`figures::fig10`]  | Fig 10 — placement strategies, small transactions |
//! | [`figures::fig11`]  | Fig 11 — placement strategies, 80/20 mix |
//! | [`figures::fig12`]  | Fig 12 — placement strategies, ntrans = 200 |
//!
//! Ten extension experiments go beyond the paper, `extA` … `extJ`
//! ([`figures::EXT_IDS`]); for example [`figures::ext_conflict`] (extB)
//! checks the probabilistic conflict draw against a real lock table and
//! [`figures::ext_assumptions`] (extJ) varies the model's lock-work
//! distribution, lock preemption and service variability one at a time.
//!
//! Each module's `run(&RunOptions)` performs the paper's parameter sweep
//! and returns a [`Figure`] — labelled series of `(ltot, mean, ci95)`
//! points — which [`emit`] renders as an aligned text table, CSV, or
//! JSON. The `lockgran` binary drives everything from the command line.

#![warn(missing_docs)]

pub mod chart;
pub mod emit;
pub mod figures;
pub mod metric;
pub mod series;
pub mod sweep;

pub use chart::{render_chart, ChartOptions};
pub use emit::{render_table, to_csv, to_json};
pub use metric::Metric;
pub use series::{Figure, Panel, Point, Series};
pub use sweep::{RunOptions, SweepPoint, LTOT_SWEEP, LTOT_SWEEP_QUICK};
