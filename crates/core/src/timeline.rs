//! Windowed time series of system state.
//!
//! A [`TimelineCollector`] samples the running system at a fixed interval,
//! producing per-window throughput, utilizations and population levels.
//! Two uses:
//!
//! * `lockgran timeline` — watch a configuration approach steady state;
//! * Welch warm-up analysis (`lockgran warmup`) — feed per-replication
//!   window series into [`lockgran_sim::stats::welch`] to pick a
//!   defensible truncation point.

use lockgran_sim::{Dur, Time};

use crate::system::{Counters, Res};

/// One sampling window's measurements.
#[derive(Clone, Copy, Debug)]
pub struct TimelinePoint {
    /// Window end, in model time units.
    pub t: f64,
    /// Completions within the window.
    pub completions: u64,
    /// Throughput within the window (completions / interval).
    pub throughput: f64,
    /// Active (lock-holding) transactions at the window end.
    pub active: u32,
    /// Blocked transactions at the window end.
    pub blocked: u32,
    /// Mean CPU utilization within the window.
    pub cpu_utilization: f64,
    /// Mean I/O utilization within the window.
    pub io_utilization: f64,
}

/// Accumulates timeline points (driven by the system's sample ticks).
#[derive(Debug)]
pub struct TimelineCollector {
    /// Sampling interval.
    pub interval: Dur,
    /// The system's counters at the previous sample.
    last: Counters,
    /// Collected points, in time order.
    pub points: Vec<TimelinePoint>,
}

impl TimelineCollector {
    /// A collector sampling every `interval`.
    pub fn new(interval: Dur) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        TimelineCollector {
            interval,
            last: Counters::default(),
            points: Vec::new(),
        }
    }

    /// Record the window that ends at `now`, given the system's counters
    /// then (called by the system at each sample tick).
    pub(crate) fn record(
        &mut self,
        now: Time,
        counters: Counters,
        npros: u32,
        active: u32,
        blocked: u32,
    ) {
        let window = counters - self.last;
        self.last = counters;
        let span = self.interval.units() * f64::from(npros);
        let utilization = |res: Res| window.busy[res as usize].units() / span;
        self.points.push(TimelinePoint {
            t: now.units(),
            completions: window.completions,
            throughput: window.completions as f64 / self.interval.units(),
            active,
            blocked,
            cpu_utilization: utilization(Res::Cpu),
            io_utilization: utilization(Res::Io),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_window_deltas() {
        let counters = |completions, cpu, io| Counters {
            completions,
            busy: [Dur::from_units(cpu), Dur::from_units(io)],
            ..Counters::default()
        };
        let mut c = TimelineCollector::new(Dur::from_units(10.0));
        c.record(Time::from_units(10.0), counters(5, 40.0, 80.0), 10, 3, 2);
        c.record(Time::from_units(20.0), counters(12, 90.0, 180.0), 10, 4, 1);
        assert_eq!(c.points.len(), 2);
        let p = &c.points[1];
        assert_eq!(p.completions, 7);
        assert!((p.throughput - 0.7).abs() < 1e-12);
        assert!((p.cpu_utilization - 0.5).abs() < 1e-12);
        assert!((p.io_utilization - 1.0).abs() < 1e-12);
        assert_eq!(p.active, 4);
        assert_eq!(p.blocked, 1);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = TimelineCollector::new(Dur::ZERO);
    }
}
