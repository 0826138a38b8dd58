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
    pub(crate) last_totcom: u64,
    pub(crate) last_cpu_busy: Dur,
    pub(crate) last_io_busy: Dur,
    /// Collected points, in time order.
    pub points: Vec<TimelinePoint>,
}

impl TimelineCollector {
    /// A collector sampling every `interval`.
    pub fn new(interval: Dur) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        TimelineCollector {
            interval,
            last_totcom: 0,
            last_cpu_busy: Dur::ZERO,
            last_io_busy: Dur::ZERO,
            points: Vec::new(),
        }
    }

    /// Record one window (called by the system at each sample tick).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        now: Time,
        totcom: u64,
        cpu_busy: Dur,
        io_busy: Dur,
        npros: u32,
        active: u32,
        blocked: u32,
    ) {
        let span = self.interval.units() * f64::from(npros);
        let completions = totcom - self.last_totcom;
        self.points.push(TimelinePoint {
            t: now.units(),
            completions,
            throughput: completions as f64 / self.interval.units(),
            active,
            blocked,
            cpu_utilization: (cpu_busy - self.last_cpu_busy).units() / span,
            io_utilization: (io_busy - self.last_io_busy).units() / span,
        });
        self.last_totcom = totcom;
        self.last_cpu_busy = cpu_busy;
        self.last_io_busy = io_busy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_window_deltas() {
        let mut c = TimelineCollector::new(Dur::from_units(10.0));
        c.record(
            Time::from_units(10.0),
            5,
            Dur::from_units(40.0),
            Dur::from_units(80.0),
            10,
            3,
            2,
        );
        c.record(
            Time::from_units(20.0),
            12,
            Dur::from_units(90.0),
            Dur::from_units(180.0),
            10,
            4,
            1,
        );
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
