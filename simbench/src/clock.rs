//! Host wall-clock reads. The simulator itself never reads the host
//! clock (lint rule D002); this module is the benchmark's single place
//! that does, so every timing in the benchmark uses the same clock.

// lint:allow(D002): the benchmark measures host time by design
use std::time::Instant;

/// A started timer.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    // lint:allow(D002): the benchmark measures host time by design
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline(always)]
    pub fn start() -> Self {
        Stopwatch {
            // lint:allow(D002): the benchmark measures host time by design
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[inline(always)]
    pub fn ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// What one `start` + `ns` pair costs, split by where the cost lands.
///
/// A timed region `t = start(); work(); t.ns()` reads the clock twice.
/// About one read's worth lands inside the measured interval (`inside`);
/// the rest lands in the caller's time around it (`outside`). Subtracting
/// both per timed call removes the probe cost from layer self times.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeCost {
    /// Nanoseconds a timed region reports when it contains no work.
    pub inside: f64,
    /// Nanoseconds per probe spent outside the reported interval.
    pub outside: f64,
}

impl ProbeCost {
    /// Measure the probe cost: the median over `batches` batches of
    /// `per_batch` empty timed regions.
    pub fn calibrate(batches: usize, per_batch: u64) -> Self {
        let mut inside = Vec::with_capacity(batches);
        let mut total = Vec::with_capacity(batches);
        for _ in 0..batches {
            let outer = Stopwatch::start();
            let mut acc = 0u64;
            for _ in 0..per_batch {
                let t = Stopwatch::start();
                acc += std::hint::black_box(t.ns());
            }
            let wall = outer.ns();
            inside.push(acc as f64 / per_batch as f64);
            total.push(wall as f64 / per_batch as f64);
        }
        let inside = crate::stats::median(&inside);
        let total = crate::stats::median(&total);
        ProbeCost {
            inside,
            outside: (total - inside).max(0.0),
        }
    }
}
