//! A fixed reference computation that measures how fast the host runs
//! right now.
//!
//! Shared hosts change speed by tens of percent over minutes (other
//! tenants compete for cores, caches and memory). The kernel below is a
//! miniature event loop of the simulator's own shape — a binary-heap
//! future-event list, a small random-number generator and scattered
//! updates to an L2-sized table — written here and never changed, so it
//! runs the same work on every commit. Timing it next to the workload
//! tells how fast the host was while the workload ran. It uses no item of
//! the library crates, so no library change can move the reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::Stopwatch;

/// Events handled per kernel call.
const EVENTS: u32 = 1 << 17;
/// Entries of the scattered-update table (128 KiB).
const TABLE: usize = 1 << 14;
/// Events pending at any time.
const PENDING: u32 = 64;

/// One kernel call of `events` events; returns a checksum so the work
/// cannot be elided.
pub fn kernel(seed: u64, events: u32) -> u64 {
    let mut rng = seed | 1;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut table = vec![0u64; TABLE];
    let mut fel: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(PENDING as usize);
    for id in 0..PENDING {
        fel.push(Reverse((next() % 1_000, id)));
    }
    let mut sum = 0u64;
    for _ in 0..events {
        let Some(Reverse((at, id))) = fel.pop() else {
            break;
        };
        let r = next();
        let slot = (r as usize) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(at ^ u64::from(id));
        sum = sum.wrapping_add(table[(slot * 7 + 3) & (TABLE - 1)]);
        fel.push(Reverse((at + 1 + (r >> 40) % 997, id)));
    }
    sum
}

/// The nominal kernel time that scaled results refer to: a fixed constant
/// of the order of one call's time on the development host (2 vCPUs of a
/// shared x86-64 server). Host time divided by [`measure`] and multiplied
/// by this constant is host time at the reference speed.
pub const REFERENCE_S: f64 = 5.0e-3;

/// Kernel calls per [`measure`].
const SAMPLES: usize = 5;

/// Seconds of `workers` kernel calls' work, split into `4 × workers`
/// pieces that `workers` threads claim from a shared cursor as they go,
/// the way the simulator's worker pool hands out runs: with several
/// workers this measures their combined speed. One worker runs the
/// pieces inline. On an idle host it takes one call's time.
fn sample(workers: usize) -> f64 {
    let pieces = 4 * workers.max(1) as u64;
    let piece = |i: u64| std::hint::black_box(kernel(std::hint::black_box(0x5eed + i), EVENTS / 4));
    let t = Stopwatch::start();
    if workers <= 1 {
        (0..pieces).for_each(|i| {
            piece(i);
        });
    } else {
        let cursor = AtomicU64::new(0);
        // lint:allow(D004): the pieces return nothing, only their time is
        // kept; the reference must not run through the pool it measures
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= pieces {
                        break;
                    }
                    piece(i);
                });
            }
        });
    }
    t.secs()
}

/// How long the kernel takes now on `workers` threads: the median of a
/// few samples, in seconds.
pub fn measure(workers: usize) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES).map(|_| sample(workers)).collect();
    crate::stats::median(&samples)
}

/// Scale `seconds`, measured while the kernel took `kernel_s`, to the
/// reference host speed.
pub fn at_reference(seconds: f64, kernel_s: f64) -> f64 {
    seconds * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7, 1000), kernel(7, 1000));
        assert_ne!(kernel(7, 1000), kernel(8, 1000));
        assert!(measure(1) > 0.0);
        assert_eq!(at_reference(2.0, 2.0 * REFERENCE_S), 1.0);
    }

    #[test]
    fn sample_runs_on_any_worker_count() {
        for workers in [1, 2, 3] {
            assert!(sample(workers) > 0.0);
        }
    }

    /// The reference must not depend on code the benchmark measures: the
    /// kernel and its threading use no item of the library crates.
    #[test]
    fn kernel_uses_no_library_code() {
        let source = include_str!("hostspeed.rs");
        let code = &source[..source.find("#[cfg(test)]").unwrap()];
        assert!(
            !code.contains("lockgran_"),
            "hostspeed.rs uses a library crate"
        );
    }
}
