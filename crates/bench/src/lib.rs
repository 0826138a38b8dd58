//! Dependency-free micro-benchmark harness.
//!
//! The suite times single operations of the simulator's layers (the
//! future-event list, the servers, Yao's formula, the conflict models
//! and the lock tables), one bench target per layer; end-to-end timing
//! of whole runs is simbench's job (`simbench/`). The harness keeps the
//! slice of the Criterion API those benches use
//! (`criterion_group!`/`criterion_main!`, benchmark groups, per-input
//! benches), so a bench file reads like its Criterion counterpart, but
//! everything below is in-tree:
//!
//! * each benchmark is warmed up for 500 ms, then timed over 30 samples
//!   of a calibrated iteration count, 3 s in all;
//! * per-sample nanoseconds-per-iteration feed min / mean / median / p95
//!   statistics, printed to stdout;
//! * every bench binary writes its results as JSON (parseable by
//!   [`lockgran_sim::json`]) into `results/bench/<bench_name>.json`;
//! * `cargo bench -- --test` runs each routine once and writes nothing.

#![expect(
    clippy::disallowed_types,
    reason = "a benchmark harness measures host wall-clock time by design"
)]

use std::time::{Duration, Instant};

use lockgran_sim::{Json, ToJson};

// ---------------------------------------------------------------------------
// Timing statistics
// ---------------------------------------------------------------------------

/// The recorded outcome of one benchmark: per-sample ns/iteration
/// statistics.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full benchmark id, e.g. `event_queue/push_pop_cycle/64`.
    pub id: String,
    /// Iterations per sample (after calibration).
    pub iterations: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Mean over samples, ns per iteration.
    pub mean_ns: f64,
    /// Median over samples, ns per iteration.
    pub median_ns: f64,
    /// 95th-percentile sample, ns per iteration.
    pub p95_ns: f64,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", self.id.to_json()),
            ("iterations", self.iterations.to_json()),
            ("samples", self.samples.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("p95_ns", self.p95_ns.to_json()),
        ])
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

// ---------------------------------------------------------------------------
// Bencher: the timed inner loop
// ---------------------------------------------------------------------------

/// Handed to each benchmark closure; [`Bencher::iter`] runs the routine
/// for the harness-chosen iteration count and records the elapsed time.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over the harness-chosen number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Like [`Bencher::iter`], but re-runs `setup` (untimed) before every
    /// timed invocation of `routine`.
    pub fn iter_with_setup<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

// ---------------------------------------------------------------------------
// Criterion-shaped driver
// ---------------------------------------------------------------------------

/// A parameterized benchmark id, rendered as `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("push_pop_cycle", 64)` → `push_pop_cycle/64`.
    pub fn new(function: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

/// The benchmark driver: time budgets plus accumulated results.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// `cargo bench -- --test` (and `cargo test --benches`) pass
    /// `--test`: run every routine once to prove it works, skip timing
    /// and reporting.
    test_mode: bool,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(500),
            test_mode: std::env::args().any(|a| a == "--test"),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Open a named group; contained benchmark ids are prefixed with
    /// `name/`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            prefix: name.to_string(),
        }
    }

    /// Results recorded so far (consumed by `criterion_main!`).
    pub fn into_results(self) -> Vec<BenchResult> {
        self.results
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, id: String, mut f: F) {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        if self.test_mode {
            f(&mut b);
            return;
        }

        // Warm-up doubles the iteration count until the budget is spent,
        // which also calibrates the per-iteration cost.
        let warm_start = Instant::now();
        let mut per_iter = loop {
            f(&mut b);
            let cost = b.elapsed.max(Duration::from_nanos(1)) / b.iters as u32;
            if warm_start.elapsed() >= self.warm_up_time {
                break cost;
            }
            b.iters = (b.iters * 2).min(1 << 40);
        };
        if per_iter.is_zero() {
            per_iter = Duration::from_nanos(1);
        }

        let per_sample = self.measurement_time / self.sample_size as u32;
        let iters = (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 40) as u64;

        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            b.iters = iters;
            f(&mut b);
            samples_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(f64::total_cmp);

        let result = BenchResult {
            id,
            iterations: iters,
            samples: samples_ns.len(),
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            median_ns: percentile(&samples_ns, 0.5),
            p95_ns: percentile(&samples_ns, 0.95),
        };
        println!(
            "{:<44} median {:>12}  (min {}, p95 {}, {} iters x {} samples)",
            result.id,
            format_ns(result.median_ns),
            format_ns(result.min_ns),
            format_ns(result.p95_ns),
            result.iterations,
            result.samples,
        );
        self.results.push(result);
    }
}

/// A group of related benchmarks sharing an id prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{id}", self.prefix);
        self.criterion.run_one(full, f);
        self
    }

    /// Run one parameterized benchmark; the closure receives the input.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.prefix, id.id);
        self.criterion.run_one(full, |b| f(b, input));
        self
    }
}

/// Write the per-binary JSON report to `results/bench/<name>.json`.
/// Called by `criterion_main!`; does nothing in `--test` mode or when
/// there are no results.
pub fn write_report(name: &str, results: &[BenchResult]) {
    if results.is_empty() {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let report = Json::object(vec![
        ("harness", name.to_json()),
        ("benches", results.to_vec().to_json()),
    ]);
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, report.pretty() + "\n") {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Define a benchmark group function, mirroring Criterion's macro of the
/// same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() -> Vec<$crate::BenchResult> {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
            criterion.into_results()
        }
    };
}

/// Define `main`: run every group, then write the JSON report, mirroring
/// Criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut all: Vec<$crate::BenchResult> = Vec::new();
            $( all.extend($group()); )+
            $crate::write_report(env!("CARGO_CRATE_NAME"), &all);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_criterion() -> Criterion {
        Criterion {
            sample_size: 3,
            measurement_time: Duration::from_millis(3),
            warm_up_time: Duration::from_millis(1),
            test_mode: false,
            results: Vec::new(),
        }
    }

    #[test]
    fn records_sane_statistics() {
        let mut c = quick_criterion();
        c.benchmark_group("grp")
            .bench_function("sum_1000", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        let results = c.into_results();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.id, "grp/sum_1000");
        assert!(r.iterations >= 1);
        assert_eq!(r.samples, 3);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
    }

    #[test]
    fn groups_prefix_parameterized_ids() {
        let mut c = quick_criterion();
        c.benchmark_group("grp")
            .bench_with_input(BenchmarkId::new("param", 7), &7u64, |b, &n| {
                b.iter(|| n * 2)
            });
        let results = c.into_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, "grp/param/7");
    }

    #[test]
    fn iter_with_setup_excludes_setup_time() {
        let mut c = quick_criterion();
        c.benchmark_group("grp").bench_function("setup", |b| {
            b.iter_with_setup(|| vec![1u64; 512], |v| v.iter().sum::<u64>())
        });
        let r = c.into_results();
        assert_eq!(r.len(), 1);
        assert!(r[0].min_ns > 0.0);
    }

    #[test]
    fn result_json_shape() {
        let r = BenchResult {
            id: "x/y".into(),
            iterations: 10,
            samples: 3,
            min_ns: 1.0,
            mean_ns: 2.0,
            median_ns: 2.0,
            p95_ns: 3.0,
        };
        let j = r.to_json();
        assert_eq!(j["id"], "x/y");
        assert_eq!(j["iterations"].as_u64(), Some(10));
        // The report round-trips through the in-tree parser.
        let parsed = lockgran_sim::json::parse(&j.pretty()).unwrap();
        assert_eq!(parsed["median_ns"].as_f64(), Some(2.0));
    }
}
