//! Deterministic fixed-size worker pool (indexed scatter/gather).
//!
//! The experiment harness runs many *independent* simulations — every
//! `(ltot, replication)` pair of a sweep, every figure of the CLI suite.
//! Each simulation is a pure function of `(config, seed)`, so fanning the
//! work out over threads can never change a single output bit **provided
//! the results are reassembled by submission index, not by completion
//! order**. [`WorkerPool`] implements exactly that discipline:
//!
//! * a fixed number of `std::thread` workers (no external crates, no
//!   channels) pull task indices from a shared atomic cursor;
//! * every result is written into the slot of its *submission* index;
//! * [`WorkerPool::try_run_with_state`] (and [`WorkerPool::try_run`] on
//!   top of it) returns the results in submission order, no matter which
//!   worker finished first.
//!
//! With `jobs = 1` the pool degenerates to a plain in-order loop on the
//! calling thread — byte-for-byte the sequential behavior, useful both as
//! the reproducibility baseline and under debuggers.
//!
//! This module is the **only** place in the workspace allowed to touch
//! raw threading primitives; the root `clippy.toml` bans them everywhere
//! else (rule D004), so everything goes through the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "LOCKGRAN_JOBS";

/// A task that panicked inside [`WorkerPool::try_run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Submission index of the failed task.
    pub index: usize,
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim; anything else as a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task #{} panicked: {}", self.index, self.message)
    }
}

/// Render a caught panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-size worker pool with deterministic result ordering.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// A pool with exactly `jobs` workers (`0` is clamped to `1`).
    pub fn new(jobs: usize) -> Self {
        WorkerPool { jobs: jobs.max(1) }
    }

    /// The host's available parallelism (`1` if it cannot be queried).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Resolve a job count: `Some(n)` is used as given; `None` falls back
    /// to the `LOCKGRAN_JOBS` environment variable, then to the host's
    /// available parallelism. The returned value is always ≥ 1.
    ///
    /// A set-but-unparsable `LOCKGRAN_JOBS` is *not* silently ignored: a
    /// one-line warning goes to stderr before falling back, so a typo like
    /// `LOCKGRAN_JOBS=4x` is visible instead of quietly changing the
    /// worker count.
    pub fn resolve_jobs(requested: Option<usize>) -> usize {
        if let Some(n) = requested {
            return n.max(1);
        }
        if let Some(v) = std::env::var_os(JOBS_ENV) {
            match Self::parse_jobs(&v.to_string_lossy()) {
                Ok(n) => return n,
                Err(e) => eprintln!(
                    "warning: ignoring {JOBS_ENV}={}: {e}; falling back to available parallelism",
                    v.to_string_lossy()
                ),
            }
        }
        Self::available_parallelism()
    }

    /// Parse a `LOCKGRAN_JOBS`-style value into a worker count ≥ 1.
    /// Factored out of [`WorkerPool::resolve_jobs`] so the parse rules are
    /// testable without mutating process-global environment state.
    pub fn parse_jobs(value: &str) -> Result<usize, String> {
        match value.trim().parse::<usize>() {
            Ok(n) => Ok(n.max(1)),
            Err(_) => Err(format!("expected a non-negative integer, got '{value}'")),
        }
    }

    /// Number of workers this pool runs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute every task with per-task panic isolation, returning one
    /// `Result` per task **in submission order**.
    ///
    /// A panicking task does not abort the batch (or poison sibling
    /// workers): each task runs under `catch_unwind`, so a poisoned input
    /// degrades to an `Err` carrying the submission index and the panic
    /// payload while every other task completes normally. This is
    /// [`WorkerPool::try_run_with_state`] with no state: the same shared
    /// cursor, indexed gather and sequential `jobs = 1` baseline.
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, TaskPanic>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let stateless = tasks.into_iter().map(|task| move |_: &mut ()| task());
        self.try_run_with_state(|| (), stateless.collect())
    }

    /// Execute every task against a per-worker scratch state, with
    /// per-task panic isolation, returning one `Result` per task **in
    /// submission order**.
    ///
    /// Tasks are claimed by workers from a shared cursor (so long tasks
    /// do not serialize behind each other), but each result lands in the
    /// slot of its submission index; completion order is invisible to the
    /// caller.
    ///
    /// `mk` builds one state per worker thread (one on the calling thread
    /// in the sequential `jobs = 1` baseline); each task gets `&mut` to
    /// the state of whichever worker claimed it. This is how the sweep
    /// harness threads reusable run arenas through the pool. The state is
    /// *scratch*: which tasks share a state depends on the job count and
    /// claim timing, so a task's result must not observably depend on the
    /// state's history — that is exactly the reset-equals-fresh contract
    /// `tests/parallel_determinism.rs` enforces end to end. After a caught
    /// panic the worker's state is discarded and rebuilt with `mk`, since
    /// the panic may have left it mid-mutation.
    pub fn try_run_with_state<S, T, F, M>(&self, mk: M, tasks: Vec<F>) -> Vec<Result<T, TaskPanic>>
    where
        T: Send,
        F: FnOnce(&mut S) -> T + Send,
        M: Fn() -> S + Sync,
    {
        let n = tasks.len();
        if self.jobs == 1 || n <= 1 {
            let mut state = mk();
            let mut out = Vec::with_capacity(n);
            for (index, task) in tasks.into_iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| task(&mut state))) {
                    Ok(v) => out.push(Ok(v)),
                    Err(payload) => {
                        state = mk();
                        out.push(Err(TaskPanic {
                            index,
                            message: panic_message(payload.as_ref()),
                        }));
                    }
                }
            }
            return out;
        }

        let cells: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<T, TaskPanic>>>> =
            Mutex::new((0..n).map(|_| None).collect());

        #[expect(
            clippy::disallowed_methods,
            reason = "the worker pool is the one sanctioned home for raw threads: \
                      results gather into indexed slots, in submission order"
        )]
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| {
                    let mut state = mk();
                    let mut local: Vec<(usize, Result<T, TaskPanic>)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "a poisoned cell means a sibling task panicked, so \
                                      propagating is correct; the cursor hands out each \
                                      index exactly once"
                        )]
                        let task = cells[i]
                            .lock()
                            .expect("task cell poisoned")
                            .take()
                            .expect("task claimed twice");
                        match catch_unwind(AssertUnwindSafe(|| task(&mut state))) {
                            Ok(v) => local.push((i, Ok(v))),
                            Err(payload) => {
                                state = mk();
                                local.push((
                                    i,
                                    Err(TaskPanic {
                                        index: i,
                                        message: panic_message(payload.as_ref()),
                                    }),
                                ));
                            }
                        }
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "a poisoned gather means a sibling worker panicked \
                                  outside catch_unwind; propagating is correct"
                    )]
                    let mut merged = slots.lock().expect("result slots poisoned");
                    for (i, v) in local {
                        merged[i] = Some(v);
                    }
                });
            }
        });

        #[expect(
            clippy::expect_used,
            reason = "all workers joined without panicking above, and every index \
                      was claimed and merged exactly once"
        )]
        let results = slots
            .into_inner()
            .expect("result slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("task produced no result"))
            .collect();
        results
    }
}

impl Default for WorkerPool {
    /// A pool sized by [`WorkerPool::resolve_jobs`]`(None)`.
    fn default() -> Self {
        WorkerPool::new(Self::resolve_jobs(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boxed stateful task used by the `try_run_with_state` tests.
    type StatefulTask = Box<dyn FnOnce(&mut u64) -> u64 + Send>;

    /// `try_run` over tasks that do not panic, unwrapped.
    fn run<T: Send, F: FnOnce() -> T + Send>(pool: &WorkerPool, tasks: Vec<F>) -> Vec<T> {
        let out = pool.try_run(tasks).into_iter();
        out.map(|r| r.expect("no task panics")).collect()
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<u32> = run(&WorkerPool::new(4), Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let tasks = |mult: u64| -> Vec<_> {
            (0..64u64)
                .map(|i| move || i.wrapping_mul(mult).wrapping_add(7))
                .collect()
        };
        let seq = run(&WorkerPool::new(1), tasks(31));
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run(&WorkerPool::new(jobs), tasks(31)), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn more_workers_than_tasks() {
        let tasks = (0..3u32).map(|i| move || i * i).collect::<Vec<_>>();
        let out = run(&WorkerPool::new(16), tasks);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).jobs(), 1);
    }

    #[test]
    fn resolve_explicit_request_wins() {
        assert_eq!(WorkerPool::resolve_jobs(Some(5)), 5);
        assert_eq!(WorkerPool::resolve_jobs(Some(0)), 1);
    }

    #[test]
    fn parse_jobs_accepts_integers_and_clamps_zero() {
        assert_eq!(WorkerPool::parse_jobs("4"), Ok(4));
        assert_eq!(WorkerPool::parse_jobs(" 8 "), Ok(8));
        assert_eq!(WorkerPool::parse_jobs("0"), Ok(1));
    }

    #[test]
    fn parse_jobs_rejects_garbage() {
        assert!(WorkerPool::parse_jobs("4x").is_err());
        assert!(WorkerPool::parse_jobs("").is_err());
        assert!(WorkerPool::parse_jobs("-2").is_err());
    }

    #[test]
    fn try_run_isolates_a_panicking_task() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..6u32)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("poisoned input {i}");
                    }
                    i * 10
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let out = WorkerPool::new(4).try_run(tasks);
        assert_eq!(out.len(), 6);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let err = r.as_ref().unwrap_err();
                assert_eq!(err.index, 3);
                assert_eq!(err.message, "poisoned input 3");
                assert_eq!(err.to_string(), "task #3 panicked: poisoned input 3");
            } else {
                assert_eq!(*r, Ok(i as u32 * 10));
            }
        }
    }

    #[test]
    fn try_run_sequential_path_also_isolates_panics() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("first")), Box::new(|| 7)];
        let out = WorkerPool::new(1).try_run(tasks);
        assert!(out[0].is_err());
        assert_eq!(out[1], Ok(7));
    }

    #[test]
    fn with_state_reuses_state_and_keeps_submission_order() {
        // Each task increments its worker's counter; with one worker the
        // counter threads through every task, proving state reuse. The
        // *results* are still pure functions of the task input.
        let mk_tasks = || -> Vec<StatefulTask> {
            (0..32u64)
                .map(|i| {
                    Box::new(move |calls: &mut u64| {
                        *calls += 1;
                        i * 3
                    }) as StatefulTask
                })
                .collect()
        };
        let seq = WorkerPool::new(1).try_run_with_state(|| 0u64, mk_tasks());
        for jobs in [2, 4, 16] {
            let par = WorkerPool::new(jobs).try_run_with_state(|| 0u64, mk_tasks());
            assert_eq!(par, seq, "jobs={jobs}");
        }
        let values: Vec<u64> = seq.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..32u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn with_state_rebuilds_state_after_a_panic() {
        // State is a counter of tasks run since construction. Task 2
        // panics; the rebuilt state must restart from zero for later
        // tasks on the same (single) worker.
        let tasks: Vec<StatefulTask> = (0..5u64)
            .map(|i| {
                Box::new(move |since_mk: &mut u64| {
                    if i == 2 {
                        panic!("boom {i}");
                    }
                    *since_mk += 1;
                    *since_mk
                }) as StatefulTask
            })
            .collect();
        let out = WorkerPool::new(1).try_run_with_state(|| 0u64, tasks);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Ok(2));
        let err = out[2].as_ref().unwrap_err();
        assert_eq!((err.index, err.message.as_str()), (2, "boom 2"));
        // Fresh state after the panic: the count restarts.
        assert_eq!(out[3], Ok(1));
        assert_eq!(out[4], Ok(2));
    }

    #[test]
    fn results_in_submission_order_under_adversarial_timing() {
        // Earlier tasks take the longest: completion order is roughly the
        // reverse of submission order, so any completion-ordered gather
        // would scramble the output.
        let n = 24u64;
        let tasks: Vec<_> = (0..n)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(2 * (n - i)));
                    i
                }
            })
            .collect();
        let out = run(&WorkerPool::new(8), tasks);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }
}
