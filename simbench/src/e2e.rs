//! End-to-end measurement, with tracing off: set-up time, then repeated
//! passes of the workload on its production path for the time budget.
//!
//! Every group execution and every batch of set-ups is bracketed by
//! host-speed measurements (see [`crate::hostspeed`]). A group's timing
//! is the median of its raw samples scaled by the median of the run's
//! host-speed measurements; a set-up batch's timing is its median scaled
//! by its own two measurements. Either way it is host seconds at the
//! reference speed: a host that slows down for minutes moves the result
//! far less than it moves the raw seconds, which the readable lines also
//! give.

use std::process::Command;

use lockgran_core::{system::System, ModelConfig};
use lockgran_sim::{Executor, FelKind};

use crate::check::Reference;
use crate::clock::Stopwatch;
use crate::hostspeed;
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, quartiles};
use crate::workloads::{execute, Workload};

/// Fresh processes that each measure set-up, per run.
const SETUP_PROBES: usize = 6;
/// Seconds of a probe's first batch of set-up samples ...
const SETUP_FIRST_S: f64 = 0.3;
/// ... and of each of its further batches.
const SETUP_BATCH_S: f64 = 0.1;
/// Set-up batches per probe after the first.
const SETUP_BATCHES: usize = 4;
/// At most this many set-up samples per batch.
const SETUP_MAX_BATCH: usize = 100;

/// Seconds of one cold set-up of `w`: validate every run's configuration,
/// then build an executor and a `System` for each distinct configuration
/// (2PL prewarm, hierarchy maps and the initial arrivals included). Each
/// system is dropped, off the clock, before the next is built, so set-up
/// never holds more memory than one run does.
pub fn setup_once(w: &Workload) -> Result<f64, String> {
    let t = Stopwatch::start();
    w.validate()?;
    let mut secs = t.secs();
    let mut seen: Vec<&ModelConfig> = Vec::new();
    for (cfg, seed) in w.runs() {
        if seen.contains(&cfg) {
            continue;
        }
        seen.push(cfg);
        let t = Stopwatch::start();
        let mut ex = Executor::with_fel(FelKind::Calendar);
        let sys = System::new(cfg, *seed, &mut ex);
        secs += t.secs();
        drop(std::hint::black_box((ex, sys)));
    }
    Ok(secs)
}

/// Repeat [`setup_once`] for about `budget_s` seconds (at least three
/// times), bracketed by host-speed measurements. Returns the batch's
/// median scaled by the mean of the two: set-up samples are short, so
/// each batch is paired with the host speed of its own moment.
fn setup_batch(w: &Workload, budget_s: f64) -> Result<f64, String> {
    let before = hostspeed::measure(1);
    let mut batch = Vec::new();
    let t = Stopwatch::start();
    for i in 0..SETUP_MAX_BATCH {
        if i >= 3 && t.secs() >= budget_s {
            break;
        }
        batch.push(setup_once(w)?);
    }
    let kernel = (before + hostspeed::measure(1)) / 2.0;
    Ok(hostspeed::at_reference(median(&batch), kernel))
}

/// Set-up time of `w` in this process at the reference host speed: the
/// median over batches. This is all a set-up probe does, so it runs in a
/// process that has handled no simulated event.
pub fn setup_probe(w: &Workload) -> Result<f64, String> {
    let mut batches = vec![setup_batch(w, SETUP_FIRST_S)?];
    for _ in 0..SETUP_BATCHES {
        batches.push(setup_batch(w, SETUP_BATCH_S)?);
    }
    Ok(median(&batches))
}

/// Run [`SETUP_PROBES`] set-up probes of `w` one after another, each in a
/// fresh process of this program (`--setup-probe`), waiting for each.
///
/// A process keeps a fast or a slow set-up level (about 1.3x apart on the
/// development host) for most of its life, and which one it gets differs
/// from process to process. Averaging over fresh processes turns that
/// into a small spread. Sampling set-up inside the measuring process
/// would instead see the allocator's state after each pass, and would
/// count the samples' memory in `peak_rss_mb`.
fn setup_in_fresh_processes(w: &Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", w.name, &w.seed.to_string()])
                .output()
                .map_err(|e| format!("starting a set-up probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "set-up probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            stdout
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed '{}': {e}", stdout.trim()))
        })
        .collect()
}

/// Measure `w` end to end for about `seconds` seconds of timed passes.
///
/// Each pass executes every group once on its production path. A
/// group's time is its median over the passes at the reference host
/// speed, and `wall_s` is the sum of the groups' times: more, shorter
/// samples than whole passes give, so one slow moment of the host moves
/// the result less. `setup_s` is the mean of the set-up probes.
pub fn measure(w: &Workload, seconds: f64) -> Result<Report, String> {
    let mut report = Report::new(w);
    let setup = setup_in_fresh_processes(w)?;

    let reference = Reference::build(w);
    let peak_after_reference = peak_rss_mb()?;
    report.attempted += w.run_count();
    report.failed += reference.failed();
    report.problems.extend(reference.problems.iter().cloned());
    report.check_digest(reference.digest())?;
    let events = reference.events() as f64;
    let totcom = reference.totcom() as f64;

    // Passes until the next one would overrun the budget (at least one).
    // Each group's raw times are kept apart; the host-speed measurements
    // of all groups (which share one worker count) are pooled.
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); w.groups.len()];
    let mut kernel = Vec::new();
    let mut passes = 0;
    let budget = Stopwatch::start();
    loop {
        let mut pass_s = 0.0;
        let mut outputs = Vec::with_capacity(w.run_count());
        for (g, raw) in w.groups.iter().zip(&mut raw) {
            kernel.push(hostspeed::measure(g.workers));
            let t = Stopwatch::start();
            outputs.extend(execute(g, w.seed));
            let s = t.secs();
            kernel.push(hostspeed::measure(g.workers));
            raw.push(s);
            pass_s += s;
        }
        passes += 1;
        report.attempted += w.run_count();
        report.failed += reference.compare(&outputs, &mut report.problems);
        if budget.secs() + pass_s > seconds {
            break;
        }
    }

    let mut raw_wall = 0.0;
    for (g, raw) in w.groups.iter().zip(&raw) {
        let [q1, q2, q3] = quartiles(raw);
        raw_wall += q2;
        report.note(format!(
            "{}: {} runs on {} worker(s); raw seconds per execution q1/median/q3 \
             {q1:.4} / {q2:.4} / {q3:.4}",
            g.label,
            g.runs.len(),
            g.workers
        ));
    }
    let kernel = median(&kernel);
    let wall = hostspeed::at_reference(raw_wall, kernel);
    report.note(format!(
        "{passes} timed passes; {events} events and {totcom} transactions per pass"
    ));
    let probes: Vec<String> = setup.iter().map(|s| format!("{s:.3e}")).collect();
    report.note(format!(
        "set-up probes in fresh processes, seconds at the reference speed: {}",
        probes.join(" ")
    ));
    report.note(format!(
        "raw host seconds per pass {raw_wall:.4}; host kernel median {:.3} ms, \
         so the host ran at {:.3}x the reference speed",
        kernel * 1e3,
        hostspeed::REFERENCE_S / kernel
    ));
    report.metric("wall_s", wall, "s");
    report.metric("events_per_s", events / wall, "1/s");
    report.metric("txns_per_s", totcom / wall, "1/s");
    report.metric(
        "setup_s",
        setup.iter().sum::<f64>() / setup.len() as f64,
        "s",
    );
    let peak = peak_rss_mb()?;
    report.note(format!(
        "peak RSS {peak_after_reference:.2} MB after the reference pass, {peak:.2} MB at the end"
    ));
    report.metric("peak_rss_mb", peak, "MB");
    Ok(report)
}
