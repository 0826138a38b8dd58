//! `lockgran` — regenerate the paper's tables and figures from the
//! command line.
//!
//! ```text
//! lockgran list
//! lockgran fig2 [--quick] [--chart] [--seed N] [--reps N] [--tmax T] [--jobs N] [--out DIR]
//! lockgran all  [--quick] [--jobs N] [--out DIR]
//! lockgran ext  [--quick] [--jobs N] [--out DIR]
//! lockgran batch <configs.json> [--seed N] [--out FILE.csv]
//! lockgran timeline [run flags] [--interval X]
//! lockgran warmup [run flags] [--interval X] [--reps R]
//! lockgran run  [--ltot N] [--npros N] [--ntrans N] [--maxtransize N]
//!               [--placement P] [--partitioning P] [--conflict C]
//!               [--areas N] [--escalation N|inf]
//!               [--liotime X] [--tmax T] [--seed N]
//! ```
//!
//! Figure ids are `table1`, `fig2` … `fig12` and the extension
//! experiments `extA` … `extJ` (`all` runs the paper set, `ext` the
//! extensions). `--conflict hierarchical` selects the multigranularity
//! lock-table model; `--areas` sets its database → area → granule
//! fan-out and `--escalation` its per-transaction lock-escalation
//! threshold (`inf` = never escalate). `--conflict twophase` selects
//! incremental two-phase locking with waits-for deadlock detection and
//! youngest-victim abort. Figure output is an aligned text table on stdout;
//! `--out DIR` also writes `<id>.txt`, `<id>.csv` and `<id>.json`
//! artifacts. Multi-figure runs are fault-isolated: a figure that
//! panics is reported in an end-of-run summary (and the exit code is
//! nonzero) while the remaining figures still render.

use std::path::PathBuf;
use std::process::ExitCode;

use lockgran_core::{sim, ConflictMode, HierarchySpec, ModelConfig};
use lockgran_experiments::figures::{run_by_id, ALL_IDS, EXT_IDS};
use lockgran_experiments::{chart, emit, Figure, RunOptions};
use lockgran_sim::{Dur, WorkerPool};
use lockgran_workload::{Partitioning, Placement};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  lockgran help | -h | --help
  lockgran list
  lockgran <table1|fig2..fig12|all|extA|extB|extC|extD|extE|extF|extG|extH|extI|extJ|ext> [--quick] [--chart] [--seed N] [--reps N] [--tmax T] [--jobs N] [--out DIR]
  lockgran batch <configs.json> [--seed N] [--out FILE.csv]
  lockgran timeline [run flags] [--interval X]
  lockgran warmup [run flags] [--interval X] [--reps R]
  lockgran run [--ltot N] [--npros N] [--ntrans N] [--maxtransize N]
               [--placement best|random|worst] [--partitioning horizontal|random]
               [--conflict probabilistic|explicit|hierarchical|twophase]
               [--areas N] [--escalation N|inf]
               [--liotime X] [--tmax T] [--seed N]";

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    match cmd.as_str() {
        "help" | "-h" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        "list" => {
            println!("paper artifacts:");
            for id in ALL_IDS {
                println!("  {id}");
            }
            println!("extension experiments:");
            for id in EXT_IDS {
                println!("  {id}");
            }
            Ok(())
        }
        "run" => run_single(&args[1..]),
        "batch" => run_batch(&args[1..]),
        "timeline" => run_timeline_cmd(&args[1..]),
        "warmup" => run_warmup_cmd(&args[1..]),
        "all" => {
            let (opts, out, show_chart) = parse_fig_flags(&args[1..])?;
            run_figures(&ALL_IDS, &opts, out.as_deref(), show_chart)
        }
        "ext" => {
            let (opts, out, show_chart) = parse_fig_flags(&args[1..])?;
            run_figures(&EXT_IDS, &opts, out.as_deref(), show_chart)
        }
        id if ALL_IDS.contains(&id) || EXT_IDS.contains(&id) => {
            let (opts, out, show_chart) = parse_fig_flags(&args[1..])?;
            run_figure(id, &opts, out.as_deref(), show_chart)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn run_figure(
    id: &str,
    opts: &RunOptions,
    out: Option<&std::path::Path>,
    show_chart: bool,
) -> Result<(), String> {
    eprintln!(
        "running {id} ({} mode, {} replications, {} sweep worker(s))…",
        if opts.quick { "quick" } else { "full" },
        opts.effective_reps(),
        opts.effective_jobs()
    );
    let fig = run_by_id(id, opts).ok_or_else(|| format!("unknown figure '{id}'"))?;
    render_figure(&fig, out, show_chart)
}

/// Run a batch of figures, fanning the figures themselves out across the
/// worker budget: `outer` figures run concurrently, each with
/// `jobs / outer` sweep workers. Results are rendered in catalogue order
/// regardless of completion order, so the output stream is identical to
/// the sequential run.
///
/// Figures are fault-isolated: a figure that panics is collected into an
/// end-of-run summary and returned as an error (→ nonzero exit) after
/// every surviving figure has rendered, instead of tearing down the whole
/// batch mid-flight.
fn run_figures(
    ids: &[&str],
    opts: &RunOptions,
    out: Option<&std::path::Path>,
    show_chart: bool,
) -> Result<(), String> {
    let jobs = opts.effective_jobs();
    let outer = jobs.min(ids.len()).max(1);
    let inner = (jobs / outer).max(1);
    eprintln!(
        "running {} figures ({} mode, {} replications, {jobs} worker(s): {outer} concurrent figure(s) × {inner} sweep worker(s))…",
        ids.len(),
        if opts.quick { "quick" } else { "full" },
        opts.effective_reps(),
    );
    let tasks: Vec<_> = ids
        .iter()
        .map(|&id| {
            let opts = opts.clone().with_jobs(inner);
            move || run_by_id(id, &opts)
        })
        .collect();
    let figs = WorkerPool::new(outer).try_run(tasks);
    let mut failures: Vec<String> = Vec::new();
    for (id, result) in ids.iter().zip(figs) {
        match result {
            Ok(Some(fig)) => {
                if let Err(e) = render_figure(&fig, out, show_chart) {
                    failures.push(format!("{id}: {e}"));
                }
            }
            Ok(None) => failures.push(format!("{id}: unknown figure")),
            Err(p) => failures.push(format!("{id}: panicked: {}", p.message)),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        let mut summary = format!("{} of {} figures failed:", failures.len(), ids.len());
        for f in &failures {
            summary.push_str("\n  ");
            summary.push_str(f);
        }
        Err(summary)
    }
}

/// Print a computed figure (and write artifacts) — the output side of
/// [`run_figure`], shared with the batched path.
fn render_figure(
    fig: &Figure,
    out: Option<&std::path::Path>,
    show_chart: bool,
) -> Result<(), String> {
    print!("{}", emit::render_table(fig));
    println!();
    if show_chart {
        for panel in &fig.panels {
            println!(
                "{}",
                chart::render_chart(panel, &chart::ChartOptions::default())
            );
        }
    }
    if let Some(dir) = out {
        emit::write_artifacts(fig, dir).map_err(|e| format!("writing artifacts: {e}"))?;
        eprintln!(
            "wrote {}/{{{id}.txt,{id}.csv,{id}.json}}",
            dir.display(),
            id = fig.id
        );
    }
    Ok(())
}

fn parse_fig_flags(args: &[String]) -> Result<(RunOptions, Option<PathBuf>, bool), String> {
    let mut opts = RunOptions::default();
    let mut out = None;
    let mut show_chart = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--chart" => show_chart = true,
            "--seed" => opts.seed = next_val(&mut it, "--seed")?,
            "--reps" => opts.reps = next_val(&mut it, "--reps")?,
            "--tmax" => opts.tmax = Some(next_val(&mut it, "--tmax")?),
            "--jobs" => opts.jobs = next_val(&mut it, "--jobs")?,
            "--out" => out = Some(PathBuf::from(next_str(&mut it, "--out")?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // Every sweep applies this horizon; check it once here rather than
    // let each sweep task panic in `System::new`.
    opts.apply(ModelConfig::table1())
        .validate()
        .map_err(|e| format!("--tmax: {e}"))?;
    Ok((opts, out, show_chart))
}

/// `lockgran timeline [run flags] [--interval X]` — windowed time series
/// of one run, as a table plus an ASCII chart of throughput over time.
fn run_timeline_cmd(args: &[String]) -> Result<(), String> {
    let (cfg, seed, rest) = parse_run_flags(args)?;
    let mut interval = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval" => interval = Some(next_val(&mut it, "--interval")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let interval = checked_interval(interval, &cfg)?;
    let (m, points) = sim::run_timeline(&cfg, seed, interval);
    println!(
        "{:>10} {:>8} {:>12} {:>8} {:>8} {:>9} {:>9}",
        "t", "totcom", "throughput", "active", "blocked", "cpu util", "io util"
    );
    for p in &points {
        println!(
            "{:>10.1} {:>8} {:>12.4} {:>8} {:>8} {:>9.3} {:>9.3}",
            p.t,
            p.completions,
            p.throughput,
            p.active,
            p.blocked,
            p.cpu_utilization,
            p.io_utilization
        );
    }
    println!();
    println!(
        "final: throughput {:.4}, response {:.2}",
        m.throughput, m.response_time
    );
    // Throughput-over-time chart (linear x via index is fine here).
    let panel = lockgran_experiments::Panel {
        metric: "throughput over time".into(),
        x_label: "t".into(),
        series: vec![lockgran_experiments::Series {
            label: "throughput".into(),
            points: points
                .iter()
                .map(|p| lockgran_experiments::Point {
                    x: p.t,
                    mean: p.throughput,
                    ci95: 0.0,
                })
                .collect(),
        }],
    };
    println!(
        "{}",
        chart::render_chart(&panel, &chart::ChartOptions::default())
    );
    Ok(())
}

/// `lockgran warmup [run flags] [--interval X] [--reps R]` — Welch
/// warm-up suggestion for a configuration.
fn run_warmup_cmd(args: &[String]) -> Result<(), String> {
    let (cfg, seed, rest) = parse_run_flags(args)?;
    let mut interval = None;
    let mut reps = 5u32;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval" => interval = Some(next_val(&mut it, "--interval")?),
            "--reps" => reps = next_val(&mut it, "--reps")?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let interval = checked_interval(interval, &cfg)?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    match sim::suggest_warmup(&cfg, seed, reps, interval) {
        Some(w) => println!(
            "suggested warmup: {w:.0} time units ({}% of tmax {})",
            (w / cfg.tmax * 100.0).round(),
            cfg.tmax
        ),
        None => println!(
            "no stable warm-up point found — lengthen tmax (currently {}) or widen --interval",
            cfg.tmax
        ),
    }
    Ok(())
}

/// The timeline sampling interval: `--interval` if given, else a
/// fortieth of the horizon. It must be at least one clock tick, which
/// `run_timeline` asserts, and at most the horizon, or no window closes.
fn checked_interval(interval: Option<f64>, cfg: &ModelConfig) -> Result<f64, String> {
    let interval = interval.unwrap_or(cfg.tmax / 40.0);
    if interval > 0.0 && interval <= cfg.tmax && !Dur::from_units(interval).is_zero() {
        Ok(interval)
    } else {
        Err(format!(
            "--interval must span at least one clock tick ({} time units) \
             and at most tmax ({}), got {interval}",
            Dur::from_ticks(1).units(),
            cfg.tmax
        ))
    }
}

/// Parse the shared `run`-style configuration flags, returning unparsed
/// extras for the caller.
fn parse_run_flags(args: &[String]) -> Result<(ModelConfig, u64, Vec<String>), String> {
    let mut cfg = ModelConfig::table1();
    let mut seed = 0u64;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ltot" => cfg.ltot = next_val(&mut it, "--ltot")?,
            "--npros" => cfg.npros = next_val(&mut it, "--npros")?,
            "--ntrans" => cfg.ntrans = next_val(&mut it, "--ntrans")?,
            "--maxtransize" => {
                let m: u64 = next_val(&mut it, "--maxtransize")?;
                cfg = cfg.with_maxtransize(m);
            }
            "--placement" => {
                cfg.placement = next_str(&mut it, "--placement")?.parse::<Placement>()?;
            }
            "--partitioning" => {
                cfg.partitioning = next_str(&mut it, "--partitioning")?.parse::<Partitioning>()?;
            }
            "--conflict" => {
                cfg.conflict = next_str(&mut it, "--conflict")?.parse::<ConflictMode>()?;
            }
            "--areas" => {
                hierarchy_of(&mut cfg).areas = next_val(&mut it, "--areas")?;
            }
            "--escalation" => {
                hierarchy_of(&mut cfg).escalation_threshold =
                    parse_escalation(next_str(&mut it, "--escalation")?)?;
            }
            "--liotime" => cfg.liotime = next_val(&mut it, "--liotime")?,
            "--tmax" => cfg.tmax = next_val(&mut it, "--tmax")?,
            "--seed" => seed = next_val(&mut it, "--seed")?,
            other => rest.push(other.to_string()),
        }
    }
    cfg.validate()?;
    Ok((cfg, seed, rest))
}

/// `lockgran batch <configs.json> [--seed N] [--out FILE.csv]`
///
/// The JSON file holds an array of [`ModelConfig`] values (see
/// `ModelConfig::table1()` serialized for a template). Each config runs
/// once; results are printed as CSV (and written to `--out` if given).
fn run_batch(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let path = next_str(&mut it, "batch")?;
    let mut seed = 0u64;
    let mut out: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = next_val(&mut it, "--seed")?,
            "--out" => out = Some(PathBuf::from(next_str(&mut it, "--out")?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = lockgran_sim::json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let configs: Vec<ModelConfig> =
        lockgran_sim::FromJson::from_json(&value).map_err(|e| format!("parsing {path}: {e}"))?;
    let mut csv = String::from(
        "index,ltot,npros,ntrans,placement,partitioning,conflict,throughput,response_time,\
         usefulcpus,usefulios,lockcpus,lockios,denial_rate\n",
    );
    for (i, cfg) in configs.iter().enumerate() {
        cfg.validate()
            .map_err(|e| format!("config #{i} invalid: {e}"))?;
        let m = sim::run(cfg, seed.wrapping_add(i as u64));
        csv.push_str(&format!(
            "{i},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            cfg.ltot,
            cfg.npros,
            cfg.ntrans,
            cfg.placement,
            cfg.partitioning,
            cfg.conflict.name(),
            m.throughput,
            m.response_time,
            m.usefulcpus,
            m.usefulios,
            m.lockcpus,
            m.lockios,
            m.denial_rate
        ));
    }
    print!("{csv}");
    if let Some(p) = out {
        std::fs::write(&p, &csv).map_err(|e| format!("writing {}: {e}", p.display()))?;
        eprintln!("wrote {}", p.display());
    }
    Ok(())
}

fn run_single(args: &[String]) -> Result<(), String> {
    let (cfg, seed, rest) = parse_run_flags(args)?;
    if let Some(flag) = rest.first() {
        return Err(format!("unknown flag '{flag}'"));
    }
    let m = sim::run(&cfg, seed);
    println!(
        "config : ltot={} npros={} ntrans={} placement={} partitioning={} conflict={}",
        cfg.ltot,
        cfg.npros,
        cfg.ntrans,
        cfg.placement,
        cfg.partitioning,
        cfg.conflict.name()
    );
    println!("totcom      = {}", m.totcom);
    println!("throughput  = {:.5}", m.throughput);
    println!("response    = {:.2}", m.response_time);
    println!("totcpus     = {:.1}", m.totcpus);
    println!("totios      = {:.1}", m.totios);
    println!("lockcpus    = {:.1}", m.lockcpus);
    println!("lockios     = {:.1}", m.lockios);
    println!("usefulcpus  = {:.2}", m.usefulcpus);
    println!("usefulios   = {:.2}", m.usefulios);
    println!("denial rate = {:.3}", m.denial_rate);
    println!("mean active = {:.2}", m.mean_active);
    println!("cpu util    = {:.3}", m.cpu_utilization);
    println!("io util     = {:.3}", m.io_utilization);
    if cfg.conflict == ConflictMode::Hierarchical {
        let h = cfg.hierarchy_spec();
        println!(
            "hierarchy   = {} areas, escalation {}",
            h.areas,
            match h.escalation_threshold {
                Some(t) => t.to_string(),
                None => "off".to_string(),
            }
        );
        println!("escalations = {}", m.escalations);
        println!("intent lks  = {}", m.intent_locks);
    }
    if cfg.conflict == ConflictMode::Twophase {
        println!("deadlocks   = {}", m.deadlocks);
        println!("aborts      = {}", m.aborts);
    }
    Ok(())
}

/// Overlay a hierarchy-parameter flag onto the config (creating the spec
/// from defaults on first use).
fn hierarchy_of(cfg: &mut ModelConfig) -> &mut HierarchySpec {
    cfg.hierarchy.get_or_insert_with(HierarchySpec::default)
}

/// Parse an `--escalation` value: a positive integer threshold, or
/// `inf`/`none` for "never escalate".
fn parse_escalation(s: &str) -> Result<Option<u64>, String> {
    match s {
        "inf" | "none" => Ok(None),
        n => n
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--escalation: cannot parse '{n}' (want a count or 'inf')")),
    }
}

fn next_str<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn next_val<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let s = next_str(it, flag)?;
    s.parse().map_err(|_| format!("{flag}: cannot parse '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command `dispatch` accepts appears in the usage text, so the
    /// help can never drift behind the dispatcher again. Numbered paper
    /// figures are covered by the `fig2..fig12` range shorthand;
    /// everything else must be spelled out.
    #[test]
    fn usage_covers_every_dispatch_command() {
        for cmd in [
            "help", "list", "run", "batch", "timeline", "warmup", "all", "ext",
        ] {
            assert!(USAGE.contains(cmd), "USAGE is missing command '{cmd}'");
        }
        assert!(
            USAGE.contains("fig2..fig12"),
            "USAGE is missing the fig2..fig12 range"
        );
        for id in ALL_IDS {
            let covered =
                USAGE.contains(id) || (id.starts_with("fig") && USAGE.contains("fig2..fig12"));
            assert!(covered, "USAGE does not cover figure id '{id}'");
        }
        for id in EXT_IDS {
            assert!(USAGE.contains(id), "USAGE is missing extension id '{id}'");
        }
    }

    /// The run flags' help lists every name the conflict, placement and
    /// partitioning parsers accept as a primary spelling.
    #[test]
    fn usage_names_every_run_flag_value() {
        let names = ConflictMode::ALL
            .map(ConflictMode::name)
            .into_iter()
            .chain(Placement::ALL.map(Placement::name))
            .chain(Partitioning::ALL.map(Partitioning::name));
        for name in names {
            assert!(USAGE.contains(name), "USAGE is missing '{name}'");
        }
    }

    /// `run` parses with the shared run-flag parser and rejects whatever
    /// that parser leaves over.
    #[test]
    fn run_rejects_unknown_flags() {
        let args = ["--ltot", "50", "--bogus", "1"].map(String::from);
        assert_eq!(run_single(&args), Err("unknown flag '--bogus'".into()));
    }

    /// A batch with failing figures renders the survivors and returns a
    /// structured summary error (→ nonzero exit) instead of aborting at
    /// the first failure.
    #[test]
    fn run_figures_collects_failures_into_summary() {
        let mut opts = RunOptions::quick();
        opts.jobs = 1;
        opts.tmax = Some(300.0);
        let err = run_figures(&["no-such-figure", "also-missing"], &opts, None, false)
            .expect_err("bogus ids must fail");
        assert!(err.contains("2 of 2 figures failed"), "summary: {err}");
        assert!(
            err.contains("no-such-figure: unknown figure"),
            "summary: {err}"
        );
        assert!(
            err.contains("also-missing: unknown figure"),
            "summary: {err}"
        );
    }

    /// The dispatcher accepts every catalogued id (they reach the figure
    /// path, not the unknown-command error).
    #[test]
    fn dispatch_recognises_every_catalogued_id() {
        for id in ALL_IDS.iter().chain(EXT_IDS.iter()) {
            // An invalid flag proves the id itself was recognised: the
            // error comes from flag parsing, not `unknown command`.
            let args = vec![id.to_string(), "--bogus".to_string()];
            let err = dispatch(&args).unwrap_err();
            assert!(
                err.contains("unknown flag"),
                "id '{id}' not routed to the figure path: {err}"
            );
        }
    }
}
