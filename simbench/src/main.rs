//! Host-time benchmark of the lockgran simulator.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simbench --pin <workload> <first-seed> <last-seed>
//! simbench --setup-probe <workload> <seed>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (`wall_s`, `events_per_s`,
//! `txns_per_s`, `setup_s`, `peak_rss_mb`; `error_rate` on the readable
//! lines); `--trace 1` runs the traced pass and prints the per-layer
//! metrics. Either way every simulated output is checked, readable lines
//! come first and the last line is one JSON object. The exit code is 0
//! only when every run was correct. `--pin` prints `digests.txt` lines
//! for a seed range. `--setup-probe` prints one set-up time measured in
//! its own process; `--trace 0` starts such probes to measure `setup_s`.
//! See README.md in this directory.

mod check;
mod clock;
mod e2e;
mod hostspeed;
mod report;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

/// Parsed command line of a measurement.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Print `digests.txt` lines for `workload` at seeds `first..=last`.
fn pin(argv: &[String]) -> Result<(), String> {
    let [name, first, last] = argv else {
        return Err("usage: --pin <workload> <first-seed> <last-seed>".into());
    };
    let first: u64 = first.parse().map_err(|e| format!("first seed: {e}"))?;
    let last: u64 = last.parse().map_err(|e| format!("last seed: {e}"))?;
    for seed in first..=last {
        let w = Workload::new(name, seed)?;
        let reference = check::Reference::build(&w);
        if let Some(p) = reference.problems.first() {
            return Err(format!("{name} seed {seed}: {p}"));
        }
        println!("{name} {seed} {}", reference.digest().hex());
    }
    Ok(())
}

/// Print the set-up time of `workload` at `seed` measured in this process.
fn setup_probe(argv: &[String]) -> Result<(), String> {
    let [name, seed] = argv else {
        return Err("usage: --setup-probe <workload> <seed>".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    println!("{:e}", e2e::setup_probe(&Workload::new(name, seed)?)?);
    Ok(())
}

fn run(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("--pin") => {
            pin(&argv[1..])?;
            return Ok(true);
        }
        Some("--setup-probe") => {
            setup_probe(&argv[1..])?;
            return Ok(true);
        }
        _ => {}
    }
    let args = parse_args(argv)?;
    let w = Workload::new(&args.workload, args.seed)?;
    let report = if args.trace {
        traced::measure(&w)?
    } else {
        e2e::measure(&w, args.seconds)?
    };
    report.print();
    Ok(report.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload capacity --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, "capacity");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed 1",
            "--workload x --seed -1",
            "--workload x --seed 1 --trace 2",
            "--workload x --seed 1 --seconds 0",
            "--workload x --seed 1 --bogus",
            "--workload x --seed 1 --digests d.txt",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
