//! End-to-end tests of the `lockgran` binary.

use std::process::Command;

fn lockgran() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lockgran"))
}

fn run_ok(args: &[&str]) -> (String, String) {
    let out = lockgran().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "lockgran {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_every_artifact() {
    let (stdout, _) = run_ok(&["list"]);
    for id in [
        "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "extA", "extB", "extJ",
    ] {
        assert!(stdout.contains(id), "{id} missing from list output");
    }
}

#[test]
fn single_run_prints_paper_outputs() {
    let (stdout, _) = run_ok(&[
        "run", "--ltot", "50", "--npros", "4", "--tmax", "300", "--seed", "9",
    ]);
    for key in [
        "totcom",
        "throughput",
        "response",
        "totcpus",
        "totios",
        "lockcpus",
        "lockios",
        "usefulcpus",
        "usefulios",
    ] {
        assert!(stdout.contains(key), "{key} missing:\n{stdout}");
    }
    assert!(stdout.contains("ltot=50"));
}

#[test]
fn figure_quick_renders_table_and_chart() {
    let (stdout, _) = run_ok(&["fig7", "--quick", "--tmax", "300", "--chart"]);
    assert!(stdout.contains("fig7"));
    assert!(stdout.contains("liotime=0"));
    assert!(stdout.contains("throughput"));
    // Chart footer with the log x axis.
    assert!(stdout.contains("(log)"), "chart not rendered:\n{stdout}");
}

#[test]
fn figure_writes_artifacts() {
    let dir = std::env::temp_dir().join(format!("lockgran-cli-{}", std::process::id()));
    let (_, _) = run_ok(&[
        "table1",
        "--quick",
        "--tmax",
        "300",
        "--out",
        dir.to_str().unwrap(),
    ]);
    for ext in ["txt", "csv", "json"] {
        assert!(
            dir.join(format!("table1.{ext}")).exists(),
            "table1.{ext} missing"
        );
    }
    let csv = std::fs::read_to_string(dir.join("table1.csv")).unwrap();
    assert!(csv.starts_with("figure,panel,series,x,mean,ci95"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_runs_config_file() {
    let dir = std::env::temp_dir().join(format!("lockgran-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfgs = r#"[
        {
            "dbsize": 5000, "ltot": 10, "ntrans": 5,
            "size": {"Uniform": {"max": 100}},
            "cputime": 0.05, "iotime": 0.2, "lcputime": 0.01, "liotime": 0.2,
            "npros": 4, "tmax": 300.0,
            "placement": "Best", "partitioning": "Horizontal",
            "conflict": "Probabilistic", "lock_distribution": "PerOperation",
            "service": "Deterministic",
            "lock_preemption": true, "mpl_limit": null, "warmup": 0.0
        },
        {
            "dbsize": 5000, "ltot": 1000, "ntrans": 5,
            "size": {"Uniform": {"max": 100}},
            "cputime": 0.05, "iotime": 0.2, "lcputime": 0.01, "liotime": 0.2,
            "npros": 4, "tmax": 300.0,
            "placement": "Worst", "partitioning": "Random",
            "conflict": "Explicit", "lock_distribution": "EvenSplit",
            "service": "Exponential",
            "lock_preemption": false, "mpl_limit": 3, "warmup": 0.0
        }
    ]"#;
    let cfg_path = dir.join("batch.json");
    std::fs::write(&cfg_path, cfgs).unwrap();
    let out_path = dir.join("out.csv");
    let (stdout, _) = run_ok(&[
        "batch",
        cfg_path.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(
        stdout.lines().next(),
        Some(
            "index,ltot,npros,ntrans,placement,partitioning,conflict,throughput,\
             response_time,usefulcpus,usefulios,lockcpus,lockios,denial_rate"
        ),
        "CSV header:\n{stdout}"
    );
    assert!(
        stdout.lines().count() >= 3,
        "header + 2 rows expected:\n{stdout}"
    );
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert!(written.contains("worst,random,explicit"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn timeline_prints_windows_and_chart() {
    let (stdout, _) = run_ok(&[
        "timeline",
        "--tmax",
        "400",
        "--interval",
        "100",
        "--npros",
        "4",
    ]);
    assert!(stdout.contains("throughput"));
    assert!(stdout.contains("active"));
    // Four windows plus header and summary.
    assert!(stdout.contains("400.0"), "last window missing:\n{stdout}");
    assert!(stdout.contains("throughput over time"));
}

#[test]
fn warmup_gives_a_verdict() {
    let (stdout, _) = run_ok(&["warmup", "--tmax", "800", "--interval", "50", "--reps", "2"]);
    assert!(
        stdout.contains("suggested warmup") || stdout.contains("no stable warm-up"),
        "unexpected output:\n{stdout}"
    );
}

#[test]
fn help_prints_usage_and_succeeds() {
    for arg in ["help", "-h", "--help"] {
        let (stdout, stderr) = run_ok(&[arg]);
        assert!(stdout.starts_with("usage:"), "lockgran {arg}:\n{stdout}");
        assert!(
            stderr.is_empty(),
            "lockgran {arg} wrote to stderr:\n{stderr}"
        );
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = lockgran().arg("nonsense").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "no usage text:\n{stderr}");
}

#[test]
fn invalid_parameters_are_rejected() {
    // ltot > dbsize must be a validation error, not a panic.
    let out = lockgran()
        .args(["run", "--ltot", "999999"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dbsize"),
        "unexpected error text:\n{stderr}"
    );

    // A horizon or sampling interval the clock cannot hold (too long or
    // under one tick), an interval longer than the run, and a warm-up
    // search over no replications fail at flag parsing: exit 1 with an
    // `error:` line, never a panic or an empty result.
    let cases: &[&[&str]] = &[
        &["table1", "--quick", "--tmax", "-5"],
        &["table1", "--quick", "--tmax", "nan"],
        &["fig2", "--quick", "--tmax", "1e300"],
        // Under one clock tick: the run would be empty.
        &["run", "--tmax", "1e-9"],
        &["table1", "--quick", "--tmax", "1e-9"],
        &["timeline", "--interval", "0"],
        &["timeline", "--interval", "-1"],
        &["timeline", "--interval", "nan"],
        &["timeline", "--interval", "1e-9"],
        // The default interval, tmax / 40, is under one tick here.
        &["timeline", "--tmax", "0.01"],
        &["timeline", "--tmax", "100", "--interval", "5000"],
        &["warmup", "--interval", "0"],
        &["warmup", "--interval", "-1"],
        &["warmup", "--interval", "nan"],
        &["warmup", "--interval", "1e-9"],
        &["warmup", "--tmax", "200", "--interval", "1e300"],
        &["warmup", "--reps", "0"],
    ];
    for args in cases {
        let out = lockgran().args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "lockgran {args:?}:\n{stderr}");
        assert!(
            stderr.starts_with("error: "),
            "lockgran {args:?}: no error line:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "lockgran {args:?} panicked:\n{stderr}"
        );
    }
}

/// A reader that closes the pipe after one line (`lockgran … | head -1`)
/// ends the program quietly with status 0: no broken-pipe panic (exit
/// 101). The timeline prints 10 000 rows, far more than a pipe buffers,
/// so the program is still writing when the pipe closes.
#[test]
fn closed_stdout_pipe_ends_without_a_panic() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let mut child = lockgran()
        .args(["timeline", "--tmax", "10000", "--interval", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    {
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        stdout.read_line(&mut first).unwrap();
    }
    assert!(first.contains("throughput"), "first line: {first}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert_ne!(status.code(), Some(101), "stderr:\n{stderr}");
    assert!(status.success(), "{status}, stderr:\n{stderr}");
}
