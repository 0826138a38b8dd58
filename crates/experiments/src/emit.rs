//! Rendering figures as text tables, CSV and JSON.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::series::Figure;

/// Render a figure as aligned text tables (one block per panel), the rows
/// the paper's plots would be drawn from.
pub fn render_table(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", fig.id, fig.title);
    for note in &fig.notes {
        let _ = writeln!(out, "   {note}");
    }
    for panel in &fig.panels {
        let _ = writeln!(out, "\n-- {} --", panel.metric);
        // Header: x values from the first series.
        let Some(first) = panel.series.first() else {
            continue;
        };
        let label_w = panel
            .series
            .iter()
            .map(|s| s.label.len())
            .max()
            .unwrap_or(8)
            .max(panel.x_label.len());
        let _ = write!(out, "{:>label_w$}", panel.x_label);
        for p in &first.points {
            let _ = write!(out, " {:>10}", format_x(p.x));
        }
        let _ = writeln!(out);
        for s in &panel.series {
            let _ = write!(out, "{:>label_w$}", s.label);
            for p in &s.points {
                let _ = write!(out, " {:>10.4}", p.mean);
            }
            let _ = writeln!(out);
        }
    }
    out
}

fn format_x(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Long-format CSV: `figure,panel,series,x,mean,ci95`.
pub fn to_csv(fig: &Figure) -> String {
    let mut out = String::from("figure,panel,series,x,mean,ci95\n");
    for panel in &fig.panels {
        for s in &panel.series {
            for p in &s.points {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{}",
                    fig.id,
                    panel.metric,
                    csv_escape(&s.label),
                    p.x,
                    p.mean,
                    p.ci95
                );
            }
        }
    }
    out
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Pretty JSON of the whole figure.
pub fn to_json(fig: &Figure) -> String {
    use lockgran_sim::ToJson as _;
    fig.to_json().pretty()
}

/// Write `<dir>/<id>.txt`, `<dir>/<id>.csv` and `<dir>/<id>.json`.
pub fn write_artifacts(fig: &Figure, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{}.txt", fig.id)), render_table(fig))?;
    fs::write(dir.join(format!("{}.csv", fig.id)), to_csv(fig))?;
    fs::write(dir.join(format!("{}.json", fig.id)), to_json(fig))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::{Panel, Point, Series};

    fn fig() -> Figure {
        Figure {
            id: "figX".into(),
            title: "test figure".into(),
            panels: vec![Panel {
                metric: "throughput".into(),
                x_label: "ltot".into(),
                series: vec![
                    Series {
                        label: "npros=1".into(),
                        points: vec![
                            Point {
                                x: 1.0,
                                mean: 0.0157,
                                ci95: 0.001,
                            },
                            Point {
                                x: 100.0,
                                mean: 0.0196,
                                ci95: 0.002,
                            },
                        ],
                    },
                    Series {
                        label: "npros=30".into(),
                        points: vec![
                            Point {
                                x: 1.0,
                                mean: 0.4591,
                                ci95: 0.01,
                            },
                            Point {
                                x: 100.0,
                                mean: 0.5769,
                                ci95: 0.02,
                            },
                        ],
                    },
                ],
            }],
            notes: vec!["table 1 defaults".into()],
        }
    }

    #[test]
    fn text_table_contains_everything() {
        let t = render_table(&fig());
        assert!(t.contains("figX"));
        assert!(t.contains("table 1 defaults"));
        assert!(t.contains("throughput"));
        assert!(t.contains("npros=30"));
        assert!(t.contains("0.5769"));
        // x header rendered as integers.
        assert!(t.contains("100"));
    }

    #[test]
    fn csv_is_long_format() {
        let c = to_csv(&fig());
        let lines: Vec<&str> = c.trim().lines().collect();
        assert_eq!(lines[0], "figure,panel,series,x,mean,ci95");
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[1].starts_with("figX,throughput,npros=1,1,"));
    }

    #[test]
    fn csv_escapes_commas() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn json_round_trips_structure() {
        let j = to_json(&fig());
        let v = lockgran_sim::json::parse(&j).unwrap();
        assert_eq!(v["id"], "figX");
        assert_eq!(v["panels"][0]["series"][1]["label"], "npros=30");
    }

    #[test]
    fn artifacts_written_to_disk() {
        let dir = std::env::temp_dir().join(format!("lockgran-emit-{}", std::process::id()));
        write_artifacts(&fig(), &dir).unwrap();
        for ext in ["txt", "csv", "json"] {
            let p = dir.join(format!("figX.{ext}"));
            assert!(p.exists(), "{p:?} missing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
