//! One module per paper artifact (Table 1, Figures 2–12).
//!
//! Every module exposes `run(&RunOptions) -> Figure` performing exactly
//! the sweep the paper describes for that artifact. Shared machinery
//! lives here: sweep a family of labelled configurations once, then slice
//! the same runs into one panel per metric.

pub mod ext_admission;
pub mod ext_assumptions;
pub mod ext_conflict;
pub mod ext_discipline;
pub mod ext_escalation;
pub mod ext_failure;
pub mod ext_hierarchy;
pub mod ext_hotspot;
pub mod ext_resource_balance;
pub mod ext_twophase;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod table1;

use lockgran_core::ModelConfig;

use crate::metric::Metric;
use crate::series::{Figure, Panel, Series};
use crate::sweep::{sweep_ltot, RunOptions, SweepPoint};

/// A labelled configuration and its sweep results.
pub(crate) struct Swept {
    label: String,
    points: Vec<SweepPoint>,
}

/// Sweep each labelled configuration over the lock-count grid.
pub(crate) fn sweep_family(configs: Vec<(String, ModelConfig)>, opts: &RunOptions) -> Vec<Swept> {
    configs
        .into_iter()
        .map(|(label, cfg)| Swept {
            label,
            points: sweep_ltot(&cfg, opts),
        })
        .collect()
}

/// Slice a swept family into one panel per metric.
pub(crate) fn panels(swept: &[Swept], metrics: &[Metric]) -> Vec<Panel> {
    metrics
        .iter()
        .map(|&metric| Panel {
            metric: metric.name().to_string(),
            x_label: "ltot".to_string(),
            series: swept
                .iter()
                .map(|s| Series {
                    label: s.label.clone(),
                    points: s.points.iter().map(|p| p.estimate(metric)).collect(),
                })
                .collect(),
        })
        .collect()
}

/// Assemble a figure.
pub(crate) fn figure(
    id: &str,
    title: &str,
    swept: &[Swept],
    metrics: &[Metric],
    notes: Vec<String>,
) -> Figure {
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        panels: panels(swept, metrics),
        notes,
    }
}

/// The paper's processor-count grid (§3.1), reduced in quick mode.
pub(crate) fn npros_grid(opts: &RunOptions) -> &'static [u32] {
    if opts.quick {
        &[1, 10, 30]
    } else {
        &[1, 2, 5, 10, 20, 30]
    }
}

/// Run a figure by id (`"table1"`, `"fig2"` … `"fig12"`).
pub fn run_by_id(id: &str, opts: &RunOptions) -> Option<Figure> {
    Some(match id {
        "table1" => table1::run(opts),
        "fig2" => fig02::run(opts),
        "fig3" => fig03::run(opts),
        "fig4" => fig04::run(opts),
        "fig5" => fig05::run(opts),
        "fig6" => fig06::run(opts),
        "fig7" => fig07::run(opts),
        "fig8" => fig08::run(opts),
        "fig9" => fig09::run(opts),
        "fig10" => fig10::run(opts),
        "fig11" => fig11::run(opts),
        "fig12" => fig12::run(opts),
        "extA" => ext_admission::run(opts),
        "extB" => ext_conflict::run(opts),
        "extC" => ext_discipline::run(opts),
        "extD" => ext_hotspot::run(opts),
        "extE" => ext_resource_balance::run(opts),
        "extF" => ext_failure::run(opts),
        "extG" => ext_escalation::run(opts),
        "extH" => ext_hierarchy::run(opts),
        "extI" => ext_twophase::run(opts),
        "extJ" => ext_assumptions::run(opts),
        _ => return None,
    })
}

/// All paper artifact ids, in paper order.
pub const ALL_IDS: [&str; 12] = [
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12",
];

/// Extension experiments beyond the paper.
pub const EXT_IDS: [&str; 10] = [
    "extA", "extB", "extC", "extD", "extE", "extF", "extG", "extH", "extI", "extJ",
];
