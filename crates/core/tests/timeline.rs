//! Tests of timeline sampling and Welch warm-up suggestion.

use lockgran_core::sim::{run, run_timeline, suggest_warmup};
use lockgran_core::ModelConfig;

fn base() -> ModelConfig {
    ModelConfig::table1().with_tmax(2_000.0)
}

#[test]
fn timeline_covers_the_horizon() {
    let (m, points) = run_timeline(&base(), 1, 100.0);
    assert!(m.totcom > 0);
    assert_eq!(points.len(), 20, "2000 units / 100-unit windows");
    assert!((points[0].t - 100.0).abs() < 1e-9);
    assert!((points.last().unwrap().t - 2_000.0).abs() < 1e-9);
}

#[test]
fn window_completions_sum_to_totcom() {
    let (m, points) = run_timeline(&base(), 2, 100.0);
    let sum: u64 = points.iter().map(|p| p.completions).sum();
    // The final window ends exactly at tmax; everything measured is
    // covered by some window.
    assert_eq!(sum, m.totcom);
}

/// A warm-up changes what the run measures, not what the timeline
/// shows: every window reports the same completions, throughput and
/// utilizations with and without one, and the measured completions are
/// those of the windows after the warm-up.
#[test]
fn warmup_does_not_change_the_timeline() {
    let warmup = 500.0;
    let (_, plain) = run_timeline(&base(), 1, 100.0);
    let (m, warm) = run_timeline(&base().with_warmup(warmup), 1, 100.0);
    assert_eq!(plain.len(), warm.len());
    for (p, w) in plain.iter().zip(&warm) {
        assert_eq!(p.t.to_bits(), w.t.to_bits());
        assert_eq!(p.completions, w.completions, "window ending at {}", p.t);
        assert_eq!(p.throughput.to_bits(), w.throughput.to_bits());
        assert_eq!(p.cpu_utilization.to_bits(), w.cpu_utilization.to_bits());
        assert_eq!(p.io_utilization.to_bits(), w.io_utilization.to_bits());
        assert_eq!((p.active, p.blocked), (w.active, w.blocked));
    }
    assert!(
        warm[0].completions > 0,
        "the first window completed nothing"
    );
    let after: u64 = warm
        .iter()
        .filter(|p| p.t > warmup)
        .map(|p| p.completions)
        .sum();
    assert_eq!(m.totcom, after);
}

#[test]
fn utilizations_stay_in_range() {
    let (_, points) = run_timeline(&base(), 3, 50.0);
    for p in &points {
        assert!((0.0..=1.0 + 1e-9).contains(&p.cpu_utilization), "{p:?}");
        assert!((0.0..=1.0 + 1e-9).contains(&p.io_utilization), "{p:?}");
        assert!(p.active <= 10 && p.blocked <= 10);
    }
}

#[test]
fn timeline_does_not_perturb_metrics() {
    // Sampling must be a pure observer: identical results with and
    // without it.
    let plain = run(&base(), 4);
    let (sampled, _) = run_timeline(&base(), 4, 100.0);
    assert_eq!(plain.totcom, sampled.totcom);
    assert_eq!(plain.throughput.to_bits(), sampled.throughput.to_bits());
    assert_eq!(plain.lockios.to_bits(), sampled.lockios.to_bits());
}

#[test]
fn throughput_ramps_up_from_the_start() {
    // The closed system starts with staggered arrivals: the first window
    // should show lower throughput than the steady-state windows.
    let (_, points) = run_timeline(&base().with_npros(30), 5, 50.0);
    let first = points.first().unwrap().throughput;
    let tail_mean: f64 = points[points.len() / 2..]
        .iter()
        .map(|p| p.throughput)
        .sum::<f64>()
        / (points.len() - points.len() / 2) as f64;
    assert!(
        first < tail_mean,
        "first window {first} not below steady state {tail_mean}"
    );
}

#[test]
fn welch_suggests_modest_warmup_for_baseline() {
    let warmup = suggest_warmup(&base(), 7, 3, 50.0);
    // The Table 1 system settles quickly (response time ~50 units); the
    // suggestion must exist and be a small fraction of the horizon.
    let w = warmup.expect("baseline settles");
    assert!(w < 1_000.0, "suggested warmup {w} too large");
}
