//! Result containers: figures, panels, series, points.

use lockgran_sim::json_struct;

json_struct! {
    /// One data point of a series.
    #[derive(Clone, Copy, Debug)]
    pub struct Point {
        /// The swept value (number of locks, `ltot`, unless noted).
        pub x: f64,
        /// Mean over replications.
        pub mean: f64,
        /// 95% confidence half-width over replications (0 for one rep).
        pub ci95: f64,
    }
}

json_struct! {
    /// A labelled curve.
    #[derive(Clone, Debug)]
    pub struct Series {
        /// Legend label, e.g. `npros=30` or `worst/npros=1`.
        pub label: String,
        /// Points in sweep order.
        pub points: Vec<Point>,
    }
}

impl Series {
    /// x of the point with the largest mean (the curve's optimum for
    /// throughput-like metrics).
    pub fn argmax(&self) -> Option<f64> {
        self.points
            .iter()
            .max_by(|a, b| a.mean.total_cmp(&b.mean))
            .map(|p| p.x)
    }

    /// Largest mean on the curve.
    pub fn max_mean(&self) -> Option<f64> {
        self.points.iter().map(|p| p.mean).max_by(f64::total_cmp)
    }

    /// Mean at a given x, if present.
    #[expect(
        clippy::float_cmp,
        reason = "a lookup by grid point: callers pass an x the sweep was built \
                  from, never a computed one"
    )]
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.mean)
    }
}

json_struct! {
    /// One plot of a figure (one metric, several curves).
    #[derive(Clone, Debug)]
    pub struct Panel {
        /// Metric short name (see [`crate::Metric::name`]).
        pub metric: String,
        /// Axis label for x (usually "ltot").
        pub x_label: String,
        /// Curves.
        pub series: Vec<Series>,
    }
}

impl Panel {
    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

json_struct! {
    /// A reproduced table/figure.
    #[derive(Clone, Debug)]
    pub struct Figure {
        /// Identifier, e.g. `fig2`.
        pub id: String,
        /// Human title quoting the paper's caption.
        pub title: String,
        /// Panels (Fig 2 and Fig 6 have two: throughput and response time).
        pub panels: Vec<Panel>,
        /// Free-form notes: parameter values, expectations, caveats.
        pub notes: Vec<String>,
    }
}

impl Figure {
    /// Find a panel by metric name.
    pub fn panel(&self, metric: &str) -> Option<&Panel> {
        self.panels.iter().find(|p| p.metric == metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        Series {
            label: "s".into(),
            points: vec![
                Point {
                    x: 1.0,
                    mean: 0.5,
                    ci95: 0.0,
                },
                Point {
                    x: 10.0,
                    mean: 2.0,
                    ci95: 0.1,
                },
                Point {
                    x: 100.0,
                    mean: 1.0,
                    ci95: 0.1,
                },
            ],
        }
    }

    #[test]
    fn argmax_and_at() {
        let s = series();
        assert_eq!(s.argmax(), Some(10.0));
        assert_eq!(s.max_mean(), Some(2.0));
        assert_eq!(s.at(100.0), Some(1.0));
        assert_eq!(s.at(7.0), None);
    }

    #[test]
    fn figure_lookup() {
        let f = Figure {
            id: "t".into(),
            title: "t".into(),
            panels: vec![Panel {
                metric: "throughput".into(),
                x_label: "ltot".into(),
                series: vec![series()],
            }],
            notes: vec![],
        };
        assert!(f.panel("throughput").is_some());
        assert!(f.panel("nope").is_none());
        assert!(f.panel("throughput").unwrap().series("s").is_some());
    }
}
