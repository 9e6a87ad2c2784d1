//! Shared reporting helpers for the reproduction binaries.
//!
//! Every `repro_*` binary regenerates one table or figure from the paper
//! and prints (a) the measured series and (b) a paper-vs-measured check
//! line for each number the paper states explicitly. `repro_all` collects
//! the same data as JSON for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluation;
pub mod fault_campaign;
pub mod locality;
pub mod profile;

use pudiannao_accel::json::Value;

/// One paper-vs-measured comparison point.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is being compared (e.g. "k-NN tiled bandwidth reduction, %").
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured/modelled value.
    pub measured: f64,
}

impl Check {
    /// Builds a check point.
    #[must_use]
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64) -> Check {
        Check { metric: metric.into(), paper, measured }
    }

    /// Relative deviation from the paper value (0 when the paper value is
    /// zero).
    #[must_use]
    pub fn deviation(&self) -> f64 {
        if self.paper == 0.0 {
            return 0.0;
        }
        (self.measured - self.paper).abs() / self.paper.abs()
    }

    /// Prints the comparison in the standard one-line format.
    pub fn print(&self) {
        println!(
            "  [check] {:<50} paper {:>10.2}   measured {:>10.2}   ({:+.1}%)",
            self.metric,
            self.paper,
            self.measured,
            100.0 * (self.measured - self.paper) / self.paper.abs().max(1e-12),
        );
    }

    /// JSON object for the summary file.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("metric", self.metric.as_str())
            .with("paper", self.paper)
            .with("measured", self.measured)
    }
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==== {id}: {title} ====");
}

/// Prints one row of a simple two-column series.
pub fn series_row(label: &str, value: f64, unit: &str) {
    println!("  {label:<28} {value:>14.4} {unit}");
}

/// An experiment result bundle for the JSON summary.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment identifier ("fig02", "table1", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// All paper-vs-measured checks.
    pub checks: Vec<Check>,
}

impl ExperimentReport {
    /// JSON object for the summary file.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("id", self.id.as_str())
            .with("title", self.title.as_str())
            .with("checks", Value::array(self.checks.iter().map(Check::to_json).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_deviation() {
        let c = Check::new("x", 100.0, 110.0);
        assert!((c.deviation() - 0.1).abs() < 1e-12);
        assert_eq!(Check::new("y", 0.0, 5.0).deviation(), 0.0);
    }

    #[test]
    fn report_serialises() {
        let r = ExperimentReport {
            id: "fig02".into(),
            title: "t".into(),
            checks: vec![Check::new("m", 1.0, 1.1)],
        };
        let json = r.to_json().to_string();
        assert!(json.contains("fig02"));
        assert!(json.contains("\"paper\":1.0"));
    }
}
