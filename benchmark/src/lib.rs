//! The repository benchmark (see `README.md` in this directory).
//!
//! `run` times untraced workload runs on the `clock` module's process CPU
//! clock; `record` and `replay` make the separate traced run that
//! attributes stepping time to layers; `layers` turns that into metrics;
//! `reference` holds the correctness check.

// The exceptions are the C library calls in `clock` and `malloc`.
#![deny(unsafe_code)]

pub mod clock;
pub mod layers;
pub mod malloc;
pub mod record;
pub mod reference;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: String, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The median of a sample (mean of the middle two for even sizes; 0 for
/// an empty sample).
#[must_use]
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit. Non-finite values are written as 0 (JSON has no
/// NaN); the runner never produces one for a successful run.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
