//! The run result and its one-line JSON rendering.

use crate::host::Stamp;
use crate::oracle::Checks;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, full precision.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host context of the run.
    pub stamp: Stamp,
    /// Operations attempted: cells, launches and oracle checks.
    pub attempted: u64,
    /// Operations that failed (failed oracle checks included).
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Assemble a result from the workload's operation count, its
    /// oracle checks and its metrics.
    pub fn new(stamp: Stamp, ops: u64, checks: Checks, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            stamp,
            attempted: ops + checks.attempted,
            failed: checks.failures.len() as u64,
            metrics,
            failures: checks.failures,
        }
    }

    /// Did every operation and check pass?
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
