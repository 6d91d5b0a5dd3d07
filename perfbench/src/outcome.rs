//! A run's result: the JSON result line and the human-readable report.

/// A run's result: the JSON line plus human-readable report lines.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    pub report: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            report: Vec::new(),
        }
    }

    /// A metric of the result line, also shown in the report.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
        self.report.push((name.to_string(), value, unit));
    }

    /// A figure shown in the report only.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.report.push((name.into(), value, unit));
    }

    /// A failed check makes the whole run count as failed.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
            self.correct = false;
        }
    }

    /// Failed operations; a failed check fails every operation.
    pub fn failed_count(&self) -> u64 {
        if self.correct {
            self.failed
        } else {
            self.attempted
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
            .collect();
        let failed = self.failed_count();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
            self.correct,
            self.attempted,
            metrics.join(",")
        )
    }
}
