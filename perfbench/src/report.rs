//! What a run prints: a table for people, then one JSON line for tools.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Printed next to the value in the table only (e.g. sample counts).
    pub note: String,
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Every metric this run reports, in print order.
    pub metrics: Vec<Metric>,
    /// Extra table lines (context that is not a metric).
    pub notes: Vec<String>,
    /// The first wrong answer, for the table.
    pub first_failure: Option<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    /// Adds a metric with a table note.
    pub fn push_noted(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Records one checked operation.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Operations that failed or answered wrongly, over those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The human-readable table.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<24} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let _ = writeln!(
            out,
            "  {:<24} {:>14.4} {:<6} {} failed of {} attempted",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        if let Some(e) = &self.first_failure {
            let _ = writeln!(out, "  first failure: {e}");
        }
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
