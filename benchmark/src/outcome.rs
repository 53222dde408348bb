//! The result of one benchmark run: operation counts, correctness
//! failures, metrics and the report that describes how they were made.

use crate::json;

/// At most this many failure messages are kept; the counts are exact.
const MAX_MESSAGES: usize = 20;

/// Why a run stopped before it finished.
#[derive(Debug)]
pub enum Stop {
    /// The benchmark could not carry out the run (build, spawn, its own
    /// files): no result line is printed.
    Setup(String),
    /// The program under test failed (a lost connection, a malformed
    /// answer, a bad exit): counted as one failed operation.
    Fault(String),
}

impl From<String> for Stop {
    fn from(e: String) -> Stop {
        Stop::Fault(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Stop {
        Stop::Fault(e.to_string())
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (solves, warms, pings, sweep points, ...).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Run-level checks that failed (ratios, determinism, trace coverage).
    pub violations: u64,
    pub messages: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Report entries: a key and a rendered JSON value.
    pub report: Vec<(String, String)>,
}

impl Outcome {
    /// Count one operation, failed when `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.message(e);
        }
    }

    /// Record a run-level check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations += 1;
            self.message(what());
        }
    }

    /// Keep a failure message (counts are kept by the caller).
    pub fn message(&mut self, message: String) {
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a report entry whose value is already rendered JSON.
    pub fn info(&mut self, key: &str, rendered: String) {
        self.report.push((key.to_string(), rendered));
    }

    pub fn info_num(&mut self, key: &str, value: f64) {
        self.info(key, json::num(value));
    }

    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info(key, json::quote(value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations == 0
    }

    /// The report as one JSON object (one line).
    pub fn report_json(&self) -> String {
        let mut parts: Vec<String> = self
            .report
            .iter()
            .map(|(k, v)| format!("{}:{}", json::quote(k), v))
            .collect();
        let messages: Vec<String> = self.messages.iter().map(|m| json::quote(m)).collect();
        parts.push(format!("\"failures\":[{}]", messages.join(",")));
        format!("{{{}}}", parts.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(&m.name),
                    json::num(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
