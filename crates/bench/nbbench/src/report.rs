//! A run's result: named metrics with units, output checks, and the
//! attempted/failed operation counts, printed as a table for people and as
//! one JSON line for machines.

use std::fmt::Write as _;

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The measured evidence.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<Check>,
    notes: Vec<String>,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// Records a metric; a non-finite value fails the run.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check(format!("{name} is finite"), false, format!("{value}"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds a line of context to the printed table (not to the JSON).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Takes over `other`'s checks, their names prefixed.
    pub fn absorb_checks(&mut self, other: Report, prefix: &str) {
        for c in other.checks {
            self.check(format!("{prefix}{}", c.name), c.ok, c.detail);
        }
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable report.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        for (name, v, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name:<44} {v:>14.4} {unit}");
        }
        let _ = writeln!(
            out,
            "attempted {}, failed {}, correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number printed with all its digits (non-finite prints as 0;
/// [`Report::metric`] fails the run for it).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        r.check("outputs", true, "12/12");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.metric("bad", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
