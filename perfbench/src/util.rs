//! Small helpers: order statistics, the result record, peak memory,
//! open-loop pacing and hand-written JSON (the workspace vendors no
//! serialiser).

use std::time::{Duration, Instant};

/// The `q`-quantile of `v` by nearest rank (`v` need not be sorted).
/// NaN-free input assumed; `f64::INFINITY` sorts last.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let ix = ((s.len() - 1) as f64 * q).round() as usize;
    s[ix.min(s.len() - 1)]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run measured: the metrics, the output checks and the
/// attempted/failed tally.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Vec<Metric>,
    /// End-to-end metrics of the traced pass (trace runs only).
    pub e2e_traced: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Diagnostics: printed and written, never gated.
    pub notes: Vec<(String, String)>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn e2e_traced(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e_traced.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wait until `t`: sleep while far away, then yield until due. Yielding
/// (not spinning) leaves the second core to the manager's threads.
pub fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which JSON cannot carry) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` over `metrics`.
pub fn json_metrics<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
