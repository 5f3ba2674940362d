//! Order statistics and the result record every workload fills in.

use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; `None`
/// when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// Seconds to milliseconds.
pub fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// The p99 of `samples`, only when at least ten samples lie beyond it.
pub fn p99(samples: &[f64]) -> Option<f64> {
    (samples.len() >= 1000).then(|| percentile(samples, 0.99)).flatten()
}

/// Everything a run reports: metrics in print order, the operation counts,
/// and free-form lines for the human-readable part of the output.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(false, || format!("{name} is not a finite number"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("MISMATCH: {}", what()));
            }
        }
    }

    /// Latency summary of one operation kind: p50 as a metric, p99 and the
    /// sample count as notes (p99 only where ten samples lie beyond it).
    pub fn latency(&mut self, name: &str, samples_ms: &[f64]) {
        self.metric(&format!("{name}_p50_ms"), median(samples_ms), "ms");
        match p99(samples_ms) {
            Some(v) => self.note(format!("{name}_p99_ms = {v} ms ({} samples)", samples_ms.len())),
            None => self.note(format!(
                "{name}_p99_ms not reported: {} samples leave fewer than ten beyond it",
                samples_ms.len()
            )),
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines, then the result object as the last line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "# error_rate = {} ({} of {} operations failed)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        let mut json = String::new();
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(json, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}
