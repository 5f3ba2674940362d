//! The per-layer metrics of a traced run, printed under the same names by
//! every workload (a layer a workload does not touch reads 0).

use crate::stats::{median, Report};
use std::collections::BTreeMap;

/// Layer spans whose self time is reported, as `<name>_s`.
const TIMED: [&str; 13] = [
    "lifting.forward",
    "lifting.inverse",
    "lifting.line_forward",
    "lifting.forward_z",
    "lifting.inverse_z",
    "coder.quantize",
    "coder.rice_encode",
    "coder.rice_decode",
    "coder.container_write",
    "coder.container_parse",
    "image.parse",
    "image.write",
    "server.frame",
];

/// A drift check fails when replayed layer time and the untraced call's
/// wall time differ by more than this share.
const DRIFT_LIMIT: f64 = 0.10;

#[derive(Debug, Default)]
pub struct Layers {
    /// Self time per layer span name, one map per replayed unit of work
    /// (the workload defines the unit); the metric is the median.
    pub rounds: Vec<BTreeMap<&'static str, f64>>,
    /// Samples through the lifting transforms per unit, in millions.
    pub lifting_msamples: f64,
    /// Compressed bits per coded sample.
    pub bits_per_sample: f64,
    /// Independent jobs one engine call fans out, per call.
    pub jobs: f64,
    /// Sum of job times / (engine wall time x workers).
    pub busy_share: f64,
    /// Slowest job / mean job.
    pub straggler_ratio: f64,
    /// Round trip of a request with no codec work on the idle server.
    pub dispatch_ms: f64,
    pub wait_p50_ms: f64,
    pub wait_p99_ms: f64,
    pub steals: f64,
    pub active_workers: f64,
    pub rejected_busy: f64,
    pub error_replies: f64,
    /// Traced minus untraced wall time of the same replayed unit.
    pub overhead_ms: Vec<f64>,
    /// Untraced wall time of the replayed unit, for the overhead share.
    pub untraced_ms: Vec<f64>,
    /// Spans recorded in each traced unit of the overhead pairs.
    pub overhead_spans: Vec<f64>,
    /// (check name, replayed layer time, untraced wall time of that call).
    pub drift: Vec<(String, f64, f64)>,
}

impl Layers {
    /// Records a drift check: replayed layer time against the untraced
    /// call's wall time.
    pub fn drift_check(&mut self, name: &str, replayed_s: f64, wall_s: f64) {
        self.drift.push((name.to_string(), replayed_s, wall_s));
    }

    pub fn report(&self, report: &mut Report) {
        report
            .note(format!("per-layer times are medians over {} replayed units", self.rounds.len()));
        for name in TIMED {
            let values: Vec<f64> =
                self.rounds.iter().map(|r| r.get(name).copied().unwrap_or(0.0)).collect();
            report.metric(&format!("{name}_s"), median(&values), "s");
        }
        let glue: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.iter().filter(|(n, _)| !crate::trace::is_layer(n)).map(|(_, v)| v).sum())
            .collect();
        report.note(format!(
            "glue between layer calls (structural spans' self time) = {} s",
            median(&glue)
        ));
        report.metric("lifting.msamples", self.lifting_msamples, "Msamples");
        report.metric("coder.bits_per_sample", self.bits_per_sample, "bits");
        report.metric("pipeline.jobs", self.jobs, "count");
        report.metric("pipeline.busy_share", self.busy_share, "share");
        report.metric("pipeline.straggler_ratio", self.straggler_ratio, "ratio");
        report.metric("server.dispatch_ms", self.dispatch_ms, "ms");
        report.metric("server.wait_p50_ms", self.wait_p50_ms, "ms");
        report.metric("server.wait_p99_ms", self.wait_p99_ms, "ms");
        report.metric("server.steals", self.steals, "count");
        report.metric("server.active_workers", self.active_workers, "count");
        report.metric("server.rejected_busy", self.rejected_busy, "count");
        report.metric("server.error_replies", self.error_replies, "count");
        let overhead = median(&self.overhead_ms);
        let spans = median(&self.overhead_spans);
        let cost_ns = crate::trace::span_cost_ns();
        report.note(format!(
            "tracing cost by construction: {spans:.0} spans per traced unit x {cost_ns:.1} ns per \
             span = {:.4} ms; the measured traced-minus-untraced difference also carries \
             run-to-run noise",
            spans * cost_ns * 1e-6
        ));
        report.metric("trace.overhead_ms", overhead, "ms");
        report.metric(
            "trace.overhead_share",
            overhead / median(&self.untraced_ms).max(1e-9),
            "share",
        );
        let mut flags = 0;
        for (name, replayed, wall) in &self.drift {
            let share = replayed / wall - 1.0;
            let drifted = share.abs() > DRIFT_LIMIT;
            flags += usize::from(drifted);
            report.note(format!(
                "drift {name}: replayed layer time {:.3} ms vs untraced call {:.3} ms ({:+.1}%){}",
                replayed * 1e3,
                wall * 1e3,
                share * 100.0,
                if drifted { " DRIFT: outside 10%" } else { " within 10%" }
            ));
        }
        let worst = self.drift.iter().map(|(_, r, w)| (r / w - 1.0).abs()).fold(0.0, f64::max);
        report.metric("trace.drift_share", worst, "share");
        report.metric("trace.drift_flags", flags as f64, "count");
    }
}
