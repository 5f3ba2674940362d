//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into each
//! layer's public functions; the libraries carry no instrumentation. A span
//! has a name, start, end, parent and request id; spans stay in memory and
//! are written out once at the end of the run. With the tracer off,
//! [`Tracer::span`] just calls its closure, so the same replay code is the
//! untraced baseline for the tracing-overhead figure.
//!
//! Span names starting with one of [`LAYERS`] are layer spans; any other
//! name (`dx.encode`, `pipeline.job`, ...) is structure whose own self time
//! is glue code between layer calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name prefixes of layer spans.
const LAYERS: [&str; 4] = ["lifting.", "coder.", "image.", "server."];

/// Name of the span wrapping one independent engine job (a tile or brick);
/// jobs run in parallel in the engines, so critical-path estimates treat
/// them as a schedulable set rather than a sequence.
pub const JOB: &str = "pipeline.job";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Starts a new request id; spans opened from now on carry it.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Index of the next span to be recorded; pass it to the analysis
    /// functions to look only at spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span from `from` on: its duration minus the part
    /// its children cover.
    fn self_seconds(&self, from: usize) -> Vec<f64> {
        let spans = &self.spans[from..];
        let mut child = vec![0.0; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent.filter(|&p| p >= from) {
                child[parent - from] += span.seconds();
            }
        }
        spans.iter().zip(child).map(|(s, c)| (s.seconds() - c).max(0.0)).collect()
    }

    /// Total self time per span name, over spans from `from` on.
    pub fn self_time_by_name(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans[from..].iter().zip(self.self_seconds(from)) {
            *totals.entry(span.name).or_insert(0.0) += own;
        }
        totals
    }

    /// Critical-path estimate of the work recorded from `from` on, as it
    /// would run on `workers` threads: the layer self time outside any job,
    /// plus the greedy (longest-first) makespan of the job spans. Structural
    /// glue outside jobs is left out, so this is what the replayed layer
    /// calls account for.
    pub fn critical_path(&self, from: usize, workers: usize) -> f64 {
        let spans = &self.spans[from..];
        let own = self.self_seconds(from);
        let in_job = |mut index: usize| loop {
            if spans[index].name == JOB {
                return true;
            }
            match spans[index].parent.filter(|&p| p >= from) {
                Some(parent) => index = parent - from,
                None => return false,
            }
        };
        let mut serial = 0.0;
        let mut jobs = Vec::new();
        for (index, span) in spans.iter().enumerate() {
            if span.name == JOB && !span.parent.is_some_and(|p| p >= from && in_job(p - from)) {
                jobs.push(span.seconds());
            } else if is_layer(span.name) && !in_job(index) {
                serial += own[index];
            }
        }
        serial + makespan(&jobs, workers)
    }

    /// Durations of the top-level job spans from `from` on.
    pub fn job_seconds(&self, from: usize) -> Vec<f64> {
        self.spans[from..].iter().filter(|s| s.name == JOB).map(Span::seconds).collect()
    }

    /// The recorded spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        out
    }
}

/// Cost of recording one span, in nanoseconds: the median over a few
/// batches of empty spans on a scratch tracer. Times the span count of a
/// replayed unit, it is what tracing adds by construction, against which
/// the measured traced-minus-untraced difference can be read.
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 20_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut tracer = Tracer::new(true);
            let start = Instant::now();
            for _ in 0..SPANS {
                tracer.span("calibration", |_| ());
            }
            start.elapsed().as_nanos() as f64 / SPANS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

pub fn is_layer(name: &str) -> bool {
    LAYERS.iter().any(|prefix| name.starts_with(prefix))
}

/// Greedy longest-processing-time makespan of `jobs` on `workers` threads.
pub fn makespan(jobs: &[f64], workers: usize) -> f64 {
    let mut sorted = jobs.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut load = vec![0.0f64; workers.max(1)];
    for job in sorted {
        let slot = load.iter_mut().min_by(|a, b| a.total_cmp(b)).expect("at least one worker");
        *slot += job;
    }
    load.into_iter().fold(0.0, f64::max)
}
