//! The LWC repository benchmark.
//!
//! ```text
//! lwc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the libraries' public functions, checks every
//! output bit for bit, and prints human-readable lines followed by one JSON
//! result object as the last line. `--trace 0` measures the end-to-end
//! metrics with no instrumentation; `--trace 1` replays each stage through
//! the layers' entry points with spans around every call and reports the
//! per-layer metrics. `perfbench/run.py` builds this binary and adds the
//! process's peak resident memory; see `perfbench/README.md` for the
//! workloads and metrics.

mod dx;
mod gen;
mod layers;
mod replay;
mod serve;
mod stats;
mod trace;
mod volume;

use stats::Report;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

pub type Fallible<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["dx-batch-4096", "ct-serve-512", "ct-volume-512"];

/// A run builds its inputs at least [`SETUP_REPEATS`] times and until the
/// builds have taken [`SETUP_BUDGET_S`] in all; `setup_s` is the median, so
/// a short set-up is timed often enough to be steady.
const SETUP_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 4.0;

/// Shipped defaults every workload uses (`ServerConfig::default()`).
pub const SCALES: u32 = 4;
pub const TILE: usize = 256;
pub const Z_SCALES: u32 = 2;
pub const BRICK_DEPTH: usize = 8;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads of every engine and of the server: `nproc`.
    pub workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let workers = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        workers,
    })
}

/// Builds a workload's inputs repeatedly (see [`SETUP_REPEATS`]), returning
/// the last set and the median build time.
pub fn setup<T>(mut build: impl FnMut() -> Fallible<T>) -> Fallible<(T, f64)> {
    let mut times: Vec<f64> = Vec::new();
    let mut inputs = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_BUDGET_S {
        // Release the previous set first so peak memory holds one set.
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((inputs.expect("at least one build"), stats::median(&times)))
}

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `a` and `b`, `a` first when `a_first`.
pub fn in_order<A, B>(a_first: bool, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if a_first {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// Writes the traced run's spans next to the build output, under
/// `.bench_out/` in the working directory.
pub fn write_spans(args: &Args, tracer: &Tracer, report: &mut Report) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => {
            report.note(format!("{} spans written to {}", tracer.spans().len(), path.display()))
        }
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lwc-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "dx-batch-4096" => dx::run(&args),
        "ct-serve-512" => serve::run(&args),
        _ => volume::run(&args),
    };
    match outcome {
        Ok(mut report) => {
            report.note(format!(
                "workload {} seed {} seconds {} trace {} workers {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace),
                args.workers
            ));
            report.print();
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("lwc-perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
