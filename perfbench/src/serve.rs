//! `ct-serve-512`: a loopback `Server` with the shipped defaults, driven
//! closed-loop over LWCP by `nproc` connections, each keeping a window of
//! [`WINDOW`] requests in flight. The requests are a seeded mix over
//! distinct 512² CT slices: `compress` (PGM in, LWCT out), `decompress`
//! (LWCT in, PGM out) and `decompress-region` on 128² windows.

use crate::layers::Layers;
use crate::stats::{median, p99, percentile, Report};
use crate::trace::Tracer;
use crate::{gen, in_order, replay, setup, timed, write_spans, Args, Fallible, SCALES, TILE};
use lwc_image::{pgm, Image, TileGrid, TileRect};
use lwc_pipeline::TiledCompressor;
use lwc_server::{Client, Frame, Op, Server, ServerConfig, DEFAULT_MAX_PAYLOAD_BYTES};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

const SIZE: usize = 512;
/// Distinct slices the requests draw from.
const SLICES: usize = 32;
/// Side of a region read.
const ROI: usize = 128;
/// Requests each connection keeps in flight: a viewer that prefetches the
/// next slice while the current one is on screen. An assumption, not a
/// measured figure (see `perfbench/README.md`, "Request mix").
const WINDOW: usize = 2;
/// Relative weights of the request kinds each connection draws, per
/// request. An assumption, not a measured figure (see
/// `perfbench/README.md`, "Request mix"): reads outnumber writes, since an
/// archive stores a slice once and serves it many times, and most reads are
/// regions, since a viewer fetches a window before the whole slice.
const MIX: [(Kind, usize); 3] = [(Kind::Compress, 1), (Kind::Decompress, 1), (Kind::Region, 2)];
/// Requests of each kind timed one at a time on the idle server for the
/// drift checks.
const ISOLATED: usize = 40;
/// Grey levels of per-pixel noise: CT-like, so slices are distinct frames.
const NOISE: f32 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Compress,
    Decompress,
    Region,
}

impl Kind {
    fn op(self) -> Op {
        match self {
            Kind::Compress => Op::Compress,
            Kind::Decompress => Op::Decompress,
            Kind::Region => Op::DecompressRegion,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    kind: Kind,
    slice: usize,
    rect: TileRect,
}

/// The seeded request sequence of one connection: kinds drawn by [`MIX`]
/// weight, slices and region positions uniformly.
struct Plan(gen::Rng);

impl Plan {
    fn new(seed: u64, connection: usize) -> Self {
        Self(gen::Rng::new(seed ^ (connection as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)))
    }

    fn next(&mut self) -> Request {
        let mut pick = self.0.below(MIX.iter().map(|&(_, w)| w).sum());
        let mut kinds = MIX.iter();
        let kind = loop {
            let &(kind, weight) = kinds.next().expect("pick is below the total weight");
            if pick < weight {
                break kind;
            }
            pick -= weight;
        };
        let slice = self.0.below(SLICES);
        let full = TileRect { x: 0, y: 0, width: SIZE, height: SIZE };
        let rect = if kind == Kind::Region {
            let x = self.0.below(SIZE - ROI + 1);
            let y = self.0.below(SIZE - ROI + 1);
            TileRect { x, y, width: ROI, height: ROI }
        } else {
            full
        };
        Request { kind, slice, rect }
    }
}

struct Inputs {
    sources: Vec<Image>,
    pgms: Vec<Vec<u8>>,
    /// The in-process `TiledCompressor` stream of each slice: the bytes
    /// every served `compress` reply must equal.
    streams: Vec<Vec<u8>>,
    server: Server,
}

fn build(seed: u64, workers: usize) -> Fallible<Inputs> {
    let sources = gen::ct_slices(SIZE, SLICES, NOISE, seed);
    let pgms = sources.iter().map(pgm_bytes).collect::<Fallible<Vec<_>>>()?;
    let engine = TiledCompressor::new(SCALES, TILE, workers)?;
    let streams = sources.iter().map(|s| engine.compress(s)).collect::<Result<Vec<_>, _>>()?;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
    Ok(Inputs { sources, pgms, streams, server })
}

fn pgm_bytes(image: &Image) -> Fallible<Vec<u8>> {
    let mut out = Vec::with_capacity(image.pixel_count() * 2 + 32);
    pgm::write_pgm(image, &mut out)?;
    Ok(out)
}

/// The request payload as the wire carries it; a region request prefixes
/// the stream with six big-endian u32 fields: x, y, z, width, height,
/// depth.
fn payload(inputs: &Inputs, request: &Request) -> Vec<u8> {
    match request.kind {
        Kind::Compress => inputs.pgms[request.slice].clone(),
        Kind::Decompress => inputs.streams[request.slice].clone(),
        Kind::Region => {
            let stream = &inputs.streams[request.slice];
            let r = request.rect;
            let mut out = Vec::with_capacity(24 + stream.len());
            for field in [r.x, r.y, 0, r.width, r.height, 1] {
                out.extend_from_slice(&(field as u32).to_be_bytes());
            }
            out.extend_from_slice(stream);
            out
        }
    }
}

/// Whether a reply carries exactly the expected bytes.
fn verify(inputs: &Inputs, request: &Request, reply: &[u8]) -> bool {
    match request.kind {
        Kind::Compress => reply == inputs.streams[request.slice],
        Kind::Decompress => reply == inputs.pgms[request.slice],
        Kind::Region => inputs.sources[request.slice]
            .crop(request.rect)
            .ok()
            .and_then(|crop| pgm_bytes(&crop).ok())
            .is_some_and(|expected| reply == expected),
    }
}

/// One completed request of a closed-loop run.
#[derive(Debug, Clone, Copy)]
struct Done {
    request: Request,
    latency_s: f64,
    ok: bool,
}

/// Closed-loop client: keeps [`WINDOW`] requests in flight, stamps each at
/// submit, submits the next as soon as a reply arrives, and stops
/// submitting at `deadline` (then drains what is in flight).
fn drive(inputs: &Inputs, plan: &mut Plan, deadline: Instant) -> Fallible<Vec<Done>> {
    let mut client = Client::connect(inputs.server.local_addr())?;
    let mut pending: HashMap<u64, (Request, Instant)> = HashMap::with_capacity(WINDOW);
    let mut done = Vec::new();
    loop {
        while pending.len() < WINDOW && Instant::now() < deadline {
            let request = plan.next();
            let body = payload(inputs, &request);
            let stamp = Instant::now();
            let id = client.submit(request.kind.op(), body)?;
            pending.insert(id, (request, stamp));
        }
        if pending.is_empty() {
            return Ok(done);
        }
        let response = client.receive()?;
        let (request, stamp) =
            pending.remove(&response.request_id).ok_or("reply to an unknown request id")?;
        let latency_s = stamp.elapsed().as_secs_f64();
        let ok = response.result.is_ok_and(|reply| verify(inputs, &request, &reply));
        done.push(Done { request, latency_s, ok });
    }
}

/// Runs `connections` closed-loop clients for `seconds`; returns every
/// completed request and the wall time until the last reply.
fn load(
    inputs: &Inputs,
    seed: u64,
    connections: usize,
    seconds: f64,
) -> Fallible<(Vec<Done>, f64)> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || drive(inputs, &mut Plan::new(seed, c), deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked")?)
            .collect::<Fallible<Vec<_>>>()
    })?;
    let wall = start.elapsed().as_secs_f64();
    Ok((logs.into_iter().flatten().collect(), wall))
}

fn record_checks(done: &[Done], report: &mut Report) {
    for d in done {
        report.check(d.ok, || {
            format!(
                "{:?} of slice {} at {:?} failed or mismatched",
                d.request.kind, d.request.slice, d.request.rect
            )
        });
    }
}

pub fn run(args: &Args) -> Fallible<Report> {
    let (inputs, setup_s) = setup(|| build(args.seed, args.workers))?;
    let mut report = Report::default();
    report.note(format!(
        "inputs: {SLICES} distinct {SIZE}x{SIZE} 12-bit CT slices, each as a PGM payload and \
         its LWCT stream (distinct payloads: {SLICES} per op); server defaults ({} workers, \
         {SCALES} scales, {TILE}² tiles); {} connections x window {WINDOW}, closed loop",
        inputs.server.config().workers,
        args.workers
    ));
    // Warm-up: one short closed-loop burst, checked but not measured.
    let (warm, _) = load(&inputs, args.seed ^ 0xFFFF, args.workers, 0.3)?;
    record_checks(&warm, &mut report);
    if args.trace {
        traced(args, &inputs, &mut report)?;
    } else {
        measured(args, &inputs, setup_s, &mut report)?;
    }
    Ok(report)
}

fn measured(args: &Args, inputs: &Inputs, setup_s: f64, report: &mut Report) -> Fallible<()> {
    let before = inputs.server.stats();
    let (done, wall) = load(inputs, args.seed, args.workers, args.seconds)?;
    let after = inputs.server.stats();
    record_checks(&done, report);
    let latencies = |kind: Kind| -> Vec<f64> {
        done.iter().filter(|d| d.request.kind == kind).map(|d| d.latency_s * 1e3).collect()
    };
    let (compress, decompress, region) =
        (latencies(Kind::Compress), latencies(Kind::Decompress), latencies(Kind::Region));
    let frame = (SIZE * SIZE) as f64;
    let raw = frame * f64::from(gen::BIT_DEPTH) / 8.0 * SLICES as f64;
    let coded: usize = inputs.streams.iter().map(Vec::len).sum();
    report.note(format!(
        "{} requests in {wall:.3} s: {} compress, {} decompress, {} region; server rejected_busy {}, \
         error_replies {}",
        done.len(),
        compress.len(),
        decompress.len(),
        region.len(),
        after.rejected_busy - before.rejected_busy,
        after.error_replies - before.error_replies
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("ratio", raw / coded as f64, "x");
    report.metric("encode_msamples_per_s", compress.len() as f64 * frame / wall / 1e6, "Ms/s");
    report.metric("decode_msamples_per_s", decompress.len() as f64 * frame / wall / 1e6, "Ms/s");
    report.metric("requests_per_s", done.len() as f64 / wall, "1/s");
    report.latency("compress", &compress);
    report.latency("decompress", &decompress);
    report.latency("region", &region);
    Ok(())
}

/// What replaying one request through the layers costs.
#[derive(Debug, Clone)]
struct Replayed {
    self_times: BTreeMap<&'static str, f64>,
    /// Layer time on the critical path with the server's workers.
    critical_s: f64,
    jobs: Vec<f64>,
}

/// Replays one served request: the client frames it, the server unframes
/// it and runs the op's stages (PGM parse, per-tile encode and container
/// assembly; or container parse, per-tile decode and PGM write), then
/// frames the reply and the client unframes it. The reply must equal the
/// expected bytes.
fn replay_request(
    t: &mut Tracer,
    inputs: &Inputs,
    engine: &TiledCompressor,
    request: &Request,
    report: &mut Report,
) -> Fallible<()> {
    let id = t.next_request();
    let body = payload(inputs, request);
    t.span("serve.request", |t| -> Fallible<()> {
        let wire = t.span("server.frame", |_| {
            Frame { op: request.kind.op(), request_id: id, payload: body }.encode()
        });
        let (frame, _) =
            t.span("server.frame", |_| Frame::decode(&wire, DEFAULT_MAX_PAYLOAD_BYTES))?;
        drop(wire);
        let reply = match request.kind {
            Kind::Compress => {
                let image = t.span("image.parse", |_| pgm::read_pgm(frame.payload.as_slice()))?;
                replay::tiled_compress(t, engine, &image)?
            }
            Kind::Decompress => {
                let image = replay::tiled_region(t, engine.codec(), &frame.payload, request.rect)?;
                replay::write_pgm(t, &image)?
            }
            Kind::Region => {
                let image =
                    replay::tiled_region(t, engine.codec(), &frame.payload[24..], request.rect)?;
                replay::write_pgm(t, &image)?
            }
        };
        let response = Frame { op: request.kind.op().response(), request_id: id, payload: reply };
        let wire = t.span("server.frame", |_| response.encode());
        let (back, _) =
            t.span("server.frame", |_| Frame::decode(&wire, DEFAULT_MAX_PAYLOAD_BYTES))?;
        report.check(verify(inputs, request, &back.payload), || {
            format!("replayed {request:?} reply differs")
        });
        Ok(())
    })
}

/// Requests that cost the same to replay: same op, slice and covering
/// tiles of `grid` (the crop itself is negligible).
fn replay_key(grid: &TileGrid, request: &Request) -> (Kind, usize, Vec<usize>) {
    let tiles = grid.covering_indices(request.rect).unwrap_or_default();
    (request.kind, request.slice, tiles)
}

fn traced(args: &Args, inputs: &Inputs, report: &mut Report) -> Fallible<()> {
    let workers = inputs.server.config().workers;
    let engine = TiledCompressor::new(SCALES, TILE, 1)?;
    let grid = engine.grid(SIZE, SIZE)?;
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let full = TileRect { x: 0, y: 0, width: SIZE, height: SIZE };

    // Untraced served calls on an idle server, one request at a time, and
    // their traced replays: the drift checks and the tracing overhead. The
    // replays cover the layer calls only (codec, PGM, framing); the socket
    // transfers, the event loop and the hand-off to workers have no public
    // entry point to replay, so the idle server's fixed cost per request is
    // measured on its own and reported beside the checks, not inside them.
    let mut client = Client::connect(inputs.server.local_addr())?;
    layers.dispatch_ms = dispatch_floor(&mut client, report)? * 1e3;
    for kind in [Kind::Compress, Kind::Decompress] {
        let mut served = Vec::new();
        let mut replayed = Vec::new();
        for i in 0..ISOLATED {
            let request = Request { kind, slice: i % SLICES, rect: full };
            // Alternate which side runs first, so neither always finds
            // the caches and allocator as the other left them.
            let (done, replay_times) = in_order(
                i % 2 == 0,
                || drive_one(inputs, &mut client, request),
                || -> Fallible<(f64, f64, usize)> {
                    let (quiet_run, off) =
                        timed(|| replay_request(&mut quiet, inputs, &engine, &request, report));
                    quiet_run?;
                    let mark = tracer.mark();
                    let (traced_run, on) =
                        timed(|| replay_request(&mut tracer, inputs, &engine, &request, report));
                    traced_run?;
                    replayed.push(tracer.critical_path(mark, workers));
                    Ok((off, on, tracer.mark() - mark))
                },
            );
            let (done, (off, on, spans)) = (done?, replay_times?);
            record_checks(std::slice::from_ref(&done), report);
            served.push(done.latency_s);
            layers.overhead_ms.push((on - off) * 1e3);
            layers.overhead_spans.push(spans as f64);
            layers.untraced_ms.push(off * 1e3);
        }
        let (replayed, served) = (median(&replayed), median(&served));
        if kind == Kind::Compress {
            layers.drift_check("served compress (client-observed, idle server)", replayed, served);
        } else {
            // Not a drift check: the replay has no stand-in for the event
            // loop's nonblocking write of a frame-sized reply, so this gap
            // is reported as measured.
            report.note(format!(
                "served decompress on the idle server: {:.3} ms, replayed layers {:.3} ms ({:+.1}%)",
                served * 1e3,
                replayed * 1e3,
                (replayed / served - 1.0) * 100.0
            ));
        }
    }
    drop(client);

    // The loaded run: latencies under the closed loop, server counters.
    let before = inputs.server.stats();
    let (done, wall) = load(inputs, args.seed, args.workers, args.seconds * 0.6)?;
    let after = inputs.server.stats();
    record_checks(&done, report);
    layers.steals = (after.steals - before.steals) as f64;
    // `active_workers` counts workers that have run a task since the server
    // started, not over this run: after the warm-up it equals the worker
    // count, so it flags a worker that never runs, not a change in load.
    layers.active_workers = after.active_workers as f64;
    report.note(format!(
        "server.active_workers counts since server start, not over the loaded run ({} of {workers})",
        after.active_workers
    ));
    layers.rejected_busy = (after.rejected_busy - before.rejected_busy) as f64;
    layers.error_replies = (after.error_replies - before.error_replies) as f64;

    // Replay every distinct request of the loaded run once; each logged
    // request's server-side wait is its latency minus its replayed
    // critical path.
    let mut cache: HashMap<(Kind, usize, Vec<usize>), Replayed> = HashMap::new();
    let mut waits = Vec::with_capacity(done.len());
    let mut mean: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut job_sum = 0.0;
    let mut job_count = 0usize;
    let mut all_jobs = Vec::new();
    for d in &done {
        let key = replay_key(&grid, &d.request);
        if !cache.contains_key(&key) {
            let mark = tracer.mark();
            replay_request(&mut tracer, inputs, &engine, &d.request, report)?;
            let jobs = tracer.job_seconds(mark);
            all_jobs.extend_from_slice(&jobs);
            cache.insert(
                key.clone(),
                Replayed {
                    self_times: tracer.self_time_by_name(mark),
                    critical_s: tracer.critical_path(mark, workers),
                    jobs,
                },
            );
        }
        let replayed = &cache[&key];
        waits.push((d.latency_s - replayed.critical_s) * 1e3);
        for (name, s) in &replayed.self_times {
            *mean.entry(name).or_insert(0.0) += s / done.len() as f64;
        }
        job_sum += replayed.jobs.iter().sum::<f64>();
        job_count += replayed.jobs.len();
    }
    layers.rounds.push(mean);
    layers.wait_p50_ms = median(&waits);
    layers.wait_p99_ms = p99(&waits).unwrap_or(0.0);
    if p99(&waits).is_none() {
        report.note(format!("server.wait_p99_ms not measured: only {} requests", waits.len()));
    }
    report.note(format!(
        "server wait from {} loaded requests over {wall:.3} s: p50 {:.3} ms, p90 {:.3} ms; {} distinct replays",
        waits.len(),
        layers.wait_p50_ms,
        percentile(&waits, 0.9).unwrap_or(0.0),
        cache.len()
    ));
    layers.jobs = job_count as f64 / done.len().max(1) as f64;
    layers.busy_share = job_sum / (wall * workers as f64);
    let mean_job = all_jobs.iter().sum::<f64>() / all_jobs.len().max(1) as f64;
    layers.straggler_ratio = all_jobs.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean_job.max(1e-12);
    let samples: f64 = done
        .iter()
        .map(|d| match d.request.kind {
            Kind::Compress | Kind::Decompress => (SIZE * SIZE) as f64,
            Kind::Region => (replay_key(&grid, &d.request).2.len() * TILE * TILE) as f64,
        })
        .sum();
    layers.lifting_msamples = samples / done.len().max(1) as f64 / 1e6;
    let coded: usize = inputs.streams.iter().map(Vec::len).sum();
    layers.bits_per_sample = coded as f64 * 8.0 / (SLICES * SIZE * SIZE) as f64;
    report.note("replayed unit: one request of the loaded run's mix (mean over the run)".into());
    layers.report(report);
    write_spans(args, &tracer, report);
    Ok(())
}

/// The server's fixed cost per request: the median round trip of a
/// compress of an 8x8 frame on the idle server, whose codec work is a few
/// microseconds — so what remains is the event loop, the hand-off to a
/// worker and back, and the client's wake-ups. Reported as
/// `server.dispatch_ms`; the drift check and `server.wait` leave it in the
/// unreplayed remainder.
fn dispatch_floor(client: &mut Client, report: &mut Report) -> Fallible<f64> {
    let tiny = gen::ct_slices(8, 1, NOISE, 0).remove(0);
    let body = pgm_bytes(&tiny)?;
    let expected = TiledCompressor::new(SCALES, TILE, 1)?.compress(&tiny)?;
    let mut rounds = Vec::with_capacity(32);
    for _ in 0..32 {
        let stamp = Instant::now();
        let reply = client.request(Op::Compress, body.clone());
        rounds.push(stamp.elapsed().as_secs_f64());
        report.check(reply.is_ok_and(|r| r == expected), || "8x8 compress reply differs".into());
    }
    Ok(median(&rounds))
}

/// One request with nothing else in flight.
fn drive_one(inputs: &Inputs, client: &mut Client, request: Request) -> Fallible<Done> {
    let body = payload(inputs, &request);
    let stamp = Instant::now();
    let id = client.submit(request.kind.op(), body)?;
    let response = client.receive()?;
    let latency_s = stamp.elapsed().as_secs_f64();
    let ok =
        response.request_id == id && response.result.is_ok_and(|r| verify(inputs, &request, &r));
    Ok(Done { request, latency_s, ok })
}
