//! `ct-volume-512`: `VolumeCompressor` with the shipped defaults on a
//! correlated 512²-slice CT stack — `compress_stack`, `decompress_stack`,
//! then seeded cuboid `decompress_region` reads.

use crate::layers::Layers;
use crate::stats::{median, ms, Report};
use crate::trace::Tracer;
use crate::{
    gen, replay, setup, timed, write_spans, Args, Fallible, BRICK_DEPTH, SCALES, TILE, Z_SCALES,
};
use lwc_coder::VolumeStream;
use lwc_image::{BrickRect, ImageStack, TileRect};
use lwc_pipeline::VolumeCompressor;
use std::time::Instant;

const SIZE: usize = 512;
const DEPTH: usize = 32;
/// Region reads per round, each a `ROI x ROI x BRICK_DEPTH` cuboid.
const REGIONS: usize = 8;
const ROI: usize = 128;
/// Dither-level noise keeps adjacent slices strongly correlated.
const NOISE: f32 = 1.0;

/// Two region reads per way a cuboid one brick layer deep can straddle tile
/// boundaries (one or two tiles across, one or two down), at seeded
/// positions: every round decodes the same mix of 1, 2 and 4 bricks, so the
/// latency median does not depend on where the seed lands.
fn regions(seed: u64, round: usize) -> Vec<BrickRect> {
    let mut rng = gen::Rng::new(seed ^ (round as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    (0..REGIONS)
        .map(|read| {
            let mut pick = |straddle: bool| {
                // A straddling read needs a next tile to reach into.
                let base = TILE * rng.below(SIZE / TILE - usize::from(straddle));
                if straddle {
                    base + TILE - ROI + 1 + rng.below(ROI - 1)
                } else {
                    base + rng.below(TILE - ROI + 1)
                }
            };
            let x = pick(read & 1 == 1);
            let y = pick(read & 2 == 2);
            let z = BRICK_DEPTH * rng.below(DEPTH / BRICK_DEPTH);
            BrickRect { plane: TileRect { x, y, width: ROI, height: ROI }, z, depth: BRICK_DEPTH }
        })
        .collect()
}

fn expected(stack: &ImageStack, rect: BrickRect) -> Fallible<Vec<i32>> {
    Ok(stack.view_brick(rect)?.to_samples())
}

pub fn run(args: &Args) -> Fallible<Report> {
    let (stack, setup_s) = setup(|| Ok(gen::ct_stack(SIZE, DEPTH, NOISE, args.seed)))?;
    let engine = VolumeCompressor::new(SCALES, Z_SCALES, TILE, BRICK_DEPTH, args.workers)?;
    let mut report = Report::default();
    report.note(format!(
        "inputs: one {SIZE}x{SIZE}x{DEPTH} 12-bit correlated CT stack (distinct payloads: 1); \
         {REGIONS} seeded {ROI}x{ROI}x{BRICK_DEPTH} cuboids per round; volume engine with {} workers, {SCALES} \
         scales, z_scales {Z_SCALES}, {TILE}² x {BRICK_DEPTH} bricks",
        engine.workers()
    ));
    if args.trace {
        traced(args, &engine, &stack, &mut report)?;
    } else {
        measured(args, &engine, &stack, setup_s, &mut report)?;
    }
    Ok(report)
}

/// One round's timings: compress, decompress, and each region read.
struct Round {
    compress_s: f64,
    decompress_s: f64,
    region_s: Vec<f64>,
    bytes: usize,
}

fn round(
    engine: &VolumeCompressor,
    stack: &ImageStack,
    rects: &[BrickRect],
    report: &mut Report,
) -> Fallible<Round> {
    let (bytes, compress_s) = timed(|| engine.compress_stack(stack));
    let bytes = bytes?;
    let (back, decompress_s) = timed(|| engine.decompress_stack(&bytes));
    report.check(&back? == stack, || "decompressed volume differs from its source".into());
    let mut region_s = Vec::with_capacity(rects.len());
    for &rect in rects {
        let (region, s) = timed(|| engine.decompress_region(&bytes, rect));
        region_s.push(s);
        report.check(region?.samples() == expected(stack, rect)?, || {
            format!("region {rect:?} differs")
        });
    }
    Ok(Round { compress_s, decompress_s, region_s, bytes: bytes.len() })
}

fn measured(
    args: &Args,
    engine: &VolumeCompressor,
    stack: &ImageStack,
    setup_s: f64,
    report: &mut Report,
) -> Fallible<()> {
    // Warm-up round, checked but not measured.
    round(engine, stack, &regions(args.seed, 0), report)?;
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        rounds.push(round(engine, stack, &regions(args.seed, rounds.len() + 1), report)?);
    }
    let voxels = stack.voxel_count() as f64;
    let enc: Vec<f64> = rounds.iter().map(|r| r.compress_s).collect();
    let dec: Vec<f64> = rounds.iter().map(|r| r.decompress_s).collect();
    let reg: Vec<f64> = rounds.iter().flat_map(|r| r.region_s.iter().copied()).collect();
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|r| r.compress_s + r.decompress_s + r.region_s.iter().sum::<f64>())
        .collect();
    report.note(format!("{} measured rounds after one warm-up round", rounds.len()));
    report.metric("setup_s", setup_s, "s");
    let raw_bytes = voxels * f64::from(gen::BIT_DEPTH) / 8.0;
    report.metric("ratio", raw_bytes / rounds[0].bytes as f64, "x");
    report.metric("encode_msamples_per_s", voxels / median(&enc) / 1e6, "Ms/s");
    report.metric("decode_msamples_per_s", voxels / median(&dec) / 1e6, "Ms/s");
    report.metric("requests_per_s", (2 + REGIONS) as f64 / median(&per_round), "1/s");
    report.latency("compress", &ms(&enc));
    report.latency("decompress", &ms(&dec));
    report.latency("region", &ms(&reg));
    Ok(())
}

/// Replays one round: compress (checked against the engine's bytes),
/// decompress and the region reads (checked against the source).
fn replay_round(
    t: &mut Tracer,
    engine: &VolumeCompressor,
    stack: &ImageStack,
    bytes: &[u8],
    rects: &[BrickRect],
    report: &mut Report,
) -> Fallible<()> {
    let replayed = t.span("volume.compress", |t| replay::volume_compress(t, engine, stack))?;
    report.check(replayed == bytes, || "replayed volume encode differs from the engine's".into());
    let whole = BrickRect {
        plane: TileRect { x: 0, y: 0, width: stack.width(), height: stack.height() },
        z: 0,
        depth: stack.depth(),
    };
    let back = t.span("volume.decompress", |t| replay::volume_region(t, engine, bytes, whole))?;
    report.check(&back == stack, || "replayed volume decode differs from its source".into());
    for &rect in rects {
        let region = t.span("volume.region", |t| replay::volume_region(t, engine, bytes, rect))?;
        report.check(region.samples() == expected(stack, rect)?, || {
            format!("replayed region {rect:?} differs")
        });
    }
    Ok(())
}

fn traced(
    args: &Args,
    engine: &VolumeCompressor,
    stack: &ImageStack,
    report: &mut Report,
) -> Fallible<()> {
    let mut layers = Layers::default();
    let bytes = engine.compress_stack(stack)?;
    // The engine's decode wall time: median of three calls after a warm-up.
    let mut walls = Vec::with_capacity(3);
    for call in 0..4 {
        let (back, s) = timed(|| engine.decompress_stack(&bytes));
        report.check(&back? == stack, || "decompressed volume differs from its source".into());
        if call > 0 {
            walls.push(s);
        }
    }
    let decode_wall = median(&walls);

    // The decode fan-out: every brick is one job; time each on its own.
    let stream = VolumeStream::parse(&bytes)?;
    let grid = stream.grid()?;
    let mut job_s = Vec::with_capacity(grid.brick_count());
    for index in 0..grid.brick_count() {
        let (samples, s) = timed(|| engine.decode_brick_samples(&stream, &grid, index));
        samples?;
        job_s.push(s);
    }
    let mean_job = job_s.iter().sum::<f64>() / job_s.len() as f64;
    layers.jobs = job_s.len() as f64;
    layers.busy_share = job_s.iter().sum::<f64>() / (decode_wall * engine.workers() as f64);
    layers.straggler_ratio = job_s.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean_job;
    layers.bits_per_sample = bytes.len() as f64 * 8.0 / stack.voxel_count() as f64;

    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let start = Instant::now();
    let mut index = 0;
    let mut region_voxels = 0;
    while index < 1 || start.elapsed().as_secs_f64() < args.seconds {
        let rects = regions(args.seed, index);
        tracer.next_request();
        let mark = tracer.mark();
        // The same round untraced and traced, in alternating order.
        let mut run = |t: &mut Tracer| {
            let (done, s) = timed(|| replay_round(t, engine, stack, &bytes, &rects, report));
            done.map(|()| s)
        };
        let (off, on) = if index % 2 == 0 {
            let off = run(&mut quiet)?;
            (off, run(&mut tracer)?)
        } else {
            let on = run(&mut tracer)?;
            (run(&mut quiet)?, on)
        };
        layers.overhead_ms.push((on - off) * 1e3);
        layers.overhead_spans.push((tracer.mark() - mark) as f64);
        layers.untraced_ms.push(off * 1e3);
        layers.rounds.push(tracer.self_time_by_name(mark));
        region_voxels += rects
            .iter()
            .filter_map(|&r| grid.covering_indices(r))
            .flatten()
            .map(|i| grid.rect(i).voxel_count())
            .sum::<usize>();
        index += 1;
    }
    layers.lifting_msamples =
        (2 * stack.voxel_count()) as f64 / 1e6 + region_voxels as f64 / index as f64 / 1e6;
    report.note(format!(
        "replayed unit: one round of compress, decompress and {REGIONS} region reads; {index} units"
    ));
    layers.report(report);
    write_spans(args, &tracer, report);
    Ok(())
}
