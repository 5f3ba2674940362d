//! `dx-batch-4096`: a batch of distinct 4096² 12-bit radiographs arriving
//! as in-memory DICOM, parsed, compressed with `BatchCompressor`,
//! decompressed and checked; plus one region-of-interest read per round,
//! which for an `LWC1` frame means decoding the whole frame.

use crate::layers::Layers;
use crate::stats::{median, ms, Report};
use crate::trace::Tracer;
use crate::{gen, in_order, replay, setup, timed, write_spans, Args, Fallible, SCALES};
use lwc_coder::LosslessCodec;
use lwc_image::{dicom, Image, ImageStack, TileRect};
use lwc_lifting::LineDwt53;
use lwc_pipeline::BatchCompressor;
use std::time::Instant;

const SIZE: usize = 4096;
/// Side of the region-of-interest read.
const ROI: usize = 128;

struct Inputs {
    sources: Vec<Image>,
    dicoms: Vec<Vec<u8>>,
}

fn build(seed: u64, frames: usize) -> Fallible<Inputs> {
    let sources: Vec<Image> = (0..frames as u64)
        .map(|i| gen::radiograph(SIZE, seed.wrapping_mul(0x1_0000).wrapping_add(i)))
        .collect();
    let dicoms = sources
        .iter()
        .map(|image| {
            let stack = ImageStack::from_slices(std::slice::from_ref(image))?;
            Ok(dicom::encode(&stack, true, false)?)
        })
        .collect::<Fallible<_>>()?;
    Ok(Inputs { sources, dicoms })
}

fn parse(bytes: &[u8]) -> Fallible<Image> {
    Ok(dicom::parse(bytes)?.frame0()?)
}

fn roi(seed: u64, round: usize) -> TileRect {
    let mut rng = gen::Rng::new(seed ^ (round as u64).wrapping_mul(0x9E37));
    TileRect { x: rng.below(SIZE - ROI + 1), y: rng.below(SIZE - ROI + 1), width: ROI, height: ROI }
}

pub fn run(args: &Args) -> Fallible<Report> {
    // A batch as wide as the worker pool, at least two frames so the batch
    // fan-out has something to balance, at most four to bound memory.
    let frames = args.workers.clamp(2, 4);
    let (inputs, setup_s) = setup(|| build(args.seed, frames))?;
    let engine = BatchCompressor::new(SCALES, args.workers)?;
    let mut report = Report::default();
    report.note(format!(
        "inputs: {frames} distinct {SIZE}x{SIZE} 12-bit radiographs as explicit-VR DICOM \
         (distinct payloads: {frames}); batch engine with {} workers, {SCALES} scales",
        engine.workers()
    ));
    if args.trace {
        traced(args, &engine, &inputs, &mut report)?;
    } else {
        measured(args, &engine, &inputs, setup_s, &mut report)?;
    }
    Ok(report)
}

/// One round: parse + `compress_batch`, `decompress_batch`, one region
/// read. Returns (encode s, decode s, region s, compressed bytes).
fn round(
    engine: &BatchCompressor,
    inputs: &Inputs,
    rect: TileRect,
    which: usize,
    report: &mut Report,
) -> Fallible<(f64, f64, f64, usize)> {
    let start = Instant::now();
    let images = inputs.dicoms.iter().map(|b| parse(b)).collect::<Fallible<Vec<_>>>()?;
    let (streams, _) = engine.compress_batch(&images)?;
    let encode_s = start.elapsed().as_secs_f64();
    for (i, (image, source)) in images.iter().zip(&inputs.sources).enumerate() {
        report
            .check(image == source, || format!("DICOM parse of frame {i} differs from its source"));
    }
    drop(images);

    let start = Instant::now();
    let (decoded, _) = engine.decompress_batch(&streams)?;
    let decode_s = start.elapsed().as_secs_f64();
    for (i, (image, source)) in decoded.iter().zip(&inputs.sources).enumerate() {
        report.check(image == source, || format!("decoded frame {i} differs from its source"));
    }
    drop(decoded);

    let start = Instant::now();
    let region = engine.decompress_one(&streams[which])?.crop(rect)?;
    let region_s = start.elapsed().as_secs_f64();
    let expected = inputs.sources[which].crop(rect)?;
    report.check(region == expected, || format!("region {rect:?} of frame {which} differs"));
    Ok((encode_s, decode_s, region_s, streams.iter().map(Vec::len).sum()))
}

fn measured(
    args: &Args,
    engine: &BatchCompressor,
    inputs: &Inputs,
    setup_s: f64,
    report: &mut Report,
) -> Fallible<()> {
    let frames = inputs.sources.len();
    // Warm-up round: first-touch page faults and allocator growth are not
    // what a long-running archive pays per batch.
    round(engine, inputs, roi(args.seed, 0), 0, report)?;
    let (mut enc, mut dec, mut reg) = (Vec::new(), Vec::new(), Vec::new());
    let mut compressed = 0;
    let start = Instant::now();
    let mut index = 1;
    while enc.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (e, d, r, bytes) =
            round(engine, inputs, roi(args.seed, index), index % frames, report)?;
        enc.push(e);
        dec.push(d);
        reg.push(r);
        compressed = bytes;
        index += 1;
    }
    let samples = (frames * SIZE * SIZE) as f64;
    let raw_bytes = samples * f64::from(gen::BIT_DEPTH) / 8.0;
    report
        .note(format!("{} measured rounds of {frames} frames after one warm-up round", enc.len()));
    report.metric("setup_s", setup_s, "s");
    report.metric("ratio", raw_bytes / compressed as f64, "x");
    report.metric("encode_msamples_per_s", samples / median(&enc) / 1e6, "Ms/s");
    report.metric("decode_msamples_per_s", samples / median(&dec) / 1e6, "Ms/s");
    let per_round: Vec<f64> = (0..enc.len()).map(|i| enc[i] + dec[i] + reg[i]).collect();
    report.metric("requests_per_s", (2 * frames + 1) as f64 / median(&per_round), "1/s");
    report.latency("compress", &ms(&enc));
    report.latency("decompress", &ms(&dec));
    report.latency("region", &ms(&reg));
    Ok(())
}

/// Replays one frame's encode through the layers: the stages of
/// `LosslessCodec::compress` on the parsed frame. The stream must equal the
/// engine's.
fn replay_encode(
    t: &mut Tracer,
    codec: &LosslessCodec,
    image: &Image,
    stream: &[u8],
    k: usize,
    report: &mut Report,
) -> Fallible<()> {
    let bytes = t.span("dx.encode", |t| replay::encode_view(t, codec, &image.view()))?;
    report.check(bytes == stream, || {
        format!("replayed encode of frame {k} differs from the engine's")
    });
    Ok(())
}

/// Replays one frame's decode through the layers; the frame must equal its
/// source.
fn replay_decode(
    t: &mut Tracer,
    codec: &LosslessCodec,
    inputs: &Inputs,
    stream: &[u8],
    k: usize,
    report: &mut Report,
) -> Fallible<()> {
    let decoded = t.span("dx.decode", |t| replay::decode_image(t, codec, stream))?;
    report.check(decoded == inputs.sources[k], || format!("replayed decode of frame {k} differs"));
    Ok(())
}

/// Runs a replay with `t`, returning its wall time (or its error) and the
/// layer time on its critical path (single-threaded).
fn timed_replay(
    t: &mut Tracer,
    replay: impl FnOnce(&mut Tracer) -> Fallible<()>,
) -> (Fallible<f64>, f64) {
    let mark = t.mark();
    let (done, s) = timed(|| replay(t));
    (done.map(|()| s), t.critical_path(mark, 1))
}

fn traced(
    args: &Args,
    engine: &BatchCompressor,
    inputs: &Inputs,
    report: &mut Report,
) -> Fallible<()> {
    let frames = inputs.sources.len();
    let codec = engine.codec();
    let mut layers = Layers::default();

    // The batch fan-out, timed after a warm-up call.
    let (streams, _) = engine.compress_batch(&inputs.sources)?;
    let (batch, batch_wall) = timed(|| engine.compress_batch(&inputs.sources));
    report.check(batch?.0 == streams, || "compress_batch is not deterministic".into());
    let samples = (SIZE * SIZE) as f64;
    layers.bits_per_sample =
        streams.iter().map(|s| s.len() as f64 * 8.0).sum::<f64>() / (samples * frames as f64);

    // Each round takes one frame through the untraced engine calls (the
    // encode and decode jobs the batch engine runs) and, right beside each,
    // its traced replay — the same calls with spans around them, so the
    // pair gives both the drift check and the tracing overhead. Which of
    // the pair runs first alternates by round, and the round count is even,
    // so neither side always runs on the memory state the other left.
    let mut tracer = Tracer::new(true);
    let mut job_s = vec![Vec::new(); frames];
    let (mut encode_wall, mut decode_wall) = (Vec::new(), Vec::new());
    let (mut encode_replay, mut decode_replay) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < frames.max(4) || round % 2 == 1 || start.elapsed().as_secs_f64() < args.seconds {
        let k = round % frames;
        let stream = &streams[k];
        let engine_first = round % 2 == 0;
        tracer.next_request();
        let mark = tracer.mark();
        let image = tracer.span("image.parse", |_| parse(&inputs.dicoms[k]))?;
        let replay_start = tracer.mark();

        let ((encoded, encode_s), (encode_on, encode_layers)) = in_order(
            engine_first,
            || timed(|| codec.compress(&inputs.sources[k])),
            || timed_replay(&mut tracer, |t| replay_encode(t, codec, &image, stream, k, report)),
        );
        report.check(encoded? == *stream, || format!("engine encode of frame {k} differs"));
        drop(image);
        let ((decoded, decode_s), (decode_on, decode_layers)) = in_order(
            engine_first,
            || timed(|| codec.decompress(stream)),
            || timed_replay(&mut tracer, |t| replay_decode(t, codec, inputs, stream, k, report)),
        );
        report
            .check(decoded? == inputs.sources[k], || format!("engine decode of frame {k} differs"));
        let (encode_on, encode_layers) = (encode_on?, encode_layers);
        let (decode_on, decode_layers) = (decode_on?, decode_layers);

        job_s[k].push(encode_s);
        encode_wall.push(encode_s);
        decode_wall.push(decode_s);
        encode_replay.push(encode_layers);
        decode_replay.push(decode_layers);
        layers.overhead_ms.push((encode_on + decode_on - encode_s - decode_s) * 1e3);
        layers.overhead_spans.push((tracer.mark() - replay_start) as f64);
        layers.untraced_ms.push((encode_s + decode_s) * 1e3);

        // The line cascade the engines can switch to, on the same frame;
        // its coefficients must match the multi-pass transform's.
        let view = inputs.sources[k].view();
        let line =
            tracer.span("lifting.line_forward", |_| LineDwt53::forward_view(&view, SCALES))?;
        if round == 0 {
            let multi = codec.transform().forward_view(&view)?;
            report.check(line.data() == multi.data(), || "line cascade coefficients differ".into());
        }
        layers.rounds.push(tracer.self_time_by_name(mark));
        round += 1;
    }
    let jobs: Vec<f64> = job_s.iter().map(|times| median(times)).collect();
    let total: f64 = jobs.iter().sum();
    layers.jobs = frames as f64;
    layers.busy_share = total / (batch_wall * engine.workers() as f64);
    layers.straggler_ratio = jobs.iter().fold(0.0, |a: f64, &b| a.max(b)) / (total / frames as f64);
    layers.drift_check(
        "dx frame encode (LosslessCodec::compress)",
        median(&encode_replay),
        median(&encode_wall),
    );
    layers.drift_check(
        "dx frame decode (LosslessCodec::decompress)",
        median(&decode_replay),
        median(&decode_wall),
    );
    layers.lifting_msamples = 3.0 * samples / 1e6;
    report.note(format!(
        "replayed unit: one frame's DICOM parse, encode, decode and line-cascade forward; {round} units"
    ));
    layers.report(report);
    write_spans(args, &tracer, report);
    Ok(())
}
