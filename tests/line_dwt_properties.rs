//! Property tests for the line-based fused DWT engines:
//!
//! * the lifting-path [`LineDwt53`] is bit-identical to the multi-pass
//!   [`Lifting53`] on arbitrary geometries (odd, prime, degenerate) at any
//!   decomposition depth,
//! * the fixed-point [`LineFixedDwt`] is bit-identical to the paper-exact
//!   multi-pass [`FixedDwt2d`] across every Table I bank and decomposable
//!   geometry,
//! * the codec's row-streaming encode ([`LosslessCodec::compress_view`],
//!   the line cascade feeding per-subband Rice coders) produces byte for
//!   byte the materialized path's stream — multi-pass forward transform,
//!   per-subband copy, quantizer, one-shot Rice coder — on strided tile
//!   views at every near-lossless bound, and round-trips,
//! * (release builds only) a full 4096x4096 streaming encode keeps its
//!   coefficient working set at `O(width x levels)` — the software analogue
//!   of the paper's bounded line-buffer memory.

use lwc_core::lwc_coder::bitio::BitWriter;
use lwc_core::lwc_coder::{quant, subband_order, SubbandCodec};
use lwc_core::prelude::*;
use proptest::prelude::*;

/// The materialized encode: the multi-pass reference transform into a
/// frame-sized coefficient buffer, then per subband a copy, the quantizer
/// and the one-shot Rice coder.
fn materialized(codec: &LosslessCodec, view: &ImageView<'_>) -> Vec<u8> {
    let header = codec.header_for_view(view).unwrap();
    let coeffs = codec.transform().forward_view(view).unwrap();
    let schedule = codec.schedule();
    let mut writer = BitWriter::new();
    header.write(&mut writer);
    for (scale, band) in subband_order(codec.scales()) {
        let mut samples = coeffs.subband(scale, band);
        quant::quantize(&mut samples, schedule.allowance(scale, band));
        SubbandCodec::new().encode_subband(&mut writer, &samples);
    }
    writer.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lifting datapath: the one-pass cascade reproduces the multi-pass
    /// pyramid word for word, including ragged odd/prime dimensions where
    /// the ceil-halving pyramid saturates.
    #[test]
    fn lifting_fused_matches_multi_pass(
        width in 1usize..=97,
        height in 1usize..=97,
        scales in 1u32..=5,
        seed in 0u64..10_000,
    ) {
        let image = synth::random_image(width, height, 12, seed);
        let fused = LineDwt53::forward_view(&image.view(), scales).unwrap();
        let multi = Lifting53::new(scales).unwrap().forward(&image).unwrap();
        prop_assert!(fused == multi, "fused != multi-pass for {width}x{height} at {scales} scales");
    }

    /// Fixed-point datapath: fused == multi-pass for every quantized Table I
    /// bank on decomposable geometries (dimensions divisible by
    /// `2^scales`), pinning the deferred periodic boundary rows and the
    /// fused vertical accumulation to the reference.
    #[test]
    fn fixed_fused_matches_multi_pass(
        filter_index in 0usize..6,
        scales in 1u32..=5,
        w_factor in 1usize..=5,
        h_factor in 1usize..=5,
        seed in 0u64..10_000,
    ) {
        let id = FilterId::ALL[filter_index];
        let bank = FilterBank::table1(id);
        let hw = FixedDwt2d::paper_default(&bank, scales).unwrap();
        let (w, h) = (w_factor << scales, h_factor << scales);
        let image = synth::random_image(w, h, 12, seed);
        let fused = LineFixedDwt::forward_view(&hw, &image.view()).unwrap();
        prop_assert!(fused == hw.forward(&image).unwrap(), "fused != multi-pass for {id}: {w}x{h} at {scales} scales");
    }

    /// The streaming encode emits the materialized path's exact bytes on a
    /// strided window of a larger frame (subband splicing and per-row
    /// quantization are invisible in the stream) and round-trips within
    /// the bound.
    #[test]
    fn streaming_encoder_matches_sequential_codec(
        width in 1usize..=80,
        height in 1usize..=80,
        x in 0usize..=17,
        y in 0usize..=13,
        scales in 1u32..=5,
        delta_index in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let delta = [0u8, 1, 3][delta_index];
        let frame = synth::random_image(width + 17, height + 13, 12, seed);
        let view = frame.view_rect(TileRect { x, y, width, height }).unwrap();
        let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
        let stream = codec.compress_view(&view).unwrap();
        prop_assert_eq!(&stream, &materialized(&codec, &view));
        let back = codec.decompress(&stream).unwrap();
        let tile = frame.crop(TileRect { x, y, width, height }).unwrap();
        prop_assert!(stats::max_abs_diff(&tile, &back).unwrap() <= i32::from(delta));
    }
}

/// Release-gated smoke at real frame scale: a full 4096x4096 push-style
/// encode must hold the `O(width x levels)` working-set bound while still
/// producing the materialized path's exact stream. Debug builds skip it
/// (the unoptimized transform takes minutes at this size).
#[cfg(not(debug_assertions))]
#[test]
fn full_frame_streaming_encode_stays_bounded() {
    let (w, h, scales) = (4096usize, 4096usize, 5u32);
    let frame = synth::ct_phantom(w, h, 12, 7);
    let codec = LosslessCodec::new(scales).unwrap();
    let mut session = codec.begin(w, h, 12).unwrap();
    let mut peak = 0usize;
    for y in 0..h {
        session.push_row(frame.view().row(y));
        peak = peak.max(session.working_set_samples());
    }
    let stream = session.finish();
    assert_eq!(stream, materialized(&codec, &frame.view()));
    // The DWT rings are O(width x levels); the dominant term is the encoders'
    // buffered deferred-boundary coefficients, still far below the frame.
    assert!(peak < w * h / 8, "peak working set {peak} samples");
    assert!(peak > 0, "the session must actually buffer rows");
}
