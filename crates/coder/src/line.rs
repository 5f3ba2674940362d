//! Row-streaming encoder: the codec's one encode path.
//!
//! [`RowEncoder`] pairs the line cascade [`LineDwt53`] — the one-pass
//! multi-scale transform with an `O(width x levels)` coefficient working
//! set — with one incremental [`StreamingSubbandEncoder`] per subband.
//! Coefficient rows flow from the cascade through the quantizer (the
//! identity for lossless streams; per sample, so quantizing a row is
//! quantizing its band) straight into the per-band Rice coders, and
//! [`RowEncoder::finish`] splices the finished bands, in
//! [`crate::subband_order`],
//! behind the stream header at bit level.
//!
//! The block-adaptive code is strictly sequential per band, and the cascade
//! is bit-identical to the multi-pass [`lwc_lifting::Lifting53::forward`],
//! so the stream equals the materialized path (forward transform, per-band
//! copy, quantize, encode) byte for byte; the workspace property tests diff
//! the two. No frame-sized coefficient buffer or per-band copy is ever
//! allocated.

use crate::bitio::BitWriter;
use crate::quant::{self, QuantSchedule};
use crate::{StreamHeader, StreamingSubbandEncoder};
use lwc_lifting::{CoeffRow, LineDwt53};

/// An in-progress streaming encode, started by
/// [`crate::LosslessCodec::begin`]: push pixel rows top to bottom with
/// [`RowEncoder::push_row`], collect the stream with
/// [`RowEncoder::finish`].
///
/// ```
/// use lwc_coder::LosslessCodec;
/// use lwc_image::synth;
///
/// # fn main() -> Result<(), lwc_coder::CoderError> {
/// let image = synth::ct_phantom(96, 64, 12, 1);
/// let codec = LosslessCodec::new(4)?;
/// let mut encoder = codec.begin(96, 64, 12)?;
/// for y in 0..64 {
///     encoder.push_row(image.view().row(y));
/// }
/// let bytes = encoder.finish();
/// assert_eq!(bytes, codec.compress(&image)?); // the same stream
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RowEncoder {
    header: StreamHeader,
    dwt: LineDwt53,
    schedule: QuantSchedule,
    /// One incremental Rice encoder per subband, indexed by the band's
    /// position in [`crate::subband_order`].
    encoders: Vec<StreamingSubbandEncoder>,
    /// Quantizer indices of the row in flight (near-lossless only).
    quantized: Vec<i32>,
}

impl RowEncoder {
    pub(crate) fn new(header: StreamHeader, dwt: LineDwt53) -> Self {
        let encoders =
            (0..3 * header.scales as usize + 1).map(|_| StreamingSubbandEncoder::new()).collect();
        let schedule = QuantSchedule::for_delta(header.delta, header.scales);
        Self { header, dwt, schedule, encoders, quantized: Vec::new() }
    }

    /// Frame width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.header.width
    }

    /// Frame height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.header.height
    }

    /// Rows pushed so far.
    #[must_use]
    pub fn rows_pushed(&self) -> usize {
        self.dwt.rows_pushed()
    }

    /// Coefficient samples currently buffered: the transform's line rings
    /// plus the partial Rice block pending in each band encoder. Bounded by
    /// `O(width x levels)` — the streaming tests assert it never approaches
    /// the frame's pixel count. (The accumulating *compressed* bits are
    /// excluded: they are the output, not working state.)
    #[must_use]
    pub fn working_set_samples(&self) -> usize {
        self.dwt.working_set_samples()
            + self.quantized.capacity()
            + self.encoders.iter().map(StreamingSubbandEncoder::buffered_samples).sum::<usize>()
    }

    /// Pushes the next pixel row (top to bottom); every coefficient row the
    /// cascade releases is quantized and Rice-coded immediately.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the frame width or more than
    /// `height` rows are pushed.
    pub fn push_row(&mut self, row: &[i32]) {
        let Self { dwt, schedule, encoders, quantized, header } = self;
        let scales = header.scales;
        dwt.push_row(row, &mut |c| code_row(scales, schedule, encoders, quantized, &c));
    }

    /// Flushes the cascade's boundary tails and splices the per-band
    /// bitstreams behind the header into the final stream.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let Self { dwt, schedule, encoders, quantized, header } = &mut self;
        let scales = header.scales;
        dwt.finish(&mut |c| code_row(scales, schedule, encoders, quantized, &c));
        let mut writer = BitWriter::new();
        self.header.write(&mut writer);
        for encoder in self.encoders {
            let (bytes, bits) = encoder.finish();
            writer.append(&bytes, bits);
        }
        writer.into_bytes()
    }
}

/// Position of `(scale, band)` in [`crate::subband_order`]: the deepest
/// approximation first, then detail triples from the deepest scale down.
fn band_slot(scales: u32, scale: u32, band: usize) -> usize {
    if band == 0 {
        0
    } else {
        1 + 3 * (scales - scale) as usize + band - 1
    }
}

/// Routes one coefficient row to its band's encoder, through the band's
/// quantizer when it has a nonzero allowance.
fn code_row(
    scales: u32,
    schedule: &QuantSchedule,
    encoders: &mut [StreamingSubbandEncoder],
    quantized: &mut Vec<i32>,
    row: &CoeffRow<'_>,
) {
    let slot = band_slot(scales, row.scale, row.band);
    let allowance = schedule.allowance(row.scale, row.band);
    if allowance == 0 {
        encoders[slot].push(row.samples);
    } else {
        quantized.clear();
        quantized.extend_from_slice(row.samples);
        quant::quantize(quantized, allowance);
        encoders[slot].push(quantized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{subband_order, LosslessCodec, SubbandCodec};
    use lwc_image::{synth, ImageView, TileRect};
    use lwc_lifting::Lifting53;

    /// The materialized encode the streaming path replaced: the multi-pass
    /// forward transform into a frame-sized buffer, then per subband a
    /// copy, the quantizer and the one-shot Rice coder.
    fn materialized(codec: &LosslessCodec, view: &ImageView<'_>) -> Vec<u8> {
        let header = codec.header_for_view(view).unwrap();
        let coeffs = Lifting53::new(codec.scales()).unwrap().forward_view(view).unwrap();
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

    #[test]
    fn band_slots_follow_the_serialization_order() {
        for scales in 1u32..=6 {
            for (position, (scale, band)) in subband_order(scales).enumerate() {
                assert_eq!(band_slot(scales, scale, band), position, "{scale}/{band} of {scales}");
            }
        }
    }

    #[test]
    fn streamed_bytes_are_identical_to_the_sequential_codec() {
        let frame = synth::random_image(120, 90, 12, 5);
        for (w, h) in [(1usize, 1usize), (5, 4), (37, 53), (64, 64), (101, 63), (64, 37)] {
            // A strided window, offset so no row starts the frame's row.
            let view = frame.view_rect(TileRect { x: 7, y: 11, width: w, height: h }).unwrap();
            for scales in [1u32, 3, 5] {
                for delta in [0u8, 1, 3] {
                    let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
                    assert_eq!(
                        codec.compress_view(&view).unwrap(),
                        materialized(&codec, &view),
                        "{w}x{h} at {scales} scales, delta {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn push_style_session_roundtrips_and_stays_bounded() {
        let (w, h) = (96usize, 256usize);
        let image = synth::ct_phantom(w, h, 12, 7);
        let codec = LosslessCodec::near_lossless(4, 3).unwrap();
        let mut encoder = codec.begin(w, h, 12).unwrap();
        assert_eq!((encoder.width(), encoder.height()), (w, h));
        let mut peak = 0usize;
        for y in 0..h {
            encoder.push_row(image.view().row(y));
            peak = peak.max(encoder.working_set_samples());
        }
        assert_eq!(encoder.rows_pushed(), h);
        let bytes = encoder.finish();
        assert!(peak < w * h / 4, "peak coefficient working set {peak} vs {} pixels", w * h);
        assert_eq!(bytes, materialized(&codec, &image.view()));
        let back = codec.decompress(&bytes).unwrap();
        assert!(lwc_image::stats::max_abs_diff(&image, &back).unwrap() <= 3);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let codec = LosslessCodec::new(3).unwrap();
        assert!(codec.begin(0, 4, 12).is_err());
        assert!(codec.begin(1 << 20, 4, 12).is_err());
        assert!(codec.begin(4, 4, 0).is_err());
    }
}
