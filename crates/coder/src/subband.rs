//! Subband-by-subband serialization of a multi-scale decomposition.
//!
//! Wavelet detail subbands of medical images are mostly near-zero noise with
//! localized heavy tails along tissue boundaries. A single Rice parameter per
//! subband would be dragged up by those edges, so the codec is
//! **block adaptive** (as in CCSDS 121 / JPEG-LS run mode): the subband is
//! split into fixed-size blocks and every block carries its own 5-bit
//! parameter chosen to minimize that block's cost.

use crate::bitio::{BitReader, BitWriter};
use crate::rice::{self, MAX_RICE_PARAMETER};
use crate::CoderError;

/// Number of samples coded with one shared Rice parameter.
pub const BLOCK_SIZE: usize = 64;

/// Upper bound on the unary run length (quotient plus terminator, in bits) of
/// any value the block-adaptive encoder emits — for **any** `i32` input, not
/// just plan-conformant coefficients.
///
/// Why no escape code is needed: within a block of `B <= BLOCK_SIZE` samples
/// the parameter is `k = optimal_parameter(block)`, which satisfies
/// `2^(k+1) > mean + 1` unless capped at [`MAX_RICE_PARAMETER`]. For any
/// zig-zagged value `u` in the block, `u <= sum(u_i) = B * mean`, so the
/// quotient obeys
///
/// ```text
/// u >> k  <=  u / 2^k  <  2u / (mean + 1)  <=  2 * B * mean / (mean + 1)  <  2B
/// ```
///
/// and in the capped case `k = 30` the largest zig-zag value (`2^32 - 1`,
/// from `i32::MIN`) still quotients to at most 3. The run is therefore at
/// most `max(2B, 4) <= 2 * BLOCK_SIZE` bits, which the tests below exercise
/// with adversarial blocks. This is why the stream format can stay
/// escape-free (and byte-stable) while [`crate::bitio::BitWriter::write_unary`]
/// never sees a pathological run from the encoder.
pub const MAX_UNARY_RUN_BITS: u64 = 2 * BLOCK_SIZE as u64;

/// Encodes/decodes the subbands of an integer wavelet decomposition with a
/// block-adaptive Rice code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubbandCodec;

impl SubbandCodec {
    /// Creates a codec.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Encodes one subband as a sequence of `BLOCK_SIZE` (64) sample blocks,
    /// each preceded by its 5-bit Rice parameter. Returns the number of bits
    /// written.
    pub fn encode_subband(self, writer: &mut BitWriter, samples: &[i32]) -> u64 {
        let before = writer.bit_len();
        for block in samples.chunks(BLOCK_SIZE) {
            encode_block(writer, block);
        }
        writer.bit_len() - before
    }

    /// Decodes one subband of `count` samples into a new vector: allocate,
    /// then one [`StreamingSubbandDecoder::fill`] over the whole band.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream is truncated or
    /// a stored parameter is out of range.
    pub fn decode_subband(
        self,
        reader: &mut BitReader<'_>,
        count: usize,
    ) -> Result<Vec<i32>, CoderError> {
        let mut out = vec![0; count];
        StreamingSubbandDecoder::new(count).fill(reader, &mut out)?;
        Ok(out)
    }

    /// Advances `reader` past one subband of `count` samples without
    /// materializing the values (each codeword is still parsed, but nothing
    /// is zig-zag decoded or collected).
    ///
    /// This is how the parallel decoder builds its subband directory from a
    /// plain sequential stream: one cheap scan finds every subband's bit
    /// offset, then the subbands decode concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream is truncated or
    /// a stored parameter is out of range.
    pub fn skip_subband(self, reader: &mut BitReader<'_>, count: usize) -> Result<(), CoderError> {
        let mut remaining = count;
        while remaining > 0 {
            let block_len = remaining.min(BLOCK_SIZE);
            let k = read_parameter(reader)?;
            for _ in 0..block_len {
                reader.read_unary_then_bits(k)?;
            }
            remaining -= block_len;
        }
        Ok(())
    }
}

/// Reads one block's 5-bit Rice parameter, rejecting values above
/// [`MAX_RICE_PARAMETER`].
fn read_parameter(reader: &mut BitReader<'_>) -> Result<u32, CoderError> {
    let k = reader.read_bits(5)? as u32;
    if k > MAX_RICE_PARAMETER {
        return Err(CoderError::MalformedStream(format!(
            "rice parameter {k} exceeds the supported maximum"
        )));
    }
    Ok(k)
}

/// Encodes one block (at most [`BLOCK_SIZE`] samples): the 5-bit Rice
/// parameter chosen by the block-mean rule, then the zig-zagged values.
///
/// Zig-zags the block once into a stack scratch, summing for the parameter
/// rule in the same pass; the value coder then consumes the mapped values
/// without re-mapping. Shared by [`SubbandCodec::encode_subband`] and
/// [`StreamingSubbandEncoder`], so the streamed and one-shot encodings are
/// the same code, not merely equivalent.
fn encode_block(writer: &mut BitWriter, block: &[i32]) {
    debug_assert!(!block.is_empty() && block.len() <= BLOCK_SIZE);
    let mut zigzag = [0u64; BLOCK_SIZE];
    let mut sum = 0u64;
    for (slot, &v) in zigzag.iter_mut().zip(block) {
        let u = rice::zigzag_encode(v);
        *slot = u;
        sum += u;
    }
    let mapped = &zigzag[..block.len()];
    let k = rice::parameter_for_zigzag_sum(sum, mapped.len());
    writer.write_bits(u64::from(k), 5);
    for &u in mapped {
        rice::encode_zigzag(writer, u, k);
    }
}

/// Incremental counterpart of [`SubbandCodec::encode_subband`] for one
/// subband: samples are pushed in arbitrarily sized batches (e.g. row by row
/// from a line-based transform) and encoded block by block as soon as a full
/// [`BLOCK_SIZE`] block accumulates, so at most one partial block is ever
/// buffered.
///
/// Because the block-adaptive code is strictly sequential per subband — each
/// block's parameter depends only on that block — the finished bitstream is
/// **bit-identical** to a one-shot [`SubbandCodec::encode_subband`] over the
/// concatenated samples; the tests below diff ragged push schedules against
/// the one-shot encoder.
#[derive(Debug, Default)]
pub struct StreamingSubbandEncoder {
    writer: BitWriter,
    pending: Vec<i32>,
}

impl StreamingSubbandEncoder {
    /// Creates an encoder for one subband.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends samples, encoding every full block they complete.
    pub fn push(&mut self, mut samples: &[i32]) {
        if !self.pending.is_empty() {
            let need = BLOCK_SIZE - self.pending.len();
            let take = need.min(samples.len());
            self.pending.extend_from_slice(&samples[..take]);
            samples = &samples[take..];
            if self.pending.len() == BLOCK_SIZE {
                encode_block(&mut self.writer, &self.pending);
                self.pending.clear();
            }
        }
        let mut chunks = samples.chunks_exact(BLOCK_SIZE);
        for block in &mut chunks {
            encode_block(&mut self.writer, block);
        }
        self.pending.extend_from_slice(chunks.remainder());
    }

    /// Samples buffered awaiting a full block (always below [`BLOCK_SIZE`]).
    #[must_use]
    pub fn buffered_samples(&self) -> usize {
        self.pending.len()
    }

    /// Bits emitted so far (excluding the buffered partial block).
    #[must_use]
    pub fn encoded_bits(&self) -> u64 {
        self.writer.bit_len()
    }

    /// Encodes the final partial block, if any, and returns the subband's
    /// bitstream as `(bytes, exact bit length)` — ready for
    /// [`BitWriter::append`]-style splicing into a stream.
    #[must_use]
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        if !self.pending.is_empty() {
            encode_block(&mut self.writer, &self.pending);
        }
        let bits = self.writer.bit_len();
        (self.writer.into_bytes(), bits)
    }
}

/// Row-fill counterpart of [`StreamingSubbandEncoder`] for one subband of
/// `count` samples: the caller hands it slices in stream order — typically
/// each row of the band's rectangle inside the frame being reconstructed —
/// and it fills them straight from the bitstream. The current block's Rice
/// parameter and the samples left in that block carry across calls, so a
/// block may span rows and a row may span blocks.
///
/// Filling any split of the band decodes exactly what one
/// [`SubbandCodec::decode_subband`] call returns; that method is this
/// decoder run over one freshly allocated slice.
#[derive(Debug, Clone)]
pub struct StreamingSubbandDecoder {
    /// Samples of the band not yet decoded.
    remaining: usize,
    /// Samples of the current block not yet decoded (0 before a block's
    /// parameter has been read).
    block_left: usize,
    /// Rice parameter of the current block.
    k: u32,
}

impl StreamingSubbandDecoder {
    /// Creates a decoder for one subband of `count` samples.
    #[must_use]
    pub fn new(count: usize) -> Self {
        Self { remaining: count, block_left: 0, k: 0 }
    }

    /// Decodes the next `out.len()` samples of the band into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the stream is truncated or
    /// a stored parameter is out of range. The decoder and `out` are then in
    /// an unspecified state.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the samples of the band not yet
    /// decoded.
    pub fn fill(&mut self, reader: &mut BitReader<'_>, out: &mut [i32]) -> Result<(), CoderError> {
        assert!(
            out.len() <= self.remaining,
            "{} samples requested but only {} remain in the subband",
            out.len(),
            self.remaining
        );
        let mut out = out;
        while !out.is_empty() {
            if self.block_left == 0 {
                self.k = read_parameter(reader)?;
                self.block_left = self.remaining.min(BLOCK_SIZE);
            }
            let take = self.block_left.min(out.len());
            let (head, tail) = out.split_at_mut(take);
            reader.read_codewords(self.k, head, rice::zigzag_decode)?;
            self.block_left -= take;
            self.remaining -= take;
            out = tail;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn streaming_encoder_matches_one_shot_for_ragged_pushes() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<i32> = (0..1000).map(|_| rng.gen_range(-5000..5000)).collect();
        let mut reference = BitWriter::new();
        let reference_bits = SubbandCodec::new().encode_subband(&mut reference, &samples);

        for push_sizes in [vec![1000], vec![1; 1000], vec![37, 64, 640, 259], vec![63, 65, 872]] {
            let mut enc = StreamingSubbandEncoder::new();
            let mut offset = 0;
            for size in push_sizes {
                enc.push(&samples[offset..offset + size]);
                offset += size;
                assert!(enc.buffered_samples() < BLOCK_SIZE);
            }
            assert_eq!(offset, samples.len());
            let (bytes, bits) = enc.finish();
            assert_eq!(bits, reference_bits);
            assert_eq!(bytes, reference.clone().into_bytes());
        }
    }

    /// Fills `count` samples through the row-fill decoder in rows of
    /// `width` (the last row ragged), as the frame decoder does.
    fn fill_in_rows(bytes: &[u8], count: usize, width: usize) -> Result<Vec<i32>, CoderError> {
        let mut reader = BitReader::new(bytes);
        let mut decoder = StreamingSubbandDecoder::new(count);
        let mut out = vec![0; count];
        for row in out.chunks_mut(width) {
            decoder.fill(&mut reader, row)?;
        }
        Ok(out)
    }

    #[test]
    fn row_fill_decoder_matches_decode_subband_on_ragged_rows() {
        let mut rng = StdRng::seed_from_u64(17);
        for count in [0usize, 1, 63, 64, 65, 200, 1031] {
            let samples: Vec<i32> = (0..count)
                .map(|i| {
                    if i % 97 == 5 {
                        rng.gen_range(-40_000..40_000)
                    } else {
                        rng.gen_range(-9..9)
                    }
                })
                .collect();
            let mut w = BitWriter::new();
            SubbandCodec::new().encode_subband(&mut w, &samples);
            let bits = w.bit_len();
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let reference = SubbandCodec::new().decode_subband(&mut r, count).unwrap();
            assert_eq!(reference, samples);
            assert_eq!(r.bits_read(), bits);
            for width in [1usize, 63, 64, 65, 97] {
                assert_eq!(
                    fill_in_rows(&bytes, count, width).unwrap(),
                    reference,
                    "{count}/{width}"
                );
            }
        }
    }

    #[test]
    fn row_fill_decoder_rejects_every_truncation_and_wide_parameters() {
        let mut rng = StdRng::seed_from_u64(29);
        let samples: Vec<i32> = (0..300).map(|_| rng.gen_range(-3000..3000)).collect();
        let mut w = BitWriter::new();
        SubbandCodec::new().encode_subband(&mut w, &samples);
        let bytes = w.into_bytes();
        for len in 0..bytes.len() {
            for width in [1usize, 63, 64, 65, 97] {
                assert!(
                    matches!(
                        fill_in_rows(&bytes[..len], samples.len(), width),
                        Err(CoderError::MalformedStream(_))
                    ),
                    "prefix of {len} bytes, rows of {width}"
                );
            }
        }
        for k in (MAX_RICE_PARAMETER + 1)..32 {
            let mut w = BitWriter::new();
            w.write_bits(u64::from(k), 5);
            w.write_bits(0, 64);
            let bytes = w.into_bytes();
            assert!(matches!(fill_in_rows(&bytes, 4, 3), Err(CoderError::MalformedStream(_))));
        }
        // A second block with a bad parameter is caught mid-row, too.
        let mut w = BitWriter::new();
        SubbandCodec::new().encode_subband(&mut w, &[0; BLOCK_SIZE]);
        w.write_bits(31, 5);
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        assert!(matches!(
            fill_in_rows(&bytes, BLOCK_SIZE + 4, 65),
            Err(CoderError::MalformedStream(_))
        ));
    }

    #[test]
    fn streaming_encoder_handles_the_empty_subband() {
        let enc = StreamingSubbandEncoder::new();
        let (bytes, bits) = enc.finish();
        assert!(bytes.is_empty());
        assert_eq!(bits, 0);
    }

    #[test]
    fn subband_roundtrip() {
        let codec = SubbandCodec::new();
        let mut rng = StdRng::seed_from_u64(1);
        let bands: Vec<Vec<i32>> = (0..6)
            .map(|scale| {
                let spread = 1 << scale;
                (0..300).map(|_| rng.gen_range(-spread..=spread)).collect()
            })
            .collect();
        let mut w = BitWriter::new();
        for band in &bands {
            assert!(codec.encode_subband(&mut w, band) > 0);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for band in &bands {
            assert_eq!(codec.decode_subband(&mut r, band.len()).unwrap(), *band);
        }
    }

    #[test]
    fn sparse_subbands_cost_little() {
        let codec = SubbandCodec::new();
        let band = vec![0i32; 4096];
        let mut w = BitWriter::new();
        let bits = codec.encode_subband(&mut w, &band);
        let blocks = band.len().div_ceil(BLOCK_SIZE) as u64;
        assert!(
            bits <= 5 * blocks + band.len() as u64,
            "all-zero subband should cost about one bit per sample plus headers"
        );
    }

    #[test]
    fn block_adaptation_beats_a_single_parameter() {
        // Mostly tiny values with one block of large "edge" coefficients: the
        // block-adaptive code must not let the edges inflate the cost of the
        // quiet blocks.
        let mut samples = vec![0i32; 1024];
        for (i, v) in samples.iter_mut().enumerate() {
            *v = if (512..576).contains(&i) { 2000 } else { (i % 3) as i32 - 1 };
        }
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        let adaptive_bits = codec.encode_subband(&mut w, &samples);

        let mut single = BitWriter::new();
        let k = rice::optimal_parameter(&samples);
        rice::encode_slice(&mut single, &samples, k);
        let single_bits = single.bit_len();

        assert!(
            adaptive_bits < single_bits / 2,
            "adaptive {adaptive_bits} bits vs single-parameter {single_bits} bits"
        );
    }

    #[test]
    fn corrupt_parameter_is_rejected() {
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        w.write_bits(31, 5); // parameter above MAX_RICE_PARAMETER
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(codec.decode_subband(&mut r, 4).is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &[5, -5, 9, -9]);
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert!(codec.decode_subband(&mut r, 4).is_err());
    }

    #[test]
    fn skip_subband_lands_exactly_on_the_next_subband() {
        let codec = SubbandCodec::new();
        let mut rng = StdRng::seed_from_u64(9);
        let first: Vec<i32> = (0..333).map(|_| rng.gen_range(-4000..4000)).collect();
        let second: Vec<i32> = (0..100).map(|_| rng.gen_range(-7..7)).collect();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &first);
        let first_bits = w.bit_len();
        codec.encode_subband(&mut w, &second);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        codec.skip_subband(&mut r, first.len()).unwrap();
        assert_eq!(r.bits_read(), first_bits);
        assert_eq!(codec.decode_subband(&mut r, second.len()).unwrap(), second);
    }

    #[test]
    fn skip_subband_rejects_truncation_and_bad_parameters() {
        let codec = SubbandCodec::new();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &[100, -100, 300, -300]);
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut r = BitReader::new(&bytes);
        assert!(codec.skip_subband(&mut r, 4).is_err());

        let mut w = BitWriter::new();
        w.write_bits(31, 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(codec.skip_subband(&mut r, 4).is_err());
    }

    /// The [`MAX_UNARY_RUN_BITS`] bound: even adversarial blocks — a lone
    /// extreme value among zeros is the worst case for the mean-based
    /// parameter rule — never make the encoder emit a unary run beyond
    /// `2 * BLOCK_SIZE` bits, so no escape code is needed.
    #[test]
    fn encoder_unary_runs_never_exceed_the_documented_bound() {
        let mut adversarial: Vec<Vec<i32>> = vec![
            // Lone spikes that drag the block mean down.
            {
                let mut v = vec![0i32; BLOCK_SIZE];
                v[17] = i32::MIN;
                v
            },
            {
                let mut v = vec![0i32; BLOCK_SIZE];
                v[0] = i32::MAX;
                v
            },
            // Saturated blocks (parameter capped at MAX_RICE_PARAMETER).
            vec![i32::MIN; BLOCK_SIZE],
            vec![i32::MAX; 2 * BLOCK_SIZE + 1],
            // Tiny partial blocks, including the capped single-sample case.
            vec![i32::MIN],
            vec![i32::MAX, 0],
            vec![0, 0, -1, i32::MIN, 1, 0, 0],
        ];
        let mut rng = StdRng::seed_from_u64(21);
        adversarial.extend((0..50).map(|_| {
            let len = rng.gen_range(1..=2 * BLOCK_SIZE);
            (0..len).map(|_| rng.gen_range(i32::MIN..=i32::MAX)).collect::<Vec<i32>>()
        }));

        let codec = SubbandCodec::new();
        for samples in &adversarial {
            let mut w = BitWriter::new();
            codec.encode_subband(&mut w, samples);
            let bytes = w.into_bytes();
            // Re-parse the stream measuring every unary run.
            let mut r = BitReader::new(&bytes);
            let mut remaining = samples.len();
            while remaining > 0 {
                let block_len = remaining.min(BLOCK_SIZE);
                let k = r.read_bits(5).unwrap();
                for _ in 0..block_len {
                    let quotient = r.read_unary().unwrap();
                    assert!(
                        quotient < MAX_UNARY_RUN_BITS,
                        "unary run of {} bits exceeds the bound {MAX_UNARY_RUN_BITS}",
                        quotient + 1
                    );
                    r.skip_bits(k).unwrap();
                }
                remaining -= block_len;
            }
            // And the stream still round-trips.
            let mut r = BitReader::new(&bytes);
            assert_eq!(codec.decode_subband(&mut r, samples.len()).unwrap(), *samples);
        }
    }

    #[test]
    fn partial_final_block_roundtrips() {
        let codec = SubbandCodec::new();
        let samples: Vec<i32> = (0..(BLOCK_SIZE as i32 * 2 + 7)).map(|i| i % 11 - 5).collect();
        let mut w = BitWriter::new();
        codec.encode_subband(&mut w, &samples);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(codec.decode_subband(&mut r, samples.len()).unwrap(), samples);
    }
}
