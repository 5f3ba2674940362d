//! Rice/Golomb coding of signed integers.
//!
//! Wavelet detail coefficients of natural and medical images follow sharply
//! peaked, roughly two-sided-geometric distributions, for which Rice codes
//! (Golomb codes with a power-of-two parameter) are within a few percent of
//! the entropy at negligible computational cost — which is why JPEG-LS and
//! CCSDS use them. Signed values are mapped to unsigned ones with the usual
//! zig-zag map before coding.

use crate::bitio::{BitReader, BitWriter};
use crate::CoderError;

/// Largest Rice parameter the coder will choose or accept.
pub const MAX_RICE_PARAMETER: u32 = 30;

/// Maps a signed integer onto a non-negative one (0, -1, 1, -2, 2, … →
/// 0, 1, 2, 3, 4, …).
#[must_use]
#[inline]
pub fn zigzag_encode(value: i32) -> u64 {
    ((i64::from(value) << 1) ^ (i64::from(value) >> 31)) as u64
}

/// Inverse of [`zigzag_encode`].
#[must_use]
#[inline]
pub fn zigzag_decode(value: u64) -> i32 {
    ((value >> 1) as i64 ^ -((value & 1) as i64)) as i32
}

/// Chooses the Rice parameter that minimizes the coded length of `values`
/// under the standard mean-based rule.
#[must_use]
pub fn optimal_parameter(values: &[i32]) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let mean: f64 =
        values.iter().map(|&v| zigzag_encode(v) as f64).sum::<f64>() / values.len() as f64;
    parameter_for_mean(mean)
}

/// [`optimal_parameter`] from the sum and count of zig-zag mapped values.
///
/// For up to `2^21` values the integer sum is exactly the sequential `f64`
/// sum [`optimal_parameter`] computes (every partial sum stays below
/// `2^53`), so both select the same parameter and the stream stays
/// byte-identical.
#[must_use]
pub fn parameter_for_zigzag_sum(sum: u64, count: usize) -> u32 {
    if count == 0 {
        return 0;
    }
    parameter_for_mean(sum as f64 / count as f64)
}

fn parameter_for_mean(mean: f64) -> u32 {
    let mut k = 0;
    while k < MAX_RICE_PARAMETER && (1u64 << (k + 1)) as f64 <= mean + 1.0 {
        k += 1;
    }
    k
}

/// Writes one value with Rice parameter `k`.
///
/// The unary quotient is unbounded for arbitrary `(value, k)` pairs, but
/// when `k` comes from [`optimal_parameter`] over the block containing
/// `value` the run never exceeds [`crate::MAX_UNARY_RUN_BITS`] bits (see the
/// derivation there), which is why the stream format needs no escape code.
pub fn encode_value(writer: &mut BitWriter, value: i32, k: u32) {
    encode_zigzag(writer, zigzag_encode(value), k);
}

/// Writes one already zig-zag mapped value with Rice parameter `k`.
#[inline]
pub fn encode_zigzag(writer: &mut BitWriter, u: u64, k: u32) {
    let quotient = u >> k;
    let remainder = u & ((1u64 << k) - 1);
    let total = quotient + 1 + u64::from(k);
    if total <= 32 {
        // Fast path: the whole codeword — `quotient` ones, the zero
        // terminator, then the remainder — fits one `write_bits` field of
        // at most the writer's 32-bit chunk.
        writer.write_bits((((1 << (quotient + 1)) - 2) << k) | remainder, total as u32);
    } else {
        writer.write_unary(quotient);
        writer.write_bits(remainder, k);
    }
}

/// Reads one value coded with Rice parameter `k`.
///
/// # Errors
///
/// Returns [`CoderError::MalformedStream`] at end of input.
#[inline]
pub fn decode_value(reader: &mut BitReader<'_>, k: u32) -> Result<i32, CoderError> {
    let (quotient, remainder) = reader.read_unary_then_bits(k)?;
    Ok(zigzag_decode((quotient << k) | remainder))
}

/// Encodes a whole slice with a single parameter, returning the number of
/// bits written.
pub fn encode_slice(writer: &mut BitWriter, values: &[i32], k: u32) -> u64 {
    let before = writer.bit_len();
    for &v in values {
        encode_value(writer, v, k);
    }
    writer.bit_len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zigzag_is_a_bijection_on_interesting_values() {
        for v in [-1_000_000, -4096, -3, -1, 0, 1, 2, 4095, 1_000_000, i32::MIN, i32::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn value_roundtrip_over_parameters() {
        for k in [0u32, 1, 3, 7, 12] {
            let mut w = BitWriter::new();
            let values = [-100, -5, -1, 0, 1, 4, 77, 4095];
            for &v in &values {
                encode_value(&mut w, v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(decode_value(&mut r, k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn wide_parameters_beyond_32_bits_still_roundtrip() {
        // Parameters above MAX_RICE_PARAMETER are rejected by the subband
        // layer but legal through the raw rice API; the decoder must handle
        // remainder fields wider than the combined-read fast path.
        for k in [33u32, 40, 57, 63] {
            let mut w = BitWriter::new();
            let values = [0, 1, -1, i32::MAX, i32::MIN];
            for &v in &values {
                encode_value(&mut w, v, k);
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                assert_eq!(decode_value(&mut r, k).unwrap(), v, "k={k}");
            }
        }
    }

    #[test]
    fn slice_roundtrip_with_random_data() {
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<i32> = (0..500).map(|_| rng.gen_range(-300..300)).collect();
        let k = optimal_parameter(&values);
        let mut w = BitWriter::new();
        let bits = encode_slice(&mut w, &values, k);
        assert!(bits > 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let back: Vec<i32> = values.iter().map(|_| decode_value(&mut r, k).unwrap()).collect();
        assert_eq!(back, values);
    }

    #[test]
    fn optimal_parameter_tracks_magnitude() {
        let small = vec![0, 1, -1, 0, 2, -2, 0, 0];
        let large = vec![1000, -900, 1200, -1100, 950, -1050];
        assert!(optimal_parameter(&small) <= 2);
        assert!(optimal_parameter(&large) >= 9);
        assert_eq!(optimal_parameter(&[]), 0);
    }

    #[test]
    fn peaked_distributions_compress_well() {
        // Two-sided geometric-ish data: mostly zeros with occasional spikes.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<i32> =
            (0..4000).map(|_| if rng.gen_bool(0.85) { 0 } else { rng.gen_range(-6..=6) }).collect();
        let k = optimal_parameter(&values);
        let mut w = BitWriter::new();
        encode_slice(&mut w, &values, k);
        let bits_per_sample = w.bit_len() as f64 / values.len() as f64;
        assert!(
            bits_per_sample < 2.5,
            "peaked data should cost well under 2.5 bits/sample, got {bits_per_sample}"
        );
    }

    #[test]
    fn parameter_zero_is_pure_unary() {
        let mut w = BitWriter::new();
        encode_value(&mut w, 2, 0); // zigzag 4 -> 11110
        assert_eq!(w.bit_len(), 5);
    }
}
