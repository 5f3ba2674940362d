//! Reversible 5/3 lifting along the z axis of a volume.
//!
//! The 3-D DWT of the volumetric datapath is **separable**: the 1-D kernels
//! of [`crate::forward_53`] run along z across slices, and each resulting
//! coefficient plane then goes through the ordinary 2-D transform. This
//! module supplies the z leg over a plane-major buffer (slice `z` occupies
//! `plane_len` consecutive samples). Each lifting step runs over whole
//! planes at a time (the row-vector kernels of the 2-D inverse), never over
//! gathered columns, and leaves the approximation planes in front of the
//! detail planes — the Mallat layout along z.
//!
//! The ragged pyramid of [`crate::geometry`] applies unchanged: level `s`
//! operates on the first `scaled_dim(depth, s)` planes, halving rounding up,
//! so **any** slice count (odd, prime, or one) decomposes to any depth.
//! With `z_scales = 0` both passes are no-ops, which is what makes the 3-D
//! codec bit-identical per slice to the 2-D path in that configuration.

use crate::geometry::scaled_dim;
use crate::rows::{forward_lines, inverse_lines};
use crate::LiftingError;

fn check_volume(samples: &[i32], plane_len: usize, depth: usize) -> Result<(), LiftingError> {
    if plane_len == 0 || depth == 0 || samples.len() != plane_len * depth {
        return Err(LiftingError::ConfigurationMismatch(format!(
            "buffer holds {} samples but the volume needs {} x {}",
            samples.len(),
            plane_len,
            depth
        )));
    }
    Ok(())
}

/// Forward 5/3 lifting along z, in place, over a plane-major buffer of
/// `depth` planes of `plane_len` samples each. After the call, planes
/// `0..ceil(n/2)` of each level hold z-approximation coefficients and the
/// remainder z-detail, per the Mallat convention. `z_scales = 0` leaves the
/// buffer untouched; levels past the point where the z pyramid saturates at
/// one plane are no-ops, exactly like the 2-D transform.
///
/// # Errors
///
/// Returns [`LiftingError::ConfigurationMismatch`] if the buffer length is
/// not `plane_len * depth` or either dimension is zero.
pub fn forward_z(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
) -> Result<(), LiftingError> {
    check_volume(samples, plane_len, depth)?;
    let mut scratch = Vec::new();
    for s in 0..z_levels(depth, z_scales) {
        forward_lines(samples, plane_len, plane_len, scaled_dim(depth, s), &mut scratch);
    }
    Ok(())
}

/// Inverse of [`forward_z`]: reconstructs the plane-major sample buffer from
/// its z-Mallat layout, in place. With the same `plane_len`, `depth` and
/// `z_scales` this exactly undoes the forward pass at any word length.
///
/// # Errors
///
/// Returns [`LiftingError::ConfigurationMismatch`] if the buffer length is
/// not `plane_len * depth` or either dimension is zero.
pub fn inverse_z(
    samples: &mut [i32],
    plane_len: usize,
    depth: usize,
    z_scales: u32,
) -> Result<(), LiftingError> {
    check_volume(samples, plane_len, depth)?;
    let mut scratch = Vec::new();
    for s in (0..z_levels(depth, z_scales)).rev() {
        inverse_lines(samples, plane_len, plane_len, scaled_dim(depth, s), &mut scratch, |_| {});
    }
    Ok(())
}

/// Number of z levels that do any work: level `s` lifts
/// `scaled_dim(depth, s)` planes, and past the point where that count
/// saturates at one plane every further level is a no-op. Counting stops
/// there, so a huge `z_scales` costs nothing.
fn z_levels(depth: usize, z_scales: u32) -> u32 {
    (0..z_scales).take_while(|&s| scaled_dim(depth, s) >= 2).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifting1d::{approx_len, forward_53, forward_53_into, inverse_53};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The column-gather forward pass: every in-plane position's
    /// column is gathered across slices, lifted with the 1-D kernel and
    /// scattered back. Kept as the reference for the plane-vector pass.
    fn reference_forward_z(samples: &mut [i32], plane_len: usize, depth: usize, z_scales: u32) {
        let mut column = vec![0i32; depth];
        let mut approx = vec![0i32; depth.div_ceil(2)];
        let mut detail = vec![0i32; depth / 2];
        for s in 0..z_scales {
            let n = scaled_dim(depth, s);
            if n < 2 {
                break;
            }
            let a_len = approx_len(n);
            for i in 0..plane_len {
                for (z, slot) in column[..n].iter_mut().enumerate() {
                    *slot = samples[z * plane_len + i];
                }
                forward_53_into(&column[..n], &mut approx[..a_len], &mut detail[..n - a_len]);
                for (z, &v) in approx[..a_len].iter().enumerate() {
                    samples[z * plane_len + i] = v;
                }
                for (z, &v) in detail[..n - a_len].iter().enumerate() {
                    samples[(a_len + z) * plane_len + i] = v;
                }
            }
        }
    }

    /// The column-gather inverse pass, kept as the reference.
    fn reference_inverse_z(samples: &mut [i32], plane_len: usize, depth: usize, z_scales: u32) {
        let mut approx = vec![0i32; depth.div_ceil(2)];
        let mut detail = vec![0i32; depth / 2];
        for s in (0..z_scales).rev() {
            let n = scaled_dim(depth, s);
            if n < 2 {
                continue;
            }
            let a_len = approx_len(n);
            for i in 0..plane_len {
                for (z, slot) in approx[..a_len].iter_mut().enumerate() {
                    *slot = samples[z * plane_len + i];
                }
                for (z, slot) in detail[..n - a_len].iter_mut().enumerate() {
                    *slot = samples[(a_len + z) * plane_len + i];
                }
                let column = inverse_53(&approx[..a_len], &detail[..n - a_len]);
                for (z, &v) in column.iter().enumerate() {
                    samples[z * plane_len + i] = v;
                }
            }
        }
    }

    #[test]
    fn plane_vector_passes_match_the_column_reference() {
        for depth in 1usize..=17 {
            for z_scales in 0u32..=6 {
                for plane_len in [1usize, 6, 13] {
                    let seed = (depth * 100 + plane_len) as u64 + u64::from(z_scales);
                    let original = random_volume(plane_len, depth, seed);
                    let mut fast = original.clone();
                    let mut reference = original.clone();
                    forward_z(&mut fast, plane_len, depth, z_scales).unwrap();
                    reference_forward_z(&mut reference, plane_len, depth, z_scales);
                    assert_eq!(fast, reference, "forward depth={depth} z_scales={z_scales}");
                    // Diff the inverse on arbitrary coefficients too, not
                    // only on the forward pass's output.
                    let coeffs = random_volume(plane_len, depth, seed + 7);
                    let mut fast = coeffs.clone();
                    let mut reference = coeffs;
                    inverse_z(&mut fast, plane_len, depth, z_scales).unwrap();
                    reference_inverse_z(&mut reference, plane_len, depth, z_scales);
                    assert_eq!(fast, reference, "inverse depth={depth} z_scales={z_scales}");
                }
            }
        }
    }

    #[test]
    fn huge_z_scales_stop_at_the_saturated_level() {
        // Regression: the inverse used to visit every one of 2^32 - 1 levels
        // (each a no-op once the pyramid saturates), which never returned.
        let original = random_volume(5, 9, 4);
        let mut data = original.clone();
        forward_z(&mut data, 5, 9, u32::MAX).unwrap();
        let mut reference = original.clone();
        reference_forward_z(&mut reference, 5, 9, 6);
        assert_eq!(data, reference, "levels past saturation are no-ops");
        inverse_z(&mut data, 5, 9, u32::MAX).unwrap();
        assert_eq!(data, original);
    }

    fn random_volume(plane_len: usize, depth: usize, seed: u64) -> Vec<i32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..plane_len * depth).map(|_| rng.gen_range(-40960..40960)).collect()
    }

    #[test]
    fn roundtrip_is_exact_for_any_depth_and_scales() {
        for depth in [1usize, 2, 3, 4, 5, 7, 8, 11, 16, 17] {
            for z_scales in [0u32, 1, 2, 3, 6] {
                let original = random_volume(13, depth, depth as u64 + z_scales as u64);
                let mut data = original.clone();
                forward_z(&mut data, 13, depth, z_scales).unwrap();
                if z_scales == 0 || depth == 1 {
                    assert_eq!(data, original, "z_scales = 0 must be the identity");
                }
                inverse_z(&mut data, 13, depth, z_scales).unwrap();
                assert_eq!(data, original, "depth={depth} z_scales={z_scales}");
            }
        }
    }

    #[test]
    fn matches_the_1d_kernel_column_by_column() {
        // One z level over an even number of planes is exactly forward_53
        // applied to every (x, y) column.
        let plane_len = 7;
        let depth = 6;
        let original = random_volume(plane_len, depth, 3);
        let mut data = original.clone();
        forward_z(&mut data, plane_len, depth, 1).unwrap();
        for i in 0..plane_len {
            let column: Vec<i32> = (0..depth).map(|z| original[z * plane_len + i]).collect();
            let (a, d) = forward_53(&column);
            let got: Vec<i32> = (0..depth).map(|z| data[z * plane_len + i]).collect();
            assert_eq!(&got[..a.len()], &a[..], "column {i} approximation");
            assert_eq!(&got[a.len()..], &d[..], "column {i} detail");
        }
    }

    #[test]
    fn deep_decompositions_saturate_instead_of_failing() {
        let mut data = random_volume(5, 3, 9);
        let original = data.clone();
        forward_z(&mut data, 5, 3, 16).unwrap();
        inverse_z(&mut data, 5, 3, 16).unwrap();
        assert_eq!(data, original);
    }

    #[test]
    fn constant_columns_have_zero_z_detail() {
        let plane_len = 4;
        let depth = 8;
        let mut data: Vec<i32> = (0..plane_len * depth).map(|i| (i % plane_len) as i32).collect();
        forward_z(&mut data, plane_len, depth, 2).unwrap();
        // Detail planes of both levels are all zero; the two remaining
        // approximation planes keep the per-column DC level.
        for z in 0..depth {
            for i in 0..plane_len {
                assert_eq!(data[z * plane_len + i], if z < 2 { i as i32 } else { 0 });
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut data = vec![0i32; 10];
        assert!(forward_z(&mut data, 3, 3, 1).is_err());
        assert!(forward_z(&mut data, 0, 10, 1).is_err());
        assert!(forward_z(&mut data, 10, 0, 1).is_err());
        assert!(inverse_z(&mut data, 3, 3, 1).is_err());
    }
}
