//! Row-vector 5/3 lifting: the 1-D steps applied to whole lines at once.
//!
//! The vertical pass of the 2-D inverse and both z passes lift `n` *lines*
//! — image rows of `width` samples `stride` apart, or volume planes of
//! `plane_len` samples — along the axis that crosses them. Gathering one
//! column sample at a time walks memory with the line stride (16 KiB per
//! step at 4096²). These kernels instead run every lifting step over whole
//! contiguous lines, so each pass reads and writes long unit-stride runs.
//!
//! Every sample position runs the same integer formulas as
//! [`crate::forward_53`] / [`crate::inverse_53`] (64-bit intermediates,
//! mirror extension in the same index spaces), so the results are
//! bit-identical to the column-gather passes, which the test modules of
//! [`crate::Lifting53`] and [`crate::zaxis`] keep as references.

use crate::lifting1d::{approx_len, detail_len, mirror};

fn mirrored(k: usize, offset: i64, n: usize) -> usize {
    mirror(k as i64 + offset, n as i64) as usize
}

/// Forward lifting across the `n` lines of `data` (line `i` is
/// `data[i * stride..][..width]`), in place: afterwards lines
/// `0..ceil(n / 2)` hold the approximation and the rest the detail, as
/// [`crate::forward_53`] orders one signal. `scratch` receives the detail
/// lines while the approximation is written over the even lines, so it
/// grows to `floor(n / 2) * width` samples. `width` must be nonzero.
pub(crate) fn forward_lines(
    data: &mut [i32],
    stride: usize,
    width: usize,
    n: usize,
    scratch: &mut Vec<i32>,
) {
    let half_a = approx_len(n);
    let half_d = detail_len(n);
    if half_d == 0 {
        return;
    }
    scratch.clear();
    scratch.resize(half_d * width, 0);

    // Predict every detail line from its even neighbours; the last one of
    // an even-length axis mirrors its right neighbour in even-subsequence
    // index space.
    for (k, detail) in scratch.chunks_exact_mut(width).enumerate() {
        let left = &data[2 * k * stride..][..width];
        let odd = &data[(2 * k + 1) * stride..][..width];
        let right = &data[2 * mirrored(k, 1, half_a) * stride..][..width];
        for x in 0..width {
            let predicted = (left[x] as i64 + right[x] as i64) >> 1;
            detail[x] = (odd[x] as i64 - predicted) as i32;
        }
    }

    // Update the even lines into the approximation, packed to the front.
    // Line `k` is written from line `2k`, which no later step reads again.
    for k in 0..half_a {
        let dl = &scratch[mirrored(k, -1, half_d) * width..][..width];
        let dr = &scratch[mirrored(k, 0, half_d) * width..][..width];
        let update = |even: i32, x: usize| -> i32 {
            (even as i64 + ((dl[x] as i64 + dr[x] as i64 + 2) >> 2)) as i32
        };
        if k == 0 {
            for (x, slot) in data[..width].iter_mut().enumerate() {
                *slot = update(*slot, x);
            }
        } else {
            let (front, back) = data.split_at_mut(2 * k * stride);
            let even = &back[..width];
            let approx = &mut front[k * stride..][..width];
            for x in 0..width {
                approx[x] = update(even[x], x);
            }
        }
    }

    // The detail lines follow the approximation.
    for (k, detail) in scratch.chunks_exact(width).enumerate() {
        data[(half_a + k) * stride..][..width].copy_from_slice(detail);
    }
}

/// Inverse of [`forward_lines`], in place, calling `finished(line)` on every
/// reconstructed line as soon as it is final — the 2-D inverse runs its
/// horizontal pass there, while the line is still in cache.
///
/// The lines are rebuilt from the bottom up: step `k` reads approximation
/// lines `k` and its right neighbour `m`, and writes lines `2k` and
/// `2k + 1`, which no later (smaller) step reads. The even neighbour `m` is
/// undone again from its approximation line rather than stored, so every
/// intermediate stays in a 64-bit register exactly as in
/// [`crate::inverse_53`]. `scratch` holds a copy of the detail lines:
/// `floor(n / 2) * width` samples.
pub(crate) fn inverse_lines(
    data: &mut [i32],
    stride: usize,
    width: usize,
    n: usize,
    scratch: &mut Vec<i32>,
    mut finished: impl FnMut(&mut [i32]),
) {
    let half_a = approx_len(n);
    let half_d = detail_len(n);
    if half_d == 0 {
        for i in 0..n {
            finished(&mut data[i * stride..][..width]);
        }
        return;
    }
    scratch.clear();
    for k in 0..half_d {
        scratch.extend_from_slice(&data[(half_a + k) * stride..][..width]);
    }
    let detail = |k: usize| -> &[i32] { &scratch[k * width..][..width] };
    let undo_update =
        |a: i32, dl: i32, dr: i32| -> i64 { a as i64 - ((dl as i64 + dr as i64 + 2) >> 2) };

    for k in (0..half_a).rev() {
        let (dl, dr) = (detail(mirrored(k, -1, half_d)), detail(mirrored(k, 0, half_d)));
        if k >= half_d {
            // The odd-length tail: a lone even line, no detail partner.
            let (front, back) = data.split_at_mut(2 * k * stride);
            let approx = &front[k * stride..][..width];
            let even = &mut back[..width];
            for x in 0..width {
                even[x] = undo_update(approx[x], dl[x], dr[x]) as i32;
            }
            finished(even);
            continue;
        }
        // The right even neighbour of detail line `k`: line `k + 1`, or its
        // mirror at the end of an even-length axis.
        let m = mirrored(k, 1, half_a);
        let (ml, mr) = (detail(mirrored(m, -1, half_d)), detail(mirrored(m, 0, half_d)));
        let d = detail(k);
        let pair = |ak: i32, am: i32, x: usize| -> (i32, i32) {
            let even = undo_update(ak, dl[x], dr[x]);
            let right = undo_update(am, ml[x], mr[x]);
            (even as i32, (d[x] as i64 + ((even + right) >> 1)) as i32)
        };
        if k >= 2 {
            // Lines `k` and `m <= k + 1` lie wholly above line `2k`.
            let (front, back) = data.split_at_mut(2 * k * stride);
            let approx = &front[k * stride..][..width];
            let right = &front[m * stride..][..width];
            let (even_line, odd_line) = back.split_at_mut(stride);
            let even_line = &mut even_line[..width];
            let odd_line = &mut odd_line[..width];
            for x in 0..width {
                let (even, odd) = pair(approx[x], right[x], x);
                even_line[x] = even;
                odd_line[x] = odd;
            }
        } else {
            // The top two steps overlap their inputs; each sample is read
            // before the same position is written.
            for x in 0..width {
                let (even, odd) = pair(data[k * stride + x], data[m * stride + x], x);
                data[2 * k * stride + x] = even;
                data[(2 * k + 1) * stride + x] = odd;
            }
        }
        finished(&mut data[(2 * k + 1) * stride..][..width]);
        finished(&mut data[2 * k * stride..][..width]);
    }
}
