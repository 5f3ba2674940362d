//! Seeded input generators.
//!
//! Every input a workload uses is made here from the run's `--seed`, before
//! any timing starts. The generators are built to be cheap (a few
//! nanoseconds per sample) so set-up time stays small: the library's
//! `synth::ct_phantom` supersamples eight ellipses per pixel and costs
//! seconds per large frame, which would swamp `setup_s`.

use lwc_image::{Image, ImageStack};

/// Bit depth of every generated frame: 12-bit, as CT and digital
/// radiography store it.
pub const BIT_DEPTH: u32 = 12;

const MAX_SAMPLE: f32 = ((1 << BIT_DEPTH) - 1) as f32;

/// SplitMix64: a small, fast, seedable generator (the workspace `rand` shim
/// is not needed for inputs this simple).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Two independent triangular noise values in `(-amplitude, amplitude)`
    /// from one draw — the sum of two uniforms, a cheap stand-in for
    /// Gaussian acquisition noise.
    fn noise_pair(&mut self, amplitude: f32) -> (f32, f32) {
        let bits = self.next_u64();
        let u = |shift: u32| ((bits >> shift) & 0xFFFF) as f32 / 65536.0;
        ((u(0) + u(16) - 1.0) * amplitude, (u(32) + u(48) - 1.0) * amplitude)
    }
}

/// Anti-aliased coverage of an axis-aligned ellipse along one row: for each
/// `x` the fraction of the pixel inside, with a one-pixel soft edge like a
/// detector's point-spread function.
fn ellipse_row(cx: f32, cy: f32, rx: f32, ry: f32, y: f32, width: usize, out: &mut [f32]) {
    out.fill(0.0);
    let dy = (y - cy) / ry;
    if dy.abs() >= 1.0 {
        return;
    }
    let half = rx * (1.0 - dy * dy).sqrt();
    let lo = (cx - half - 1.0).floor().max(0.0) as usize;
    let hi = ((cx + half + 1.0).ceil() as usize).min(width);
    for (x, slot) in out.iter_mut().enumerate().take(hi).skip(lo) {
        *slot = (half - (x as f32 + 0.5 - cx).abs() + 0.5).clamp(0.0, 1.0);
    }
}

/// A digital radiograph (chest/mammography-sized frame): a smooth exposure
/// field, a soft-edged body outline with two lung fields, a rib pattern and
/// signal-dependent quantum noise.
pub fn radiograph(size: usize, seed: u64) -> Image {
    let mut rng = Rng::new(seed);
    let s = size as f32;
    let (cx, cy) = (s * rng.range(0.47, 0.53), s * rng.range(0.47, 0.53));
    let body = (s * rng.range(0.40, 0.44), s * rng.range(0.44, 0.48));
    let lung_dx = s * rng.range(0.17, 0.20);
    let lung = (s * rng.range(0.12, 0.14), s * rng.range(0.26, 0.30));
    let rib_period = s * rng.range(0.045, 0.055);
    let rib_phase = rng.range(0.0, std::f32::consts::TAU);
    let curvature = rng.range(0.6, 1.0) / s;
    // Separable exposure fall-off (heel effect and field edges).
    let profile = |c: f32, spread: f32| -> Vec<f32> {
        (0..size).map(|i| (-((i as f32 - c) / (s * spread)).powi(2)).exp()).collect()
    };
    let fx = profile(cx, 0.9);
    let fy = profile(cy, 1.1);
    // Ribs: a periodic profile along y, bent into arcs by a per-column
    // offset, looked up from one table so the inner loop stays cheap.
    let bend: Vec<usize> =
        (0..size).map(|x| ((x as f32 - cx).powi(2) * curvature) as usize).collect();
    let rib_table: Vec<f32> = (0..2 * size + 2)
        .map(|i| {
            let t = (i as f32 / rib_period) * std::f32::consts::TAU + rib_phase;
            t.sin().max(0.0).powi(3)
        })
        .collect();
    let mut body_row = vec![0.0f32; size];
    let mut left_row = vec![0.0f32; size];
    let mut right_row = vec![0.0f32; size];
    let mut samples = Vec::with_capacity(size * size);
    for y in 0..size {
        let yf = y as f32 + 0.5;
        ellipse_row(cx, cy, body.0, body.1, yf, size, &mut body_row);
        ellipse_row(cx - lung_dx, cy - s * 0.03, lung.0, lung.1, yf, size, &mut left_row);
        ellipse_row(cx + lung_dx, cy - s * 0.03, lung.0, lung.1, yf, size, &mut right_row);
        for x in 0..size {
            let lungs = left_row[x] + right_row[x];
            let ribs = rib_table[y + bend[x]] * body_row[x];
            let v = 0.25 + 0.45 * fx[x] * fy[y] - 0.35 * body_row[x] + 0.22 * lungs + 0.08 * ribs;
            let signal = v.clamp(0.0, 1.0) * MAX_SAMPLE;
            // Quantum noise grows with the square root of the signal.
            let (n, _) = rng.noise_pair(0.12 * signal.sqrt() + 1.0);
            samples.push((signal + n).round().clamp(0.0, MAX_SAMPLE) as i32);
        }
    }
    Image::from_samples(size, size, BIT_DEPTH, samples).expect("radiograph samples are in range")
}

/// One organ of the CT phantom: an ellipse with an attenuation offset.
#[derive(Debug, Clone, Copy)]
struct Organ {
    cx: f32,
    cy: f32,
    rx: f32,
    ry: f32,
    level: f32,
}

/// A stack of correlated CT slices: a body ellipse with organs whose axes
/// shrink smoothly towards both ends of the scan (a fraction of a pixel per
/// slice, the thin-slice regime), plus per-voxel noise of `noise` grey
/// levels. Small `noise` keeps the slices strongly correlated along z (the
/// volume workload).
pub fn ct_stack(size: usize, depth: usize, noise: f32, seed: u64) -> ImageStack {
    let mut samples = Vec::with_capacity(size * size * depth);
    render_ct(size, depth, noise, seed, |slice| samples.extend_from_slice(slice));
    ImageStack::from_samples(size, size, depth, BIT_DEPTH, samples)
        .expect("ct_stack samples are in range")
}

/// The slices of [`ct_stack`] as separate frames, never holding the whole
/// stack. Large `noise` makes them distinct frames (the served workload).
pub fn ct_slices(size: usize, depth: usize, noise: f32, seed: u64) -> Vec<Image> {
    let mut slices = Vec::with_capacity(depth);
    render_ct(size, depth, noise, seed, |slice| {
        slices.push(
            Image::from_samples(size, size, BIT_DEPTH, slice.to_vec())
                .expect("ct_slices samples are in range"),
        );
    });
    slices
}

/// Renders the CT scan slice by slice, handing each slice's row-major
/// samples to `emit`.
fn render_ct(size: usize, depth: usize, noise: f32, seed: u64, mut emit: impl FnMut(&[i32])) {
    let mut rng = Rng::new(seed);
    let s = size as f32;
    // A fixed anatomy (body wall, soft tissue, six organs) that each seed
    // jitters slightly: different acquisitions of the same body region, so
    // every seed asks the codec for about the same work.
    let base = [
        Organ { cx: 0.50, cy: 0.50, rx: 0.44, ry: 0.36, level: 0.55 },
        Organ { cx: 0.50, cy: 0.50, rx: 0.41, ry: 0.33, level: -0.20 },
        Organ { cx: 0.38, cy: 0.45, rx: 0.10, ry: 0.08, level: 0.18 },
        Organ { cx: 0.62, cy: 0.45, rx: 0.10, ry: 0.08, level: 0.18 },
        Organ { cx: 0.50, cy: 0.62, rx: 0.06, ry: 0.05, level: 0.25 },
        Organ { cx: 0.44, cy: 0.36, rx: 0.04, ry: 0.04, level: -0.10 },
        Organ { cx: 0.58, cy: 0.57, rx: 0.07, ry: 0.04, level: 0.08 },
        Organ { cx: 0.50, cy: 0.42, rx: 0.03, ry: 0.09, level: -0.06 },
    ];
    let organs: Vec<Organ> = base
        .iter()
        .map(|o| Organ {
            cx: o.cx + rng.range(-0.01, 0.01),
            cy: o.cy + rng.range(-0.01, 0.01),
            rx: o.rx * rng.range(0.97, 1.03),
            ry: o.ry * rng.range(0.97, 1.03),
            level: o.level + rng.range(-0.01, 0.01),
        })
        .collect();
    let mut row = vec![0.0f32; size];
    let mut coverage = vec![0.0f32; size];
    let mut slice = Vec::with_capacity(size * size);
    for z in 0..depth {
        let t = if depth == 1 { 0.0 } else { 2.0 * z as f32 / (depth - 1) as f32 - 1.0 };
        let axis = (1.0 - 0.1 * t * t).sqrt();
        slice.clear();
        for y in 0..size {
            row.fill(0.08);
            for organ in &organs {
                ellipse_row(
                    organ.cx * s,
                    organ.cy * s,
                    organ.rx * s * axis,
                    organ.ry * s * axis,
                    y as f32 + 0.5,
                    size,
                    &mut coverage,
                );
                for (value, c) in row.iter_mut().zip(&coverage) {
                    *value += organ.level * c;
                }
            }
            for pair in row.chunks(2) {
                let (a, b) = rng.noise_pair(noise);
                for (value, n) in pair.iter().zip([a, b]) {
                    slice.push((value * MAX_SAMPLE + n).round().clamp(0.0, MAX_SAMPLE) as i32);
                }
            }
        }
        emit(&slice);
    }
}
