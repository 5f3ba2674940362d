//! One plan per request: independent parts plus one assembly.
//!
//! The paper's datapath is one schedule that moves fixed blocks through the
//! DWT and the coder; every engine here states its block geometry once, the
//! same way. An [`EncodePlan`], built by the engine that compresses, is one
//! part per tile or brick plus the container assembly. A [`DecodePlan`],
//! built by the one container sniff ([`DecodePlan::sniff`]) from the
//! stream's own header, is the parsed directory, the parts covering a box
//! of the stream ([`DecodePlan::select`]; a 2-D tile is a depth-1 box) and
//! one [`scatter_region`] assembly.
//!
//! Plans borrow nothing: each part call takes the `&Image`, `&ImageStack` or
//! `&[u8]` it reads. The library runs a plan on its scoped executor
//! ([`EncodePlan::run`], [`DecodePlan::run`]) and the server runs the same
//! plan on its work-stealing pool, so both produce the same bytes by
//! construction.

use crate::executor::run_indexed;
use crate::report::TiledReport;
use crate::{PipelineError, TiledCompressor, TiledFixedCompressor, VolumeCompressor};
use lwc_coder::bitio::BitReader;
use lwc_coder::fixedtiled::is_fixed;
use lwc_coder::tiled::is_tiled;
use lwc_coder::{
    is_volume, CoderError, FixedStream, LosslessCodec, StreamHeader, TiledStream, VolumeStream,
};
use lwc_filters::FilterId;
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack, TileRect};
use std::time::Instant;

type EncodePart<S> = dyn Fn(&S, usize) -> Result<Vec<u8>, PipelineError> + Send + Sync;
type Assemble = dyn Fn(Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> + Send + Sync;

/// The encode of one image or volume: one part per tile or brick, each
/// encoded from the source `S` into its standalone payload, and the
/// assembly that writes the container from every payload in part order.
pub struct EncodePlan<S> {
    parts: usize,
    part: Box<EncodePart<S>>,
    assemble: Box<Assemble>,
}

impl<S: Sync> EncodePlan<S> {
    pub(crate) fn new(
        parts: usize,
        part: impl Fn(&S, usize) -> Result<Vec<u8>, PipelineError> + Send + Sync + 'static,
        assemble: impl Fn(Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> + Send + Sync + 'static,
    ) -> Self {
        Self { parts, part: Box::new(part), assemble: Box::new(assemble) }
    }

    /// Number of independent parts.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Encodes part `slot` of `source` (the image or volume the plan was
    /// built for) into its payload.
    ///
    /// # Errors
    ///
    /// Returns the part's codec error; a source other than the planned one
    /// may surface as a view error.
    pub fn encode_part(&self, source: &S, slot: usize) -> Result<Vec<u8>, PipelineError> {
        (self.part)(source, slot)
    }

    /// Assembles every part's payload, in part order, into the stream.
    ///
    /// # Errors
    ///
    /// Returns a container error if the payload count disagrees with the
    /// plan or an offset overflows the directory format.
    pub fn assemble(&self, payloads: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        (self.assemble)(payloads)
    }

    /// Runs the plan on `workers` scoped threads: the stream depends only on
    /// the source and the plan, never on the worker count.
    ///
    /// # Errors
    ///
    /// Returns the first part's error, or the assembly's.
    pub fn run(&self, source: &S, workers: usize) -> Result<Vec<u8>, PipelineError> {
        self.assemble(run_indexed(workers, self.parts, |slot| self.encode_part(source, slot))?)
    }

    /// [`EncodePlan::run`] with a report of the part count, the `raw_bits`
    /// of the source, the stream size and the wall time.
    pub(crate) fn run_with_report(
        &self,
        source: &S,
        workers: usize,
        raw_bits: usize,
    ) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        let start = Instant::now();
        let bytes = self.run(source, workers)?;
        let report = TiledReport {
            tiles: self.parts,
            raw_bytes: raw_bits.div_ceil(8),
            compressed_bytes: bytes.len(),
            workers: workers.min(self.parts),
            wall: start.elapsed(),
        };
        Ok((bytes, report))
    }
}

/// The engine a stream's own header calls for, built single-threaded: the
/// runner of a plan brings the parallelism.
#[derive(Debug, Clone)]
pub enum StreamEngine {
    /// A legacy `LWC1`/`LWCQ` stream (a one-tile grid) or an `LWCT`
    /// container; the codec carries the stream's depth and quantizer.
    Tiled(TiledCompressor),
    /// An `LWCF` container.
    Fixed(Box<TiledFixedCompressor>),
    /// An `LWCV` container; the engine carries the stream's depth, z depth
    /// and quantizer.
    Volume(VolumeCompressor),
}

/// What a stream asks of the engine that reads it: the container family (as
/// [`crate::CodecCapabilities::containers`] names it), the 2-D
/// decomposition depth and, for `LWCF`, the Table I filter bank.
pub(crate) type Signature = (&'static str, u32, Option<FilterId>);

impl StreamEngine {
    /// The [`Signature`] of the streams this engine reads.
    fn signature(&self) -> Signature {
        match self {
            Self::Tiled(engine) => engine.signature(),
            Self::Fixed(engine) => engine.signature(),
            Self::Volume(engine) => engine.signature(),
        }
    }
}

/// The decode of one box of a stream: the engine its header calls for, its
/// parsed directory, the parts (tiles or bricks) covering the box, and one
/// assembly that scatters each part into the box.
#[derive(Debug, Clone)]
pub struct DecodePlan {
    engine: StreamEngine,
    /// The part grid; a 2-D stream's tiles are one-slice bricks.
    grid: BrickGrid,
    bit_depth: u32,
    /// Part `i`'s payload spans bytes `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u64>,
    want: BrickRect,
    /// Grid indices of the parts covering `want`, in grid order.
    parts: Vec<usize>,
}

impl DecodePlan {
    /// The one container sniff: reads the header and directory of an
    /// `LWC1`, `LWCQ`, `LWCT`, `LWCF` or `LWCV` stream once, builds the
    /// engine the header calls for — decoding always follows the stream's
    /// own parameters — and plans the decode of the whole stream. Every
    /// header read rejects empty or truncated buffers with a typed error.
    ///
    /// # Errors
    ///
    /// Returns a typed error for an unknown magic, a malformed header or
    /// directory, or parameters no engine can be built for.
    pub fn sniff(bytes: &[u8]) -> Result<Self, PipelineError> {
        // A 2-D stream's grid is one slice deep, so each tile is a depth-1 box.
        let (engine, grid, bit_depth, offsets) = if is_tiled(bytes) {
            let stream = TiledStream::parse(bytes)?;
            let h = *stream.header();
            let grid = BrickGrid::new(h.width, h.height, 1, h.tile_width, h.tile_height, 1);
            let codec = LosslessCodec::near_lossless(h.scales, h.delta)?;
            let engine = TiledCompressor::with_codec(codec, h.tile_width, h.tile_height, 1)?;
            (StreamEngine::Tiled(engine), grid, h.bit_depth, stream.into_offsets())
        } else if is_fixed(bytes) {
            let stream = FixedStream::parse(bytes)?;
            let h = *stream.header();
            let grid = BrickGrid::new(h.width, h.height, 1, h.tile_width, h.tile_height, 1);
            let engine = Box::new(TiledFixedCompressor::for_stream(&h, 1)?);
            (StreamEngine::Fixed(engine), grid, h.bit_depth, stream.into_offsets())
        } else if is_volume(bytes) {
            let stream = VolumeStream::parse(bytes)?;
            let h = *stream.header();
            let grid = Ok(stream.grid()?);
            let engine = VolumeCompressor::for_stream(&h)?;
            (StreamEngine::Volume(engine), grid, h.bit_depth, stream.into_offsets())
        } else {
            let h = StreamHeader::read(&mut BitReader::new(bytes))?;
            h.ensure_plausible_length(bytes.len())?;
            let grid = BrickGrid::new(h.width, h.height, 1, h.width, h.height, 1);
            let codec = LosslessCodec::near_lossless(h.scales, h.delta)?;
            let engine = TiledCompressor::with_codec(codec, h.width, h.height, 1)?;
            (StreamEngine::Tiled(engine), grid, h.bit_depth, vec![0, bytes.len() as u64])
        };
        let grid = grid.map_err(CoderError::from)?;
        let parts = (0..grid.brick_count()).collect();
        Ok(Self { engine, grid, bit_depth, offsets, want: whole(&grid), parts })
    }

    /// [`DecodePlan::sniff`] for a library engine that reads streams of
    /// `signature` ([`StreamEngine::signature`]): a stream of another
    /// container family, depth or filter bank is refused before a part
    /// decodes.
    pub(crate) fn sniff_for(bytes: &[u8], signature: Signature) -> Result<Self, PipelineError> {
        let plan = Self::sniff(bytes)?;
        let found = plan.engine.signature();
        if found != signature {
            return Err(CoderError::UnsupportedFormat(format!(
                "the stream needs a {found:?} engine (containers, scales, filter bank), but \
                 this one is {signature:?}"
            ))
            .into());
        }
        Ok(plan)
    }

    /// The engine the stream's header calls for.
    #[must_use]
    pub fn engine(&self) -> &StreamEngine {
        &self.engine
    }

    /// The stream's part grid (a 2-D stream's tiles are one-slice bricks).
    #[must_use]
    pub fn grid(&self) -> &BrickGrid {
        &self.grid
    }

    /// Bit depth of the stream's samples.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// The box the plan decodes, in stream coordinates.
    #[must_use]
    pub fn want(&self) -> BrickRect {
        self.want
    }

    /// Number of parts covering the box.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.parts.len()
    }

    /// Narrows the plan to box `want`: only the parts covering it decode.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] for an empty box or one that
    /// does not fit the stream.
    pub fn select(&mut self, want: BrickRect) -> Result<(), PipelineError> {
        self.parts = self.grid.covering_indices(want).ok_or_else(|| {
            let plane = self.grid.plane();
            CoderError::MalformedStream(format!(
                "region ({}, {}, {}) {}x{}x{} does not fit the {}x{}x{} stream",
                want.plane.x,
                want.plane.y,
                want.z,
                want.plane.width,
                want.plane.height,
                want.depth,
                plane.image_width(),
                plane.image_height(),
                self.grid.image_depth()
            ))
        })?;
        self.want = want;
        Ok(())
    }

    /// Decodes part `slot` of `bytes` — the stream the plan was sniffed from
    /// — to the plane-major samples of its box. Range validation waits for
    /// [`DecodePlan::image`] or [`DecodePlan::stack`].
    ///
    /// # Errors
    ///
    /// Returns the part's codec error.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.parts()`.
    pub fn decode_part(&self, bytes: &[u8], slot: usize) -> Result<Vec<i32>, PipelineError> {
        let index = self.parts[slot];
        let rect = self.grid.rect(index);
        let payload = bytes
            .get(self.offsets[index] as usize..self.offsets[index + 1] as usize)
            .ok_or_else(|| {
                CoderError::MalformedStream(format!(
                    "part {index} lies beyond the {}-byte stream",
                    bytes.len()
                ))
            })?;
        match &self.engine {
            StreamEngine::Tiled(engine) => {
                Ok(engine.decode_tile(payload, index, rect, self.bit_depth)?)
            }
            StreamEngine::Fixed(engine) => engine.decode_tile(payload, rect.plane, self.bit_depth),
            StreamEngine::Volume(engine) => {
                Ok(engine.decode_brick(payload, index, rect, self.bit_depth)?)
            }
        }
    }

    /// The assembly, one part at a time: scatters the samples of part
    /// `slot` into `region`, the box's slice-major buffer, allocating it on
    /// first use (zeroed by the allocator, not by a pass over it). A part
    /// whose box is the whole box becomes the region without a copy.
    pub fn place(&self, region: &mut Vec<i32>, slot: usize, samples: Vec<i32>) {
        let part = self.grid.rect(self.parts[slot]);
        if part == self.want {
            *region = samples;
        } else {
            if region.is_empty() {
                *region = vec![0; self.want.voxel_count()];
            }
            scatter_region(region, self.want, part, &samples);
        }
    }

    /// Runs the plan on `workers` scoped threads in bounded batches (a few
    /// parts per worker), placing each batch before the next decodes, so
    /// memory stays at the box plus one batch of parts. Returns the box's
    /// slice-major samples.
    ///
    /// # Errors
    ///
    /// Returns the first part's error.
    pub fn run(&self, bytes: &[u8], workers: usize) -> Result<Vec<i32>, PipelineError> {
        let batch = (workers * 4).max(4);
        let mut region = Vec::new();
        for first in (0..self.parts()).step_by(batch) {
            let count = batch.min(self.parts() - first);
            let parts = run_indexed(workers, count, |i| self.decode_part(bytes, first + i))?;
            for (i, samples) in parts.into_iter().enumerate() {
                self.place(&mut region, first + i, samples);
            }
        }
        Ok(region)
    }

    /// The decoded samples of a one-slice box as an image, every sample
    /// validated against the stream's bit depth.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range samples or a box deeper than one
    /// slice.
    pub fn image(&self, region: Vec<i32>) -> Result<Image, PipelineError> {
        let plane = self.want.plane;
        Ok(Image::from_samples(plane.width, plane.height, self.bit_depth, region)
            .map_err(CoderError::from)?)
    }

    /// The decoded samples of the box as a volume, every sample validated
    /// against the stream's bit depth.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range samples.
    pub fn stack(&self, region: Vec<i32>) -> Result<ImageStack, PipelineError> {
        let BrickRect { plane, depth, .. } = self.want;
        Ok(ImageStack::from_samples(plane.width, plane.height, depth, self.bit_depth, region)
            .map_err(CoderError::from)?)
    }

    /// Decodes part `index` of `bytes` (one tile, or a one-slice brick) as
    /// an image on `workers` threads.
    pub(crate) fn run_part(
        mut self,
        bytes: &[u8],
        index: usize,
        workers: usize,
    ) -> Result<Image, PipelineError> {
        let count = self.grid.brick_count();
        if index >= count {
            return Err(CoderError::MalformedStream(format!(
                "part index {index} out of range: the stream has {count} part(s)"
            ))
            .into());
        }
        let rect = self.grid.rect(index);
        if rect.depth != 1 {
            return Err(CoderError::UnsupportedFormat(format!(
                "part {index} spans {} slices and cannot reduce to a 2-D image; decode it as a \
                 region",
                rect.depth
            ))
            .into());
        }
        self.select(rect)?;
        self.image(self.run(bytes, workers)?)
    }
}

/// The box covering every part of `grid`.
fn whole(grid: &BrickGrid) -> BrickRect {
    let plane = grid.plane();
    let (width, height) = (plane.image_width(), plane.image_height());
    BrickRect { plane: TileRect { x: 0, y: 0, width, height }, z: 0, depth: grid.image_depth() }
}

/// Decodes the 2-D streams of part `rect`, one per slice (coefficient
/// plane), straight into one plane-major buffer through the raw
/// (range-unchecked) path. Each stream's header must declare the part's
/// plane, `bit_depth`, the codec's depth and the quantizer `delta`, checked
/// before any sample of it is decoded.
pub(crate) fn decode_planes(
    codec: &LosslessCodec,
    planes: &[&[u8]],
    rect: BrickRect,
    bit_depth: u32,
    delta: u8,
    part: &str,
) -> Result<Vec<i32>, CoderError> {
    let (width, height) = (rect.plane.width, rect.plane.height);
    let expected = StreamHeader { width, height, bit_depth, scales: codec.scales(), delta };
    let mut samples = vec![0i32; rect.voxel_count()];
    for (z, (plane, slot)) in planes.iter().zip(samples.chunks_mut(width * height)).enumerate() {
        codec.decompress_raw_into(plane, &expected, slot).map_err(|e| match e {
            CoderError::MalformedStream(msg) => {
                CoderError::MalformedStream(format!("{part} plane {z}: {msg}"))
            }
            other => other,
        })?;
    }
    Ok(samples)
}

/// Clamps near-lossless reconstructions (`delta > 0`) into the sample
/// range: clamping only moves a reconstruction toward the original, so the
/// bound holds. i64 keeps a forged bit depth from overflowing the shift
/// before range validation rejects it.
pub(crate) fn clamp_near_lossless(samples: &mut [i32], bit_depth: u32, delta: u8) {
    if delta != 0 {
        let max = ((1i64 << bit_depth) - 1).min(i64::from(i32::MAX)) as i32;
        for sample in samples {
            *sample = (*sample).clamp(0, max);
        }
    }
}

/// Scatters the intersection of a decoded part (plane-major `samples` of box
/// `brick`, from [`DecodePlan::decode_part`] or
/// [`VolumeCompressor::decode_brick_samples`]) with a requested box into
/// the box's slice-major buffer (both boxes in stream coordinates; disjoint
/// boxes are a no-op). The assembly of every decode plan.
pub fn scatter_region(region: &mut [i32], want: BrickRect, brick: BrickRect, samples: &[i32]) {
    let x0 = want.plane.x.max(brick.plane.x);
    let x1 = want.plane.right().min(brick.plane.right());
    let y0 = want.plane.y.max(brick.plane.y);
    let y1 = want.plane.bottom().min(brick.plane.bottom());
    let z0 = want.z.max(brick.z);
    let z1 = want.back().min(brick.back());
    if x0 >= x1 || y0 >= y1 || z0 >= z1 {
        return;
    }
    let plane_len = brick.plane.pixel_count();
    for z in z0..z1 {
        for y in y0..y1 {
            let src = (z - brick.z) * plane_len
                + (y - brick.plane.y) * brick.plane.width
                + (x0 - brick.plane.x);
            let dst = ((z - want.z) * want.plane.height + (y - want.plane.y)) * want.plane.width
                + (x0 - want.plane.x);
            region[dst..dst + (x1 - x0)].copy_from_slice(&samples[src..src + (x1 - x0)]);
        }
    }
}

/// One horizontal band of a streamed 2-D decode; see
/// [`TiledCompressor::decompress_row_bands`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBand {
    /// Row of the full image where this band starts.
    pub y: usize,
    /// The decoded band (full image width, one tile-row tall).
    pub image: Image,
}

/// Iterator over the row bands of a 2-D stream, top to bottom: each band is
/// one tile-row of the stream's grid, decoded as a box of the one plan.
pub struct RowBands<'a> {
    pub(crate) plan: DecodePlan,
    pub(crate) bytes: &'a [u8],
    pub(crate) workers: usize,
    pub(crate) next_row: usize,
}

impl Iterator for RowBands<'_> {
    type Item = Result<RowBand, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let plane = *self.plan.grid().plane();
        if self.next_row >= plane.tiles_y() {
            return None;
        }
        let row = plane.rect_at(0, self.next_row);
        self.next_row += 1;
        let band = TileRect { x: 0, width: plane.image_width(), ..row };
        Some(self.plan.select(BrickRect { plane: band, z: 0, depth: 1 }).and_then(|()| {
            let image = self.plan.image(self.plan.run(self.bytes, self.workers)?)?;
            Ok(RowBand { y: band.y, image })
        }))
    }
}

/// One brick-layer slab of a streamed volumetric decode; see
/// [`VolumeCompressor::decompress_slabs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeSlab {
    /// First slice of the volume this slab covers.
    pub z: usize,
    /// The decoded slab (full width x height, one brick layer of slices).
    pub stack: ImageStack,
}

/// Iterator over the slabs of a compressed volume, front to back: each slab
/// is one brick layer, decoded as a box of the one plan.
pub struct VolumeSlabs<'a> {
    pub(crate) plan: DecodePlan,
    pub(crate) bytes: &'a [u8],
    pub(crate) workers: usize,
    pub(crate) next_layer: usize,
}

impl Iterator for VolumeSlabs<'_> {
    type Item = Result<VolumeSlab, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let grid = *self.plan.grid();
        if self.next_layer >= grid.bricks_z() {
            return None;
        }
        let (z, depth) = grid.z_extent(self.next_layer);
        self.next_layer += 1;
        Some(self.plan.select(BrickRect { z, depth, ..whole(&grid) }).and_then(|()| {
            Ok(VolumeSlab { z, stack: self.plan.stack(self.plan.run(self.bytes, self.workers)?)? })
        }))
    }
}
