//! Brick-parallel volumetric compression: the 3-D engine.
//!
//! Medical studies are mostly *stacks* of correlated slices. This module
//! lifts the tile-sharded 2-D engine one dimension: an
//! [`lwc_image::ImageStack`] is partitioned by a [`BrickGrid`] into bricks
//! (a tile footprint times a run of slices), every brick runs a separable
//! 3-D DWT — the reversible 5/3 kernels of `lwc-lifting` along z
//! ([`lwc_lifting::forward_z`]) composed with the ordinary 2-D transform per
//! resulting coefficient plane — and the per-plane streams are wrapped in
//! the versioned `LWCV` container ([`lwc_coder::volume`]) behind the same
//! 48-bit offset directory as `LWCT`. That buys, in one move:
//!
//! * **inter-slice decorrelation** — adjacent CT/MRI slices are nearly
//!   identical, so the z detail planes are close to zero and Rice-code
//!   tightly; `z_scales = 0` switches the z transform off and the per-plane
//!   substreams become byte-identical to the 2-D tiled path's,
//! * **brick parallelism** — one volume request fans into
//!   `bricks_z x tiles` independent encode/decode jobs with worker-count
//!   independent bytes (the same [`DecodePlan`] and executor as every
//!   other engine),
//! * **bounded-memory decode** — [`VolumeCompressor::decompress_slabs`]
//!   walks the directory one brick layer at a time, the volumetric mirror of
//!   `decompress_row_bands`, sound because z transforms never cross brick
//!   boundaries.

use crate::plan::{clamp_near_lossless, decode_planes, Signature};
use crate::report::TiledReport;
use crate::{DecodePlan, EncodePlan, PipelineError, VolumeSlabs};
use lwc_coder::volume::{split_brick_payload, write_brick_payload, write_volume_container};
use lwc_coder::{plane_delta_for_volume, CoderError, LosslessCodec, VolumeHeader, VolumeStream};
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack, ImageView};
use lwc_lifting::{forward_z, inverse_z};
use std::thread;

/// Default nominal brick depth in slices: deep enough that two z scales have
/// material to work with, shallow enough that a brick (tile footprint x
/// depth, i32) stays cache-friendly and slab-streaming memory stays low.
pub const DEFAULT_BRICK_DEPTH: usize = 8;

/// Brick-parallel lossless codec for volumes (stacks of slices).
///
/// Streams are deterministic for a given brick shape — the worker count
/// never changes a byte — and every brick decodes independently through the
/// container directory.
///
/// ```
/// use lwc_image::synth;
/// use lwc_pipeline::VolumeCompressor;
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let engine = VolumeCompressor::new(3, 1, 32, 4, 0)?;
/// let volume = synth::ct_volume(70, 50, 11, 12, 1); // ragged bricks all round
/// let bytes = engine.compress_stack(&volume)?;
/// let back = engine.decompress_stack(&bytes)?;
/// assert_eq!(volume.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VolumeCompressor {
    /// The user-facing codec; its `delta` is the per-voxel bound the volume
    /// container advertises.
    codec: LosslessCodec,
    /// The codec actually applied per coefficient plane: its delta is
    /// [`plane_delta_for_volume`] of the volume bound, shrunk so the z-axis
    /// synthesis stages cannot amplify the per-plane error past the volume
    /// bound. Identical to `codec` when `delta == 0` or `z_scales == 0`.
    plane_codec: LosslessCodec,
    z_scales: u32,
    tile_width: usize,
    tile_height: usize,
    brick_depth: usize,
    workers: usize,
}

impl VolumeCompressor {
    /// Creates an engine with the given 2-D decomposition depth, z-axis
    /// decomposition depth (0 disables inter-slice decorrelation), square
    /// tile side, brick depth in slices and worker count. `workers == 0`
    /// selects the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero or a brick dimension is out of
    /// range.
    pub fn new(
        scales: u32,
        z_scales: u32,
        tile_size: usize,
        brick_depth: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        Self::with_codec(
            LosslessCodec::new(scales)?,
            z_scales,
            tile_size,
            tile_size,
            brick_depth,
            workers,
        )
    }

    /// Wraps an existing per-plane codec with an explicit (possibly
    /// non-square) brick shape. `workers == 0` selects the machine's
    /// available parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] if a brick dimension is zero, a
    /// tile dimension does not fit the per-plane stream format's 20-bit
    /// fields, or `z_scales` does not fit the container's 4-bit field.
    pub fn with_codec(
        codec: LosslessCodec,
        z_scales: u32,
        tile_width: usize,
        tile_height: usize,
        brick_depth: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        if tile_width == 0 || tile_height == 0 || brick_depth == 0 {
            return Err(PipelineError::Config("brick dimensions must be nonzero".into()));
        }
        if tile_width >= (1 << 20) || tile_height >= (1 << 20) {
            return Err(PipelineError::Config(format!(
                "tile dimensions {tile_width}x{tile_height} exceed the per-plane stream format's \
                 20-bit fields"
            )));
        }
        if z_scales >= (1 << 4) {
            return Err(PipelineError::Config(format!(
                "{z_scales} z scales exceed the container format's 4-bit field"
            )));
        }
        let workers = if workers == 0 {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            workers
        };
        let plane_codec = LosslessCodec::near_lossless(
            codec.scales(),
            plane_delta_for_volume(codec.delta(), z_scales),
        )?;
        Ok(Self { codec, plane_codec, z_scales, tile_width, tile_height, brick_depth, workers })
    }

    /// The per-plane 2-D codec.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec
    }

    /// z-axis decomposition depth (0 = per-slice 2-D coding).
    #[must_use]
    pub fn z_scales(&self) -> u32 {
        self.z_scales
    }

    /// Nominal tile width.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Nominal tile height.
    #[must_use]
    pub fn tile_height(&self) -> usize {
        self.tile_height
    }

    /// Nominal brick depth in slices.
    #[must_use]
    pub fn brick_depth(&self) -> usize {
        self.brick_depth
    }

    /// Worker threads used per volume.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The brick grid this engine would use for a `width x height x depth`
    /// volume.
    ///
    /// # Errors
    ///
    /// Returns an error for zero volume dimensions.
    pub fn grid(
        &self,
        width: usize,
        height: usize,
        depth: usize,
    ) -> Result<BrickGrid, PipelineError> {
        BrickGrid::new(width, height, depth, self.tile_width, self.tile_height, self.brick_depth)
            .map_err(|e| PipelineError::Config(format!("invalid brick grid: {e}")))
    }

    /// Compresses a volume, fanning the bricks across the worker pool. The
    /// bytes depend only on the volume and the brick shape, never on the
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns the first per-brick codec error, if any.
    pub fn compress_stack(&self, stack: &ImageStack) -> Result<Vec<u8>, PipelineError> {
        Ok(self.compress_stack_with_report(stack)?.0)
    }

    /// Compresses and reports brick-level throughput (the report's `tiles`
    /// field counts bricks).
    ///
    /// # Errors
    ///
    /// See [`VolumeCompressor::compress_stack`].
    pub fn compress_stack_with_report(
        &self,
        stack: &ImageStack,
    ) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        let raw_bits = stack.voxel_count() * stack.bit_depth() as usize;
        self.encode_plan(stack)?.run_with_report(stack, self.workers, raw_bits)
    }

    /// The encode plan of `stack`: one part per brick
    /// ([`VolumeCompressor::encode_brick`]) and the `LWCV` container
    /// assembly ([`VolumeCompressor::assemble_container`]).
    ///
    /// # Errors
    ///
    /// Returns an error for zero volume dimensions.
    pub fn encode_plan(&self, stack: &ImageStack) -> Result<EncodePlan<ImageStack>, PipelineError> {
        let grid = self.grid(stack.width(), stack.height(), stack.depth())?;
        let (engine, bit_depth) = (*self, stack.bit_depth());
        Ok(EncodePlan::new(
            grid.brick_count(),
            move |stack, index| engine.encode_brick(stack, &grid, index),
            move |payloads| engine.assemble_container(&grid, bit_depth, &payloads),
        ))
    }

    /// Compresses one brick (plane-major `index` of `grid`) into its
    /// standalone payload: one part of [`VolumeCompressor::encode_plan`], so
    /// byte-identical to the payload [`VolumeCompressor::compress_stack`]
    /// places in the container's `index` directory slot.
    ///
    /// The brick is gathered plane-major, z-lifted in place
    /// ([`lwc_lifting::forward_z`]; a no-op at `z_scales = 0`), and every
    /// resulting coefficient plane is 2-D coded as one `LWC1` stream —
    /// negative z coefficients ride through the same subband coder pixels
    /// do, which handles any `i32`.
    ///
    /// # Errors
    ///
    /// Returns the brick's codec error; `grid` must describe `stack` (an
    /// out-of-bounds box surfaces as a view error).
    pub fn encode_brick(
        &self,
        stack: &ImageStack,
        grid: &BrickGrid,
        index: usize,
    ) -> Result<Vec<u8>, PipelineError> {
        let rect = grid.rect(index);
        let mut samples = stack.view_brick(rect).map_err(CoderError::from)?.to_samples();
        let plane_len = rect.plane.pixel_count();
        forward_z(&mut samples, plane_len, rect.depth, self.z_scales).map_err(CoderError::from)?;
        let planes = samples
            .chunks_exact(plane_len)
            .map(|plane| {
                let view = ImageView::from_raw(
                    plane,
                    rect.plane.width,
                    rect.plane.height,
                    rect.plane.width,
                    stack.bit_depth(),
                )
                .map_err(CoderError::from)?;
                Ok(self.plane_codec.compress_view(&view)?)
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        Ok(write_brick_payload(&planes))
    }

    /// Assembles per-brick payloads (plane-major `grid` order, one per
    /// brick, as produced by [`VolumeCompressor::encode_brick`]) into the
    /// `LWCV` container: the assembly of [`VolumeCompressor::encode_plan`].
    ///
    /// # Errors
    ///
    /// Returns a container error if the payload count disagrees with the
    /// grid or an offset overflows the directory format.
    pub fn assemble_container(
        &self,
        grid: &BrickGrid,
        bit_depth: u32,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<u8>, PipelineError> {
        let header = VolumeHeader {
            width: grid.plane().image_width(),
            height: grid.plane().image_height(),
            depth: grid.image_depth(),
            bit_depth,
            scales: self.codec.scales(),
            z_scales: self.z_scales,
            tile_width: grid.plane().tile_width(),
            tile_height: grid.plane().tile_height(),
            brick_depth: grid.brick_depth(),
            delta: self.codec.delta(),
        };
        Ok(write_volume_container(&header, payloads)?)
    }

    /// Reconstructs the volume from an `LWCV` container — voxel-exact for
    /// lossless streams, within the per-voxel bound `δ` the container header
    /// declares for near-lossless ones (each plane's stream header is
    /// cross-checked against the bound the container implies). The
    /// container header, not this engine, carries the z decomposition.
    ///
    /// Bricks are decoded in bounded batches ([`DecodePlan::run`]) and
    /// scattered into the volume as each batch completes. Every
    /// reconstructed sample is range-validated against the container's bit
    /// depth after the inverse z transform — corrupt brick payloads that
    /// decode structurally but produce out-of-range voxels are rejected.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, mismatched configuration, or
    /// bricks that disagree with the container's grid geometry.
    pub fn decompress_stack(&self, bytes: &[u8]) -> Result<ImageStack, PipelineError> {
        let plan = DecodePlan::sniff_for(bytes, self.signature())?;
        plan.stack(plan.run(bytes, self.workers)?)
    }

    /// Streaming decode: yields the volume one brick-layer **slab** at a
    /// time (front to back), decoding each slab's bricks on the worker
    /// pool. Peak memory is bounded by one slab — `width x height x
    /// brick_depth` voxels plus one batch of decoded bricks — regardless of
    /// the volume's slice count; sound because the z transform never crosses
    /// a brick boundary. The volumetric mirror of
    /// [`crate::TiledCompressor::decompress_row_bands`].
    ///
    /// # Errors
    ///
    /// Returns an error if the container header or directory is malformed;
    /// per-slab decode errors surface through the iterator's items.
    pub fn decompress_slabs<'a>(&self, bytes: &'a [u8]) -> Result<VolumeSlabs<'a>, PipelineError> {
        let plan = DecodePlan::sniff_for(bytes, self.signature())?;
        Ok(VolumeSlabs { plan, bytes, workers: self.workers, next_layer: 0 })
    }

    /// Decodes the minimal set of bricks covering the box `rect` and crops
    /// the box out — region-of-interest access over the container directory,
    /// decoding nothing outside the covering bricks. The bricks fan across
    /// the worker pool in the same bounded batches as
    /// [`VolumeCompressor::decompress_stack`].
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or a box that does not fit
    /// the volume.
    pub fn decompress_region(
        &self,
        bytes: &[u8],
        rect: BrickRect,
    ) -> Result<ImageStack, PipelineError> {
        let mut plan = DecodePlan::sniff_for(bytes, self.signature())?;
        plan.select(rect)?;
        plan.stack(plan.run(bytes, self.workers)?)
    }

    /// Decodes brick `index` (plane-major directory order) as a 2-D image —
    /// the random-access unit behind [`crate::Codec::decompress_tile`] for
    /// volumetric streams. Only single-slice bricks (`brick_depth == 1`, or
    /// a ragged back layer one slice deep) reduce to an image; deeper bricks
    /// are a typed error directing callers to
    /// [`VolumeCompressor::decompress_region`].
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, an out-of-range index, or a
    /// brick spanning more than one slice.
    pub fn decompress_brick_image(
        &self,
        bytes: &[u8],
        index: usize,
    ) -> Result<Image, PipelineError> {
        let plan = DecodePlan::sniff_for(bytes, self.signature())?;
        plan.run_part(bytes, index, self.workers)
    }

    /// Decodes one brick of a parsed stream to its plane-major raw samples,
    /// with the stream's own parameters — the per-brick unit of the decode
    /// plan, exposed so a caller can time or check one brick alone; pair it
    /// with [`crate::scatter_region`] to place the result. Range validation is
    /// deferred: feed the assembled buffer through
    /// [`ImageStack::from_samples`].
    ///
    /// # Errors
    ///
    /// Returns the brick's codec error; see
    /// [`VolumeCompressor::decompress_stack`].
    pub fn decode_brick_samples(
        &self,
        stream: &VolumeStream<'_>,
        grid: &BrickGrid,
        index: usize,
    ) -> Result<Vec<i32>, PipelineError> {
        let (bytes, rect) = (stream.brick_bytes(index), grid.rect(index));
        let engine = Self::for_stream(stream.header())?;
        Ok(engine.decode_brick(bytes, index, rect, stream.header().bit_depth)?)
    }

    /// The single-threaded engine an `LWCV` header calls for: its depth, z
    /// depth, brick shape and quantizer bound.
    pub(crate) fn for_stream(header: &VolumeHeader) -> Result<Self, PipelineError> {
        let codec = LosslessCodec::near_lossless(header.scales, header.delta)?;
        let (tile_width, tile_height) = (header.tile_width, header.tile_height);
        Self::with_codec(codec, header.z_scales, tile_width, tile_height, header.brick_depth, 1)
    }

    /// The streams this engine reads.
    pub(crate) fn signature(&self) -> Signature {
        ("LWCV", self.codec.scales(), None)
    }

    /// Decodes brick `index` (box `rect`) of a stream this engine was built
    /// for ([`VolumeCompressor::for_stream`]): splits the payload's plane
    /// table, decodes every coefficient plane into its slot of the brick
    /// buffer, each plane's stream checked against the brick's plane, the
    /// container's bit depth and the per-plane quantizer delta the
    /// container's volume bound implies, then inverts the z transform.
    /// Near-lossless voxels are clamped to the container's sample range
    /// after the inverse z transform.
    pub(crate) fn decode_brick(
        &self,
        payload: &[u8],
        index: usize,
        rect: BrickRect,
        bit_depth: u32,
    ) -> Result<Vec<i32>, CoderError> {
        let planes = split_brick_payload(payload, rect.depth)?;
        let (delta, part) = (self.plane_codec.delta(), format!("brick {index}"));
        let mut samples = decode_planes(&self.codec, &planes, rect, bit_depth, delta, &part)?;
        inverse_z(&mut samples, rect.plane.pixel_count(), rect.depth, self.z_scales)?;
        clamp_near_lossless(&mut samples, bit_depth, self.codec.delta());
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::is_volume;
    use lwc_image::{synth, TileRect};

    #[test]
    fn multi_brick_roundtrip_is_lossless() {
        let engine = VolumeCompressor::new(3, 2, 32, 4, 3).unwrap();
        for volume in [
            synth::ct_volume(70, 50, 11, 12, 1), // ragged everywhere
            synth::ct_volume(64, 64, 8, 12, 2),  // exact grid
            synth::ct_volume(33, 97, 3, 8, 3),   // odd dims, shallow stack
        ] {
            let bytes = engine.compress_stack(&volume).unwrap();
            assert!(is_volume(&bytes));
            let back = engine.decompress_stack(&bytes).unwrap();
            assert_eq!(volume, back);
        }
    }

    #[test]
    fn per_brick_encode_plus_assembly_matches_compress() {
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 7, 12, 4);
        let reference = engine.compress_stack(&volume).unwrap();
        let grid = engine.grid(70, 50, 7).unwrap();
        let payloads: Vec<Vec<u8>> = (0..grid.brick_count())
            .map(|i| engine.encode_brick(&volume, &grid, i).unwrap())
            .collect();
        let assembled = engine.assemble_container(&grid, volume.bit_depth(), &payloads).unwrap();
        assert_eq!(assembled, reference);
    }

    #[test]
    fn streams_do_not_depend_on_the_worker_count() {
        let volume = synth::ct_volume(70, 50, 9, 12, 5);
        let reference =
            VolumeCompressor::new(3, 2, 32, 4, 1).unwrap().compress_stack(&volume).unwrap();
        for workers in [2, 3, 8] {
            let engine = VolumeCompressor::new(3, 2, 32, 4, workers).unwrap();
            assert_eq!(engine.compress_stack(&volume).unwrap(), reference, "{workers} workers");
        }
    }

    #[test]
    fn zero_z_scales_plane_substreams_match_the_2d_codec() {
        // With z_scales = 0 the z transform is the identity, so every plane
        // substream must be byte-identical to the 2-D codec's stream for the
        // same tile of the same slice — the property pinning the volumetric
        // datapath to the tiled one.
        let engine = VolumeCompressor::new(3, 0, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 6, 12, 6);
        let grid = engine.grid(70, 50, 6).unwrap();
        for index in [0usize, 3, grid.brick_count() - 1] {
            let rect = grid.rect(index);
            let payload = engine.encode_brick(&volume, &grid, index).unwrap();
            let planes = split_brick_payload(&payload, rect.depth).unwrap();
            for (z, plane) in planes.iter().enumerate() {
                let slice = volume.slice(rect.z + z).unwrap();
                let tile = slice.subview(rect.plane).unwrap();
                let reference = engine.codec().compress_view(&tile).unwrap();
                assert_eq!(plane, &reference.as_slice(), "brick {index} plane {z}");
            }
        }
    }

    #[test]
    fn slab_streaming_decode_reassembles_the_volume() {
        let engine = VolumeCompressor::new(3, 2, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 11, 12, 7);
        let bytes = engine.compress_stack(&volume).unwrap();
        let mut next_z = 0;
        let mut slabs = 0;
        for slab in engine.decompress_slabs(&bytes).unwrap() {
            let slab = slab.unwrap();
            assert_eq!(slab.z, next_z, "slabs arrive front to back");
            for z in 0..slab.stack.depth() {
                assert_eq!(
                    slab.stack.slice_image(z).unwrap(),
                    volume.slice_image(next_z + z).unwrap(),
                    "slice {}",
                    next_z + z
                );
            }
            next_z += slab.stack.depth();
            slabs += 1;
        }
        assert_eq!(slabs, 11usize.div_ceil(4));
        assert_eq!(next_z, 11);
    }

    #[test]
    fn regions_decode_only_their_covering_bricks() {
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 9, 12, 8);
        let bytes = engine.compress_stack(&volume).unwrap();
        for rect in [
            BrickRect { plane: TileRect { x: 10, y: 12, width: 30, height: 20 }, z: 2, depth: 5 },
            BrickRect { plane: TileRect { x: 0, y: 0, width: 70, height: 50 }, z: 0, depth: 9 },
            BrickRect { plane: TileRect { x: 69, y: 49, width: 1, height: 1 }, z: 8, depth: 1 },
        ] {
            let region = engine.decompress_region(&bytes, rect).unwrap();
            for z in 0..rect.depth {
                for y in 0..rect.plane.height {
                    for x in 0..rect.plane.width {
                        assert_eq!(
                            region.get(x, y, z),
                            volume.get(rect.plane.x + x, rect.plane.y + y, rect.z + z)
                        );
                    }
                }
            }
        }
        // Out-of-bounds regions are typed errors.
        let bad =
            BrickRect { plane: TileRect { x: 60, y: 0, width: 20, height: 8 }, z: 0, depth: 1 };
        assert!(engine.decompress_region(&bytes, bad).is_err());
        let empty =
            BrickRect { plane: TileRect { x: 0, y: 0, width: 0, height: 1 }, z: 0, depth: 1 };
        assert!(engine.decompress_region(&bytes, empty).is_err());
    }

    #[test]
    fn a_region_covering_the_volume_equals_the_whole_decode() {
        // 60 bricks: more than one bounded batch at every worker count, so
        // the region read runs the same batched plan as `decompress_stack`.
        let volume = synth::ct_volume(70, 50, 11, 12, 18);
        let whole =
            BrickRect { plane: TileRect { x: 0, y: 0, width: 70, height: 50 }, z: 0, depth: 11 };
        for workers in [1, 2, 4] {
            let engine = VolumeCompressor::new(3, 1, 16, 4, workers).unwrap();
            let bytes = engine.compress_stack(&volume).unwrap();
            let stack = engine.decompress_stack(&bytes).unwrap();
            assert_eq!(engine.decompress_region(&bytes, whole).unwrap(), stack, "{workers}");
            assert_eq!(stack, volume, "{workers} workers");
        }
    }

    #[test]
    fn near_lossless_roundtrips_stay_within_the_volume_bound() {
        let volume = synth::ct_volume(70, 50, 9, 12, 14);
        for z_scales in [0u32, 1, 2] {
            for delta in [1u8, 2, 4, 8] {
                let codec = LosslessCodec::near_lossless(3, delta).unwrap();
                let engine = VolumeCompressor::with_codec(codec, z_scales, 32, 32, 4, 2).unwrap();
                let bytes = engine.compress_stack(&volume).unwrap();
                let back = engine.decompress_stack(&bytes).unwrap();
                let mut worst = 0i64;
                for (a, b) in volume.samples().iter().zip(back.samples()) {
                    worst = worst.max((i64::from(*a) - i64::from(*b)).abs());
                }
                assert!(
                    worst <= i64::from(delta),
                    "z_scales {z_scales} delta {delta}: max error {worst}"
                );
            }
        }
    }

    #[test]
    fn zero_delta_engines_are_byte_identical_to_lossless_ones() {
        let volume = synth::ct_volume(48, 40, 6, 12, 15);
        let lossless = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let near = VolumeCompressor::with_codec(
            LosslessCodec::near_lossless(3, 0).unwrap(),
            1,
            32,
            32,
            4,
            2,
        )
        .unwrap();
        assert_eq!(
            lossless.compress_stack(&volume).unwrap(),
            near.compress_stack(&volume).unwrap()
        );
    }

    #[test]
    fn planes_with_mismatched_quantizer_deltas_are_rejected() {
        // Lossless brick payloads behind a header that claims a volume bound
        // implying a nonzero per-plane delta: the cross-check must refuse the
        // forgery before trusting any plane. z_scales = 0 keeps the implied
        // per-plane delta equal to the volume bound.
        let engine = VolumeCompressor::new(3, 0, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(48, 40, 5, 12, 16);
        let grid = engine.grid(48, 40, 5).unwrap();
        let payloads: Vec<Vec<u8>> = (0..grid.brick_count())
            .map(|i| engine.encode_brick(&volume, &grid, i).unwrap())
            .collect();
        let header = VolumeHeader {
            width: 48,
            height: 40,
            depth: 5,
            bit_depth: 12,
            scales: 3,
            z_scales: 0,
            tile_width: grid.plane().tile_width(),
            tile_height: grid.plane().tile_height(),
            brick_depth: grid.brick_depth(),
            delta: 2,
        };
        let forged = write_volume_container(&header, &payloads).unwrap();
        match engine.decompress_stack(&forged) {
            Err(PipelineError::Coder(CoderError::MalformedStream(msg))) => {
                assert!(msg.contains("quantizer delta"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn planes_declaring_a_larger_plane_are_rejected_before_decoding() {
        // The first half of a stream for a plane twice the brick's width,
        // spliced into brick 0. Its header passes the length-plausibility
        // check, and decoding it would run off the end; the error must come
        // from the header check against the brick rectangle instead, before
        // any sample is decoded.
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(48, 40, 5, 12, 17);
        let bytes = engine.compress_stack(&volume).unwrap();
        let stream = VolumeStream::parse(&bytes).unwrap();
        let grid = stream.grid().unwrap();
        let rect = grid.rect(0);
        let mut planes: Vec<Vec<u8>> = split_brick_payload(stream.brick_bytes(0), rect.depth)
            .unwrap()
            .iter()
            .map(|plane| plane.to_vec())
            .collect();
        let larger = synth::ct_phantom(2 * rect.plane.width, rect.plane.height, 12, 1);
        let stream_bytes = engine.codec().compress(&larger).unwrap();
        let half = &stream_bytes[..stream_bytes.len() / 2];
        assert!(half.len() * 8 >= larger.pixel_count(), "the header must look plausible");
        planes[1] = half.to_vec();
        let mut payloads: Vec<Vec<u8>> =
            (0..grid.brick_count()).map(|i| stream.brick_bytes(i).to_vec()).collect();
        payloads[0] = write_brick_payload(&planes);
        let forged = write_volume_container(stream.header(), &payloads).unwrap();
        let want = format!("{}x{}", rect.plane.width, rect.plane.height);
        match engine.decompress_stack(&forged) {
            Err(PipelineError::Coder(CoderError::MalformedStream(msg))) => {
                assert!(msg.contains("brick 0 plane 1") && msg.contains(&want), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
        let parsed = VolumeStream::parse(&forged).unwrap();
        assert!(matches!(
            engine.decode_brick_samples(&parsed, &grid, 0),
            Err(PipelineError::Coder(CoderError::MalformedStream(_)))
        ));
    }

    #[test]
    fn three_d_beats_per_slice_2d_on_correlated_stacks() {
        // The reason this subsystem exists: inter-slice redundancy that
        // per-slice coding cannot touch.
        let volume = synth::ct_volume(64, 64, 16, 12, 9);
        let flat = VolumeCompressor::new(4, 0, 64, 8, 2).unwrap();
        let deep = VolumeCompressor::new(4, 3, 64, 8, 2).unwrap();
        let flat_bytes = flat.compress_stack(&volume).unwrap().len();
        let deep_bytes = deep.compress_stack(&volume).unwrap().len();
        assert!(
            deep_bytes < flat_bytes,
            "3-D coding must beat per-slice 2-D on a correlated stack: {deep_bytes} vs {flat_bytes}"
        );
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(48, 40, 5, 12, 3);
        let bytes = engine.compress_stack(&volume).unwrap();
        for len in [2, 31, 32, bytes.len() / 2, bytes.len() - 1] {
            assert!(engine.decompress_stack(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        // Corrupting the first plane substream's magic inside brick 0's
        // payload must fail that brick's decode. (The payload starts with a
        // u32 length per plane; the substream header follows the table.)
        let stream = VolumeStream::parse(&bytes).unwrap();
        let brick0 = stream.brick_bytes(0);
        let grid = engine.grid(48, 40, 5).unwrap();
        let table_bytes = 4 * grid.rect(0).depth;
        let offset = brick0.as_ptr() as usize - bytes.as_ptr() as usize + table_bytes;
        let mut flipped = bytes.clone();
        flipped[offset] ^= 0x40;
        assert!(engine.decompress_stack(&flipped).is_err());
        // Mismatched 2-D codec depth.
        let other = VolumeCompressor::new(4, 1, 32, 4, 2).unwrap();
        assert!(other.decompress_stack(&bytes).is_err());
        // A different z_scales configuration still decodes: the container
        // header, not the engine, carries the z decomposition.
        let other_z = VolumeCompressor::new(3, 3, 32, 4, 2).unwrap();
        assert_eq!(other_z.decompress_stack(&bytes).unwrap(), volume);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(VolumeCompressor::new(0, 1, 32, 4, 1).is_err());
        assert!(VolumeCompressor::new(3, 16, 32, 4, 1).is_err());
        assert!(VolumeCompressor::new(3, 1, 0, 4, 1).is_err());
        assert!(VolumeCompressor::new(3, 1, 32, 0, 1).is_err());
        let codec = LosslessCodec::new(3).unwrap();
        assert!(VolumeCompressor::with_codec(codec, 1, 1 << 20, 32, 4, 1).is_err());
    }

    #[test]
    fn zero_workers_selects_available_parallelism_and_report_counts_bricks() {
        let engine = VolumeCompressor::new(2, 1, 16, 2, 0).unwrap();
        assert!(engine.workers() >= 1);
        let volume = synth::ct_volume(48, 48, 4, 12, 2);
        let (_bytes, report) = engine.compress_stack_with_report(&volume).unwrap();
        assert_eq!(report.tiles, 9 * 2);
        assert!(report.ratio() > 0.0);
    }
}
