//! # lwc-pipeline — multithreaded batch compression engine
//!
//! The paper's architecture earns its throughput from pipelining: the row and
//! column passes of the 2-D DWT overlap in hardware, and one image follows
//! the next through the datapath with no dead cycles. This crate is the
//! software analogue of that organisation, layered on the bit-exact models of
//! the rest of the workspace.
//!
//! Every lifting engine here encodes through the same row-streaming path:
//! the line cascade ([`lwc_lifting::LineDwt53`]) feeding per-subband Rice
//! coders ([`lwc_coder::LosslessCodec::begin`] / [`lwc_coder::RowEncoder`]),
//! with an `O(width x levels)` coefficient working set, and decodes through
//! the row-vector inverse transform. The engines differ in how they fan the
//! work out:
//!
//! * [`BatchCompressor`] — *inter-image* parallelism: a batch of images is
//!   fanned across worker threads, each running the end-to-end Rice codec
//!   ([`lwc_coder::LosslessCodec`]). Streams are byte-identical to the
//!   sequential codec and come back in input order.
//! * [`ParallelCodec`] — *intra-image* parallelism on the entropy-coding
//!   side: the `3 * scales + 1` subbands of one image are Rice-coded on the
//!   worker pool and the fragments are spliced at bit level into the exact
//!   sequential stream; a [`SubbandDirectory`] of bit offsets drives the
//!   concurrent decode. Without a directory from the encode, its decode
//!   first skip-scans the whole stream, which measures slower than one
//!   sequential decode (1.4x at 4096² on 2 workers), so the other engines
//!   decode a plain `LWC1` stream through [`lwc_coder::LosslessCodec`].
//! * [`TiledCompressor`] — *intra-image* parallelism at the **tile** level:
//!   the image is sharded by a [`lwc_image::TileGrid`] into independently
//!   coded tiles wrapped in the versioned `LWCT` container
//!   ([`lwc_coder::tiled`]), lifting the whole-image size limit, fanning one
//!   large image across the pool, and enabling bounded-memory row-band
//!   streaming decode ([`TiledCompressor::decompress_row_bands`]).
//! * [`TiledFixedDwt2d`] — the same tile sharding applied to the
//!   **paper-exact fixed-point** datapath: regions transform concurrently
//!   through the unmodified [`lwc_dwt::FixedDwt2d`] region APIs, so every
//!   tile's coefficients are bit-identical to the monolithic transform of
//!   that region and independent of the worker count.
//! * [`BatchCompressor::compress_iter`] / [`BatchCompressor::decompress_iter`]
//!   — the streaming form: images flow through a bounded channel into the
//!   worker pool and compressed streams come out in order, so an arbitrarily
//!   long study never has to be resident in memory at once.
//! * [`TiledFixedCompressor`] — the **complete paper-exact codec**: the
//!   tile-parallel fixed-point DWT feeding the fixed-word Rice coder
//!   ([`lwc_coder::FixedSubbandCodec`]), wrapped in the versioned `LWCF`
//!   container. This is the end-to-end realization of the paper's
//!   architecture — Table I banks at Table II word lengths with an entropy
//!   back end — rather than the engineering-preferred lifting path.
//! * [`VolumeCompressor`] — the **volumetric** engine: an
//!   [`lwc_image::ImageStack`] is sharded by a [`lwc_image::BrickGrid`] into
//!   bricks, each brick runs a separable 3-D DWT (the reversible 5/3 kernel
//!   along z composed with the 2-D transform per coefficient plane) and the
//!   per-plane streams ride in the versioned `LWCV` container
//!   ([`lwc_coder::volume`]). Bricks encode and decode brick-parallel with
//!   worker-count-independent bytes, decode can stream one brick layer at a
//!   time ([`VolumeCompressor::decompress_slabs`]), and at `z_scales = 0`
//!   every plane substream is byte-identical to the 2-D tiled path.
//! * [`EncodePlan`] / [`DecodePlan`] — the one description of a request
//!   behind the tiled, fixed-point and volumetric engines: independent parts
//!   (tiles or bricks) plus one assembly. The engines build encode plans;
//!   the one container sniff ([`DecodePlan::sniff`]) builds decode plans
//!   for any box of a stream. The library and the server run the same plans.
//! * [`Codec`] — the unified engine interface: every compressor above
//!   implements one object-safe trait (compress / decompress / tile access /
//!   row-band streaming, with capability reporting), so generic callers
//!   dispatch over `&dyn Codec` instead of enumerating engines.
//! * **Near-lossless mode** — the lifting engines ([`ParallelCodec`],
//!   [`TiledCompressor`], [`VolumeCompressor`], [`BatchCompressor`]) accept
//!   an [`lwc_coder::LosslessCodec::near_lossless`] configuration: detail
//!   subbands are uniformly quantized under a deterministic schedule derived
//!   from a per-pixel error bound `δ` ([`lwc_coder::QuantSchedule`]), the
//!   bound is enforced end to end (`max|orig − recon| ≤ δ`, with the z-axis
//!   synthesis gain accounted for in the volumetric path via
//!   [`lwc_coder::plane_delta_for_volume`]), and `δ = 0` is byte-identical
//!   to the lossless streams.
//! * [`BatchReport`] — wall-clock throughput of a batch run (MB/s, images/s,
//!   compression ratio).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod codec;
mod error;
mod executor;
mod parcodec;
mod plan;
mod report;
mod stream;
mod tiled;
mod tileddwt;
mod tiledfixed;
mod volume;

pub use batch::BatchCompressor;
pub use codec::{Codec, CodecCapabilities};
pub use error::PipelineError;
pub use parcodec::{ParallelCodec, SubbandDirectory};
pub use plan::{
    scatter_region, DecodePlan, EncodePlan, RowBand, RowBands, StreamEngine, VolumeSlab,
    VolumeSlabs,
};
pub use report::{BatchReport, TiledDwtReport, TiledReport};
pub use stream::OrderedStream;
pub use tiled::{TiledCompressor, DEFAULT_TILE_SIZE};
pub use tileddwt::{TiledDecomposition, TiledFixedDwt2d};
pub use tiledfixed::TiledFixedCompressor;
pub use volume::{VolumeCompressor, DEFAULT_BRICK_DEPTH};
