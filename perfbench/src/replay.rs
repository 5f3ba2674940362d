//! Stage-by-stage replays of the engines' work through each layer's public
//! entry points, with a span around every layer call.
//!
//! Each replay mirrors what an engine does internally — the same calls in
//! the same order on the same inputs — so its output must be identical to
//! the engine's; the workloads check that on every replay. If an engine is
//! later rerouted around one of these entry points, the replay keeps
//! producing the same bytes but its time stops matching the engine's wall
//! time, which the traced run reports as drift.

use crate::trace::{Tracer, JOB};
use crate::Fallible;
use lwc_coder::bitio::{BitReader, BitWriter};
use lwc_coder::volume::{split_brick_payload, write_brick_payload};
use lwc_coder::{quant, subband_order, LosslessCodec, StreamHeader, TiledStream, VolumeStream};
use lwc_image::{pgm, BrickRect, Image, ImageStack, ImageView, TileRect};
use lwc_lifting::{forward_z, inverse_z};
use lwc_pipeline::{scatter_region, TiledCompressor, VolumeCompressor};

/// `LosslessCodec::compress_view`: forward lifting, then per subband the
/// quantizer and the Rice coder.
pub fn encode_view(
    t: &mut Tracer,
    codec: &LosslessCodec,
    view: &ImageView<'_>,
) -> Fallible<Vec<u8>> {
    let header = codec.header_for_view(view)?;
    let coeffs = t.span("lifting.forward", |_| codec.transform().forward_view(view))?;
    let schedule = codec.schedule();
    let mut writer = BitWriter::new();
    header.write(&mut writer);
    for (scale, band) in subband_order(codec.scales()) {
        let samples = t.span("coder.quantize", |_| {
            let mut samples = coeffs.subband(scale, band);
            quant::quantize(&mut samples, schedule.allowance(scale, band));
            samples
        });
        t.span("coder.rice_encode", |_| {
            codec.subband_codec().encode_subband(&mut writer, &samples)
        });
    }
    Ok(writer.into_bytes())
}

/// `LosslessCodec::decompress_raw`: per-subband Rice decode, then the
/// coefficient scatter and inverse lifting of `reassemble_raw`.
pub fn decode_raw(
    t: &mut Tracer,
    codec: &LosslessCodec,
    bytes: &[u8],
) -> Fallible<(StreamHeader, Vec<i32>)> {
    let mut reader = BitReader::new(bytes);
    let header = t.span("coder.rice_decode", |_| -> Fallible<StreamHeader> {
        let header = StreamHeader::read(&mut reader)?;
        header.ensure_scales(codec.scales())?;
        header.ensure_plausible_length(bytes.len())?;
        Ok(header)
    })?;
    let mut subbands = Vec::new();
    for (scale, band) in subband_order(codec.scales()) {
        let count = header.band_len(scale, band);
        subbands.push(t.span("coder.rice_decode", |_| {
            codec.subband_codec().decode_subband(&mut reader, count)
        })?);
    }
    let data = t.span("lifting.inverse", |_| codec.reassemble_raw(&header, &subbands))?;
    Ok((header, data))
}

/// `LosslessCodec::decompress`: [`decode_raw`] wrapped as an image.
pub fn decode_image(t: &mut Tracer, codec: &LosslessCodec, bytes: &[u8]) -> Fallible<Image> {
    let (header, data) = decode_raw(t, codec, bytes)?;
    Ok(Image::from_samples(header.width, header.height, header.bit_depth, data)?)
}

/// `TiledCompressor::compress` of a multi-tile frame: one job per tile
/// (`encode_tile`), then `assemble_container`.
pub fn tiled_compress(
    t: &mut Tracer,
    engine: &TiledCompressor,
    image: &Image,
) -> Fallible<Vec<u8>> {
    let grid = engine.grid(image.width(), image.height())?;
    let mut payloads = Vec::with_capacity(grid.tile_count());
    for index in 0..grid.tile_count() {
        payloads.push(
            t.span(JOB, |t| encode_view(t, engine.codec(), &image.view_rect(grid.rect(index))?))?,
        );
    }
    Ok(t.span("coder.container_write", |_| {
        engine.assemble_container(&grid, image.bit_depth(), &payloads)
    })?)
}

/// Decodes the tiles of an `LWCT` stream that intersect `rect` (one job per
/// tile, as the server fans them) and copies the intersection out.
pub fn tiled_region(
    t: &mut Tracer,
    codec: &LosslessCodec,
    bytes: &[u8],
    rect: TileRect,
) -> Fallible<Image> {
    let stream = t.span("coder.container_parse", |_| TiledStream::parse(bytes))?;
    let header = *stream.header();
    let grid = stream.grid()?;
    let indices = grid.covering_indices(rect).ok_or("region outside the frame")?;
    let mut out = Image::zeros(rect.width, rect.height, header.bit_depth)?;
    for index in indices {
        let tile_rect = grid.rect(index);
        let tile = t.span(JOB, |t| decode_image(t, codec, stream.tile_bytes(index)))?;
        let x0 = rect.x.max(tile_rect.x);
        let y0 = rect.y.max(tile_rect.y);
        let x1 = rect.right().min(tile_rect.right());
        let y1 = rect.bottom().min(tile_rect.bottom());
        let part =
            TileRect { x: x0 - tile_rect.x, y: y0 - tile_rect.y, width: x1 - x0, height: y1 - y0 };
        let into = TileRect { x: x0 - rect.x, y: y0 - rect.y, width: x1 - x0, height: y1 - y0 };
        out.view_rect_mut(into)?.copy_from_view(&tile.view_rect(part)?)?;
    }
    Ok(out)
}

/// Serializes an image as the PGM a server reply carries.
pub fn write_pgm(t: &mut Tracer, image: &Image) -> Fallible<Vec<u8>> {
    t.span("image.write", |_| {
        let mut out = Vec::with_capacity(image.pixel_count() * 2 + 32);
        pgm::write_pgm(image, &mut out)?;
        Ok(out)
    })
}

/// `VolumeCompressor::compress_stack`: one job per brick (`encode_brick`:
/// gather, z lifting, a 2-D stream per coefficient plane, the brick's plane
/// table), then `assemble_container`.
pub fn volume_compress(
    t: &mut Tracer,
    engine: &VolumeCompressor,
    stack: &ImageStack,
) -> Fallible<Vec<u8>> {
    let grid = engine.grid(stack.width(), stack.height(), stack.depth())?;
    let mut payloads = Vec::with_capacity(grid.brick_count());
    for index in 0..grid.brick_count() {
        payloads.push(t.span(JOB, |t| -> Fallible<Vec<u8>> {
            let rect = grid.rect(index);
            let mut samples = stack.view_brick(rect)?.to_samples();
            let plane_len = rect.plane.pixel_count();
            t.span("lifting.forward_z", |_| {
                forward_z(&mut samples, plane_len, rect.depth, engine.z_scales())
            })?;
            let mut planes = Vec::with_capacity(rect.depth);
            for plane in samples.chunks_exact(plane_len) {
                let view = ImageView::from_raw(
                    plane,
                    rect.plane.width,
                    rect.plane.height,
                    rect.plane.width,
                    stack.bit_depth(),
                )?;
                planes.push(encode_view(t, engine.codec(), &view)?);
            }
            Ok(t.span("coder.container_write", |_| write_brick_payload(&planes)))
        })?);
    }
    Ok(t.span("coder.container_write", |_| {
        engine.assemble_container(&grid, stack.bit_depth(), &payloads)
    })?)
}

/// Decodes the bricks of an `LWCV` stream that intersect `rect` (one job
/// per brick: plane table, 2-D decode per plane, inverse z lifting) and
/// scatters them — `decompress_stack` for the whole volume,
/// `decompress_region` for a cuboid.
pub fn volume_region(
    t: &mut Tracer,
    engine: &VolumeCompressor,
    bytes: &[u8],
    rect: BrickRect,
) -> Fallible<ImageStack> {
    let stream = t.span("coder.container_parse", |_| VolumeStream::parse(bytes))?;
    let header = *stream.header();
    let grid = stream.grid()?;
    let indices = grid.covering_indices(rect).ok_or("region outside the volume")?;
    let mut region = vec![0i32; rect.voxel_count()];
    for index in indices {
        let brick = grid.rect(index);
        let samples = t.span(JOB, |t| -> Fallible<Vec<i32>> {
            let plane_len = brick.plane.pixel_count();
            let planes = t.span("coder.container_parse", |_| {
                split_brick_payload(stream.brick_bytes(index), brick.depth)
            })?;
            let mut samples = Vec::with_capacity(plane_len * brick.depth);
            for plane in planes {
                samples.extend_from_slice(&decode_raw(t, engine.codec(), plane)?.1);
            }
            t.span("lifting.inverse_z", |_| {
                inverse_z(&mut samples, plane_len, brick.depth, header.z_scales)
            })?;
            Ok(samples)
        })?;
        scatter_region(&mut region, rect, brick, &samples);
    }
    Ok(ImageStack::from_samples(
        rect.plane.width,
        rect.plane.height,
        rect.depth,
        header.bit_depth,
        region,
    )?)
}
