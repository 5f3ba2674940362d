//! Integration tests for the end-to-end lossless compression pipeline
//! (reversible transform + Rice-coded subbands) on the medical-like
//! workloads.

use lwc_core::prelude::*;

#[test]
fn every_workload_decodes_bit_exactly() {
    let codec = LosslessCodec::new(4).unwrap();
    for (name, image) in [
        ("ct", synth::ct_phantom(128, 128, 12, 1)),
        ("mr", synth::mr_slice(128, 128, 12, 2)),
        ("noise", synth::random_image(128, 128, 12, 3)),
        ("gradient", synth::gradient(128, 128, 12)),
        ("flat", synth::flat(128, 128, 12, 100)),
        ("checkerboard", synth::checkerboard(128, 128, 12, 2)),
    ] {
        let (bytes, report) = codec.compress_with_report(&image).unwrap();
        let decoded = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &decoded).unwrap(), "{name}");
        assert!(report.compressed_bytes > 0, "{name}");
    }
}

#[test]
fn structured_content_compresses_noise_does_not() {
    let codec = LosslessCodec::new(5).unwrap();
    let (_b, ct) = codec.compress_with_report(&synth::ct_phantom(256, 256, 12, 7)).unwrap();
    let (_b, noise) = codec.compress_with_report(&synth::random_image(256, 256, 12, 7)).unwrap();
    assert!(ct.ratio() > 1.5, "CT phantom: {ct}");
    assert!(noise.ratio() < 1.05, "uniform noise: {noise}");
    assert!(ct.bits_per_pixel < noise.bits_per_pixel);
}

#[test]
fn flat_images_collapse_to_almost_nothing() {
    let codec = LosslessCodec::new(5).unwrap();
    let (_b, report) = codec.compress_with_report(&synth::flat(256, 256, 12, 1234)).unwrap();
    assert!(
        report.bits_per_pixel < 1.3,
        "a constant image should cost about a bit per pixel, got {report}"
    );
}

#[test]
fn compression_improves_with_resolution_on_smooth_content() {
    let codec = LosslessCodec::new(5).unwrap();
    let (_b, small) = codec.compress_with_report(&synth::ct_phantom(128, 128, 12, 9)).unwrap();
    let (_b, large) = codec.compress_with_report(&synth::ct_phantom(256, 256, 12, 9)).unwrap();
    assert!(large.bits_per_pixel < small.bits_per_pixel);
}

#[test]
fn different_bit_depths_roundtrip_through_the_codec() {
    for depth in [8u32, 10, 12, 16] {
        let image = synth::mr_slice(64, 64, depth, depth as u64);
        let codec = LosslessCodec::new(3).unwrap();
        let bytes = codec.compress(&image).unwrap();
        let decoded = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &decoded).unwrap(), "{depth}-bit");
        assert_eq!(decoded.bit_depth(), depth);
    }
}

#[test]
fn corrupted_streams_are_rejected_not_miscoded() {
    let codec = LosslessCodec::new(3).unwrap();
    let image = synth::ct_phantom(64, 64, 12, 4);
    let bytes = codec.compress(&image).unwrap();
    // Flipping the magic or truncating the stream must produce an error.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x55;
    assert!(codec.decompress(&bad_magic).is_err());
    let truncated = &bytes[..bytes.len() / 2];
    assert!(codec.decompress(truncated).is_err());
}

#[test]
fn pgm_roundtrip_composes_with_the_codec() {
    let dir = std::env::temp_dir().join("lwc_codec_end_to_end");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study.pgm");
    let image = synth::ct_phantom(64, 64, 12, 6);
    pgm::save(&image, &path).unwrap();
    let loaded = pgm::load(&path).unwrap();
    let codec = LosslessCodec::new(3).unwrap();
    let decoded = codec.decompress(&codec.compress(&loaded).unwrap()).unwrap();
    assert!(stats::bit_exact(&image, &decoded).unwrap());
    std::fs::remove_file(&path).ok();
}

/// Asserts that `got` (slice-major samples of box `at`) equals the crop of
/// `source` at `at`, every sample within `delta`.
fn assert_crop(source: &ImageStack, at: BrickRect, got: &[i32], delta: i32, what: &str) {
    assert_eq!(got.len(), at.voxel_count(), "{what}: sample count");
    let mut samples = got.iter();
    for z in at.z..at.back() {
        for y in at.plane.y..at.plane.bottom() {
            for x in at.plane.x..at.plane.right() {
                let (want, got) = (source.get(x, y, z), *samples.next().unwrap());
                assert!((want - got).abs() <= delta, "{what}: ({x}, {y}, {z}) {got} vs {want}");
            }
        }
    }
}

/// Three boxes inside a `width x height x depth` source, drawn from a
/// fixed-seed linear congruential generator.
fn seeded_boxes(width: usize, height: usize, depth: usize, seed: u64) -> Vec<BrickRect> {
    let mut state = seed;
    let mut below = |n: usize| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % n
    };
    (0..3)
        .map(|_| {
            let (x, y, z) = (below(width), below(height), below(depth));
            let plane =
                TileRect { x, y, width: 1 + below(width - x), height: 1 + below(height - y) };
            BrickRect { plane, z, depth: 1 + below(depth - z) }
        })
        .collect()
}

#[test]
fn every_container_decodes_whole_parts_strips_and_boxes_like_the_source() {
    // One oracle for every engine's decode paths: the whole stream, every
    // tile or brick, the row bands or slabs, and three seeded boxes must
    // each equal the source's crop (within δ for LWCQ), on ragged grids and
    // at every worker count.
    let image = synth::ct_phantom(77, 53, 12, 31);
    // LWCF tiles must decompose to three scales: 80x56 cut by 32 leaves
    // 16- and 24-pixel edge tiles.
    let fixed_image = synth::mr_slice(80, 56, 12, 32);
    let volume = synth::ct_volume(45, 37, 11, 12, 33);
    for workers in [1usize, 2, 4] {
        let tiled = |codec, tile| -> Box<dyn Codec> {
            Box::new(TiledCompressor::with_codec(codec, tile, tile, workers).unwrap())
        };
        let bank = FilterBank::table1(FilterId::F1);
        let planar: Vec<(&str, Box<dyn Codec>, &Image, i32)> = vec![
            ("LWC1", tiled(LosslessCodec::new(3).unwrap(), 128), &image, 0),
            ("LWCQ", tiled(LosslessCodec::near_lossless(3, 2).unwrap(), 128), &image, 2),
            ("LWCT", tiled(LosslessCodec::new(3).unwrap(), 32), &image, 0),
            (
                "LWCF",
                Box::new(TiledFixedCompressor::new(&bank, 3, 32, workers).unwrap()),
                &fixed_image,
                0,
            ),
        ];
        for (magic, engine, source, delta) in planar {
            let what = format!("{magic} at {workers} workers");
            let stack = &ImageStack::from_slices(std::slice::from_ref(source)).unwrap();
            let bytes = engine.compress(source).unwrap();
            assert_eq!(&bytes[..4], magic.as_bytes(), "{what}");
            let plan = DecodePlan::sniff(&bytes).unwrap();
            let whole = plan.want();
            assert_crop(stack, whole, engine.decompress(&bytes).unwrap().samples(), delta, &what);
            for index in 0..plan.grid().brick_count() {
                let tile = engine.decompress_tile(&bytes, index).unwrap();
                let at = plan.grid().rect(index);
                assert_crop(stack, at, tile.samples(), delta, &format!("{what}, tile {index}"));
            }
            let mut next_y = 0;
            for band in engine.decompress_row_bands(&bytes).unwrap() {
                let band = band.unwrap();
                let plane = TileRect {
                    x: 0,
                    y: band.y,
                    width: source.width(),
                    height: band.image.height(),
                };
                let at = BrickRect { plane, z: 0, depth: 1 };
                assert_crop(
                    stack,
                    at,
                    band.image.samples(),
                    delta,
                    &format!("{what}, band {}", band.y),
                );
                next_y = band.y + band.image.height();
            }
            assert_eq!(next_y, source.height(), "{what}: bands cover the image");
            for at in seeded_boxes(source.width(), source.height(), 1, 7) {
                let mut plan = plan.clone();
                plan.select(at).unwrap();
                let region = plan.image(plan.run(&bytes, workers).unwrap()).unwrap();
                assert_crop(stack, at, region.samples(), delta, &format!("{what}, box {at:?}"));
            }
        }
        for z_scales in [0u32, 1] {
            let what = format!("LWCV z_scales {z_scales} at {workers} workers");
            let engine = VolumeCompressor::new(3, z_scales, 16, 4, workers).unwrap();
            let bytes = engine.compress_stack(&volume).unwrap();
            assert_eq!(&bytes[..4], b"LWCV", "{what}");
            let grid = *DecodePlan::sniff(&bytes).unwrap().grid();
            let whole = engine.decompress_stack(&bytes).unwrap();
            assert_eq!(whole, volume, "{what}");
            for index in 0..grid.brick_count() {
                let at = grid.rect(index);
                let brick = engine.decompress_region(&bytes, at).unwrap();
                assert_crop(&volume, at, brick.samples(), 0, &format!("{what}, brick {index}"));
            }
            let mut next_z = 0;
            for slab in engine.decompress_slabs(&bytes).unwrap() {
                let slab = slab.unwrap();
                let plane = TileRect { x: 0, y: 0, width: volume.width(), height: volume.height() };
                let at = BrickRect { plane, z: slab.z, depth: slab.stack.depth() };
                assert_crop(
                    &volume,
                    at,
                    slab.stack.samples(),
                    0,
                    &format!("{what}, slab {}", slab.z),
                );
                next_z = slab.z + slab.stack.depth();
            }
            assert_eq!(next_z, volume.depth(), "{what}: slabs cover the volume");
            for at in seeded_boxes(volume.width(), volume.height(), volume.depth(), 11) {
                let region = engine.decompress_region(&bytes, at).unwrap();
                assert_crop(&volume, at, region.samples(), 0, &format!("{what}, box {at:?}"));
            }
        }
    }
}
