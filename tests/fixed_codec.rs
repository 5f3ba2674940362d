//! Property-based and end-to-end tests of the paper-exact fixed-path codec:
//! `LWCF` round trips across Table I banks × decomposition depths × tile
//! shapes × worker counts, worker-count independence of the bytes, typed
//! rejection of truncated or tampered containers, and byte-identical
//! dispatch through `dyn Codec`.

use lwc_core::lwc_coder::{is_fixed, FixedStream, FIXED_HEADER_BYTES};
use lwc_core::prelude::*;
use proptest::prelude::*;

fn engine(filter_index: usize, scales: u32, tile: usize, workers: usize) -> TiledFixedCompressor {
    let bank = FilterBank::table1(FilterId::ALL[filter_index]);
    TiledFixedCompressor::new(&bank, scales, tile, workers).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `decompress(compress(x))` is pixel-exact for every Table I bank at
    /// every depth/tile/worker combination, and the bytes never depend on
    /// the worker count: any parallel schedule emits the 1-worker stream.
    #[test]
    fn lwcf_roundtrips_and_ignores_worker_count(
        seed in 0u64..10_000,
        filter_index in 0usize..6,
        scales in 1u32..=3,
        tile_multiplier in 1usize..=3,
        width_multiplier in 1usize..=4,
        height_multiplier in 1usize..=4,
        workers in 2usize..=5,
    ) {
        // Every occurring tile shape must halve `scales` times, so dimensions
        // and tiles are multiples of 2^scales.
        let unit = 1usize << scales;
        let tile = tile_multiplier * unit;
        let image =
            synth::random_image(width_multiplier * unit, height_multiplier * unit, 12, seed);
        let parallel = engine(filter_index, scales, tile, workers);
        let bytes = parallel.compress(&image).unwrap();
        prop_assert!(is_fixed(&bytes));
        let sequential = engine(filter_index, scales, tile, 1);
        prop_assert_eq!(&bytes, &sequential.compress(&image).unwrap());
        prop_assert!(stats::bit_exact(&image, &parallel.decompress(&bytes).unwrap()).unwrap());
    }

    /// Truncated containers and tampered directory entries surface as typed
    /// errors, never panics, hangs or out-of-bounds slices.
    #[test]
    fn corrupt_lwcf_containers_are_rejected(seed in 0u64..10_000, cut in 1usize..64) {
        let image = synth::random_image(64, 64, 12, seed);
        let codec = engine(0, 3, 32, 1);
        let bytes = codec.compress(&image).unwrap();
        prop_assert!(is_fixed(&bytes));
        // The directory's final entry must equal the container length, so
        // dropping any suffix is a parse error before a slice is taken.
        let truncated = &bytes[..bytes.len() - cut.min(bytes.len() - 4)];
        prop_assert!(codec.decompress(truncated).is_err());
        // Forging a directory offset trips the monotonic/bounds validation.
        let mut forged = bytes.clone();
        forged[FIXED_HEADER_BYTES + (cut % 6)] ^= 0x80;
        prop_assert!(FixedStream::parse(&forged).is_err());
        prop_assert!(codec.decompress(&forged).is_err());
    }

    /// Dispatch through `dyn Codec` — the interface the batch engine and
    /// reproduction binary use — is byte-identical to concrete calls.
    #[test]
    fn dyn_codec_dispatch_is_byte_identical(seed in 0u64..10_000, filter_index in 0usize..6) {
        let image = synth::random_image(48, 48, 12, seed);
        let concrete = engine(filter_index, 2, 16, 2);
        let trait_object: &dyn Codec = &concrete;
        let via_trait = trait_object.compress(&image).unwrap();
        prop_assert_eq!(&via_trait, &concrete.compress(&image).unwrap());
        prop_assert!(
            stats::bit_exact(&image, &trait_object.decompress(&via_trait).unwrap()).unwrap()
        );
        // Tile access through the trait hits the directory-driven override.
        let grid = concrete.grid(48, 48).unwrap();
        let last = grid.tile_count() - 1;
        let tile = trait_object.decompress_tile(&via_trait, last).unwrap();
        prop_assert!(stats::bit_exact(&image.crop(grid.rect(last)).unwrap(), &tile).unwrap());
    }
}

/// Full-scale smoke: the CI frame size through compress, decompress and
/// random tile access, all via `dyn Codec`. Debug builds skip it (the fixed
/// datapath is far too slow unoptimized); CI covers the release run through
/// `reproduce fixed-codec 4096` as well.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 4096x4096 frame")]
fn full_scale_lwcf_roundtrip() {
    let bank = FilterBank::table1(FilterId::F1);
    let engine = TiledFixedCompressor::new(&bank, 5, DEFAULT_TILE_SIZE, 0).unwrap();
    let frame = synth::ct_phantom(4096, 4096, 12, 42);
    let trait_object: &dyn Codec = &engine;
    let bytes = trait_object.compress(&frame).unwrap();
    assert!(is_fixed(&bytes));
    let grid = engine.grid(4096, 4096).unwrap();
    let last = grid.tile_count() - 1;
    let tile = trait_object.decompress_tile(&bytes, last).unwrap();
    assert!(stats::bit_exact(&frame.crop(grid.rect(last)).unwrap(), &tile).unwrap());
    assert!(stats::bit_exact(&frame, &trait_object.decompress(&bytes).unwrap()).unwrap());
}
