//! Pins page synthesis on its own: the bytes `PageSource::page` returns
//! at six ratios and two spreads, 64 pfns each, folded into one FNV-1a
//! digest.
//!
//! `lz_stream_pin.rs` catches a synthesis change only through its LZ
//! corpus; this digest covers the same-filled mode, the random prefix
//! and the motif tail directly, with no codec in between.

use dmem_swap::PageSource;
use dmem_types::{fnv1a64_fold, FNV1A64_OFFSET};

/// Digest of the pages below (spread 0.0 from 2.0 up needed
/// `page_around_ratio_into`'s `next_up` bound first; every combination
/// that ran before gives the same bytes).
const PINNED_DIGEST: u64 = 0x1c73_4a74_77d6_aa1d;

const RATIOS: [f64; 6] = [1.0, 1.3, 2.0, 3.0, 4.5, 8.0];
const SPREADS: [f64; 2] = [0.0, 0.4];
const PFNS: u64 = 64;

fn pages_digest() -> u64 {
    let mut digest = FNV1A64_OFFSET;
    for (r, ratio) in RATIOS.iter().enumerate() {
        for (s, spread) in SPREADS.iter().enumerate() {
            let source = PageSource::new(*ratio, *spread, 0x5EED + (r * SPREADS.len() + s) as u64);
            for pfn in 0..PFNS {
                digest = fnv1a64_fold(digest, &source.page(pfn));
            }
        }
    }
    digest
}

#[test]
fn page_source_bytes_match_the_pinned_digest() {
    let digest = pages_digest();
    assert_eq!(
        digest, PINNED_DIGEST,
        "synthesised pages changed: digest {digest:#018x}, pinned {PINNED_DIGEST:#018x}"
    );
}
