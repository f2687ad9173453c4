//! Pins the LZ matcher's output: every accept/reject decision and every
//! accepted stream of `lz::compress_within`, over a fixed corpus at four
//! budgets (512 B to unbounded), folded into one FNV-1a digest.
//!
//! The corpus is the swap engine's own `PageSource` pages at six ratios,
//! same-filled and zero pages, short inputs, and one input longer than
//! the 64 KiB window. A matcher rewrite that changes any stream by one
//! byte, or flips one decision, changes the digest.
//!
//! A second digest covers the edge of the matcher's no-match filter,
//! which skips the chain walk only until a call emits its first match: a
//! 4-byte value first inserted inside a match and repeated after a
//! literal run, and incompressible → motif → incompressible pages.

use dmem_compress::lz;
use dmem_swap::PageSource;
use dmem_types::{fnv1a64_fold, FNV1A64_OFFSET, PAGE_SIZE};

/// Digest of the corpus below, recorded with the hash-chain matcher that
/// reset its `usize` head table on every call.
const PINNED_DIGEST: u64 = 0x2cac_3f76_3582_4472;

/// Digest of [`edge_corpus`], recorded with the matcher that walked the
/// chain at every position.
const EDGE_DIGEST: u64 = 0xeee5_92cc_5cd4_034d;

const BUDGETS: [usize; 4] = [512, 1024, 2048, usize::MAX];
const RATIOS: [f64; 6] = [1.0, 1.3, 2.0, 3.0, 4.5, 8.0];
const PAGES_PER_RATIO: u64 = 64;

fn xorshift_bytes(mut state: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

fn corpus() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for (r, ratio) in RATIOS.iter().enumerate() {
        let source = PageSource::new(*ratio, 0.5, 0xC0DE + r as u64);
        inputs.extend((0..PAGES_PER_RATIO).map(|pfn| source.page(pfn)));
    }
    for fill in [0x00u8, 0x5A, 0xFF] {
        inputs.push(vec![fill; PAGE_SIZE]);
    }
    for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 100, 255] {
        inputs.push((0..len).map(|i| (i * 7 % 5) as u8).collect());
        inputs.push(xorshift_bytes(len as u64 + 1, len));
    }
    // Noise with two blocks repeated, one inside the 64 KiB window and
    // one beyond it: the matcher must take the first and skip the second.
    let mut long = xorshift_bytes(0x9e37_79b9_7f4a_7c15, 200 * 1024);
    long.copy_within(100..600, 30_000);
    long.copy_within(0..2048, 70_000);
    inputs.push(long);
    inputs
}

/// Inputs at the edge of the no-match filter, one pair per seed.
fn edge_corpus() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    for seed in 1..=8u64 {
        // A random block, its copy (one match up to byte 128), fresh
        // bytes, a literal run, then the bytes from just before the copy's
        // end on: the 4-byte values that straddle the end were inserted
        // only by the match.
        let block = xorshift_bytes(seed, 64);
        let mut input = block.clone();
        input.extend_from_slice(&block);
        input.extend(xorshift_bytes(seed + 100, 40));
        input.extend(xorshift_bytes(seed + 200, 300));
        let back = (seed % 3) as usize;
        input.extend_from_within(127 - back..168);
        input.extend(xorshift_bytes(seed + 300, 50));
        inputs.push(input);
        // Incompressible, an 8-byte motif, incompressible again.
        let split = 256 * seed as usize;
        let motif = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes();
        let mut page = xorshift_bytes(seed + 400, split);
        page.extend(motif.iter().cycle().take(1024));
        page.extend(xorshift_bytes(seed + 500, PAGE_SIZE - split - 1024));
        inputs.push(page);
    }
    inputs
}

fn corpus_digest(corpus: Vec<Vec<u8>>) -> u64 {
    let mut digest = FNV1A64_OFFSET;
    let mut stream = Vec::new();
    for input in corpus {
        for budget in BUDGETS {
            let accepted = lz::compress_within(&input, budget, &mut stream);
            digest = fnv1a64_fold(digest, &[accepted as u8]);
            if accepted {
                digest = fnv1a64_fold(digest, &(stream.len() as u64).to_le_bytes());
                digest = fnv1a64_fold(digest, &stream);
            }
        }
    }
    digest
}

#[test]
fn compress_within_streams_match_the_pinned_digest() {
    let digest = corpus_digest(corpus());
    assert_eq!(
        digest, PINNED_DIGEST,
        "lz streams changed: digest {digest:#018x}, pinned {PINNED_DIGEST:#018x}"
    );
}

#[test]
fn filter_edge_streams_match_the_pinned_digest() {
    let digest = corpus_digest(edge_corpus());
    assert_eq!(
        digest, EDGE_DIGEST,
        "lz streams at the filter's edge changed: digest {digest:#018x}, pinned {EDGE_DIGEST:#018x}"
    );
}
