//! Pins the LZ matcher's output: every accept/reject decision and every
//! accepted stream of `lz::compress_within`, over a fixed corpus at four
//! budgets (512 B to unbounded), folded into one FNV-1a digest.
//!
//! The corpus is the swap engine's own `PageSource` pages at six ratios,
//! same-filled and zero pages, short inputs, and one input longer than
//! the 64 KiB window. A matcher rewrite that changes any stream by one
//! byte, or flips one decision, changes the digest.

use dmem_compress::lz;
use dmem_swap::PageSource;
use dmem_types::{fnv1a64_fold, FNV1A64_OFFSET, PAGE_SIZE};

/// Digest of the corpus below, recorded with the hash-chain matcher that
/// reset its `usize` head table on every call.
const PINNED_DIGEST: u64 = 0x2cac_3f76_3582_4472;

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

fn corpus_digest() -> u64 {
    let mut digest = FNV1A64_OFFSET;
    let mut stream = Vec::new();
    for input in corpus() {
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
    let digest = corpus_digest();
    assert_eq!(
        digest, PINNED_DIGEST,
        "lz streams changed: digest {digest:#018x}, pinned {PINNED_DIGEST:#018x}"
    );
}
