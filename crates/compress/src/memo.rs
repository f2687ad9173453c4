//! Compressed-page memoization, both directions.
//!
//! The swap engine's page contents are a pure function of `(seed, pfn)`
//! ([`PageSource`](../../dmem_swap/engine/struct.PageSource.html)): every
//! time a page is swapped out, the engine regenerates the *same* bytes and
//! the backend recompresses them to the *same* token stream. A
//! [`CompressMemo`] caches the compressed form per key so steady-state
//! swap-outs skip the LZ matcher entirely.
//!
//! The read path is memoized too: [`CompressMemo::get_or_decompress`]
//! maps a stored [`CompressedPage`] back to its original bytes with a
//! `memcmp` of the (small) compressed stream instead of an LZ decode plus
//! a full-page checksum pass. Compressing a page seeds the decompress
//! side, so even the *first* read of an entry is a hit — in the fault
//! loop (fig4) and the RDD get path (fig10), decompression dominated the
//! real CPU profile before this.
//!
//! The memo is for pages the codec may shrink. `dmem-core` keeps raw
//! payloads (compression off, or longer than a page) out of it in both
//! directions: they are checksummed once on the way in and once on the
//! way out with the word-parallel [`dmem_types::checksum`], which costs
//! less than the copies and the `memcmp` a memo round trip would.
//!
//! **Soundness.** A compress hit is only taken when the stored original
//! bytes are equal to the incoming page (a 4 KiB `memcmp`, far cheaper
//! than the matcher), so the memo is transparent even for callers whose
//! values mutate under a key (the chaos harness, KV overwrites): changed
//! bytes miss and replace the entry. A decompress hit requires the whole
//! `CompressedPage` (stream bytes, class, lengths, checksum) to equal one
//! that previously decoded successfully; decompression is a pure
//! function, so equal inputs are guaranteed the equal — already
//! checksum-verified — output, and corrupted streams can never match a
//! good entry. Simulated compression/decompression *cost* is charged by
//! the caller exactly as before — the memo elides real CPU work, never
//! virtual time — so completion times and CSV outputs are bit-identical
//! with or without it.

use crate::codec::{CompressedPage, PageCodec};
use dmem_types::{DmemResult, IdMap};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Default capacity: covers the bench working sets (the fig10 RDD spill
/// set peaks around 7.5k live pages) at roughly 8 KiB per entry (original
/// + compressed copy) ≈ 128 MiB per direction worst case. Sized with
/// headroom: a FIFO memo smaller than a sequentially-scanned working set
/// degrades to a 0% hit rate.
pub const DEFAULT_MEMO_CAPACITY: usize = 16384;

#[derive(Debug)]
struct MemoEntry {
    original: Vec<u8>,
    page: CompressedPage,
}

/// Aggregate hit/miss counters of a [`CompressMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Compress lookups answered from the cache (compression skipped).
    pub hits: u64,
    /// Compress lookups that ran the compressor (first sight or changed
    /// bytes).
    pub misses: u64,
    /// Decompress lookups answered from the cache (LZ decode and
    /// checksum pass skipped).
    pub decompress_hits: u64,
    /// Decompress lookups that ran the decoder.
    pub decompress_misses: u64,
}

/// A bounded memo of compressed pages keyed by a caller-chosen `(u64,
/// u64)` key — `(server, pfn)` for the disaggregated store, `(0, pfn)`
/// for single-server backends.
///
/// Eviction is FIFO by first insertion: the memo is a transparent cache,
/// so eviction order affects only the hit rate, never any output.
///
/// # Examples
///
/// ```
/// use dmem_compress::{CompressMemo, PageCodec};
/// use dmem_types::CompressionMode;
///
/// let codec = PageCodec::new(CompressionMode::FourGranularity);
/// let mut memo = CompressMemo::new(64);
/// let page = vec![7u8; 4096];
/// let a = memo.get_or_compress((0, 1), &codec, &page);
/// let b = memo.get_or_compress((0, 1), &codec, &page);
/// assert_eq!(a, b);
/// assert_eq!(memo.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct CompressMemo {
    map: IdMap<(u64, u64), MemoEntry>,
    order: VecDeque<(u64, u64)>,
    /// Decompress direction, keyed by the original page's checksum (the
    /// one field present in both the compressed and decompressed form);
    /// a hit additionally requires full `CompressedPage` equality.
    decomp: IdMap<u64, MemoEntry>,
    decomp_order: VecDeque<u64>,
    capacity: usize,
    stats: MemoStats,
}

impl CompressMemo {
    /// Creates a memo holding at most `capacity` entries per direction. A
    /// capacity of zero disables memoization (every lookup runs the
    /// codec).
    pub fn new(capacity: usize) -> Self {
        CompressMemo {
            map: IdMap::with_capacity_and_hasher(
                capacity.min(DEFAULT_MEMO_CAPACITY),
                Default::default(),
            ),
            order: VecDeque::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            decomp: IdMap::with_capacity_and_hasher(
                capacity.min(DEFAULT_MEMO_CAPACITY),
                Default::default(),
            ),
            decomp_order: VecDeque::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            capacity,
            stats: MemoStats::default(),
        }
    }

    /// A memo with [`DEFAULT_MEMO_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        CompressMemo::new(DEFAULT_MEMO_CAPACITY)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the compressed form of `data`, reusing the cached result
    /// when the key was last compressed with identical bytes, and running
    /// `codec` otherwise. The returned page is byte-identical to
    /// `codec.compress(data)` in every case.
    pub fn get_or_compress(
        &mut self,
        key: (u64, u64),
        codec: &PageCodec,
        data: &[u8],
    ) -> CompressedPage {
        if self.capacity == 0 {
            self.stats.misses += 1;
            return codec.compress(data);
        }
        match self.map.entry(key) {
            Entry::Occupied(mut occupied) => {
                if occupied.get().original == data {
                    self.stats.hits += 1;
                    return occupied.get().page.clone();
                }
                // Same key, new bytes (a versioned overwrite): recompress
                // and replace in place, keeping the FIFO position.
                self.stats.misses += 1;
                let page = codec.compress(data);
                let entry = occupied.get_mut();
                entry.original.clear();
                entry.original.extend_from_slice(data);
                entry.page = page.clone();
                self.remember_decompressed(page.clone(), data.to_vec());
                page
            }
            Entry::Vacant(vacant) => {
                self.stats.misses += 1;
                let page = codec.compress(data);
                vacant.insert(MemoEntry {
                    original: data.to_vec(),
                    page: page.clone(),
                });
                self.order.push_back(key);
                while self.map.len() > self.capacity {
                    if let Some(victim) = self.order.pop_front() {
                        self.map.remove(&victim);
                    } else {
                        break;
                    }
                }
                self.remember_decompressed(page.clone(), data.to_vec());
                page
            }
        }
    }

    /// Returns the original bytes of `stored`, reusing the cached result
    /// when an identical `CompressedPage` was compressed or decoded
    /// before, and running `codec.decompress` otherwise. Decompression is
    /// a pure function, so the result (including checksum verification)
    /// is identical to `codec.decompress(stored)` in every case.
    ///
    /// # Errors
    ///
    /// Propagates [`codec.decompress`](PageCodec::decompress) errors on a
    /// miss; a corrupted page can never equal a cached good one, so it
    /// always takes the miss path and fails exactly as without the memo.
    pub fn get_or_decompress(
        &mut self,
        codec: &PageCodec,
        stored: &CompressedPage,
    ) -> DmemResult<Vec<u8>> {
        if self.capacity == 0 {
            self.stats.decompress_misses += 1;
            return codec.decompress(stored);
        }
        if let Some(entry) = self.decomp.get(&stored.checksum) {
            if entry.page == *stored {
                self.stats.decompress_hits += 1;
                return Ok(entry.original.clone());
            }
        }
        self.stats.decompress_misses += 1;
        let original = codec.decompress(stored)?;
        self.remember_decompressed(stored.clone(), original.clone());
        Ok(original)
    }

    /// Records a known (compressed, original) pair on the decompress
    /// side. Compressing seeds this too, so the first read of a freshly
    /// written entry is already a hit.
    fn remember_decompressed(&mut self, page: CompressedPage, original: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        let key = page.checksum;
        match self.decomp.entry(key) {
            Entry::Occupied(mut occupied) => {
                // Checksum collision or re-learned pair: replace in
                // place, keeping the FIFO position.
                *occupied.get_mut() = MemoEntry { original, page };
            }
            Entry::Vacant(vacant) => {
                vacant.insert(MemoEntry { original, page });
                self.decomp_order.push_back(key);
                while self.decomp.len() > self.capacity {
                    if let Some(victim) = self.decomp_order.pop_front() {
                        self.decomp.remove(&victim);
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Drops a cached entry (e.g. when the caller knows the key's content
    /// is gone for good). Stale entries are harmless — the byte guard
    /// catches them — so calling this is an optimization, not a
    /// correctness requirement.
    pub fn invalidate(&mut self, key: (u64, u64)) {
        self.map.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use dmem_types::CompressionMode;
    use rand::SeedableRng;

    fn codec() -> PageCodec {
        PageCodec::new(CompressionMode::FourGranularity)
    }

    #[test]
    fn memo_matches_direct_compression() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        for pfn in 0..4u64 {
            let page = synth::page_around_ratio(3.0, 0.5, &mut rng);
            for _ in 0..3 {
                assert_eq!(
                    memo.get_or_compress((0, pfn), &codec, &page),
                    codec.compress(&page)
                );
            }
        }
        assert_eq!(memo.stats().misses, 4);
        assert_eq!(memo.stats().hits, 8);
    }

    #[test]
    fn changed_bytes_under_same_key_recompress() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let a = vec![1u8; 4096];
        let b = vec![2u8; 4096];
        memo.get_or_compress((0, 7), &codec, &a);
        let out = memo.get_or_compress((0, 7), &codec, &b);
        assert_eq!(out, codec.compress(&b), "stale entry must not be served");
        assert_eq!(memo.stats().hits, 0);
        // And the replacement is now servable.
        memo.get_or_compress((0, 7), &codec, &b);
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn capacity_bounds_entries() {
        let codec = codec();
        let mut memo = CompressMemo::new(4);
        for pfn in 0..32u64 {
            memo.get_or_compress((0, pfn), &codec, &vec![pfn as u8; 4096]);
            assert!(memo.len() <= 4);
        }
    }

    #[test]
    fn zero_capacity_disables() {
        let codec = codec();
        let mut memo = CompressMemo::new(0);
        let page = vec![3u8; 4096];
        memo.get_or_compress((0, 1), &codec, &page);
        memo.get_or_compress((0, 1), &codec, &page);
        assert!(memo.is_empty());
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn decompress_memo_matches_direct_decode() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        for _ in 0..4 {
            let page = synth::page_around_ratio(3.0, 0.5, &mut rng);
            let stored = codec.compress(&page);
            for _ in 0..3 {
                assert_eq!(memo.get_or_decompress(&codec, &stored).unwrap(), page);
            }
        }
        let stats = memo.stats();
        assert_eq!(stats.decompress_misses, 4);
        assert_eq!(stats.decompress_hits, 8);
    }

    #[test]
    fn compressing_seeds_the_decompress_side() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![6u8; 4096];
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        assert_eq!(memo.get_or_decompress(&codec, &stored).unwrap(), page);
        assert_eq!(memo.stats().decompress_hits, 1, "first read must hit");
        assert_eq!(memo.stats().decompress_misses, 0);
    }

    #[test]
    fn corrupt_stream_never_matches_cached_entry() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![0u8; 4096];
        let mut stored = memo.get_or_compress((0, 1), &codec, &page);
        assert!(stored.is_compressed);
        stored.data[0] ^= 0xFF;
        assert!(memo.get_or_decompress(&codec, &stored).is_err());
    }

    #[test]
    fn zero_capacity_disables_decompress_memo() {
        let codec = codec();
        let mut memo = CompressMemo::new(0);
        let stored = codec.compress(&vec![4u8; 4096]);
        memo.get_or_decompress(&codec, &stored).unwrap();
        memo.get_or_decompress(&codec, &stored).unwrap();
        assert_eq!(memo.stats().decompress_hits, 0);
        assert_eq!(memo.stats().decompress_misses, 2);
    }

    #[test]
    fn invalidate_forces_miss() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![5u8; 4096];
        memo.get_or_compress((0, 1), &codec, &page);
        memo.invalidate((0, 1));
        memo.get_or_compress((0, 1), &codec, &page);
        assert_eq!(memo.stats().misses, 2);
    }
}
