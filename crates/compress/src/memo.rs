//! Compressed-page memoization, both directions, one entry per page.
//!
//! The swap engine's page contents are a pure function of `(seed, pfn)`
//! ([`PageSource`](../../dmem_swap/engine/struct.PageSource.html)): every
//! time a page is swapped out, the engine regenerates the *same* bytes and
//! the backend recompresses them to the *same* token stream. A
//! [`CompressMemo`] caches the compressed form per key so steady-state
//! swap-outs skip the LZ matcher entirely.
//!
//! The read path is memoized too: [`CompressMemo::lend_decompressed`]
//! maps a stored [`CompressedPage`] back to its original bytes with a
//! `memcmp` of the (small) compressed stream instead of an LZ decode plus
//! a full-page checksum pass. Compressing a page seeds the decompress
//! side, so even the *first* read of an entry is a hit — in the fault
//! loop (fig4) and the RDD get path (fig10), decompression dominated the
//! real CPU profile before this.
//!
//! **A decompress hit lends.** [`CompressMemo::lend_decompressed`] takes
//! the stored page where it lies ([`StoredPage`]) and, on a hit, lends
//! the memo's own original instead of copying it; only a miss makes a
//! buffer, the decoded page. A reader that only verifies or inspects the
//! page — the swap fault loop, FastSwap's batch swap-in — then copies
//! nothing; an owning caller makes the one copy it needs.
//!
//! **One entry per page.** An entry holds the page's original bytes and,
//! when the codec shrank it, the stream. Both directions share it: the
//! decompress side indexes the entry the compress side made, it does not
//! copy it. A page the codec kept raw holds only its original (its stored
//! form *is* the original, rebuilt on a hit) and never enters the
//! decompress side: nothing decodes a raw page but a checksum pass.
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
//! bytes miss and get a new entry. A decompress hit requires the whole
//! `CompressedPage` (stream bytes, class, lengths, checksum) to equal one
//! that was produced or decoded successfully; decompression is a pure
//! function, so equal inputs are guaranteed the equal — already
//! checksum-verified — output, and corrupted streams can never match a
//! good entry. Simulated compression/decompression *cost* is charged by
//! the caller exactly as before — the memo elides real CPU work, never
//! virtual time — so completion times and CSV outputs are bit-identical
//! with or without it.

use crate::codec::{CompressedPage, PageCodec, StoredPage};
use dmem_types::{DmemResult, IdMap, SizeClass};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default capacity: covers the bench working sets (the fig10 RDD spill
/// set peaks around 7.5k live pages). An entry is the 4 KiB original plus
/// a stream of at most 2 KiB (the largest class below a page), so each
/// side holds at most 16384 × 6 KiB = 96 MiB. The decompress side shares
/// the compress side's entries; only those the compress side has since
/// evicted or replaced cost memory of their own, so the worst case is
/// 192 MiB and a page that is written once and read back costs 6 KiB.
/// Sized with headroom: a FIFO memo smaller than a sequentially-scanned
/// working set degrades to a 0% hit rate.
pub(crate) const DEFAULT_MEMO_CAPACITY: usize = 16384;

/// One memoized page: its original bytes and, when the codec shrank it,
/// the stream and size class it is stored in.
#[derive(Debug)]
struct MemoEntry {
    original: Vec<u8>,
    checksum: u64,
    /// `None` for a page stored raw, whose stored bytes are `original`.
    compressed: Option<(Vec<u8>, SizeClass)>,
}

impl MemoEntry {
    fn new(original: &[u8], page: StoredPage<'_>) -> Self {
        MemoEntry {
            original: original.to_vec(),
            checksum: page.checksum,
            compressed: page
                .is_compressed
                .then(|| (page.data.to_vec(), page.class)),
        }
    }

    /// The stored form, equal to what the codec returned for `original`.
    fn page(&self) -> CompressedPage {
        let (data, class) = match &self.compressed {
            Some((stream, class)) => (stream.clone(), *class),
            None => (self.original.clone(), SizeClass::C4K),
        };
        CompressedPage {
            data,
            class,
            original_len: self.original.len(),
            is_compressed: self.compressed.is_some(),
            checksum: self.checksum,
        }
    }

    /// `true` when `stored` is this entry's compressed form.
    fn decodes(&self, stored: StoredPage<'_>) -> bool {
        let Some((stream, class)) = &self.compressed else {
            return false;
        };
        stored.is_compressed
            && stored.checksum == self.checksum
            && stored.original_len == self.original.len()
            && stored.class == *class
            && stored.data == *stream
    }
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
    map: IdMap<(u64, u64), Arc<MemoEntry>>,
    order: VecDeque<(u64, u64)>,
    /// Decompress direction, keyed by the original page's checksum (the
    /// one field present in both the compressed and decompressed form);
    /// a hit additionally requires full `CompressedPage` equality. Holds
    /// compressed entries only.
    decomp: IdMap<u64, Arc<MemoEntry>>,
    decomp_order: VecDeque<u64>,
    capacity: usize,
    stats: MemoStats,
}

impl CompressMemo {
    /// Creates a memo holding at most `capacity` entries per direction. A
    /// capacity of zero disables memoization (every lookup runs the
    /// codec).
    pub fn new(capacity: usize) -> Self {
        let reserve = capacity.min(DEFAULT_MEMO_CAPACITY);
        CompressMemo {
            map: IdMap::with_capacity_and_hasher(reserve, Default::default()),
            order: VecDeque::with_capacity(reserve),
            decomp: IdMap::with_capacity_and_hasher(reserve, Default::default()),
            decomp_order: VecDeque::with_capacity(reserve),
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
        if let Some(entry) = self.map.get(&key) {
            if entry.original == data {
                self.stats.hits += 1;
                return entry.page();
            }
        }
        self.stats.misses += 1;
        let page = codec.compress(data);
        let entry = Arc::new(MemoEntry::new(data, page.as_stored()));
        // Same key, new bytes (a versioned overwrite) replaces the entry
        // and keeps its FIFO position; the decompress side keeps the old
        // one, so the old stream still decodes from the memo.
        if self.map.insert(key, Arc::clone(&entry)).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                let Some(victim) = self.order.pop_front() else { break };
                self.map.remove(&victim);
            }
        }
        self.remember_decompressed(entry);
        page
    }

    /// Returns the original bytes of a page borrowed where it lies,
    /// lending them: a hit — the whole stored page equal to one that was
    /// produced or decoded successfully — lends the memo's original, a
    /// miss returns the page `codec.decompress` decodes. Decompression is
    /// a pure function, so the bytes (including checksum verification)
    /// are the ones `codec.decompress(stored)` returns in every case.
    ///
    /// # Errors
    ///
    /// Propagates [`codec.decompress`](PageCodec::decompress) errors on a
    /// miss; a corrupted page can never equal a cached good one, so it
    /// always takes the miss path and fails exactly as without the memo.
    pub fn lend_decompressed(
        &mut self,
        codec: &PageCodec,
        stored: StoredPage<'_>,
    ) -> DmemResult<Cow<'_, [u8]>> {
        // Looked up twice on a hit: a borrow returned from one branch
        // would hold the memo for the miss branch's insert as well.
        if self.decomp.get(&stored.checksum).is_some_and(|entry| entry.decodes(stored)) {
            self.stats.decompress_hits += 1;
            return Ok(Cow::Borrowed(&self.decomp[&stored.checksum].original));
        }
        self.stats.decompress_misses += 1;
        let original = codec.decode(stored)?;
        self.remember_decompressed(Arc::new(MemoEntry::new(&original, stored)));
        Ok(Cow::Owned(original))
    }

    /// Indexes a compressed entry on the decompress side; raw entries and
    /// a disabled memo keep nothing. Compressing seeds this too, so the
    /// first read of a freshly written entry is already a hit.
    fn remember_decompressed(&mut self, entry: Arc<MemoEntry>) {
        if self.capacity == 0 || entry.compressed.is_none() {
            return;
        }
        let key = entry.checksum;
        match self.decomp.entry(key) {
            Entry::Occupied(mut occupied) => {
                // Checksum collision or re-learned pair: replace in
                // place, keeping the FIFO position.
                *occupied.get_mut() = entry;
            }
            Entry::Vacant(vacant) => {
                vacant.insert(entry);
                self.decomp_order.push_back(key);
                while self.decomp.len() > self.capacity {
                    let Some(victim) = self.decomp_order.pop_front() else { break };
                    self.decomp.remove(&victim);
                }
            }
        }
    }

    /// Bytes the memo holds for page data, counting an entry both sides
    /// share once.
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.map
            .values()
            .chain(self.decomp.values())
            .filter(|entry| seen.insert(Arc::as_ptr(entry)))
            .map(|entry| {
                entry.original.len() + entry.compressed.as_ref().map_or(0, |(s, _)| s.len())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use dmem_types::CompressionMode;

    fn codec() -> PageCodec {
        PageCodec::new(CompressionMode::FourGranularity)
    }

    fn noise_page(seed: u64) -> Vec<u8> {
        let mut rng = dmem_sim::DetRng::new(seed);
        synth::random_page(&mut rng)
    }

    #[test]
    fn memo_matches_direct_compression() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut rng = dmem_sim::DetRng::new(1);
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
            assert!(memo.map.len() <= 4);
            assert!(memo.decomp.len() <= 4);
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
        let mut rng = dmem_sim::DetRng::new(9);
        for _ in 0..4 {
            let page = synth::page_around_ratio(3.0, 0.5, &mut rng);
            let stored = codec.compress(&page);
            for _ in 0..3 {
                assert_eq!(memo.lend_decompressed(&codec, stored.as_stored()).unwrap(), page);
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
        assert_eq!(memo.lend_decompressed(&codec, stored.as_stored()).unwrap(), page);
        assert_eq!(memo.stats().decompress_hits, 1, "first read must hit");
        assert_eq!(memo.stats().decompress_misses, 0);
    }

    #[test]
    fn both_directions_share_one_entry() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![6u8; 4096];
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        assert!(stored.is_compressed);
        assert_eq!(memo.held_bytes(), page.len() + stored.data.len());
    }

    #[test]
    fn raw_page_is_held_once_and_rebuilt_exactly() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = noise_page(3);
        let direct = codec.compress(&page);
        assert!(!direct.is_compressed);
        assert_eq!(memo.get_or_compress((0, 1), &codec, &page), direct);
        assert_eq!(memo.get_or_compress((0, 1), &codec, &page), direct);
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.held_bytes(), page.len(), "only the original is kept");
    }

    #[test]
    fn raw_pages_never_enter_the_decompress_side() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = noise_page(4);
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        assert!(memo.decomp.is_empty());
        // Decoding it still works, and still leaves the side empty.
        for _ in 0..2 {
            assert_eq!(memo.lend_decompressed(&codec, stored.as_stored()).unwrap(), page);
        }
        assert!(memo.decomp.is_empty());
        assert_eq!(memo.stats().decompress_misses, 2);
    }

    #[test]
    fn a_hit_lends_the_original_and_a_miss_owns_its_decode() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![6u8; 4096];
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        let hit = memo.lend_decompressed(&codec, stored.as_stored()).unwrap();
        assert!(matches!(hit, Cow::Borrowed(_)));
        assert_eq!(*hit, page[..]);
        let other = codec.compress(&vec![7u8; 4096]);
        let miss = memo.lend_decompressed(&codec, other.as_stored()).unwrap();
        assert!(matches!(miss, Cow::Owned(_)));
        assert_eq!(*miss, [7u8; 4096]);
        assert_eq!(memo.stats().decompress_hits, 1);
        assert_eq!(memo.stats().decompress_misses, 1);
    }

    #[test]
    fn old_stream_decodes_after_a_versioned_overwrite() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut rng = dmem_sim::DetRng::new(5);
        let old = synth::page_with_ratio(4.0, &mut rng);
        let new = synth::page_with_ratio(4.0, &mut rng);
        let old_stored = memo.get_or_compress((0, 1), &codec, &old);
        let new_stored = memo.get_or_compress((0, 1), &codec, &new);
        assert!(old_stored.is_compressed && new_stored.is_compressed);
        assert_eq!(memo.lend_decompressed(&codec, old_stored.as_stored()).unwrap(), old);
        assert_eq!(memo.lend_decompressed(&codec, new_stored.as_stored()).unwrap(), new);
        assert_eq!(memo.stats().decompress_hits, 2);
    }

    #[test]
    fn corrupt_stream_never_matches_cached_entry() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![0u8; 4096];
        let mut stored = memo.get_or_compress((0, 1), &codec, &page);
        assert!(stored.is_compressed);
        stored.data[0] ^= 0xFF;
        assert!(memo.lend_decompressed(&codec, stored.as_stored()).is_err());
    }

    #[test]
    fn zero_capacity_disables_decompress_memo() {
        let codec = codec();
        let mut memo = CompressMemo::new(0);
        let stored = codec.compress(&vec![4u8; 4096]);
        memo.lend_decompressed(&codec, stored.as_stored()).unwrap();
        memo.lend_decompressed(&codec, stored.as_stored()).unwrap();
        assert_eq!(memo.stats().decompress_hits, 0);
        assert_eq!(memo.stats().decompress_misses, 2);
    }
}
