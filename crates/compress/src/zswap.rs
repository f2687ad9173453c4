//! A zswap-style compressed RAM cache with zbud packing.
//!
//! zswap (the paper's reference \[32\], its Fig. 3 baseline) keeps
//! compressed swap pages in a RAM pool in front of the disk swap device.
//! Its classic `zbud` allocator packs at most **two** compressed objects
//! per 4 KiB frame, capping the effective compression ratio at 2 — which
//! is exactly why FastSwap's 4-granularity size classes beat it in Fig. 3.
//!
//! This implementation reproduces the mechanics that matter:
//!
//! * buddy packing: two objects share a frame when their compressed sizes
//!   fit together;
//! * rejection of poorly compressible pages (they go straight to disk);
//! * LRU eviction of whole entries when the pool is full, handing evicted
//!   pages back to the caller for disk writeback.

use crate::codec::CompressedPage;
use dmem_types::Lru;

/// Frame payload capacity: 4 KiB minus zbud's per-frame metadata.
const FRAME_CAPACITY: usize = 4096 - 56;
/// Pages whose compressed form exceeds this are rejected (stored
/// uncompressed on the swap device instead), mirroring zswap's
/// `max_compressed_size` behaviour.
const REJECT_THRESHOLD: usize = 4096 * 3 / 4;

#[derive(Debug)]
struct Slot {
    key: u64,
    page: CompressedPage,
}

#[derive(Debug, Default)]
struct Frame {
    slots: Vec<Slot>, // at most 2 (zbud = "buddies")
}

impl Frame {
    fn used(&self) -> usize {
        self.slots.iter().map(|s| s.page.data.len()).sum()
    }
    fn free(&self) -> usize {
        FRAME_CAPACITY - self.used()
    }
}

/// Outcome of a [`ZswapCache::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum ZswapInsert {
    /// Stored in the pool; any entries evicted to make room are returned
    /// (oldest first) for writeback to the backing swap device.
    Stored {
        /// Entries evicted to make room.
        evicted: Vec<(u64, CompressedPage)>,
    },
    /// Rejected as poorly compressible; the caller must write the page to
    /// the backing device directly.
    Rejected(CompressedPage),
}

/// Aggregate statistics of a [`ZswapCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ZswapStats {
    /// Entries currently stored.
    pub stored_pages: usize,
    /// 4 KiB frames currently allocated.
    pub frames: usize,
    /// Pages rejected as poorly compressible since creation.
    pub rejected: u64,
    /// Entries evicted to the backing device since creation.
    pub evicted: u64,
}

impl ZswapStats {
    /// Effective compression ratio: original bytes stored per frame byte.
    /// At most 2.0 by construction of zbud.
    pub fn effective_ratio(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            (self.stored_pages as f64 * 4096.0) / (self.frames as f64 * 4096.0)
        }
    }
}

/// The compressed RAM cache.
///
/// # Examples
///
/// ```
/// use dmem_compress::{PageCodec, ZswapCache};
/// use dmem_types::CompressionMode;
///
/// let codec = PageCodec::new(CompressionMode::FourGranularity);
/// let mut cache = ZswapCache::new(4); // four 4 KiB frames
/// let page = codec.compress(&vec![0u8; 4096]);
/// cache.insert(1, page);
/// assert!(cache.get(1).is_some());
/// assert_eq!(cache.stats().stored_pages, 1);
/// ```
#[derive(Debug)]
pub struct ZswapCache {
    frames: Vec<Frame>,
    max_frames: usize,
    /// key -> frame index, in recency order.
    index: Lru<u64, usize>,
    rejected: u64,
    evicted: u64,
}

impl ZswapCache {
    /// Creates a cache holding at most `max_frames` 4 KiB frames.
    pub fn new(max_frames: usize) -> Self {
        ZswapCache {
            frames: Vec::new(),
            max_frames,
            index: Lru::with_capacity(0),
            rejected: 0,
            evicted: 0,
        }
    }

    /// Inserts a compressed page under `key`, evicting LRU entries if the
    /// pool is full. Re-inserting an existing key replaces the old entry.
    pub fn insert(&mut self, key: u64, page: CompressedPage) -> ZswapInsert {
        if page.data.len() > REJECT_THRESHOLD {
            self.rejected += 1;
            return ZswapInsert::Rejected(page);
        }
        self.remove(key);
        let mut evicted = Vec::new();
        loop {
            // Best-fit among frames with room for a buddy.
            let fit = self
                .frames
                .iter()
                .enumerate()
                .filter(|(_, f)| f.slots.len() < 2 && f.free() >= page.data.len())
                .min_by_key(|(_, f)| f.free());
            if let Some((idx, _)) = fit {
                self.frames[idx].slots.push(Slot { key, page });
                self.index.insert(key, idx);
                return ZswapInsert::Stored { evicted };
            }
            if self.frames.len() < self.max_frames {
                self.frames.push(Frame::default());
                continue;
            }
            match self.evict_lru() {
                Some(victim) => evicted.push(victim),
                None => {
                    // Pool of zero frames: behave like rejection.
                    self.rejected += 1;
                    return ZswapInsert::Rejected(page);
                }
            }
        }
    }

    /// Membership probe without LRU side effects.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains(&key)
    }

    /// Looks up `key`, refreshing its LRU position.
    pub fn get(&mut self, key: u64) -> Option<&CompressedPage> {
        let frame_idx = *self.index.touch(&key)?;
        let slot = self.frames[frame_idx].slots.iter().find(|s| s.key == key)?;
        Some(&slot.page)
    }

    /// Removes and returns the entry under `key`.
    pub fn remove(&mut self, key: u64) -> Option<CompressedPage> {
        let frame_idx = self.index.remove(&key)?;
        self.take_slot(key, frame_idx)
    }

    /// Takes `key`'s page out of frame `frame_idx`, freeing the frame if
    /// that empties it.
    fn take_slot(&mut self, key: u64, frame_idx: usize) -> Option<CompressedPage> {
        let frame = &mut self.frames[frame_idx];
        let pos = frame.slots.iter().position(|s| s.key == key)?;
        let slot = frame.slots.remove(pos);
        self.compact();
        Some(slot.page)
    }

    fn evict_lru(&mut self) -> Option<(u64, CompressedPage)> {
        let (key, frame_idx) = self.index.pop_lru()?;
        let page = self.take_slot(key, frame_idx)?;
        self.evicted += 1;
        Some((key, page))
    }

    /// Drops empty frames (zbud frees frames whose buddies are both gone).
    fn compact(&mut self) {
        if self.frames.iter().any(|f| f.slots.is_empty()) {
            self.frames.retain(|f| !f.slots.is_empty());
            for (idx, frame) in self.frames.iter().enumerate() {
                for slot in &frame.slots {
                    *self.index.get_mut(&slot.key).expect("stored key is indexed") = idx;
                }
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ZswapStats {
        ZswapStats {
            stored_pages: self.index.len(),
            frames: self.frames.len(),
            rejected: self.rejected,
            evicted: self.evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::PageCodec;
    use crate::synth;
    use dmem_types::CompressionMode;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn codec() -> PageCodec {
        PageCodec::new(CompressionMode::FourGranularity)
    }

    fn compressible_page(seed: u64) -> CompressedPage {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        codec().compress(&synth::page_with_ratio(6.0, &mut rng))
    }

    #[test]
    fn buddies_share_frames() {
        let mut cache = ZswapCache::new(8);
        for key in 0..4 {
            assert!(matches!(
                cache.insert(key, compressible_page(key)),
                ZswapInsert::Stored { .. }
            ));
        }
        let stats = cache.stats();
        assert_eq!(stats.stored_pages, 4);
        assert_eq!(stats.frames, 2, "four small pages pack into two frames");
        assert!((stats.effective_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn effective_ratio_capped_at_two() {
        let mut cache = ZswapCache::new(64);
        // Even pages compressing 8x cannot beat zbud's 2-per-frame cap.
        for key in 0..32 {
            cache.insert(key, codec().compress(&synth::zero_page()));
        }
        assert!(cache.stats().effective_ratio() <= 2.0 + 1e-9);
    }

    #[test]
    fn incompressible_pages_rejected() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let raw = codec().compress(&synth::random_page(&mut rng));
        let mut cache = ZswapCache::new(8);
        assert!(matches!(cache.insert(1, raw), ZswapInsert::Rejected(_)));
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.stats().stored_pages, 0);
    }

    #[test]
    fn full_pool_evicts_lru() {
        let mut cache = ZswapCache::new(1); // one frame = two buddies max
        cache.insert(1, compressible_page(1));
        cache.insert(2, compressible_page(2));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(1).is_some());
        let result = cache.insert(3, compressible_page(3));
        match result {
            ZswapInsert::Stored { evicted } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].0, 2, "LRU entry (key 2) should be evicted");
            }
            other => panic!("expected Stored, got {other:?}"),
        }
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn remove_frees_frames() {
        let mut cache = ZswapCache::new(4);
        cache.insert(1, compressible_page(1));
        cache.insert(2, compressible_page(2));
        assert!(cache.remove(1).is_some());
        assert!(cache.remove(2).is_some());
        assert_eq!(cache.stats().frames, 0);
        assert!(cache.remove(1).is_none(), "double remove returns None");
    }

    #[test]
    fn reinsert_replaces() {
        let mut cache = ZswapCache::new(4);
        cache.insert(7, compressible_page(1));
        cache.insert(7, compressible_page(2));
        assert_eq!(cache.stats().stored_pages, 1);
    }

    #[test]
    fn zero_capacity_pool_rejects() {
        let mut cache = ZswapCache::new(0);
        assert!(matches!(
            cache.insert(1, compressible_page(1)),
            ZswapInsert::Rejected(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_pool_never_exceeds_capacity(
            max_frames in 1usize..8,
            keys in proptest::collection::vec(0u64..32, 1..48),
        ) {
            let mut cache = ZswapCache::new(max_frames);
            for key in keys {
                let _ = cache.insert(key, compressible_page(key));
                prop_assert!(cache.stats().frames <= max_frames);
                let s = cache.stats();
                prop_assert!(s.effective_ratio() <= 2.0 + 1e-9);
            }
        }

        #[test]
        fn prop_get_returns_inserted_payload(seed in 0u64..64) {
            let mut cache = ZswapCache::new(8);
            let page = compressible_page(seed);
            let expected = page.clone();
            cache.insert(seed, page);
            prop_assert_eq!(cache.get(seed).unwrap(), &expected);
        }
    }
}
