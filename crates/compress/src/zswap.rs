//! zswap's zbud frame count: the Fig. 3 compression-ratio baseline.
//!
//! zswap (the paper's reference \[32\], its Fig. 3 baseline) keeps
//! compressed swap pages in a RAM pool in front of the disk swap device.
//! Its classic `zbud` allocator packs at most **two** compressed objects
//! per 4 KiB frame, capping the effective compression ratio at 2 — which
//! is exactly why FastSwap's 4-granularity size classes beat it in Fig. 3.
//!
//! Fig. 3 only asks how many frames a page population takes, so this
//! counts exactly that:
//!
//! * buddy packing: a page joins the best-fitting frame that holds one
//!   buddy and has room for it, else opens a frame;
//! * rejection of poorly compressible pages (they go straight to disk).

/// Frame payload capacity: 4 KiB minus zbud's per-frame metadata.
const FRAME_CAPACITY: usize = 4096 - 56;
/// Pages whose compressed form exceeds this are rejected (stored
/// uncompressed on the swap device instead), mirroring zswap's
/// `max_compressed_size` behaviour.
const REJECT_THRESHOLD: usize = 4096 * 3 / 4;

/// A zbud pool that counts frames, never evicting.
///
/// # Examples
///
/// ```
/// use dmem_compress::ZswapCache;
///
/// let mut cache = ZswapCache::default();
/// cache.insert(1000);
/// cache.insert(1000); // the first frame's buddy
/// cache.insert(3500); // too poorly compressed: rejected
/// assert_eq!((cache.frames(), cache.rejected()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct ZswapCache {
    /// Free bytes of each frame holding one buddy, in allocation order; a
    /// frame's second buddy closes it.
    open: Vec<usize>,
    frames: usize,
    rejected: usize,
}

impl ZswapCache {
    /// Packs a page whose compressed form is `compressed_len` bytes: into
    /// the open frame with the least room that fits it (the earliest of
    /// equals), else into a new frame; above 3 KiB it is rejected.
    pub fn insert(&mut self, compressed_len: usize) {
        if compressed_len > REJECT_THRESHOLD {
            self.rejected += 1;
            return;
        }
        let fit = self
            .open
            .iter()
            .enumerate()
            .filter(|&(_, &free)| free >= compressed_len)
            .min_by_key(|&(_, &free)| free);
        match fit {
            Some((idx, _)) => {
                self.open.remove(idx);
            }
            None => {
                self.frames += 1;
                self.open.push(FRAME_CAPACITY - compressed_len);
            }
        }
    }

    /// 4 KiB frames allocated.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Pages rejected as poorly compressible.
    pub fn rejected(&self) -> usize {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::PageCodec;
    use crate::synth;
    use dmem_types::CompressionMode;

    fn codec() -> PageCodec {
        PageCodec::new(CompressionMode::FourGranularity)
    }

    fn compressible_len(seed: u64) -> usize {
        let mut rng = dmem_sim::DetRng::new(seed);
        codec().compress(&synth::page_with_ratio(6.0, &mut rng)).data.len()
    }

    #[test]
    fn buddies_share_frames() {
        let mut cache = ZswapCache::default();
        for key in 0..4 {
            cache.insert(compressible_len(key));
        }
        assert_eq!(cache.frames(), 2, "four small pages pack into two frames");
        assert_eq!(cache.rejected(), 0);
    }

    #[test]
    fn effective_ratio_capped_at_two() {
        let mut cache = ZswapCache::default();
        // Even pages compressing 8x cannot beat zbud's 2-per-frame cap.
        let zero = codec().compress(&synth::zero_page()).data.len();
        for _ in 0..32 {
            cache.insert(zero);
        }
        assert_eq!(cache.frames(), 16);
    }

    #[test]
    fn incompressible_pages_rejected() {
        let mut rng = dmem_sim::DetRng::new(9);
        let raw = codec().compress(&synth::random_page(&mut rng));
        let mut cache = ZswapCache::default();
        cache.insert(raw.data.len());
        assert_eq!(cache.rejected(), 1);
        assert_eq!(cache.frames(), 0);
    }

    /// The frame and reject counts of a fixed length list, as the
    /// evicting, payload-holding pool this counter replaced gave them
    /// (recorded at 25976e5). The list opens with a best-fit tie (two
    /// frames left 1040 B free, then a 1000 B page: the first wins), the
    /// reject edge (3072 B packs, 3073 B does not), a best fit that skips
    /// a roomier frame and an exact fit (2000 B into 2000 B free), then
    /// 400 seeded lengths, half of them rounded up to 256 B so equal free
    /// space recurs.
    #[test]
    fn zbud_count_pin() {
        let mut lens = vec![1000, 1000, 3000, 3000, 1000, 3072, 3073, 4096, 500, 2000, 2000, 2040, 2000];
        let mut rng = dmem_sim::DetRng::new(0x2B0D);
        for _ in 0..400 {
            let len = 1 + rng.below(4096);
            lens.push(if rng.chance(0.5) { len.div_ceil(256) * 256 } else { len });
        }
        let count = |lens: &[usize]| {
            let mut cache = ZswapCache::default();
            for &len in lens {
                cache.insert(len);
            }
            (cache.frames(), cache.rejected())
        };
        assert_eq!(count(&lens[..13]), (6, 2));
        assert_eq!(count(&lens), (158, 105));
    }
}
