//! The size-class page codec used by FastSwap.

use crate::lz;
use dmem_types::{checksum, CompressionMode, DmemError, DmemResult, EntryId, SizeClass, PAGE_SIZE};

/// A page after compression, tagged with the size class it is stored in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedPage {
    /// The stored bytes: LZ stream, or the raw page when incompressible
    /// (exactly `PAGE_SIZE` bytes in that case).
    pub data: Vec<u8>,
    /// Size class the page occupies in slab storage.
    pub class: SizeClass,
    /// Original (uncompressed) length.
    pub original_len: usize,
    /// `true` if `data` is an LZ stream, `false` if raw.
    pub is_compressed: bool,
    /// Integrity checksum ([`dmem_types::checksum`]) of the original page.
    pub checksum: u64,
}

impl CompressedPage {
    /// Bytes of slab storage this page consumes (its class footprint).
    pub(crate) fn stored_bytes(&self) -> usize {
        self.class.bytes().as_u64() as usize
    }

    /// This page with its bytes lent, as a tier holds it.
    pub fn as_stored(&self) -> StoredPage<'_> {
        StoredPage {
            data: &self.data,
            class: self.class,
            original_len: self.original_len,
            is_compressed: self.is_compressed,
            checksum: self.checksum,
        }
    }
}

/// A [`CompressedPage`] whose bytes are borrowed from wherever they lie
/// (a slab, a disk buffer, a fabric read), so it can be verified and
/// decoded without first being copied out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredPage<'a> {
    /// The stored bytes: LZ stream, or the raw page.
    pub data: &'a [u8],
    /// Size class the page occupies in slab storage.
    pub class: SizeClass,
    /// Original (uncompressed) length.
    pub original_len: usize,
    /// `true` if `data` is an LZ stream, `false` if raw.
    pub is_compressed: bool,
    /// Integrity checksum ([`dmem_types::checksum`]) of the original page.
    pub checksum: u64,
}

std::thread_local! {
    /// Scratch for [`PageCodec::compress`]'s LZ attempt.
    static STREAM: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Compresses and decompresses pages under a [`CompressionMode`] policy.
///
/// With [`CompressionMode::Off`] every page is stored raw in the 4 KiB
/// class; the granularity modes compress and round up to the smallest
/// allowed class. Pages whose LZ stream does not fit any class smaller
/// than 4 KiB are stored raw — decompression cost is never paid for
/// incompressible pages.
///
/// # Examples
///
/// ```
/// use dmem_compress::PageCodec;
/// use dmem_types::{CompressionMode, SizeClass};
///
/// let codec = PageCodec::new(CompressionMode::TwoGranularity);
/// let page = vec![0u8; 4096]; // maximally compressible
/// let stored = codec.compress(&page);
/// // Two-granularity mode cannot do better than the 2 KiB class:
/// assert_eq!(stored.class, SizeClass::C2K);
/// assert_eq!(codec.decompress(&stored).unwrap(), page);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCodec {
    mode: CompressionMode,
}

impl PageCodec {
    /// Creates a codec for the given mode.
    pub fn new(mode: CompressionMode) -> Self {
        PageCodec { mode }
    }

    /// The codec's compression mode.
    pub fn mode(&self) -> CompressionMode {
        self.mode
    }

    /// Compresses one page (at most [`PAGE_SIZE`] bytes).
    ///
    /// # Panics
    ///
    /// Panics if `page` exceeds [`PAGE_SIZE`] bytes; page-granularity
    /// callers never construct larger buffers.
    pub fn compress(&self, page: &[u8]) -> CompressedPage {
        assert!(
            page.len() <= PAGE_SIZE,
            "page of {} bytes exceeds PAGE_SIZE",
            page.len()
        );
        let sum = checksum(page);
        if self.mode.is_enabled() {
            // A stream longer than the largest sub-4K class would be
            // stored raw anyway, so the matcher may stop at that budget —
            // surviving streams are byte-identical to an unbounded run.
            let budget = self
                .mode
                .classes()
                .iter()
                .filter(|c| **c < SizeClass::C4K)
                .map(|c| c.bytes().as_u64() as usize)
                .max();
            // The attempt runs in a reused buffer, so a page kept raw
            // allocates no stream; an accepted stream is copied out at its
            // exact length, carrying no spare capacity into the tiers.
            let stream = budget.and_then(|budget| {
                STREAM.with(|stream| {
                    let stream = &mut *stream.borrow_mut();
                    lz::compress_within(page, budget, stream).then(|| stream.to_vec())
                })
            });
            if let Some(stream) = stream {
                // Pick the smallest allowed class that fits the stream
                // (within budget, so below 4 KiB).
                let class = SizeClass::fitting_among(stream.len(), self.mode.classes())
                    .expect("stream within budget fits a class");
                return CompressedPage {
                    data: stream,
                    class,
                    original_len: page.len(),
                    is_compressed: true,
                    checksum: sum,
                };
            }
        }
        CompressedPage {
            data: page.to_vec(),
            class: SizeClass::C4K,
            original_len: page.len(),
            is_compressed: false,
            checksum: sum,
        }
    }

    /// Decompresses a stored page and verifies its checksum.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::Corrupt`] if the stream is malformed or the
    /// checksum does not match (the entry id in the error is a zero
    /// placeholder; callers with context attach their own).
    pub fn decompress(&self, stored: &CompressedPage) -> DmemResult<Vec<u8>> {
        self.decode(stored.as_stored())
    }

    /// [`PageCodec::decompress`] of a page borrowed where it lies.
    ///
    /// # Errors
    ///
    /// As [`PageCodec::decompress`].
    pub(crate) fn decode(&self, stored: StoredPage<'_>) -> DmemResult<Vec<u8>> {
        let page = if stored.is_compressed {
            lz::decompress(stored.data, stored.original_len)
                .map_err(|_| DmemError::Corrupt(EntryId::default()))?
        } else {
            stored.data.to_vec()
        };
        if checksum(&page) != stored.checksum {
            return Err(DmemError::Corrupt(EntryId::default()));
        }
        Ok(page)
    }

    /// Aggregate compression ratio over a set of pages: total original
    /// bytes over total class-footprint bytes. This is the metric Fig. 3
    /// plots per workload.
    pub fn aggregate_ratio<'a, I>(&self, pages: I) -> f64
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut original = 0usize;
        let mut stored = 0usize;
        for page in pages {
            let c = self.compress(page);
            original += c.original_len;
            stored += c.stored_bytes();
        }
        if stored == 0 {
            1.0
        } else {
            original as f64 / stored as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use proptest::prelude::*;

    #[test]
    fn off_mode_stores_raw() {
        let codec = PageCodec::new(CompressionMode::Off);
        let page = vec![0u8; PAGE_SIZE];
        let stored = codec.compress(&page);
        assert_eq!(stored.class, SizeClass::C4K);
        assert!(!stored.is_compressed);
        assert_eq!(codec.decompress(&stored).unwrap(), page);
    }

    #[test]
    fn four_granularity_reaches_512b() {
        let codec = PageCodec::new(CompressionMode::FourGranularity);
        let stored = codec.compress(&vec![0u8; PAGE_SIZE]);
        assert_eq!(stored.class, SizeClass::C512);
    }

    #[test]
    fn two_granularity_floor_is_2k() {
        let codec = PageCodec::new(CompressionMode::TwoGranularity);
        let stored = codec.compress(&vec![0u8; PAGE_SIZE]);
        assert_eq!(stored.class, SizeClass::C2K);
    }

    #[test]
    fn accepted_streams_carry_no_spare_capacity() {
        let codec = PageCodec::new(CompressionMode::FourGranularity);
        let mut rng = dmem_sim::DetRng::new(5);
        for ratio in [2.5, 4.0, 8.0] {
            let stored = codec.compress(&synth::page_with_ratio(ratio, &mut rng));
            assert!(stored.is_compressed, "ratio {ratio} must compress");
            assert_eq!(stored.data.capacity(), stored.data.len(), "ratio {ratio}");
        }
    }

    #[test]
    fn incompressible_page_stored_raw() {
        let mut rng = dmem_sim::DetRng::new(3);
        let mut page = vec![0u8; PAGE_SIZE];
        rng.fill_bytes(&mut page);
        let codec = PageCodec::new(CompressionMode::FourGranularity);
        let stored = codec.compress(&page);
        assert_eq!(stored.class, SizeClass::C4K);
        assert!(!stored.is_compressed, "random page must be stored raw");
        assert_eq!(codec.decompress(&stored).unwrap(), page);
    }

    #[test]
    fn checksum_detects_tampering() {
        let codec = PageCodec::new(CompressionMode::Off);
        let mut stored = codec.compress(&vec![42u8; PAGE_SIZE]);
        stored.data[100] ^= 0xFF;
        assert!(matches!(
            codec.decompress(&stored),
            Err(DmemError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_stream_detected() {
        let codec = PageCodec::new(CompressionMode::FourGranularity);
        let mut stored = codec.compress(&vec![0u8; PAGE_SIZE]);
        assert!(stored.is_compressed);
        stored.data.truncate(stored.data.len() / 2);
        assert!(codec.decompress(&stored).is_err());
    }

    #[test]
    fn four_granularity_never_worse_than_two() {
        let four = PageCodec::new(CompressionMode::FourGranularity);
        let two = PageCodec::new(CompressionMode::TwoGranularity);
        let mut rng = dmem_sim::DetRng::new(11);
        for ratio in [1.0, 1.5, 2.0, 3.0, 5.0, 8.0] {
            let pages: Vec<Vec<u8>> = (0..16)
                .map(|_| synth::page_with_ratio(ratio, &mut rng))
                .collect();
            let r4 = four.aggregate_ratio(pages.iter().map(|p| p.as_slice()));
            let r2 = two.aggregate_ratio(pages.iter().map(|p| p.as_slice()));
            assert!(
                r4 >= r2 - 1e-9,
                "4-granularity ({r4:.2}) must dominate 2-granularity ({r2:.2}) at target {ratio}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds PAGE_SIZE")]
    fn oversized_page_panics() {
        PageCodec::new(CompressionMode::Off).compress(&vec![0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn aggregate_ratio_empty_is_one() {
        let codec = PageCodec::new(CompressionMode::FourGranularity);
        assert_eq!(codec.aggregate_ratio(std::iter::empty::<&[u8]>()), 1.0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_all_modes(seed in 0u64..200, ratio in 1.0f64..8.0) {
            let mut rng = dmem_sim::DetRng::new(seed);
            let page = synth::page_with_ratio(ratio, &mut rng);
            for mode in [CompressionMode::Off, CompressionMode::TwoGranularity, CompressionMode::FourGranularity] {
                let codec = PageCodec::new(mode);
                let stored = codec.compress(&page);
                prop_assert_eq!(codec.decompress(&stored).unwrap(), page.clone());
                prop_assert!(stored.data.len() <= stored.stored_bytes());
            }
        }
    }
}
