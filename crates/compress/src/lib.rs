//! Page compression substrate (paper §IV-H, Fig. 3-5).
//!
//! FastSwap compresses 4 KiB pages before parking them in disaggregated
//! memory and stores the result in one of a small set of *size classes*
//! (512 B / 1 KiB / 2 KiB / 4 KiB) so the shared-memory slab allocator
//! stays simple. This crate provides:
//!
//! * [`lz`] — a real LZ77-family byte codec (hash-chain matcher, LZ4-like
//!   token format) that round-trips arbitrary pages;
//! * [`codec`] — the size-class policy layered on the codec
//!   ([`PageCodec`]), honouring the 2- and 4-granularity modes of
//!   [`dmem_types::CompressionMode`];
//! * [`zswap`] — the zbud frame count of a zswap pool, Fig. 3's
//!   compression-ratio baseline;
//! * [`synth`] — a synthetic page generator with calibrated
//!   compressibility, standing in for the paper's ML workload pages;
//! * [`memo`] — a byte-guarded compressed-page memo ([`CompressMemo`])
//!   that lets the swap hot path skip recompressing pages whose content
//!   has not changed (sound for arbitrary callers, free for the engine's
//!   pure-function pages).
//!
//! # Examples
//!
//! ```
//! use dmem_compress::{PageCodec, synth};
//! use dmem_types::{CompressionMode, SizeClass};
//! use dmem_sim::DetRng;
//!
//! let codec = PageCodec::new(CompressionMode::FourGranularity);
//! let mut rng = DetRng::new(7);
//! let page = synth::page_with_ratio(4.0, &mut rng);
//! let stored = codec.compress(&page);
//! assert!(stored.class <= SizeClass::C2K, "4x-compressible page fits a small class");
//! assert_eq!(codec.decompress(&stored).unwrap(), page);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod lz;
pub mod memo;
pub mod synth;
pub mod zswap;

pub use codec::{CompressedPage, PageCodec, StoredPage};
pub use memo::{CompressMemo, MemoStats};
pub use zswap::ZswapCache;
