//! Core vocabulary types for the disaggregated memory system.
//!
//! This crate defines the identifiers, byte-size arithmetic, error type,
//! data-entry locations and configuration shared by every other crate in the
//! workspace. It deliberately has no dependency on the simulation substrate
//! so that the domain model stays free of mechanism.
//!
//! # Examples
//!
//! ```
//! use dmem_types::{ByteSize, NodeId, ServerId, PAGE_SIZE};
//!
//! let node = NodeId::new(3);
//! let server = ServerId::new(node, 0);
//! assert_eq!(server.node(), node);
//! assert_eq!(ByteSize::from_mib(1).as_u64(), 1024 * 1024);
//! assert_eq!(PAGE_SIZE, 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytesize;
mod checksum;
mod config;
mod error;
mod idmap;
mod ids;
mod location;
mod lru;

pub use bytesize::ByteSize;
pub use checksum::{checksum, fnv1a64, fnv1a64_fold, FNV1A64_OFFSET};
pub use config::{
    ClusterConfig, CompressionMode, CxlPoolConfig, DistributionRatio, DonationPolicy,
    NodeConfig, PlacementStrategy, ReplicationFactor, ServerConfig, SwapInMode,
};
pub use error::{DmemError, DmemResult};
pub use idmap::{IdHasher, IdMap, IdSet};
pub use ids::{EntryId, GroupId, MrId, NodeId, PageId, QpId, ServerId, SlabId, TenantId};
pub use location::{EntryLocation, EntryRecord, SizeClass};
pub use lru::Lru;

/// The system page size in bytes. The paper's systems (FastSwap, Infiniswap,
/// zswap) all operate on standard 4 KiB x86 pages.
pub const PAGE_SIZE: usize = 4096;
