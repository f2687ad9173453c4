//! # dmem-alloc — object-granularity far memory
//!
//! The paper charges paging-based disaggregation with **access
//! amplification**: moving a whole 4 KB page across the fabric to
//! touch a few dozen bytes. This crate is the object-granularity
//! answer (Clio's headline tradeoff): a dlmalloc-style size-class
//! allocator whose backing "sbrk" is the existing cluster — every
//! extension of the break claims address space whose bytes live as
//! [`dmem_core::DisaggregatedMemory`] entries, placed, replicated,
//! QoS-admitted and fault-retried by the tiers that already exist.
//!
//! Layering:
//!
//! - [`classes`] — the pure allocator core: size classes, per-class
//!   LIFO free lists, carved-page directory, and an address-ordered
//!   free-run map with coalescing and break trimming. No cluster
//!   dependency; all invariants property-testable in isolation.
//! - [`heap`] — [`ObjectHeap`], binding an arena to one virtual
//!   server at either **object** granularity (one entry per object;
//!   `update` is a pure write) or **page** granularity (whole 4 KiB
//!   page images with read-modify-write — the paging baseline).
//!
//! Amplification and fragmentation counters flow through the heap's
//! `alloc.*` counter family into the cluster's metrics registry once
//! [`ObjectHeap::arm_telemetry`] registers it (one `None` check per op
//! until then), so telemetry windows, timelines and `dmem_top --alloc`
//! observe the heap for free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classes;
pub mod heap;

pub use classes::{class_of, ArenaMap, LiveObject, SlotKind, CLASSES, PAGE_BYTES};
pub use heap::{
    Granularity, HeapConfig, HeapStats, ObjectHeap, OpCounts, HEADER_BYTES, MAX_RUN_PAGES,
    RUN_TAG,
};
