//! In-memory swapping over disaggregated memory (FastSwap and baselines).
//!
//! This crate reproduces the paper's §V-A experiments: a paging engine
//! drives workload page-reference strings through pluggable swap backends,
//! charging every device operation to the shared virtual clock. The
//! backends are the four systems the paper compares plus zswap:
//!
//! * [`LinuxDiskSwap`] — the Linux baseline: pages swap to the node's
//!   7.2K rpm disk;
//! * [`ZswapBackend`] — zswap: a compressed RAM cache (zbud) in front of
//!   the disk;
//! * [`NbdxBackend`] — NBDX: a remote block device over RDMA, one fixed
//!   remote peer, per-page 4 KiB messages;
//! * [`InfiniswapBackend`] — Infiniswap: remote memory paging built on the
//!   NBDX-style data path with slab-granular placement across peers and a
//!   disk fallback, no compression, no batching;
//! * [`FastSwapBackend`] — the paper's hybrid system: node-level shared
//!   memory first, batched+compressed remote memory second, disk last,
//!   with the Fig. 8 node/cluster distribution-ratio knob.
//!
//! The engine implements LRU eviction, write-behind swap-out windows and
//! proactive batch swap-in (PBS) — both halves of it: sequential-gated
//! readahead on faults, and a background restore that streams a parked
//! working set back into free frames (the Fig. 9 recovery mechanism) —
//! so Fig. 6/9's PBS comparisons are a configuration flag, not a code
//! fork.
//!
//! # Examples
//!
//! ```
//! use dmem_swap::{build_system, SwapScale, SystemKind};
//!
//! let scale = SwapScale::small();
//! // Run the same trace through Linux disk swap and FastSwap.
//! let linux = dmem_swap::run_ml_workload(SystemKind::Linux, "PageRank", &scale).unwrap();
//! let fast = dmem_swap::run_ml_workload(SystemKind::fastswap_default(), "PageRank", &scale).unwrap();
//! assert!(fast.completion < linux.completion, "FastSwap must beat disk swap");
//! # let _ = build_system; // re-exported factory
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod disk;
pub mod engine;
pub mod fastswap;
pub mod lru;
pub mod remote_paging;
pub mod systems;
pub mod zswap_backend;

pub use backend::SwapBackend;
pub use disk::LinuxDiskSwap;
pub use engine::{EngineConfig, EngineStats, PageSource, PagingEngine};
pub use fastswap::FastSwapBackend;
pub use lru::{FrameFlags, PfnSet};
pub use remote_paging::{InfiniswapBackend, NbdxBackend, RemotePaging};
pub use systems::{build_system, build_system_with_pages, run_kv_throughput, run_kv_timeline, run_ml_workload, RunResult, SwapScale, SystemKind};
pub use zswap_backend::ZswapBackend;
