//! # memory-disaggregation
//!
//! A from-scratch reproduction of *"Memory Disaggregation: Research
//! Problems and Opportunities"* (Liu et al., IEEE ICDCS 2019): a two-level
//! disaggregated memory system — node-coordinated shared memory pools plus
//! cluster-level remote memory over a simulated RDMA fabric — together
//! with the paper's two prototype applications, **FastSwap** (hybrid
//! disaggregated swapping) and **DAHI** (off-heap RDD caching), their
//! baselines (Linux disk swap, NBDX, Infiniswap, vanilla Spark, and
//! zswap's zbud packing for Fig. 3's compression ratios), and a bench
//! harness regenerating every table and figure of the paper's
//! evaluation.
//!
//! This crate is the umbrella: it re-exports the public APIs of the
//! workspace crates so applications can depend on one crate.
//!
//! ## Quickstart
//!
//! ```
//! use memory_disaggregation::prelude::*;
//!
//! // A 4-node cluster, 2 virtual servers per node, paper defaults.
//! let dm = DisaggregatedMemory::new(ClusterConfig::small())?;
//! let server = dm.servers()[0];
//!
//! // Put tiers transparently: node shared pool → remote memory → disk.
//! dm.put(server, 42, vec![7u8; 4096])?;
//! assert_eq!(dm.get(server, 42)?, vec![7u8; 4096]);
//! # Ok::<(), memory_disaggregation::prelude::DmemError>(())
//! ```
//!
//! ## Layer map
//!
//! | Crate | Role |
//! |---|---|
//! | [`types`] | ids, sizes, errors, configuration |
//! | [`alloc`] | object-granularity far-memory heap (size-class allocator) |
//! | [`sim`] | virtual clock, device cost models, failure injection |
//! | [`net`] | simulated RDMA verbs, connection management, batching |
//! | [`compress`] | LZ page codec, size classes, zswap's zbud frame count |
//! | [`kv`] | Memcached-style cache with a disaggregated overflow tier |
//! | [`node`] | node-level shared memory pool (LDMC/LDMS) |
//! | [`qos`] | multi-tenant QoS: quotas, priority eviction, rate limits |
//! | [`cluster`] | groups, placement, replication, eviction |
//! | [`core`] | the tiered [`prelude::DisaggregatedMemory`] facade |
//! | [`swap`] | FastSwap + swap baselines over a paging engine |
//! | [`rdd`] | mini dataflow engine + DAHI off-heap cache |
//! | [`workloads`] | the paper's application models and traces |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod rack;

pub use dmem_alloc as alloc;
pub use dmem_cluster as cluster;
pub use dmem_compress as compress;
pub use dmem_kv as kv;
pub use dmem_core as core;
pub use dmem_net as net;
pub use dmem_node as node;
pub use dmem_qos as qos;
pub use dmem_rdd as rdd;
pub use dmem_sim as sim;
pub use dmem_swap as swap;
pub use dmem_types as types;
pub use dmem_workloads as workloads;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use dmem_core::{DisaggregatedMemory, DmStats, TierPreference};
    pub use dmem_sim::{CostModel, SimClock, SimDuration};
    pub use dmem_swap::{run_ml_workload, SwapScale, SystemKind};
    pub use dmem_types::{
        ByteSize, ClusterConfig, CompressionMode, DistributionRatio, DmemError, DmemResult,
        DonationPolicy, NodeId, PlacementStrategy, ReplicationFactor, ServerId,
    };
}
