//! Cluster-level memory disaggregation (paper §IV-C through §IV-F).
//!
//! Remote idle memory is organized as per-node RDMA-registered receive
//! buffer pools; client nodes park data entries there through the RDMC →
//! RDMS path. This crate supplies every coordination mechanism the paper
//! calls for:
//!
//! * [`membership`] — the configured nodes and their liveness;
//! * [`group`] — hierarchical group sharing, including the memory-map
//!   metadata arithmetic of §IV-C;
//! * [`placement`] — random / round-robin / weighted round-robin /
//!   power-of-two-choices replica placement (§IV-E);
//! * [`remote`] — the remote memory store: per-node registered regions,
//!   size-class allocation, RDMA data path (RDMC/RDMS), free-memory
//!   advertisement;
//! * [`replication`] — triple-replica, all-or-nothing remote writes with
//!   read failover and the suspects it marks (§IV-D);
//! * [`eviction`] — the remote slab eviction handler of §IV-F.
//!
//! # Examples
//!
//! ```
//! use dmem_cluster::{ClusterMembership, Placer, RemoteStore};
//! use dmem_net::Fabric;
//! use dmem_sim::{CostModel, DetRng, FailureInjector, SimClock};
//! use dmem_types::{ByteSize, EntryId, NodeId, PlacementStrategy, ServerId};
//!
//! let clock = SimClock::new();
//! let failures = FailureInjector::new(clock.clone());
//! let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
//! let nodes: Vec<NodeId> = (0..4).map(NodeId::new).collect();
//! let membership = ClusterMembership::new(nodes.clone(), failures);
//! let mut store = RemoteStore::new(fabric, membership, ByteSize::from_mib(1))?;
//! let mut placer = Placer::new(PlacementStrategy::PowerOfTwoChoices, DetRng::new(7));
//!
//! // Place by the free capacity the store advertises for each peer.
//! let candidates = store.membership().candidates(nodes[0]);
//! let host = placer.pick(&store, &candidates, 1)?[0];
//! let owner = ServerId::new(nodes[0], 0);
//! let entry = EntryId::new(owner, 1);
//! store.store(nodes[0], host, entry, b"parked page")?;
//! assert_eq!(store.load(nodes[0], host, entry)?, b"parked page".to_vec());
//! assert_eq!(store.free_of(host), ByteSize::from_mib(1) - ByteSize::new(11));
//! # Ok::<(), dmem_types::DmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eviction;
pub mod group;
pub mod membership;
pub mod placement;
pub mod remote;
pub mod replication;

pub use eviction::{EvictionOutcome, PriorityResolver, RemoteSlabEvictor};
pub use group::{map_overhead_bytes, GroupTable};
pub use membership::ClusterMembership;
pub use placement::{spread_replicas, spread_replicas_into, Placer};
pub use remote::{LoadedBatch, RemoteStore, RemoteStoreStats};
pub use replication::Replicator;
