//! Node-level memory disaggregation (paper §III, §IV-B).
//!
//! Virtual servers co-hosted on a physical node donate a configurable
//! fraction of their allocated DRAM to a **node-coordinated shared memory
//! pool**. A server under memory pressure parks data entries (swapped-out
//! pages, cache partitions) in that pool — at DRAM speed, not network
//! speed — before ever touching remote memory or disk.
//!
//! Components:
//!
//! * [`pool`] — a size-class slab allocator over the shared pool
//!   ([`SharedMemoryPool`]);
//! * [`donation`] — per-server donation accounting and the ballooning
//!   bounds of §IV-F ([`DonationRegistry`]);
//! * [`manager`] — the node manager: entry-level put/get/delete over the
//!   pool, the node's disaggregated-memory page table, and pressure
//!   signals ([`NodeManager`]).
//!
//! The manager is the paper's LDMS (Fig. 1); the LDMC role — a virtual
//! server's client onto its own node's pool — is played by `dmem-core`'s
//! shared rung, which calls [`NodeManager`] directly with
//! `EntryId::new(server, key)`.
//!
//! # Examples
//!
//! ```
//! use dmem_node::NodeManager;
//! use dmem_sim::{CostModel, SimClock};
//! use dmem_types::{ByteSize, DonationPolicy, EntryId, NodeId, ServerId, SizeClass};
//!
//! let clock = SimClock::new();
//! let node = NodeId::new(0);
//! let manager = NodeManager::new(node, ByteSize::from_mib(1), clock, CostModel::paper_default());
//! let server = ServerId::new(node, 0);
//! manager.register_server(server, ByteSize::from_mib(16), DonationPolicy::paper_default());
//!
//! let entry = EntryId::new(server, 1);
//! manager.put(entry, b"swapped page", SizeClass::C512)?;
//! assert_eq!(manager.get(entry)?, b"swapped page".to_vec());
//! # Ok::<(), dmem_types::DmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod donation;
pub mod manager;
pub mod pool;

pub use donation::DonationRegistry;
pub use manager::{AppliedBalloon, BalloonAdvice, NodeManager, NodeStats};
pub use pool::{BlockRef, PoolStats, SharedMemoryPool};
