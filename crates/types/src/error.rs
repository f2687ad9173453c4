//! The crate-family error type.

use crate::{EntryId, NodeId, ServerId};
use std::error::Error;
use std::fmt;

/// Convenient result alias used across the workspace.
pub type DmemResult<T> = Result<T, DmemError>;

/// Errors surfaced by the disaggregated memory system.
///
/// Every fallible public operation in the workspace returns this type so
/// that callers handle one error domain (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DmemError {
    /// No free capacity in the requested pool and no further tier to spill to.
    CapacityExhausted {
        /// Human-readable name of the exhausted pool.
        pool: String,
    },
    /// The requested entry is not present in any tier.
    EntryNotFound(EntryId),
    /// The target node is down or unreachable.
    NodeUnavailable(NodeId),
    /// The target virtual server has failed.
    ServerUnavailable(ServerId),
    /// The network link or connection between two nodes is down.
    LinkDown {
        /// Source node of the failed connection.
        from: NodeId,
        /// Destination node of the failed connection.
        to: NodeId,
    },
    /// An RDMA operation referenced an unregistered or deregistered region.
    RegionNotRegistered,
    /// An RDMA access fell outside the bounds of its memory region.
    RegionOutOfBounds {
        /// Requested offset within the region.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual region capacity.
        capacity: u64,
    },
    /// A remote-key check failed (wrong rkey for the region).
    AccessDenied,
    /// A replicated write could not reach the required number of replicas
    /// and was rolled back ("all or nothing", paper §IV-D).
    ReplicationFailed {
        /// Replicas the write was able to reach.
        reached: usize,
        /// Replication degree that was required.
        required: usize,
    },
    /// An operation timed out (e.g. leader handshake, paper §IV-C).
    Timeout {
        /// What the caller was waiting for.
        what: String,
    },
    /// Stored payload failed integrity verification after decompression
    /// or transfer.
    Corrupt(EntryId),
    /// A configuration value is invalid.
    InvalidConfig {
        /// Explanation of the rejected value.
        reason: String,
    },
    /// The operation is not supported by this backend or tier.
    Unsupported {
        /// The unsupported operation.
        op: String,
    },
    /// A CXL pool node is in an outage window: loads, stores and remote
    /// atomics against it fail until the node recovers (reads fail over
    /// to the entry's shadow copy; atomics have no failover target).
    CxlPoolNodeDown {
        /// Index of the unreachable pool node.
        pool_node: u16,
    },
}

impl fmt::Display for DmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmemError::CapacityExhausted { pool } => {
                write!(f, "capacity exhausted in pool {pool}")
            }
            DmemError::EntryNotFound(id) => write!(f, "entry {id} not found"),
            DmemError::NodeUnavailable(n) => write!(f, "{n} unavailable"),
            DmemError::ServerUnavailable(s) => write!(f, "{s} unavailable"),
            DmemError::LinkDown { from, to } => write!(f, "link down between {from} and {to}"),
            DmemError::RegionNotRegistered => write!(f, "memory region not registered"),
            DmemError::RegionOutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access at offset {offset} len {len} exceeds region capacity {capacity}"
            ),
            DmemError::AccessDenied => write!(f, "remote key check failed"),
            DmemError::ReplicationFailed { reached, required } => write!(
                f,
                "replicated write reached {reached} of {required} replicas and was rolled back"
            ),
            DmemError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            DmemError::Corrupt(id) => write!(f, "entry {id} failed integrity verification"),
            DmemError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            DmemError::Unsupported { op } => write!(f, "operation not supported: {op}"),
            DmemError::CxlPoolNodeDown { pool_node } => {
                write!(f, "cxl pool node {pool_node} unreachable")
            }
        }
    }
}

impl Error for DmemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, ServerId};

    fn sample_entry() -> EntryId {
        EntryId::new(ServerId::new(NodeId::new(1), 0), 7)
    }

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors: Vec<DmemError> = vec![
            DmemError::CapacityExhausted {
                pool: "shared".into(),
            },
            DmemError::EntryNotFound(sample_entry()),
            DmemError::NodeUnavailable(NodeId::new(3)),
            DmemError::ServerUnavailable(ServerId::new(NodeId::new(0), 2)),
            DmemError::LinkDown {
                from: NodeId::new(0),
                to: NodeId::new(1),
            },
            DmemError::RegionNotRegistered,
            DmemError::RegionOutOfBounds {
                offset: 4096,
                len: 4096,
                capacity: 4096,
            },
            DmemError::AccessDenied,
            DmemError::ReplicationFailed {
                reached: 1,
                required: 3,
            },
            DmemError::Timeout {
                what: "leader handshake".into(),
            },
            DmemError::Corrupt(sample_entry()),
            DmemError::InvalidConfig {
                reason: "donation fraction above 1.0".into(),
            },
            DmemError::Unsupported { op: "batch".into() },
            DmemError::CxlPoolNodeDown { pool_node: 2 },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<DmemError>();
    }

    #[test]
    fn errors_compare_equal() {
        assert_eq!(
            DmemError::EntryNotFound(sample_entry()),
            DmemError::EntryNotFound(sample_entry())
        );
        assert_ne!(DmemError::RegionNotRegistered, DmemError::AccessDenied);
    }
}
