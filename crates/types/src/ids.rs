//! Strongly-typed identifiers.
//!
//! Every participant in the disaggregated memory system — physical nodes,
//! virtual servers, memory slabs, RDMA resources, data entries — is named by
//! a newtype so that the compiler rules out cross-wiring (C-NEWTYPE).

use std::fmt;

/// Identifier of a physical node (machine) in the cluster.
///
/// # Examples
///
/// ```
/// use dmem_types::NodeId;
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "node-0");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from its cluster index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw cluster index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

/// Identifier of a virtual server (VM, container, or JVM executor) hosted on
/// a particular node.
///
/// The paper treats all three virtualization flavours uniformly; so do we.
///
/// # Examples
///
/// ```
/// use dmem_types::{NodeId, ServerId};
/// let s = ServerId::new(NodeId::new(2), 5);
/// assert_eq!(s.node().index(), 2);
/// assert_eq!(s.local_index(), 5);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct ServerId {
    node: NodeId,
    local: u32,
}

impl ServerId {
    /// Creates a server identifier from its hosting node and a per-node index.
    pub const fn new(node: NodeId, local: u32) -> Self {
        ServerId { node, local }
    }

    /// The node hosting this virtual server.
    pub const fn node(self) -> NodeId {
        self.node
    }

    /// The index of this server among the servers of its node.
    pub const fn local_index(self) -> u32 {
        self.local
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/vs-{}", self.node, self.local)
    }
}

/// Identifier of a 4 KiB page within a virtual server's address space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page identifier from a page frame number.
    pub const fn new(pfn: u64) -> Self {
        PageId(pfn)
    }

    /// Returns the page frame number.
    pub const fn pfn(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn-{:#x}", self.0)
    }
}

impl From<u64> for PageId {
    fn from(pfn: u64) -> Self {
        PageId(pfn)
    }
}

/// Identifier of a memory slab inside a shared-memory pool or an
/// RDMA-registered buffer pool.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct SlabId(u64);

impl SlabId {
    /// Creates a slab identifier.
    pub const fn new(raw: u64) -> Self {
        SlabId(raw)
    }
}

impl fmt::Display for SlabId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab-{}", self.0)
    }
}

/// Identifier of a data entry tracked by a virtual server's disaggregated
/// memory map: a swapped-out page, a cached RDD partition, or a key-value
/// item, depending on the client system.
///
/// Entries are namespaced by their owning server so that two servers may use
/// the same key without collision.
///
/// # Examples
///
/// ```
/// use dmem_types::{EntryId, NodeId, ServerId};
/// let owner = ServerId::new(NodeId::new(0), 1);
/// let e = EntryId::new(owner, 42);
/// assert_eq!(e.owner(), owner);
/// assert_eq!(e.key(), 42);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct EntryId {
    owner: ServerId,
    key: u64,
}

impl EntryId {
    /// Creates an entry identifier owned by `owner` with caller-chosen `key`.
    pub const fn new(owner: ServerId, key: u64) -> Self {
        EntryId { owner, key }
    }

    /// The virtual server that owns this entry.
    pub const fn owner(self) -> ServerId {
        self.owner
    }

    /// The caller-chosen key (e.g. a page frame number or partition id).
    pub const fn key(self) -> u64 {
        self.key
    }
}

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.owner, self.key)
    }
}

/// Identifier of a tenant: an isolation domain owning virtual servers and
/// subject to QoS policy (quota, priority, SLO).
///
/// Tenant `0` is the *system tenant*: the implicit owner of every server
/// that was never explicitly assigned, so single-tenant deployments and all
/// pre-QoS callers keep working unchanged.
///
/// # Examples
///
/// ```
/// use dmem_types::TenantId;
/// assert!(TenantId::SYSTEM.is_system());
/// let t = TenantId::new(3);
/// assert!(!t.is_system());
/// assert_eq!(t.to_string(), "tenant-3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct TenantId(u32);

impl TenantId {
    /// The implicit default tenant owning all unassigned servers.
    pub const SYSTEM: TenantId = TenantId(0);

    /// Creates a tenant identifier from its registry index.
    pub const fn new(index: u32) -> Self {
        TenantId(index)
    }

    /// Returns the raw registry index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Whether this is the implicit system tenant.
    pub const fn is_system(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

impl From<u32> for TenantId {
    fn from(index: u32) -> Self {
        TenantId(index)
    }
}

/// Identifier of a node group in the hierarchical group-sharing model
/// (paper §IV-C).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct GroupId(u32);

impl GroupId {
    /// Creates a group identifier.
    pub const fn new(raw: u32) -> Self {
        GroupId(raw)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group-{}", self.0)
    }
}

/// Identifier of a registered RDMA memory region.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct MrId(u64);

impl MrId {
    /// Creates a memory-region identifier.
    pub const fn new(raw: u64) -> Self {
        MrId(raw)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr-{}", self.0)
    }
}

/// Identifier of a simulated RDMA queue pair.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct QpId(u64);

impl QpId {
    /// Creates a queue-pair identifier.
    pub const fn new(raw: u64) -> Self {
        QpId(raw)
    }
}

impl fmt::Display for QpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrip_and_order() {
        let a = NodeId::new(1);
        let b = NodeId::from(2);
        assert!(a < b);
        assert_eq!(b.index(), 2);
        assert_eq!(a.to_string(), "node-1");
    }

    #[test]
    fn server_id_carries_node() {
        let s = ServerId::new(NodeId::new(7), 3);
        assert_eq!(s.node(), NodeId::new(7));
        assert_eq!(s.local_index(), 3);
        assert_eq!(s.to_string(), "node-7/vs-3");
    }

    #[test]
    fn entry_ids_namespaced_by_owner() {
        let s1 = ServerId::new(NodeId::new(0), 0);
        let s2 = ServerId::new(NodeId::new(0), 1);
        assert_ne!(EntryId::new(s1, 9), EntryId::new(s2, 9));
        assert_eq!(EntryId::new(s1, 9), EntryId::new(s1, 9));
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        for i in 0..100 {
            set.insert(PageId::new(i));
        }
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn display_is_never_empty() {
        assert!(!SlabId::new(0).to_string().is_empty());
        assert!(!GroupId::new(0).to_string().is_empty());
        assert!(!MrId::new(0).to_string().is_empty());
        assert!(!QpId::new(0).to_string().is_empty());
        assert!(!PageId::new(0).to_string().is_empty());
    }

    #[test]
    fn tenant_id_defaults_to_system() {
        assert_eq!(TenantId::default(), TenantId::SYSTEM);
        assert!(TenantId::SYSTEM.is_system());
        assert!(!TenantId::new(1).is_system());
        assert_eq!(TenantId::from(5).index(), 5);
        assert_eq!(TenantId::new(5).to_string(), "tenant-5");
        assert!(TenantId::new(1) < TenantId::new(2));
    }

    #[test]
    fn entry_id_display_identifies_owner_and_key() {
        let e = EntryId::new(ServerId::new(NodeId::new(4), 2), 77);
        let text = e.to_string();
        assert!(text.contains("#77"), "key missing from {text}");
        assert_ne!(
            text,
            EntryId::new(ServerId::new(NodeId::new(4), 3), 77).to_string(),
            "distinct owners must render distinctly"
        );
    }
}
