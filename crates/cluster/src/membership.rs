//! Cluster membership and free-memory advertisement.

use dmem_sim::FailureInjector;
use dmem_types::{ByteSize, IdMap, NodeId};
use parking_lot::RwLock;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// The set of nodes participating in the disaggregated memory system,
/// their liveness (via the failure injector) and their advertised free
/// remote memory.
///
/// Cheap to clone; clones share state.
#[derive(Clone)]
pub struct ClusterMembership {
    nodes: Arc<Vec<NodeId>>,
    failures: FailureInjector,
    free: Arc<RwLock<IdMap<NodeId, ByteSize>>>,
    /// Nodes a failed read had to fail over past: candidates for the
    /// repair path to probe, repair around, or evict. Populated only
    /// under fault injection, so fault-free runs never touch it.
    suspects: Arc<RwLock<BTreeSet<NodeId>>>,
}

impl ClusterMembership {
    /// Creates a membership over `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or contains duplicates.
    pub fn new(nodes: Vec<NodeId>, failures: FailureInjector) -> Self {
        assert!(!nodes.is_empty(), "cluster must have at least one node");
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), nodes.len(), "duplicate node ids");
        ClusterMembership {
            nodes: Arc::new(nodes),
            failures,
            free: Arc::new(RwLock::new(IdMap::default())),
            suspects: Arc::new(RwLock::new(BTreeSet::new())),
        }
    }

    /// Marks `node` suspect after a read had to fail over past it.
    /// Returns `true` if it was not already suspect.
    pub(crate) fn mark_suspect(&self, node: NodeId) -> bool {
        self.suspects.write().insert(node)
    }

    /// Clears a suspicion (the repair path probed the node healthy, or
    /// repaired its data elsewhere and evicted it from replica sets).
    /// Returns `true` if the node was suspect.
    pub fn clear_suspect(&self, node: NodeId) -> bool {
        self.suspects.write().remove(&node)
    }

    /// Whether `node` is currently suspect.
    #[cfg(test)]
    pub(crate) fn is_suspect(&self, node: NodeId) -> bool {
        self.suspects.read().contains(&node)
    }

    /// All currently suspect nodes, sorted.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.suspects.read().iter().copied().collect()
    }

    /// All configured nodes (alive or not), in configuration order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Nodes currently alive.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|&n| self.failures.is_node_up(n))
            .collect()
    }

    /// `true` if the node is configured and alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.contains(&node) && self.failures.is_node_up(node)
    }

    /// Publishes `node`'s free remote-memory capacity (done periodically
    /// by each node's agent in the paper; here by the remote store).
    pub fn advertise_free(&self, node: NodeId, free: ByteSize) {
        self.free.write().insert(node, free);
    }

    /// Last advertised free capacity of `node` (zero if never advertised).
    pub fn free_of(&self, node: NodeId) -> ByteSize {
        self.free
            .read()
            .get(&node)
            .copied()
            .unwrap_or(ByteSize::ZERO)
    }

    /// Alive nodes other than `exclude`, the candidate set for remote
    /// placement (a node does not park entries on itself).
    pub fn candidates(&self, exclude: NodeId) -> Vec<NodeId> {
        self.alive_nodes()
            .into_iter()
            .filter(|&n| n != exclude)
            .collect()
    }
}

impl fmt::Debug for ClusterMembership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterMembership")
            .field("nodes", &self.nodes.len())
            .field("alive", &self.alive_nodes().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{FailureEvent, SimClock};

    fn membership(n: u32) -> (FailureInjector, ClusterMembership) {
        let failures = FailureInjector::new(SimClock::new());
        let nodes = (0..n).map(NodeId::new).collect();
        let m = ClusterMembership::new(nodes, failures.clone());
        (failures, m)
    }

    #[test]
    fn all_alive_initially() {
        let (_, m) = membership(4);
        assert_eq!(m.alive_nodes().len(), 4);
        assert!(m.is_alive(NodeId::new(3)));
        assert!(!m.is_alive(NodeId::new(99)), "unconfigured node is not a member");
    }

    #[test]
    fn failures_reflected() {
        let (failures, m) = membership(4);
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(1)));
        assert_eq!(m.alive_nodes().len(), 3);
        assert!(!m.is_alive(NodeId::new(1)));
    }

    #[test]
    fn candidates_exclude_self_and_dead() {
        let (failures, m) = membership(4);
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(2)));
        let c = m.candidates(NodeId::new(0));
        assert_eq!(c, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn free_memory_advertisement() {
        let (_, m) = membership(2);
        assert_eq!(m.free_of(NodeId::new(0)), ByteSize::ZERO);
        m.advertise_free(NodeId::new(0), ByteSize::from_mib(5));
        assert_eq!(m.free_of(NodeId::new(0)), ByteSize::from_mib(5));
    }

    #[test]
    fn suspects_are_shared_sorted_and_idempotent() {
        let (_, m) = membership(4);
        let peer = m.clone(); // clones share the suspect set
        assert!(m.mark_suspect(NodeId::new(2)));
        assert!(!m.mark_suspect(NodeId::new(2)), "second mark is a no-op");
        assert!(m.mark_suspect(NodeId::new(1)));
        assert!(peer.is_suspect(NodeId::new(2)));
        assert_eq!(peer.suspects(), vec![NodeId::new(1), NodeId::new(2)]);
        assert!(peer.clear_suspect(NodeId::new(1)));
        assert!(!peer.clear_suspect(NodeId::new(1)));
        assert_eq!(m.suspects(), vec![NodeId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate node ids")]
    fn duplicates_rejected() {
        let failures = FailureInjector::new(SimClock::new());
        let _ = ClusterMembership::new(vec![NodeId::new(0), NodeId::new(0)], failures);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rejected() {
        let failures = FailureInjector::new(SimClock::new());
        let _ = ClusterMembership::new(vec![], failures);
    }
}
