//! Cluster membership: the configured nodes and their liveness.

use dmem_sim::FailureInjector;
use dmem_types::NodeId;
use std::fmt;
use std::sync::Arc;

/// The set of nodes participating in the disaggregated memory system and
/// their liveness (via the failure injector).
///
/// Cheap to clone. A clone shares only the fixed node list and the
/// failure injector: the advertised free capacity lives in
/// [`RemoteStore`](crate::RemoteStore), which is its only writer, and the
/// read-failover suspects in [`Replicator`](crate::Replicator).
#[derive(Clone)]
pub struct ClusterMembership {
    nodes: Arc<Vec<NodeId>>,
    failures: FailureInjector,
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
        }
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
