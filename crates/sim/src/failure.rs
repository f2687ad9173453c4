//! Failure injection.
//!
//! The paper's §IV-D enumerates the failure scenarios a disaggregated
//! memory system must mask: local/remote node crashes, virtual-server
//! crashes and network-link failures. The injector is the one record of
//! what is down. Events take effect when they are injected, and mechanism
//! code queries the injector before every operation that touches a node
//! or link. Link cuts and host-pair partitions are one counted set: a
//! pair stays down while at least one cut on it is open.

use crate::clock::SimClock;
use dmem_types::{DmemError, DmemResult, IdMap, IdSet, NodeId, ServerId};
use parking_lot::RwLock;
use std::collections::hash_map::Entry;
use std::fmt;
use std::sync::Arc;

/// A single failure or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureEvent {
    /// The node crashes (all its servers and donated memory vanish).
    NodeDown(NodeId),
    /// The node recovers (rejoins empty).
    NodeUp(NodeId),
    /// One more cut opens on the bidirectional link between two nodes.
    LinkDown(NodeId, NodeId),
    /// One open cut on the link closes; the link is up once none is left.
    LinkUp(NodeId, NodeId),
    /// A single virtual server crashes.
    ServerDown(ServerId),
    /// The virtual server restarts.
    ServerUp(ServerId),
}

impl fmt::Display for FailureEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureEvent::NodeDown(n) => write!(f, "{n} down"),
            FailureEvent::NodeUp(n) => write!(f, "{n} up"),
            FailureEvent::LinkDown(a, b) => write!(f, "link {a}-{b} down"),
            FailureEvent::LinkUp(a, b) => write!(f, "link {a}-{b} up"),
            FailureEvent::ServerDown(s) => write!(f, "{s} down"),
            FailureEvent::ServerUp(s) => write!(f, "{s} up"),
        }
    }
}

#[derive(Debug, Default)]
struct State {
    down_nodes: IdSet<NodeId>,
    down_servers: IdSet<ServerId>,
    /// Open cuts per link, endpoints ordered; only non-zero counts are kept.
    link_cuts: IdMap<(NodeId, NodeId), u32>,
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Thread-safe record of the failed nodes, servers and links.
///
/// # Examples
///
/// ```
/// use dmem_sim::{FailureEvent, FailureInjector, SimClock};
/// use dmem_types::NodeId;
///
/// let injector = FailureInjector::new(SimClock::new());
/// let (a, b) = (NodeId::new(1), NodeId::new(2));
/// injector.inject_now(FailureEvent::LinkDown(a, b));
/// assert!(injector.path(b, a).is_err());
/// injector.inject_now(FailureEvent::LinkUp(b, a));
/// assert!(injector.path(a, b).is_ok());
/// ```
#[derive(Clone)]
pub struct FailureInjector {
    state: Arc<RwLock<State>>,
}

impl FailureInjector {
    /// Creates an injector with everything up. Events take effect when
    /// they are injected, so the clock is not consulted.
    pub fn new(_clock: SimClock) -> Self {
        FailureInjector {
            state: Arc::new(RwLock::new(State::default())),
        }
    }

    /// Applies `event` immediately. A `LinkUp` on a pair with no open cut
    /// changes nothing.
    pub fn inject_now(&self, event: FailureEvent) {
        let mut state = self.state.write();
        match event {
            FailureEvent::NodeDown(n) => {
                state.down_nodes.insert(n);
            }
            FailureEvent::NodeUp(n) => {
                state.down_nodes.remove(&n);
            }
            FailureEvent::LinkDown(a, b) => {
                *state.link_cuts.entry(ordered(a, b)).or_insert(0) += 1;
            }
            FailureEvent::LinkUp(a, b) => {
                if let Entry::Occupied(mut cuts) = state.link_cuts.entry(ordered(a, b)) {
                    *cuts.get_mut() -= 1;
                    if *cuts.get() == 0 {
                        cuts.remove();
                    }
                }
            }
            FailureEvent::ServerDown(s) => {
                state.down_servers.insert(s);
            }
            FailureEvent::ServerUp(s) => {
                state.down_servers.remove(&s);
            }
        }
    }

    /// `true` if the node is currently up.
    pub fn is_node_up(&self, node: NodeId) -> bool {
        !self.state.read().down_nodes.contains(&node)
    }

    /// `true` if the virtual server (and its hosting node) is currently up.
    pub fn is_server_up(&self, server: ServerId) -> bool {
        let state = self.state.read();
        !state.down_servers.contains(&server) && !state.down_nodes.contains(&server.node())
    }

    /// Whether traffic can flow from `a` to `b`: both endpoints up and no
    /// cut open on the link between them.
    ///
    /// # Errors
    ///
    /// [`DmemError::NodeUnavailable`] for the first endpoint found down
    /// (`a` before `b`), else [`DmemError::LinkDown`] if the link is cut.
    pub fn path(&self, a: NodeId, b: NodeId) -> DmemResult<()> {
        let state = self.state.read();
        if state.down_nodes.contains(&a) {
            return Err(DmemError::NodeUnavailable(a));
        }
        if state.down_nodes.contains(&b) {
            return Err(DmemError::NodeUnavailable(b));
        }
        if state.link_cuts.contains_key(&ordered(a, b)) {
            return Err(DmemError::LinkDown { from: a, to: b });
        }
        Ok(())
    }

    /// Number of nodes currently marked down.
    pub fn down_node_count(&self) -> usize {
        self.state.read().down_nodes.len()
    }

    /// Number of host pairs with at least one link cut in force.
    pub fn cut_link_count(&self) -> usize {
        self.state.read().link_cuts.len()
    }
}

impl fmt::Debug for FailureInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.read();
        f.debug_struct("FailureInjector")
            .field("down_nodes", &state.down_nodes.len())
            .field("down_links", &state.link_cuts.len())
            .field("down_servers", &state.down_servers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> FailureInjector {
        FailureInjector::new(SimClock::new())
    }

    #[test]
    fn everything_up_initially() {
        let inj = setup();
        assert!(inj.is_node_up(NodeId::new(0)));
        assert_eq!(inj.path(NodeId::new(0), NodeId::new(1)), Ok(()));
        assert!(inj.is_server_up(ServerId::new(NodeId::new(0), 0)));
        assert_eq!(inj.down_node_count(), 0);
    }

    #[test]
    fn recovery_restores_node() {
        let inj = setup();
        let n = NodeId::new(2);
        inj.inject_now(FailureEvent::NodeDown(n));
        assert!(!inj.is_node_up(n));
        inj.inject_now(FailureEvent::NodeUp(n));
        assert!(inj.is_node_up(n));
    }

    #[test]
    fn link_failures_are_symmetric() {
        let inj = setup();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        inj.inject_now(FailureEvent::LinkDown(b, a));
        assert_eq!(inj.path(a, b), Err(DmemError::LinkDown { from: a, to: b }));
        assert_eq!(inj.path(b, a), Err(DmemError::LinkDown { from: b, to: a }));
        // Nodes themselves remain up.
        assert!(inj.is_node_up(a) && inj.is_node_up(b));
        inj.inject_now(FailureEvent::LinkUp(a, b));
        assert_eq!(inj.path(b, a), Ok(()));
    }

    #[test]
    fn link_stays_down_until_every_cut_heals() {
        let inj = setup();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        inj.inject_now(FailureEvent::LinkDown(a, b));
        inj.inject_now(FailureEvent::LinkDown(b, a));
        inj.inject_now(FailureEvent::LinkUp(a, b));
        assert!(inj.path(a, b).is_err(), "one cut is still open");
        inj.inject_now(FailureEvent::LinkUp(b, a));
        assert_eq!(inj.path(a, b), Ok(()));
        // A heal on an uncut pair is a no-op: it banks nothing against
        // the next cut.
        inj.inject_now(FailureEvent::LinkUp(a, b));
        assert_eq!(inj.path(a, b), Ok(()));
        inj.inject_now(FailureEvent::LinkDown(a, b));
        assert!(inj.path(a, b).is_err());
    }

    #[test]
    fn node_down_implies_links_and_servers_down() {
        let inj = setup();
        let n = NodeId::new(3);
        inj.inject_now(FailureEvent::NodeDown(n));
        let m = NodeId::new(4);
        assert_eq!(inj.path(n, m), Err(DmemError::NodeUnavailable(n)));
        assert_eq!(inj.path(m, n), Err(DmemError::NodeUnavailable(n)));
        assert!(!inj.is_server_up(ServerId::new(n, 0)));
        assert_eq!(inj.down_node_count(), 1);
    }

    #[test]
    fn server_failure_is_isolated() {
        let inj = setup();
        let s = ServerId::new(NodeId::new(5), 1);
        inj.inject_now(FailureEvent::ServerDown(s));
        assert!(!inj.is_server_up(s));
        assert!(inj.is_server_up(ServerId::new(NodeId::new(5), 0)));
        assert!(inj.is_node_up(NodeId::new(5)));
    }
}
