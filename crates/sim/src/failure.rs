//! Scheduled failure injection.
//!
//! The paper's §IV-D enumerates the failure scenarios a disaggregated
//! memory system must mask: local/remote node crashes, virtual-server
//! crashes and network-link failures. The injector holds a virtual-time
//! schedule of such events; mechanism code queries it before every
//! operation that touches a node or link.

use crate::clock::SimClock;
use crate::time::SimInstant;
use dmem_types::{IdSet, NodeId, ServerId};
use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// A single scheduled failure or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureEvent {
    /// The node crashes (all its servers and donated memory vanish).
    NodeDown(NodeId),
    /// The node recovers (rejoins empty).
    NodeUp(NodeId),
    /// The bidirectional link between two nodes fails.
    LinkDown(NodeId, NodeId),
    /// The link recovers.
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
    /// Events not yet applied, sorted ascending by time.
    pending: Vec<(SimInstant, FailureEvent)>,
    /// Currently failed entities.
    down_nodes: IdSet<NodeId>,
    down_servers: IdSet<ServerId>,
    down_links: IdSet<(NodeId, NodeId)>,
}

impl State {
    fn apply_due(&mut self, now: SimInstant) {
        let mut i = 0;
        while i < self.pending.len() && self.pending[i].0 <= now {
            i += 1;
        }
        for (_, event) in self.pending.drain(..i) {
            match event {
                FailureEvent::NodeDown(n) => {
                    self.down_nodes.insert(n);
                }
                FailureEvent::NodeUp(n) => {
                    self.down_nodes.remove(&n);
                }
                FailureEvent::LinkDown(a, b) => {
                    self.down_links.insert(ordered(a, b));
                }
                FailureEvent::LinkUp(a, b) => {
                    self.down_links.remove(&ordered(a, b));
                }
                FailureEvent::ServerDown(s) => {
                    self.down_servers.insert(s);
                }
                FailureEvent::ServerUp(s) => {
                    self.down_servers.remove(&s);
                }
            }
        }
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Thread-safe failure injector driven by the virtual clock.
///
/// # Examples
///
/// ```
/// use dmem_sim::{FailureEvent, FailureInjector, SimClock, SimDuration, SimInstant};
/// use dmem_types::NodeId;
///
/// let clock = SimClock::new();
/// let injector = FailureInjector::new(clock.clone());
/// injector.schedule(SimInstant::from_nanos(1_000), FailureEvent::NodeDown(NodeId::new(2)));
///
/// assert!(injector.is_node_up(NodeId::new(2)));
/// clock.advance(SimDuration::from_micros(5));
/// assert!(!injector.is_node_up(NodeId::new(2)));
/// ```
#[derive(Clone)]
pub struct FailureInjector {
    clock: SimClock,
    state: Arc<RwLock<State>>,
}

impl FailureInjector {
    /// Creates an injector with an empty schedule.
    pub fn new(clock: SimClock) -> Self {
        FailureInjector {
            clock,
            state: Arc::new(RwLock::new(State::default())),
        }
    }

    /// Schedules `event` to take effect at virtual time `at`.
    ///
    /// Events scheduled at or before the current time take effect on the
    /// next query.
    pub fn schedule(&self, at: SimInstant, event: FailureEvent) {
        let mut state = self.state.write();
        let pos = state.pending.partition_point(|(t, _)| *t <= at);
        state.pending.insert(pos, (at, event));
    }

    /// Applies `event` immediately.
    pub fn inject_now(&self, event: FailureEvent) {
        self.schedule(self.clock.now(), event);
        self.state.write().apply_due(self.clock.now());
    }

    /// `true` if the node is currently up.
    pub fn is_node_up(&self, node: NodeId) -> bool {
        let mut state = self.state.write();
        state.apply_due(self.clock.now());
        !state.down_nodes.contains(&node)
    }

    /// `true` if the virtual server (and its hosting node) is currently up.
    pub fn is_server_up(&self, server: ServerId) -> bool {
        let mut state = self.state.write();
        state.apply_due(self.clock.now());
        !state.down_servers.contains(&server) && !state.down_nodes.contains(&server.node())
    }

    /// `true` if both endpoints and the link between them are up.
    pub fn is_link_up(&self, a: NodeId, b: NodeId) -> bool {
        let mut state = self.state.write();
        state.apply_due(self.clock.now());
        !state.down_links.contains(&ordered(a, b))
            && !state.down_nodes.contains(&a)
            && !state.down_nodes.contains(&b)
    }

    /// Number of nodes currently marked down.
    pub fn down_node_count(&self) -> usize {
        let mut state = self.state.write();
        state.apply_due(self.clock.now());
        state.down_nodes.len()
    }
}

impl fmt::Debug for FailureInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.read();
        f.debug_struct("FailureInjector")
            .field("pending", &state.pending.len())
            .field("down_nodes", &state.down_nodes.len())
            .field("down_links", &state.down_links.len())
            .field("down_servers", &state.down_servers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn setup() -> (SimClock, FailureInjector) {
        let clock = SimClock::new();
        let injector = FailureInjector::new(clock.clone());
        (clock, injector)
    }

    #[test]
    fn everything_up_initially() {
        let (_, inj) = setup();
        assert!(inj.is_node_up(NodeId::new(0)));
        assert!(inj.is_link_up(NodeId::new(0), NodeId::new(1)));
        assert!(inj.is_server_up(ServerId::new(NodeId::new(0), 0)));
        assert_eq!(inj.down_node_count(), 0);
    }

    #[test]
    fn scheduled_failure_fires_at_time() {
        let (clock, inj) = setup();
        let n = NodeId::new(1);
        inj.schedule(SimInstant::from_nanos(100), FailureEvent::NodeDown(n));
        assert!(inj.is_node_up(n), "future failure must not apply early");
        clock.advance(SimDuration::from_nanos(100));
        assert!(!inj.is_node_up(n));
    }

    #[test]
    fn recovery_restores_node() {
        let (clock, inj) = setup();
        let n = NodeId::new(2);
        inj.schedule(SimInstant::from_nanos(10), FailureEvent::NodeDown(n));
        inj.schedule(SimInstant::from_nanos(20), FailureEvent::NodeUp(n));
        clock.advance(SimDuration::from_nanos(15));
        assert!(!inj.is_node_up(n));
        clock.advance(SimDuration::from_nanos(10));
        assert!(inj.is_node_up(n));
    }

    #[test]
    fn link_failures_are_symmetric() {
        let (_, inj) = setup();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        inj.inject_now(FailureEvent::LinkDown(b, a));
        assert!(!inj.is_link_up(a, b));
        assert!(!inj.is_link_up(b, a));
        // Nodes themselves remain up.
        assert!(inj.is_node_up(a) && inj.is_node_up(b));
        inj.inject_now(FailureEvent::LinkUp(a, b));
        assert!(inj.is_link_up(b, a));
    }

    #[test]
    fn node_down_implies_links_and_servers_down() {
        let (_, inj) = setup();
        let n = NodeId::new(3);
        inj.inject_now(FailureEvent::NodeDown(n));
        assert!(!inj.is_link_up(n, NodeId::new(4)));
        assert!(!inj.is_server_up(ServerId::new(n, 0)));
        assert_eq!(inj.down_node_count(), 1);
    }

    #[test]
    fn server_failure_is_isolated() {
        let (_, inj) = setup();
        let s = ServerId::new(NodeId::new(5), 1);
        inj.inject_now(FailureEvent::ServerDown(s));
        assert!(!inj.is_server_up(s));
        assert!(inj.is_server_up(ServerId::new(NodeId::new(5), 0)));
        assert!(inj.is_node_up(NodeId::new(5)));
    }

    #[test]
    fn out_of_order_scheduling_applies_in_time_order() {
        let (clock, inj) = setup();
        let n = NodeId::new(6);
        // Schedule recovery before failure, at later time.
        inj.schedule(SimInstant::from_nanos(200), FailureEvent::NodeUp(n));
        inj.schedule(SimInstant::from_nanos(100), FailureEvent::NodeDown(n));
        clock.advance(SimDuration::from_nanos(150));
        assert!(!inj.is_node_up(n));
        clock.advance(SimDuration::from_nanos(100));
        assert!(inj.is_node_up(n));
    }
}
