//! Connection management (paper §IV-G).
//!
//! For each pair of communicating nodes the paper establishes two
//! channels: the *RDMA channel* for data transfer and the *disaggregated
//! memory system channel* for talking to the remote node agent (placement,
//! eviction, status). The [`ConnectionManager`] owns both, creates them
//! lazily, and transparently re-establishes them after link or node
//! recovery.

use crate::fabric::{Fabric, QpHandle};
use dmem_types::{DmemResult, IdMap, NodeId};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Which of the two per-peer channels an operation wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// The data-plane channel (one-sided READ/WRITE).
    Data,
    /// The control-plane channel (SEND/RECV to the remote agent).
    Control,
}

#[derive(Clone, Copy)]
struct PeerChannels {
    data: QpHandle,
    control: QpHandle,
}

/// Lazily established, self-healing channel pairs from one local node to
/// its peers.
///
/// # Examples
///
/// ```
/// use dmem_net::{ChannelKind, ConnectionManager, Fabric};
/// use dmem_sim::{CostModel, FailureInjector, SimClock};
/// use dmem_types::NodeId;
///
/// let clock = SimClock::new();
/// let fabric = Fabric::new(clock.clone(), CostModel::paper_default(),
///                          FailureInjector::new(clock.clone()));
/// let cm = ConnectionManager::new(NodeId::new(0), fabric.clone());
/// let data = cm.channel(NodeId::new(1), ChannelKind::Data)?;
/// let ctrl = cm.channel(NodeId::new(1), ChannelKind::Control)?;
/// assert_ne!(data.qp, ctrl.qp, "data and control use separate queue pairs");
/// # Ok::<(), dmem_types::DmemError>(())
/// ```
#[derive(Clone)]
pub struct ConnectionManager {
    local: NodeId,
    fabric: Fabric,
    peers: Arc<Mutex<IdMap<NodeId, PeerChannels>>>,
}

impl ConnectionManager {
    /// Creates a manager for channels originating at `local`.
    pub fn new(local: NodeId, fabric: Fabric) -> Self {
        ConnectionManager {
            local,
            fabric,
            peers: Arc::new(Mutex::new(IdMap::default())),
        }
    }

    /// The local node this manager belongs to.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Returns the channel of `kind` to `peer`, establishing both channels
    /// on first use and re-establishing them if the cached queue pairs are
    /// no longer usable (e.g. after the peer recovered from a crash).
    ///
    /// # Errors
    ///
    /// Returns the underlying fabric error when the peer is unreachable.
    pub fn channel(&self, peer: NodeId, kind: ChannelKind) -> DmemResult<QpHandle> {
        {
            let peers = self.peers.lock();
            if let Some(ch) = peers.get(&peer) {
                let qp = match kind {
                    ChannelKind::Data => ch.data,
                    ChannelKind::Control => ch.control,
                };
                // Cheap liveness probe: a zero-byte send exercises the
                // same path checks as real traffic.
                if self.fabric.send(&qp, Vec::new()).is_ok() {
                    let _ = self.fabric.recv(&self.fabric.peer_handle(&qp));
                    return Ok(qp);
                }
            }
        }
        self.reconnect(peer)?;
        let peers = self.peers.lock();
        let ch = peers.get(&peer).expect("just reconnected");
        Ok(match kind {
            ChannelKind::Data => ch.data,
            ChannelKind::Control => ch.control,
        })
    }

    /// Drops and re-establishes both channels to `peer`.
    ///
    /// # Errors
    ///
    /// Returns the underlying fabric error when the peer is unreachable;
    /// the stale channels stay dropped in that case.
    pub fn reconnect(&self, peer: NodeId) -> DmemResult<()> {
        let mut peers = self.peers.lock();
        if let Some(old) = peers.remove(&peer) {
            let _ = self.fabric.disconnect(&old.data);
            let _ = self.fabric.disconnect(&old.control);
        }
        let data = self.fabric.connect(self.local, peer)?;
        let control = self.fabric.connect(self.local, peer)?;
        peers.insert(peer, PeerChannels { data, control });
        Ok(())
    }

    /// Number of peers with established channels.
    pub fn connected_peers(&self) -> usize {
        self.peers.lock().len()
    }
}

impl fmt::Debug for ConnectionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnectionManager")
            .field("local", &self.local)
            .field("peers", &self.connected_peers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{CostModel, FailureEvent, FailureInjector, SimClock};
    use dmem_types::DmemError;

    fn setup() -> (FailureInjector, Fabric, ConnectionManager) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        let cm = ConnectionManager::new(NodeId::new(0), fabric.clone());
        (failures, fabric, cm)
    }

    #[test]
    fn channels_are_cached() {
        let (_, _, cm) = setup();
        let d1 = cm.channel(NodeId::new(1), ChannelKind::Data).unwrap();
        let d2 = cm.channel(NodeId::new(1), ChannelKind::Data).unwrap();
        assert_eq!(d1.qp, d2.qp);
        assert_eq!(cm.connected_peers(), 1);
    }

    #[test]
    fn data_and_control_distinct() {
        let (_, _, cm) = setup();
        let d = cm.channel(NodeId::new(2), ChannelKind::Data).unwrap();
        let c = cm.channel(NodeId::new(2), ChannelKind::Control).unwrap();
        assert_ne!(d.qp, c.qp);
        assert_eq!(cm.connected_peers(), 1, "one peer, two channels");
    }

    #[test]
    fn unreachable_peer_propagates_error() {
        let (failures, _, cm) = setup();
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(3)));
        assert_eq!(
            cm.channel(NodeId::new(3), ChannelKind::Data).unwrap_err(),
            DmemError::NodeUnavailable(NodeId::new(3))
        );
    }

    #[test]
    fn reconnects_after_recovery() {
        let (failures, _, cm) = setup();
        let peer = NodeId::new(1);
        let before = cm.channel(peer, ChannelKind::Data).unwrap();
        failures.inject_now(FailureEvent::NodeDown(peer));
        assert!(cm.channel(peer, ChannelKind::Data).is_err());
        failures.inject_now(FailureEvent::NodeUp(peer));
        let after = cm.channel(peer, ChannelKind::Data).unwrap();
        assert_ne!(before.qp, after.qp, "fresh queue pair after recovery");
    }

    #[test]
    fn multiple_peers_tracked() {
        let (_, _, cm) = setup();
        for i in 1..=4 {
            cm.channel(NodeId::new(i), ChannelKind::Data).unwrap();
        }
        assert_eq!(cm.connected_peers(), 4);
    }
}
