//! The per-server request path: LDMC → LDMS.
//!
//! In the paper's architecture (Fig. 1) each virtual server runs a *local
//! disaggregated memory client* (LDMC) that forwards put/get requests to
//! the node's *local disaggregated memory server* (LDMS), which in turn
//! coordinates with the node manager for slab space. Here the LDMS role is
//! served by [`NodeManager`]; [`LocalDmc`] is the typed per-server handle
//! that namespaces keys and enforces ownership.

use crate::manager::NodeManager;
use dmem_types::{DmemResult, EntryId, ServerId, SizeClass};
use std::fmt;
use std::sync::Arc;

/// A virtual server's client handle onto its node's shared memory pool.
#[derive(Clone)]
pub struct LocalDmc {
    server: ServerId,
    manager: Arc<NodeManager>,
}

impl LocalDmc {
    /// Creates a client for `server` backed by its node's manager.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not hosted on the manager's node — the LDMC
    /// can only talk to its own node's LDMS.
    pub fn new(server: ServerId, manager: Arc<NodeManager>) -> Self {
        assert_eq!(
            server.node(),
            manager.node(),
            "LDMC must connect to its own node's manager"
        );
        LocalDmc { server, manager }
    }

    /// The owning virtual server.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The entry id this client uses for `key`.
    pub fn entry_id(&self, key: u64) -> EntryId {
        EntryId::new(self.server, key)
    }

    /// Stores `data` under `key` in the node shared pool.
    ///
    /// # Errors
    ///
    /// Propagates [`NodeManager::put`] errors, notably
    /// [`dmem_types::DmemError::CapacityExhausted`] when the pool is full.
    pub fn put(&self, key: u64, data: Vec<u8>, class: SizeClass) -> DmemResult<()> {
        self.manager.put(self.entry_id(key), &data, class).map(|_| ())
    }

    /// Reads the entry stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`dmem_types::DmemError::EntryNotFound`] if absent.
    pub fn get(&self, key: u64) -> DmemResult<Vec<u8>> {
        self.manager.get(self.entry_id(key))
    }

    /// Deletes the entry stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`dmem_types::DmemError::EntryNotFound`] if absent.
    pub fn delete(&self, key: u64) -> DmemResult<()> {
        self.manager.delete(self.entry_id(key))
    }

    /// `true` if `key` is resident in the shared pool.
    pub fn contains(&self, key: u64) -> bool {
        self.manager.contains(self.entry_id(key))
    }
}

impl fmt::Debug for LocalDmc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalDmc")
            .field("server", &self.server)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{CostModel, SimClock};
    use dmem_types::{ByteSize, DonationPolicy, NodeId};

    fn setup() -> (Arc<NodeManager>, LocalDmc) {
        let node = NodeId::new(0);
        let manager = Arc::new(NodeManager::new(
            node,
            ByteSize::from_kib(16),
            SimClock::new(),
            CostModel::paper_default(),
        ));
        let server = ServerId::new(node, 0);
        manager.register_server(server, ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        let ldmc = LocalDmc::new(server, Arc::clone(&manager));
        (manager, ldmc)
    }

    #[test]
    fn put_get_delete_via_client() {
        let (_, ldmc) = setup();
        ldmc.put(42, vec![1, 2, 3], SizeClass::C512).unwrap();
        assert!(ldmc.contains(42));
        assert_eq!(ldmc.get(42).unwrap(), vec![1, 2, 3]);
        ldmc.delete(42).unwrap();
        assert!(!ldmc.contains(42));
    }

    #[test]
    fn keys_namespaced_per_server() {
        let (manager, ldmc0) = setup();
        let server1 = ServerId::new(NodeId::new(0), 1);
        manager.register_server(server1, ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        let ldmc1 = LocalDmc::new(server1, Arc::clone(&manager));
        ldmc0.put(7, vec![0xA], SizeClass::C512).unwrap();
        ldmc1.put(7, vec![0xB], SizeClass::C512).unwrap();
        assert_eq!(ldmc0.get(7).unwrap(), vec![0xA]);
        assert_eq!(ldmc1.get(7).unwrap(), vec![0xB]);
    }

    #[test]
    #[should_panic(expected = "own node's manager")]
    fn cross_node_client_rejected() {
        let (manager, _) = setup();
        let foreign = ServerId::new(NodeId::new(9), 0);
        let _ = LocalDmc::new(foreign, manager);
    }

    #[test]
    fn entry_id_is_stable() {
        let (_, ldmc) = setup();
        assert_eq!(ldmc.entry_id(5), EntryId::new(ldmc.server(), 5));
    }
}
