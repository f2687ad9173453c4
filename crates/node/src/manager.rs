//! The node manager: the LDMS side of node-level disaggregation.
//!
//! One [`NodeManager`] runs per physical node. It owns the shared memory
//! pool, the donation registry, and the node's disaggregated-memory page
//! table mapping entry ids to pool blocks. Virtual servers reach it
//! through `dmem-core`'s shared rung; the cluster layer escalates to
//! remote memory when the manager reports
//! [`DmemError::CapacityExhausted`].

use crate::donation::DonationRegistry;
use crate::pool::{BlockRef, PoolStats, SharedMemoryPool};
use dmem_sim::{CostModel, LazyCounter, MetricsRegistry, SimClock, SimDuration, SimInstant};
use dmem_types::{
    ByteSize, DmemError, DmemResult, DonationPolicy, EntryId, IdMap, IdSet, NodeId, ServerId,
    SizeClass,
};
use std::collections::VecDeque;
use std::fmt;

/// Ballooning recommendation for a virtual server (paper §IV-F policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalloonAdvice {
    /// No change recommended.
    Steady,
    /// The server overflows the shared pool frequently: balloon DRAM back
    /// to it by shrinking its donation (policy (2)).
    BalloonToServer,
    /// The node overflows to remote memory frequently: shrink the RDMA
    /// receive pool donated to remote peers (policy (1)).
    ShrinkRecvPool,
}

/// Outcome of [`NodeManager::apply_recommendation`]: the advice that was
/// computed and whether a donation adjustment was actually applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedBalloon {
    /// The recommendation that was consulted.
    pub advice: BalloonAdvice,
    /// `true` when a donation adjustment went through (it may still have
    /// been clamped to a no-op by a fixed donation policy).
    pub applied: bool,
    /// The server's donation fraction after the adjustment, when applied.
    pub fraction: Option<f64>,
}

/// Node-level statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Pool allocator statistics.
    pub pool: PoolStats,
    /// Entries resident in the shared pool.
    pub entries: usize,
    /// Put operations served by the pool.
    pub shared_puts: u64,
    /// Puts that overflowed (pool full).
    pub overflows: u64,
}

/// How far back [`NodeManager::balloon_advice`] counts overflows and
/// remote escalations.
const ADVICE_WINDOW: SimDuration = SimDuration::from_millis(100);
/// Overflows of one server, or remote escalations of the node, within
/// [`ADVICE_WINDOW`] at which [`NodeManager::balloon_advice`] fires.
const ADVICE_THRESHOLD: usize = 32;

#[derive(Debug, Clone, Copy)]
struct StoredEntry {
    block: BlockRef,
    len: usize,
    class: SizeClass,
}

/// The per-node coordinator of the shared memory pool.
pub struct NodeManager {
    node: NodeId,
    clock: SimClock,
    cost: CostModel,
    metrics: MetricsRegistry,
    handles: NodeMetrics,
    pool: SharedMemoryPool,
    donations: DonationRegistry,
    page_table: IdMap<EntryId, StoredEntry>,
    by_server: IdMap<ServerId, IdSet<u64>>,
    /// Recent overflow timestamps per server, for balloon advice.
    overflow_log: IdMap<ServerId, VecDeque<SimInstant>>,
    /// Recent node-level remote escalations.
    remote_log: VecDeque<SimInstant>,
    shared_puts: u64,
    overflows: u64,
}

/// The `node.*` counters, resolved on first touch.
struct NodeMetrics {
    put_shared: LazyCounter,
    put_overflow: LazyCounter,
    get_shared: LazyCounter,
}

impl NodeManager {
    /// Creates a manager with an empty pool carved into `slab_size` slabs.
    pub fn new(node: NodeId, slab_size: ByteSize, clock: SimClock, cost: CostModel) -> Self {
        let metrics = MetricsRegistry::new();
        NodeManager {
            node,
            clock,
            cost,
            handles: NodeMetrics {
                put_shared: LazyCounter::new(&metrics, "node.put.shared"),
                put_overflow: LazyCounter::new(&metrics, "node.put.overflow"),
                get_shared: LazyCounter::new(&metrics, "node.get.shared"),
            },
            metrics,
            pool: SharedMemoryPool::new(slab_size, ByteSize::ZERO),
            donations: DonationRegistry::new(),
            page_table: IdMap::default(),
            by_server: IdMap::default(),
            overflow_log: IdMap::default(),
            remote_log: VecDeque::new(),
            shared_puts: 0,
            overflows: 0,
        }
    }

    /// The manager's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registers a virtual server; its donation immediately grows the pool.
    ///
    /// Returns the new pool capacity.
    pub fn register_server(
        &mut self,
        server: ServerId,
        allocated: ByteSize,
        policy: DonationPolicy,
    ) -> ByteSize {
        self.donations
            .register(server, allocated, policy)
            .expect("validated policy");
        let capacity = self.donations.total_donated();
        self.pool.set_capacity(capacity);
        capacity
    }

    /// Removes a failed or departing server: its donation leaves the pool
    /// and all its entries are purged (local failure semantics, §IV-D:
    /// same as losing OS swap).
    ///
    /// Returns the number of purged entries.
    pub fn deregister_server(&mut self, server: ServerId) -> usize {
        self.donations.deregister(server);
        let capacity = self.donations.total_donated();
        self.pool.set_capacity(capacity);
        let keys = self.by_server.remove(&server).unwrap_or_default();
        for &key in &keys {
            if let Some(stored) = self.page_table.remove(&EntryId::new(server, key)) {
                let _ = self.pool.free(stored.block);
            }
        }
        keys.len()
    }

    /// Stores `data` for `entry` in the shared pool at DRAM-class cost,
    /// returning the allocated block (recorded in the owner's memory map).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when the pool cannot fit
    /// the entry's class (the caller escalates to cluster level), or
    /// [`DmemError::InvalidConfig`] for payloads exceeding the class.
    pub fn put(&mut self, entry: EntryId, data: &[u8], class: SizeClass) -> DmemResult<BlockRef> {
        // Replace semantics: free any previous block first.
        if let Some(old) = self.page_table.remove(&entry) {
            let _ = self.pool.free(old.block);
            self.by_server
                .get_mut(&entry.owner())
                .map(|s| s.remove(&entry.key()));
        }
        let len = data.len();
        match self.pool.alloc(class, data) {
            Ok(block) => {
                self.page_table
                    .insert(entry, StoredEntry { block, len, class });
                self.by_server
                    .entry(entry.owner())
                    .or_default()
                    .insert(entry.key());
                self.shared_puts += 1;
                self.clock.advance(self.cost.shared_memory.transfer(len));
                self.handles.put_shared.inc();
                Ok(block)
            }
            Err(e @ DmemError::CapacityExhausted { .. }) => {
                self.overflows += 1;
                let now = self.clock.now();
                self.overflow_log
                    .entry(entry.owner())
                    .or_default()
                    .push_back(now);
                self.handles.put_overflow.inc();
                Err(e)
            }
            Err(other) => Err(other),
        }
    }

    /// Reads an entry back from the shared pool, lending it where it lies
    /// in its slab; a caller that keeps it copies it.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if the entry is not resident.
    pub fn get(&self, entry: EntryId) -> DmemResult<&[u8]> {
        let stored = *self
            .page_table
            .get(&entry)
            .ok_or(DmemError::EntryNotFound(entry))?;
        let data = self.pool.read(stored.block, stored.len)?;
        self.clock
            .advance(self.cost.shared_memory.transfer(stored.len));
        self.handles.get_shared.inc();
        Ok(data)
    }

    /// The stored size class of an entry, if resident.
    pub fn class_of(&self, entry: EntryId) -> Option<SizeClass> {
        self.page_table.get(&entry).map(|s| s.class)
    }

    /// Removes an entry, freeing its block.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if the entry is not resident.
    pub fn delete(&mut self, entry: EntryId) -> DmemResult<()> {
        let stored = self
            .page_table
            .remove(&entry)
            .ok_or(DmemError::EntryNotFound(entry))?;
        self.pool.free(stored.block)?;
        self.by_server
            .get_mut(&entry.owner())
            .map(|s| s.remove(&entry.key()));
        Ok(())
    }

    /// Records that this node escalated a put to remote memory (used by
    /// the §IV-F policy (1) signal).
    pub fn record_remote_escalation(&mut self) {
        self.remote_log.push_back(self.clock.now());
    }

    /// Adjusts a server's donation fraction (ballooning), resizing the
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] for unknown servers.
    pub fn adjust_donation(&mut self, server: ServerId, delta: f64) -> DmemResult<f64> {
        let fraction = self.donations.adjust(server, delta)?;
        let capacity = self.donations.total_donated();
        self.pool.set_capacity(capacity);
        Ok(fraction)
    }

    /// Ballooning recommendation for `server`, per the §IV-F policies:
    /// frequent per-server overflows → balloon DRAM back to the server;
    /// frequent node-level remote escalations → shrink the receive pool.
    pub(crate) fn balloon_advice(&mut self, server: ServerId) -> BalloonAdvice {
        let now = self.clock.now();
        let horizon = |log: &mut VecDeque<SimInstant>| {
            while let Some(&front) = log.front() {
                if now - front > ADVICE_WINDOW {
                    log.pop_front();
                } else {
                    break;
                }
            }
            log.len()
        };
        let server_overflows = self
            .overflow_log
            .get_mut(&server)
            .map(&horizon)
            .unwrap_or(0);
        if server_overflows >= ADVICE_THRESHOLD {
            BalloonAdvice::BalloonToServer
        } else if horizon(&mut self.remote_log) >= ADVICE_THRESHOLD {
            BalloonAdvice::ShrinkRecvPool
        } else {
            BalloonAdvice::Steady
        }
    }

    /// Consults [`NodeManager::balloon_advice`] for `server` and *applies*
    /// it: [`BalloonAdvice::BalloonToServer`] shrinks the server's
    /// donation by `step` via [`NodeManager::adjust_donation`] (§IV-F
    /// policy (2), promoted from a returned recommendation to an acted-on
    /// path). Other advice leaves the donation untouched.
    pub fn apply_recommendation(&mut self, server: ServerId, step: f64) -> AppliedBalloon {
        let advice = self.balloon_advice(server);
        let fraction = if advice == BalloonAdvice::BalloonToServer {
            self.adjust_donation(server, -step).ok()
        } else {
            None
        };
        AppliedBalloon {
            advice,
            applied: fraction.is_some(),
            fraction,
        }
    }

    /// Node statistics snapshot.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            pool: self.pool.stats(),
            entries: self.page_table.len(),
            shared_puts: self.shared_puts,
            overflows: self.overflows,
        }
    }

    /// Current pool capacity (total donations).
    pub fn capacity(&self) -> ByteSize {
        self.pool.capacity()
    }
}

impl fmt::Debug for NodeManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("NodeManager")
            .field("node", &self.node)
            .field("entries", &stats.entries)
            .field("capacity", &stats.pool.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> NodeManager {
        NodeManager::new(
            NodeId::new(0),
            ByteSize::from_kib(16),
            SimClock::new(),
            CostModel::paper_default(),
        )
    }

    fn server(i: u32) -> ServerId {
        ServerId::new(NodeId::new(0), i)
    }

    fn entry(s: ServerId, k: u64) -> EntryId {
        EntryId::new(s, k)
    }

    #[test]
    fn donation_sets_capacity() {
        let mut m = manager();
        let cap = m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::fixed(0.25));
        assert_eq!(cap, ByteSize::from_mib(1).scaled(0.25));
        assert_eq!(m.capacity(), cap);
    }

    #[test]
    fn put_get_roundtrip_charges_time() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        let e = entry(server(0), 1);
        let t0 = m.clock.now();
        m.put(e, &[9u8; 100], SizeClass::C512).unwrap();
        assert!(m.clock.now() > t0, "put charges shared-memory time");
        assert_eq!(m.get(e).unwrap(), vec![9u8; 100]);
        assert!(m.page_table.contains_key(&e));
        assert_eq!(m.class_of(e), Some(SizeClass::C512));
    }

    #[test]
    fn put_replaces_existing() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        let e = entry(server(0), 1);
        m.put(e, &[1u8; 10], SizeClass::C512).unwrap();
        m.put(e, &[2u8; 20], SizeClass::C1K).unwrap();
        assert_eq!(m.get(e).unwrap(), vec![2u8; 20]);
        assert_eq!(m.stats().entries, 1);
    }

    #[test]
    fn overflow_reports_capacity_exhausted() {
        let mut m = manager();
        // 16 KiB donation = one slab = four 4 KiB blocks.
        m.register_server(server(0), ByteSize::from_kib(160), DonationPolicy::fixed(0.1));
        for k in 0..4 {
            m.put(entry(server(0), k), &[0u8; 4096], SizeClass::C4K)
                .unwrap();
        }
        assert!(matches!(
            m.put(entry(server(0), 99), &[0u8; 4096], SizeClass::C4K),
            Err(DmemError::CapacityExhausted { .. })
        ));
        assert_eq!(m.stats().overflows, 1);
    }

    #[test]
    fn delete_frees_space() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_kib(160), DonationPolicy::fixed(0.1));
        let e = entry(server(0), 1);
        m.put(e, &[1u8; 4096], SizeClass::C4K).unwrap();
        m.delete(e).unwrap();
        assert!(!m.page_table.contains_key(&e));
        assert!(matches!(m.get(e), Err(DmemError::EntryNotFound(_))));
        assert!(matches!(m.delete(e), Err(DmemError::EntryNotFound(_))));
    }

    #[test]
    fn deregister_purges_server_entries() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        m.register_server(server(1), ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        for k in 0..3 {
            m.put(entry(server(0), k), &[0u8; 64], SizeClass::C512)
                .unwrap();
        }
        m.put(entry(server(1), 0), &[1u8; 64], SizeClass::C512)
            .unwrap();
        assert_eq!(m.deregister_server(server(0)), 3);
        assert!(!m.page_table.contains_key(&entry(server(0), 0)));
        assert!(m.page_table.contains_key(&entry(server(1), 0)), "other servers unaffected");
        // Capacity shrank to server 1's donation alone.
        assert_eq!(m.capacity(), ByteSize::from_mib(1).scaled(0.5));
    }

    #[test]
    fn servers_cannot_read_each_others_entries_by_key() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        m.put(entry(server(0), 7), &[1u8; 8], SizeClass::C512)
            .unwrap();
        // Same key, different owner: namespaced, not found.
        assert!(m.get(entry(server(1), 7)).is_err());
    }

    #[test]
    fn balloon_advice_fires_on_repeated_overflow() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_kib(160), DonationPolicy::fixed(0.1));
        // Fill the pool, then overflow repeatedly: one overflow short of
        // the threshold is still steady, the next one fires.
        for k in 0..4 {
            m.put(entry(server(0), k), &[0u8; 4096], SizeClass::C4K)
                .unwrap();
        }
        assert_eq!(m.balloon_advice(server(0)), BalloonAdvice::Steady);
        for k in 1..ADVICE_THRESHOLD as u64 {
            let _ = m.put(entry(server(0), 100 + k), &[0u8; 4096], SizeClass::C4K);
        }
        assert_eq!(m.balloon_advice(server(0)), BalloonAdvice::Steady);
        let _ = m.put(entry(server(0), 100), &[0u8; 4096], SizeClass::C4K);
        assert_eq!(
            m.balloon_advice(server(0)),
            BalloonAdvice::BalloonToServer
        );
        // Outside the window the signal decays.
        m.clock.advance(ADVICE_WINDOW * 2);
        assert_eq!(m.balloon_advice(server(0)), BalloonAdvice::Steady);
    }

    #[test]
    fn remote_escalations_advise_shrinking_recv_pool() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::fixed(0.5));
        for _ in 0..ADVICE_THRESHOLD {
            m.record_remote_escalation();
        }
        assert_eq!(m.balloon_advice(server(0)), BalloonAdvice::ShrinkRecvPool);
    }

    #[test]
    fn apply_recommendation_shrinks_donation_under_pressure() {
        let mut m = manager();
        m.register_server(
            server(0),
            ByteSize::from_kib(160),
            DonationPolicy {
                initial: 0.1,
                min: 0.0,
                max: 0.4,
            },
        );
        // Steady advice applies nothing.
        let outcome = m.apply_recommendation(server(0), 0.05);
        assert_eq!(outcome.advice, BalloonAdvice::Steady);
        assert!(!outcome.applied);
        assert_eq!(outcome.fraction, None);

        // Fill the pool and overflow past the advice threshold.
        for k in 0..4 {
            m.put(entry(server(0), k), &[0u8; 4096], SizeClass::C4K)
                .unwrap();
        }
        for k in 0..ADVICE_THRESHOLD as u64 {
            let _ = m.put(entry(server(0), 100 + k), &[0u8; 4096], SizeClass::C4K);
        }
        let before = m.capacity();
        let outcome = m.apply_recommendation(server(0), 0.05);
        assert_eq!(outcome.advice, BalloonAdvice::BalloonToServer);
        assert!(outcome.applied);
        assert!((outcome.fraction.unwrap() - 0.05).abs() < 1e-9);
        assert!(m.capacity() < before, "donation actually moved");
    }

    #[test]
    fn ballooning_resizes_pool() {
        let mut m = manager();
        m.register_server(server(0), ByteSize::from_mib(1), DonationPolicy::paper_default());
        let before = m.capacity();
        m.adjust_donation(server(0), 0.30).unwrap(); // 0.10 -> 0.40
        assert!(m.capacity() > before);
        m.adjust_donation(server(0), -1.0).unwrap(); // clamp to 0.0
        assert_eq!(m.capacity(), ByteSize::ZERO);
    }
}
