//! Remote-memory paging baselines: NBDX and Infiniswap.
//!
//! NBDX is a network block device over RDMA: the swap device maps to one
//! remote peer's registered memory, every 4 KiB page is its own message.
//! Infiniswap (the paper's reference \[26\]) builds remote paging on that
//! data path but places *slabs* of the swap space across many peers
//! (power-of-two-choices by free memory) with a disk fallback. Neither
//! compresses pages nor batches swap-ins — the two gaps FastSwap exploits
//! in Figs. 6-9. The extra block-layer indirection of Infiniswap over raw
//! NBDX is modelled as a small per-operation CPU overhead.

use crate::backend::SwapBackend;
use dmem_cluster::{Placer, RemoteStore};
use dmem_core::DiskTier;
use dmem_sim::{DetRng, SimDuration};
use dmem_types::{
    DmemError, DmemResult, EntryId, IdMap, IdSet, NodeId, PlacementStrategy, ServerId,
};
use std::borrow::Cow;

enum Target {
    /// NBDX: one fixed remote peer is the block device.
    Fixed(NodeId),
    /// Infiniswap: slabs of `pages_per_slab` pages placed across peers.
    Slabs {
        pages_per_slab: u64,
        placed: IdMap<u64, NodeId>,
        placer: Placer,
    },
}

/// The data path both baselines share: one 4 KiB page per message to the
/// peer its target picks, disk when the peer is full or unreachable.
/// Built by [`NbdxBackend::new`] and [`InfiniswapBackend::new`], which
/// differ in target, name and per-operation overhead only.
pub struct RemotePaging {
    server: ServerId,
    store: RemoteStore,
    disk: DiskTier,
    on_disk: IdSet<u64>,
    on_remote: IdMap<u64, NodeId>,
    name: &'static str,
    per_op_overhead: SimDuration,
    target: Target,
}

impl RemotePaging {
    fn new(
        name: &'static str,
        per_op_overhead: SimDuration,
        server: ServerId,
        store: RemoteStore,
        disk: DiskTier,
        target: Target,
    ) -> Self {
        RemotePaging {
            server,
            store,
            disk,
            on_disk: IdSet::default(),
            on_remote: IdMap::default(),
            name,
            per_op_overhead,
            target,
        }
    }

    fn entry(&self, pfn: u64) -> EntryId {
        EntryId::new(self.server, pfn)
    }

    fn pick_host(&mut self, pfn: u64) -> DmemResult<NodeId> {
        let local = self.server.node();
        match &mut self.target {
            Target::Fixed(node) => Ok(*node),
            Target::Slabs {
                pages_per_slab,
                placed,
                placer,
            } => {
                let slab = pfn / *pages_per_slab;
                if let Some(&node) = placed.get(&slab) {
                    return Ok(node);
                }
                let candidates = self.store.membership().candidates(local);
                let node = placer.pick(&self.store, &candidates, 1)?[0];
                placed.insert(slab, node);
                Ok(node)
            }
        }
    }

    fn store_page(&mut self, pfn: u64, data: &[u8]) -> DmemResult<()> {
        self.store.fabric().clock().advance(self.per_op_overhead);
        let local = self.server.node();
        let host = match self.pick_host(pfn) {
            Ok(h) => h,
            Err(_) => {
                self.disk.store(local, self.entry(pfn), data.to_vec());
                self.on_disk.insert(pfn);
                return Ok(());
            }
        };
        match self.store.store(local, host, self.entry(pfn), data) {
            Ok(()) => {
                self.on_remote.insert(pfn, host);
                if self.store.fabric().faults_installed() {
                    // Under fault injection every remote page keeps a
                    // disk copy (write-through), so a page-in whose
                    // replicas are all unreachable degrades to disk
                    // instead of failing the fault handler.
                    self.disk.store(local, self.entry(pfn), data.to_vec());
                    self.on_disk.insert(pfn);
                    self.store
                        .fabric()
                        .metrics()
                        .counter("swap.faults.writethrough")
                        .inc();
                } else {
                    self.on_disk.remove(&pfn);
                }
                Ok(())
            }
            Err(_) => {
                // Remote full or unreachable: page goes to disk, exactly
                // Infiniswap's fallback semantics.
                self.disk.store(local, self.entry(pfn), data.to_vec());
                self.on_disk.insert(pfn);
                Ok(())
            }
        }
    }

    /// Reads `pfn` back: a remote read is a buffer of its own, a disk
    /// read is lent where the disk holds it.
    fn load_page(&mut self, pfn: u64) -> DmemResult<Cow<'_, [u8]>> {
        self.store.fabric().clock().advance(self.per_op_overhead);
        let local = self.server.node();
        if let Some(&host) = self.on_remote.get(&pfn) {
            match self.store.load(local, host, self.entry(pfn)) {
                Ok(data) => return Ok(Cow::Owned(data)),
                Err(_) => {
                    // Remote lost (node crash): fall through to disk copy
                    // if one exists; otherwise the page is gone.
                    self.on_remote.remove(&pfn);
                    if self.store.fabric().faults_installed() && self.on_disk.contains(&pfn) {
                        let fabric = self.store.fabric();
                        fabric.metrics().counter("swap.faults.disk_degrade").inc();
                        let now = fabric.clock().now();
                        fabric
                            .clock()
                            .tracer()
                            .record_async("swap", "degrade.disk", now, now, &[("pfn", pfn)]);
                    }
                }
            }
        }
        if self.on_disk.contains(&pfn) {
            return self.disk.read(local, self.entry(pfn)).map(Cow::Borrowed);
        }
        Err(DmemError::EntryNotFound(self.entry(pfn)))
    }
}

impl SwapBackend for RemotePaging {
    fn name(&self) -> &'static str {
        self.name
    }
    fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
        for (pfn, data) in pages {
            self.store_page(*pfn, data)?;
        }
        Ok(())
    }
    fn load_batch(&mut self, pfns: &[u64], sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()> {
        for (i, &pfn) in pfns.iter().enumerate() {
            sink(i, &self.load_page(pfn)?);
        }
        Ok(())
    }
    fn contains(&self, pfn: u64) -> bool {
        self.on_remote.contains_key(&pfn) || self.on_disk.contains(&pfn)
    }
    fn invalidate(&mut self, pfn: u64) {
        if let Some(host) = self.on_remote.remove(&pfn) {
            let _ = self.store.delete(self.server.node(), host, self.entry(pfn));
        }
        if self.on_disk.remove(&pfn) {
            let _ = self.disk.delete(self.server.node(), self.entry(pfn));
        }
    }
}

/// NBDX: remote block device over RDMA with a single fixed peer.
pub enum NbdxBackend {}

impl NbdxBackend {
    /// Per-operation device overhead of the raw block path.
    pub(crate) const OVERHEAD: SimDuration = SimDuration::from_micros(5);

    /// Creates an NBDX device backed by `target`'s receive pool.
    #[allow(clippy::new_ret_no_self)] // a configuration of `RemotePaging`, not a type of its own
    pub(crate) fn new(
        server: ServerId,
        store: RemoteStore,
        target: NodeId,
        disk: DiskTier,
    ) -> RemotePaging {
        RemotePaging::new("NBDX", Self::OVERHEAD, server, store, disk, Target::Fixed(target))
    }
}

/// Infiniswap: slab-placed remote paging with disk fallback.
pub enum InfiniswapBackend {}

impl InfiniswapBackend {
    /// Per-operation overhead: NBDX path plus the block-layer request
    /// queue, bio handling and slab-bitmap bookkeeping Infiniswap adds
    /// on every 4 KiB page (it demand-pages through the full block
    /// stack, which is the overhead FastSwap's batched paths avoid).
    pub(crate) const OVERHEAD: SimDuration = SimDuration::from_micros(10);
    /// Infiniswap's slab granularity, scaled down with the simulation
    /// (the real system uses 1 GB slabs for TB-scale memory).
    pub(crate) const PAGES_PER_SLAB: u64 = 256;

    /// Creates an Infiniswap device over the cluster's remote store.
    #[allow(clippy::new_ret_no_self)] // a configuration of `RemotePaging`, not a type of its own
    pub(crate) fn new(
        server: ServerId,
        store: RemoteStore,
        disk: DiskTier,
        seed: u64,
    ) -> RemotePaging {
        // Power of two choices by advertised free memory, as
        // Infiniswap's slab placement does.
        let target = Target::Slabs {
            pages_per_slab: Self::PAGES_PER_SLAB,
            placed: IdMap::default(),
            placer: Placer::new(
                PlacementStrategy::PowerOfTwoChoices,
                DetRng::new(seed).fork("infiniswap-placement"),
            ),
        };
        RemotePaging::new("Infiniswap", Self::OVERHEAD, server, store, disk, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{load_one, store_one};
    use dmem_cluster::ClusterMembership;
    use dmem_net::Fabric;
    use dmem_sim::{CostModel, FailureEvent, FailureInjector, SimClock};
    use dmem_types::ByteSize;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn cluster(n: u32, pool_kib: u64) -> (SimClock, FailureInjector, RemoteStore, DiskTier) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes, failures.clone());
        let store = RemoteStore::new(fabric, membership, ByteSize::from_kib(pool_kib)).unwrap();
        let disk = DiskTier::new(clock.clone(), CostModel::paper_default());
        (clock, failures, store, disk)
    }

    fn server() -> ServerId {
        ServerId::new(NodeId::new(0), 0)
    }

    #[test]
    fn nbdx_roundtrip_is_microsecond_scale() {
        let (clock, _, store, disk) = cluster(2, 256);
        let mut b = NbdxBackend::new(server(), store, NodeId::new(1), disk);
        store_one(&mut b, 1, vec![7u8; 4096]).unwrap();
        let t0 = clock.now();
        assert_eq!(load_one(&mut b, 1).unwrap(), vec![7u8; 4096]);
        let elapsed = clock.now() - t0;
        assert!(
            elapsed.as_micros_f64() < 50.0,
            "remote page read must be micro-scale, got {elapsed}"
        );
        assert_eq!(b.name(), "NBDX");
    }

    #[test]
    fn infiniswap_spreads_slabs_across_peers() {
        let (_, _, store, disk) = cluster(5, 4096);
        let mut b = InfiniswapBackend::new(server(), store, disk, 7);
        // Touch pages across many slabs.
        for slab in 0..8u64 {
            let pfn = slab * InfiniswapBackend::PAGES_PER_SLAB;
            store_one(&mut b, pfn, vec![slab as u8; 4096]).unwrap();
        }
        let hosts: HashSet<NodeId> = b.on_remote.values().copied().collect();
        assert!(hosts.len() >= 2, "slabs should land on multiple peers: {hosts:?}");
        // Pages of the same slab share a host.
        store_one(&mut b, 1, vec![9u8; 4096]).unwrap();
        assert_eq!(b.on_remote[&0], b.on_remote[&1]);
    }

    #[test]
    fn remote_exhaustion_falls_back_to_disk() {
        let (clock, _, store, disk) = cluster(2, 8); // 8 KiB remote = 2 pages
        let mut b = NbdxBackend::new(server(), store, NodeId::new(1), disk);
        for pfn in 0..4 {
            store_one(&mut b, pfn, vec![pfn as u8; 4096]).unwrap();
        }
        assert!(!b.on_disk.is_empty(), "overflow must hit the disk");
        // Disk-resident pages load at disk latency.
        let victim = *b.on_disk.iter().next().unwrap();
        let t0 = clock.now();
        assert_eq!(load_one(&mut b, victim).unwrap(), vec![victim as u8; 4096]);
        assert!((clock.now() - t0).as_millis_f64() > 3.0);
    }

    #[test]
    fn remote_node_crash_loses_undisked_pages() {
        let (_, failures, store, disk) = cluster(2, 256);
        let mut b = NbdxBackend::new(server(), store, NodeId::new(1), disk);
        store_one(&mut b, 1, vec![1u8; 4096]).unwrap();
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(1)));
        assert!(load_one(&mut b, 1).is_err(), "no disk copy: page lost");
    }

    #[test]
    fn faults_mode_degrades_page_in_to_disk_instead_of_failing() {
        use dmem_net::{FabricFaults, FaultProfile};
        use dmem_sim::DetRng;

        let (_, failures, store, disk) = cluster(2, 256);
        let fabric = store.fabric().clone();
        // Installing the layer (even with a silent profile) switches the
        // backend to write-through, the graceful-degradation contract.
        fabric.install_faults(Arc::new(FabricFaults::new(
            DetRng::new(0),
            FaultProfile::none(),
        )));
        let mut b = NbdxBackend::new(server(), store, NodeId::new(1), disk);
        store_one(&mut b, 1, vec![1u8; 4096]).unwrap();
        assert_eq!(
            fabric.metrics().counter("swap.faults.writethrough").get(),
            1
        );
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(1)));
        // Same crash as above, but the page-in survives via the disk copy.
        assert_eq!(load_one(&mut b, 1).unwrap(), vec![1u8; 4096]);
        assert_eq!(
            fabric.metrics().counter("swap.faults.disk_degrade").get(),
            1
        );
    }

    #[test]
    fn invalidate_clears_both_tiers() {
        let (_, _, store, disk) = cluster(3, 256);
        let mut b = InfiniswapBackend::new(server(), store, disk, 1);
        store_one(&mut b, 5, vec![5u8; 128]).unwrap();
        assert!(b.contains(5));
        b.invalidate(5);
        assert!(!b.contains(5));
        assert!(load_one(&mut b, 5).is_err());
    }

    #[test]
    fn infiniswap_costs_more_than_nbdx_per_op() {
        assert!(InfiniswapBackend::OVERHEAD > NbdxBackend::OVERHEAD);
    }
}
