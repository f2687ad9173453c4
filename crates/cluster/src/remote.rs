//! The remote memory store: RDMC → RDMS over the RDMA fabric.
//!
//! Every node donates a *receive buffer pool* — an RDMA-registered region
//! of its DRAM — to the cluster (paper §IV-B). A client node (acting as
//! RDMC) parks data entries in a chosen host's pool with a control-plane
//! request followed by a one-sided RDMA WRITE, and fetches them back with
//! an RDMA READ. Batched variants store or fetch a whole window of
//! entries in a single verb, which is the §IV-H batching optimization.

use crate::membership::ClusterMembership;
use dmem_net::{ChannelKind, ConnectionManager, Fabric, QpHandle, RegionHandle};
use dmem_types::{ByteSize, DmemError, DmemResult, EntryId, IdMap, NodeId};
use parking_lot::Mutex;
use std::fmt;

/// Size of a control-plane request/response message (entry id, offsets,
/// lengths — the "disaggregated memory system channel" traffic).
const CONTROL_MSG_BYTES: usize = 48;

#[derive(Debug, Clone, Copy)]
struct Extent {
    offset: u64,
    len: u64,
}

#[derive(Debug)]
struct HostState {
    region: RegionHandle,
    capacity: u64,
    /// Free extents sorted by offset, coalesced on free.
    free: Vec<Extent>,
    entries: IdMap<EntryId, Extent>,
}

impl HostState {
    fn new(region: RegionHandle, capacity: u64) -> Self {
        HostState {
            region,
            capacity,
            free: vec![Extent {
                offset: 0,
                len: capacity,
            }],
            entries: IdMap::default(),
        }
    }

    fn free_bytes(&self) -> u64 {
        self.free.iter().map(|e| e.len).sum()
    }

    /// First-fit allocation.
    fn alloc(&mut self, len: u64) -> Option<u64> {
        let idx = self.free.iter().position(|e| e.len >= len)?;
        let extent = &mut self.free[idx];
        let offset = extent.offset;
        extent.offset += len;
        extent.len -= len;
        if extent.len == 0 {
            self.free.remove(idx);
        }
        Some(offset)
    }

    /// Returns an extent to the free list, coalescing neighbours.
    fn release(&mut self, extent: Extent) {
        let pos = self
            .free
            .partition_point(|e| e.offset < extent.offset);
        self.free.insert(pos, extent);
        // Coalesce with successor, then predecessor.
        if pos + 1 < self.free.len()
            && self.free[pos].offset + self.free[pos].len == self.free[pos + 1].offset
        {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].offset + self.free[pos - 1].len == self.free[pos].offset {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
    }
}

/// Statistics for one node's receive pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStoreStats {
    /// Pool capacity.
    pub capacity: ByteSize,
    /// Unallocated bytes.
    pub free: ByteSize,
    /// Entries hosted.
    pub entries: usize,
}

/// The cluster-wide remote memory service.
///
/// One instance models all RDMS agents plus the RDMC client paths between
/// them; per-client connection managers keep data and control channels per
/// peer, exactly as §IV-G prescribes.
pub struct RemoteStore {
    fabric: Fabric,
    membership: ClusterMembership,
    pool_size: ByteSize,
    hosts: Mutex<IdMap<NodeId, HostState>>,
    clients: Mutex<IdMap<NodeId, ConnectionManager>>,
}

impl RemoteStore {
    /// Registers a receive pool of `pool_size` on every configured node.
    ///
    /// # Errors
    ///
    /// Propagates registration failures (e.g. a node already down).
    pub fn new(
        fabric: Fabric,
        membership: ClusterMembership,
        pool_size: ByteSize,
    ) -> DmemResult<Self> {
        let mut hosts = IdMap::default();
        for &node in membership.nodes() {
            let region = fabric.register(node, pool_size)?;
            hosts.insert(node, HostState::new(region, pool_size.as_u64()));
            membership.advertise_free(node, pool_size);
        }
        Ok(RemoteStore {
            fabric,
            membership,
            pool_size,
            hosts: Mutex::new(hosts),
            clients: Mutex::new(IdMap::default()),
        })
    }

    /// The membership this store serves.
    pub fn membership(&self) -> &ClusterMembership {
        &self.membership
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The channel of `kind` from `from` to `to`, through `from`'s
    /// connection manager (created on first use).
    fn channel(&self, from: NodeId, to: NodeId, kind: ChannelKind) -> DmemResult<QpHandle> {
        self.clients
            .lock()
            .entry(from)
            .or_insert_with(|| ConnectionManager::new(from, self.fabric.clone()))
            .channel(to, kind)
    }

    fn control_roundtrip(&self, from: NodeId, to: NodeId) -> DmemResult<()> {
        if from == to {
            // Loopback control requests stay on-node and skip the NIC.
            if !self.membership.is_alive(to) {
                return Err(DmemError::NodeUnavailable(to));
            }
            return Ok(());
        }
        let qp = self.channel(from, to, ChannelKind::Control)?;
        self.fabric.send(&qp, vec![0u8; CONTROL_MSG_BYTES])?;
        // Drain on the peer side so queues stay bounded.
        let _ = self.fabric.recv(&self.fabric.peer_handle(&qp))?;
        Ok(())
    }

    fn advertise(&self, node: NodeId, hosts: &IdMap<NodeId, HostState>) {
        if let Some(state) = hosts.get(&node) {
            self.membership
                .advertise_free(node, ByteSize::new(state.free_bytes()));
        }
    }

    /// Parks `data` for `entry` on node `to`, requested by node `from`.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when the host pool cannot
    /// fit the entry, plus any fabric path errors.
    pub fn store(&self, from: NodeId, to: NodeId, entry: EntryId, data: &[u8]) -> DmemResult<()> {
        self.store_batch(from, to, &[(entry, data)])
    }

    /// Parks a whole window of entries on `to` in one control message and
    /// one RDMA WRITE over a contiguous extent (the §IV-H batching win).
    ///
    /// All-or-nothing: on any failure no entry of the batch is stored.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`RemoteStore::store`].
    pub fn store_batch(
        &self,
        from: NodeId,
        to: NodeId,
        batch: &[(EntryId, &[u8])],
    ) -> DmemResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let total: u64 = batch.iter().map(|(_, d)| d.len() as u64).sum();
        let span = self.fabric.clock().tracer().span("cluster", "store_batch");
        span.tag("host", to);
        span.tag("entries", batch.len());
        span.tag("bytes", total);
        self.control_roundtrip(from, to)?;
        // Replacing existing entries frees their old extents first so a
        // steady-state rewrite of the same window never grows the pool.
        let mut hosts = self.hosts.lock();
        let state = hosts.get_mut(&to).ok_or(DmemError::NodeUnavailable(to))?;
        for (entry, _) in batch {
            if let Some(old) = state.entries.remove(entry) {
                state.release(old);
            }
        }
        let region = state.region;
        // Preferred layout: one contiguous extent for the whole window
        // (one RDMA write, batch-loadable in one span read). Fragmented
        // pools fall back to scattered per-entry extents.
        let mut placed: Vec<(EntryId, Extent)> = Vec::with_capacity(batch.len());
        let mut writes: Vec<(u64, &[u8])> = Vec::with_capacity(batch.len()); // (offset, bytes)
        let mut window = Vec::new();
        if let Some(base) = state.alloc(total) {
            let mut cursor = base;
            for (entry, data) in batch {
                let len = data.len() as u64;
                placed.push((*entry, Extent { offset: cursor, len }));
                cursor += len;
            }
            // A window of one is written from the caller's buffer; only a
            // real window is gathered into one send buffer.
            if let [(_, only)] = batch {
                writes.push((base, only));
            } else {
                window.reserve_exact(total as usize);
                for (_, data) in batch {
                    window.extend_from_slice(data);
                }
                writes.push((base, &window));
            }
        } else {
            for (entry, data) in batch {
                let len = data.len() as u64;
                match state.alloc(len) {
                    Some(offset) => {
                        placed.push((*entry, Extent { offset, len }));
                        writes.push((offset, data));
                    }
                    None => {
                        // Roll back this batch's allocations. Entries it
                        // replaced stay dropped: their space was freed
                        // above and may be gone after churn, so the
                        // caller re-stores them elsewhere or on disk.
                        for (_, extent) in &placed {
                            state.release(*extent);
                        }
                        return Err(DmemError::CapacityExhausted {
                            pool: format!("remote pool on {to}"),
                        });
                    }
                }
            }
        }
        drop(hosts);

        let qp = self.channel(from, to, ChannelKind::Data)?;
        for &(offset, bytes) in &writes {
            if let Err(e) = self.fabric.write(&qp, bytes, &region, offset) {
                // Roll back every allocation of this batch.
                let mut hosts = self.hosts.lock();
                if let Some(state) = hosts.get_mut(&to) {
                    for (_, extent) in &placed {
                        state.release(*extent);
                    }
                }
                return Err(e);
            }
        }

        let mut hosts = self.hosts.lock();
        let state = hosts.get_mut(&to).ok_or(DmemError::NodeUnavailable(to))?;
        for (entry, extent) in placed {
            if let Some(old) = state.entries.insert(entry, extent) {
                state.release(old);
            }
        }
        self.advertise(to, &hosts);
        Ok(())
    }

    /// Fetches `entry` back from node `to`.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if the host does not hold the
    /// entry, plus fabric path errors.
    pub fn load(&self, from: NodeId, to: NodeId, entry: EntryId) -> DmemResult<Vec<u8>> {
        let mut out = self.load_batch(from, to, &[entry])?;
        Ok(out.remove(0))
    }

    /// Fetches several entries from `to`. Entries stored contiguously
    /// (e.g. by one [`RemoteStore::store_batch`] call) are fetched in a
    /// single RDMA READ spanning them — this is FastSwap's proactive batch
    /// swap-in; others fall back to per-entry reads.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if any entry is missing (no
    /// partial results), plus fabric path errors.
    pub fn load_batch(
        &self,
        from: NodeId,
        to: NodeId,
        entries: &[EntryId],
    ) -> DmemResult<Vec<Vec<u8>>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let span = self.fabric.clock().tracer().span("cluster", "load_batch");
        span.tag("host", to);
        span.tag("entries", entries.len());
        self.control_roundtrip(from, to)?;
        let (region, extents) = {
            let hosts = self.hosts.lock();
            let state = hosts.get(&to).ok_or(DmemError::NodeUnavailable(to))?;
            let mut extents = Vec::with_capacity(entries.len());
            for e in entries {
                extents.push(*state.entries.get(e).ok_or(DmemError::EntryNotFound(*e))?);
            }
            (state.region, extents)
        };
        let qp = self.channel(from, to, ChannelKind::Data)?;

        // Coalesce maximal contiguous runs of extents into single reads:
        // entries stored by one batched write are adjacent, so a batch
        // swap-in usually needs one verb per originating window.
        let mut order: Vec<usize> = (0..extents.len()).collect();
        order.sort_by_key(|&i| extents[i].offset);
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); extents.len()];
        let mut run: Vec<usize> = Vec::new();
        let mut run_end = 0u64;
        let flush_run = |run: &mut Vec<usize>, out: &mut Vec<Vec<u8>>| -> DmemResult<()> {
            if run.is_empty() {
                return Ok(());
            }
            let start = extents[run[0]].offset;
            let last = extents[*run.last().expect("nonempty run")];
            let span = self
                .fabric
                .read(&qp, &region, start, (last.offset + last.len - start) as usize)?;
            if let [only] = run[..] {
                out[only] = span;
            } else {
                for &i in run.iter() {
                    let s = (extents[i].offset - start) as usize;
                    out[i] = span[s..s + extents[i].len as usize].to_vec();
                }
            }
            run.clear();
            Ok(())
        };
        for &i in &order {
            if !run.is_empty() && extents[i].offset != run_end {
                flush_run(&mut run, &mut out)?;
            }
            run_end = extents[i].offset + extents[i].len;
            run.push(i);
        }
        flush_run(&mut run, &mut out)?;
        Ok(out)
    }

    /// Removes `entry` from node `to`, freeing its extent.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if absent.
    pub fn delete(&self, from: NodeId, to: NodeId, entry: EntryId) -> DmemResult<()> {
        self.control_roundtrip(from, to)?;
        let mut hosts = self.hosts.lock();
        let state = hosts.get_mut(&to).ok_or(DmemError::NodeUnavailable(to))?;
        let extent = state
            .entries
            .remove(&entry)
            .ok_or(DmemError::EntryNotFound(entry))?;
        state.release(extent);
        self.advertise(to, &hosts);
        Ok(())
    }

    /// `true` if node `to` currently hosts `entry`.
    pub fn hosts_entry(&self, to: NodeId, entry: EntryId) -> bool {
        self.hosts
            .lock()
            .get(&to)
            .is_some_and(|s| s.entries.contains_key(&entry))
    }

    /// Entries hosted on `node`, in ascending id order (used by the
    /// eviction handler). The order is load-bearing: the handler migrates
    /// a bounded batch per scan, so which entries come first decides what
    /// moves, and a hash table's iteration order is an accident of its
    /// insertion history.
    pub fn entries_on(&self, node: NodeId) -> Vec<EntryId> {
        let mut entries: Vec<EntryId> = self
            .hosts
            .lock()
            .get(&node)
            .map(|s| s.entries.keys().copied().collect())
            .unwrap_or_default();
        entries.sort_unstable();
        entries
    }

    /// Pool statistics for `node`.
    pub fn stats(&self, node: NodeId) -> Option<RemoteStoreStats> {
        self.hosts.lock().get(&node).map(|s| RemoteStoreStats {
            capacity: ByteSize::new(s.capacity),
            free: ByteSize::new(s.free_bytes()),
            entries: s.entries.len(),
        })
    }

    /// Handles a node restart after a crash: its DRAM contents are gone,
    /// so all hosted entries vanish and a fresh region is registered.
    ///
    /// # Errors
    ///
    /// Propagates registration failures if the node is still down.
    pub fn reset_node(&self, node: NodeId) -> DmemResult<usize> {
        let mut hosts = self.hosts.lock();
        let old = hosts.remove(&node);
        let lost = old.as_ref().map(|s| s.entries.len()).unwrap_or(0);
        if let Some(state) = old {
            let _ = self.fabric.deregister(&state.region);
        }
        let region = self.fabric.register(node, self.pool_size)?;
        hosts.insert(node, HostState::new(region, self.pool_size.as_u64()));
        self.advertise(node, &hosts);
        Ok(lost)
    }

    /// Shrinks `node`'s pool by deregistering `bytes` of slack capacity
    /// (the §IV-F "deregister preemptively" path). Only unallocated space
    /// can be reclaimed; returns the bytes actually reclaimed.
    pub fn shrink_pool(&self, node: NodeId, bytes: ByteSize) -> ByteSize {
        let mut hosts = self.hosts.lock();
        let Some(state) = hosts.get_mut(&node) else {
            return ByteSize::ZERO;
        };
        let mut to_reclaim = bytes.as_u64();
        let mut reclaimed = 0u64;
        // Take from the tail-most free extents first.
        while to_reclaim > 0 {
            let Some(last) = state.free.last_mut() else { break };
            let take = last.len.min(to_reclaim);
            last.len -= take;
            state.capacity -= take;
            reclaimed += take;
            to_reclaim -= take;
            if last.len == 0 {
                state.free.pop();
            }
        }
        self.advertise(node, &hosts);
        ByteSize::new(reclaimed)
    }
}

impl fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hosts = self.hosts.lock();
        f.debug_struct("RemoteStore")
            .field("nodes", &hosts.len())
            .field("pool_size", &self.pool_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{CostModel, FailureEvent, FailureInjector, SimClock};
    use dmem_types::ServerId;

    fn setup(n: u32, pool_kib: u64) -> (SimClock, FailureInjector, RemoteStore) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes, failures.clone());
        let store = RemoteStore::new(fabric, membership, ByteSize::from_kib(pool_kib)).unwrap();
        (clock, failures, store)
    }

    fn entry(k: u64) -> EntryId {
        EntryId::new(ServerId::new(NodeId::new(0), 0), k)
    }

    #[test]
    fn store_load_roundtrip() {
        let (_, _, store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[7u8; 4096]).unwrap();
        assert!(store.hosts_entry(b, entry(1)));
        assert_eq!(store.load(a, b, entry(1)).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn store_updates_advertised_free() {
        let (_, _, store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let before = store.membership().free_of(b);
        store.store(a, b, entry(1), &[0u8; 4096]).unwrap();
        let after = store.membership().free_of(b);
        assert_eq!(before - after, ByteSize::new(4096));
    }

    #[test]
    fn capacity_exhaustion() {
        let (_, _, store) = setup(2, 8);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[0u8; 8192]).unwrap();
        assert!(matches!(
            store.store(a, b, entry(2), &[0u8; 1]),
            Err(DmemError::CapacityExhausted { .. })
        ));
        // Deleting frees the space again.
        store.delete(a, b, entry(1)).unwrap();
        store.store(a, b, entry(2), &[0u8; 4096]).unwrap();
    }

    #[test]
    fn batch_store_and_contiguous_batch_load() {
        let (clock, _, store) = setup(2, 256);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let pages: Vec<Vec<u8>> = (0..16).map(|k| vec![k as u8; 4096]).collect();
        let batch: Vec<(EntryId, &[u8])> = (0..16)
            .map(|k| (entry(k), pages[k as usize].as_slice()))
            .collect();
        store.store_batch(a, b, &batch).unwrap();

        let keys: Vec<EntryId> = (0..16).map(entry).collect();
        let t0 = clock.now();
        let loaded = store.load_batch(a, b, &keys).unwrap();
        let batched_time = clock.now() - t0;
        for (k, data) in loaded.iter().enumerate() {
            assert_eq!(data, &[k as u8; 4096]);
        }

        // Compare with 16 singleton loads: batching must win.
        let t1 = clock.now();
        for k in &keys {
            let _ = store.load(a, b, *k).unwrap();
        }
        let single_time = clock.now() - t1;
        assert!(
            batched_time < single_time,
            "batch {batched_time} >= singles {single_time}"
        );
    }

    #[test]
    fn non_contiguous_batch_load_still_correct() {
        let (_, _, store) = setup(2, 256);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for k in 0..4 {
            store.store(a, b, entry(k), &[k as u8; 1024]).unwrap();
        }
        // Delete one in the middle so remaining extents have a hole.
        store.delete(a, b, entry(1)).unwrap();
        let loaded = store.load_batch(a, b, &[entry(0), entry(2), entry(3)]).unwrap();
        assert_eq!(loaded[0], vec![0u8; 1024]);
        assert_eq!(loaded[1], vec![2u8; 1024]);
        assert_eq!(loaded[2], vec![3u8; 1024]);
    }

    #[test]
    fn missing_entry_not_found() {
        let (_, _, store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(matches!(
            store.load(a, b, entry(9)),
            Err(DmemError::EntryNotFound(_))
        ));
        assert!(matches!(
            store.delete(a, b, entry(9)),
            Err(DmemError::EntryNotFound(_))
        ));
    }

    #[test]
    fn replace_frees_old_extent() {
        let (_, _, store) = setup(2, 8);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[1u8; 4096]).unwrap();
        store.store(a, b, entry(1), &[2u8; 4096]).unwrap();
        assert_eq!(store.load(a, b, entry(1)).unwrap(), vec![2u8; 4096]);
        let stats = store.stats(b).unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.free, ByteSize::new(4096), "old extent was released");
    }

    #[test]
    fn dead_host_rejected_and_rolled_back() {
        let (_, failures, store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        failures.inject_now(FailureEvent::NodeDown(b));
        let err = store.store(a, b, entry(1), &[0u8; 64]).unwrap_err();
        assert!(matches!(err, DmemError::NodeUnavailable(_)));
        failures.inject_now(FailureEvent::NodeUp(b));
        // Nothing leaked: full capacity available after recovery.
        assert_eq!(store.stats(b).unwrap().free, ByteSize::from_kib(64));
    }

    #[test]
    fn crash_loses_hosted_entries() {
        let (_, failures, store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[5u8; 512]).unwrap();
        failures.inject_now(FailureEvent::NodeDown(b));
        failures.inject_now(FailureEvent::NodeUp(b));
        let lost = store.reset_node(b).unwrap();
        assert_eq!(lost, 1);
        assert!(!store.hosts_entry(b, entry(1)));
        assert!(matches!(
            store.load(a, b, entry(1)),
            Err(DmemError::EntryNotFound(_))
        ));
    }

    #[test]
    fn shrink_pool_reclaims_only_free_space() {
        let (_, _, store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[0u8; 4096]).unwrap();
        let reclaimed = store.shrink_pool(b, ByteSize::from_kib(128));
        assert_eq!(reclaimed, ByteSize::from_kib(60), "only the free 60 KiB");
        let stats = store.stats(b).unwrap();
        assert_eq!(stats.capacity, ByteSize::new(4096));
        assert_eq!(stats.free, ByteSize::ZERO);
    }

    #[test]
    fn free_list_coalesces() {
        let (_, _, store) = setup(2, 16);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for k in 0..4 {
            store.store(a, b, entry(k), &[0u8; 4096]).unwrap();
        }
        // Free in an order that requires coalescing both directions.
        for k in [1, 3, 0, 2] {
            store.delete(a, b, entry(k)).unwrap();
        }
        // Whole pool available as one extent again: a full-size store fits.
        store.store(a, b, entry(9), &[0u8; 16 * 1024]).unwrap();
    }
}
