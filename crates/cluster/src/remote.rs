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
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Size of a control-plane request/response message (entry id, offsets,
/// lengths — the "disaggregated memory system channel" traffic).
const CONTROL_MSG_BYTES: usize = 48;

/// What one [`RemoteStore::load_batch`] read: one buffer per RDMA READ,
/// each spanning a contiguous run of entries, lent out per entry.
#[derive(Debug)]
pub struct LoadedBatch {
    /// Each read's buffer and how many entries it holds.
    runs: Vec<(Vec<u8>, usize)>,
    /// Per requested entry, in request order: its run and its bytes there.
    slots: Vec<(usize, Range<usize>)>,
}

impl LoadedBatch {
    /// The bytes of the `i`-th requested entry. An entry that was read
    /// alone is handed its read's buffer, moved out, so lend each entry
    /// once; an entry of a longer run is lent its slice of the run.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the number of entries requested.
    pub fn lend(&mut self, i: usize) -> Cow<'_, [u8]> {
        let (run, range) = self.slots[i].clone();
        match &mut self.runs[run] {
            (buf, 1) => Cow::Owned(std::mem::take(buf)),
            (buf, _) => Cow::Borrowed(&buf[range]),
        }
    }
}

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

    /// Returns an extent to the free list, coalescing neighbours, and
    /// has the region forget its bytes.
    fn release(&mut self, fabric: &Fabric, extent: Extent) {
        fabric.discard(&self.region, extent.offset, extent.len);
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
    hosts: IdMap<NodeId, HostState>,
    /// Each node's last advertised free pool capacity, what placement
    /// weighs. A store that fails after freeing a replaced entry leaves
    /// it stale until the next [`RemoteStore::advertise_all`].
    advertised: IdMap<NodeId, ByteSize>,
    clients: IdMap<NodeId, ConnectionManager>,
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
        let mut advertised = IdMap::default();
        for &node in membership.nodes() {
            let region = fabric.register(node, pool_size)?;
            hosts.insert(node, HostState::new(region, pool_size.as_u64()));
            advertised.insert(node, pool_size);
        }
        Ok(RemoteStore {
            fabric,
            membership,
            pool_size,
            hosts,
            advertised,
            clients: IdMap::default(),
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
    fn channel(&mut self, from: NodeId, to: NodeId, kind: ChannelKind) -> DmemResult<QpHandle> {
        self.clients
            .entry(from)
            .or_insert_with(|| ConnectionManager::new(from, self.fabric.clone()))
            .channel(to, kind)
    }

    fn control_roundtrip(&mut self, from: NodeId, to: NodeId) -> DmemResult<()> {
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

    /// Publishes `node`'s free pool capacity (done periodically by each
    /// node's agent in the paper; here after every write that changes it).
    fn advertise(&mut self, node: NodeId) {
        if let Some(state) = self.hosts.get(&node) {
            self.advertised.insert(node, ByteSize::new(state.free_bytes()));
        }
    }

    /// Re-publishes every node's free pool capacity (the periodic
    /// advertisement refresh).
    pub fn advertise_all(&mut self) {
        for (&node, state) in &self.hosts {
            self.advertised.insert(node, ByteSize::new(state.free_bytes()));
        }
    }

    /// Last advertised free capacity of `node` (zero if never advertised).
    pub fn free_of(&self, node: NodeId) -> ByteSize {
        self.advertised.get(&node).copied().unwrap_or(ByteSize::ZERO)
    }

    /// Parks `data` for `entry` on node `to`, requested by node `from`.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when the host pool cannot
    /// fit the entry, plus any fabric path errors.
    pub fn store(&mut self, from: NodeId, to: NodeId, entry: EntryId, data: &[u8]) -> DmemResult<()> {
        self.store_batch(from, to, &[(entry, Arc::from(data))])
    }

    /// Parks a whole window of entries on `to` in one control message and
    /// one RDMA WRITE over a contiguous extent (the §IV-H batching win).
    /// The host's region holds the entries' buffers, not copies, so the
    /// replicas of one window share them.
    ///
    /// All-or-nothing: on any failure no entry of the batch is stored.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`RemoteStore::store`].
    pub(crate) fn store_batch(
        &mut self,
        from: NodeId,
        to: NodeId,
        batch: &[(EntryId, Arc<[u8]>)],
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
        let state = self.hosts.get_mut(&to).ok_or(DmemError::NodeUnavailable(to))?;
        for (entry, _) in batch {
            if let Some(old) = state.entries.remove(entry) {
                state.release(&self.fabric, old);
            }
        }
        let region = state.region;
        // Preferred layout: one contiguous extent for the whole window
        // (one RDMA write, batch-loadable in one span read). Fragmented
        // pools fall back to scattered per-entry extents.
        let mut placed: Vec<(EntryId, Extent)> = Vec::with_capacity(batch.len());
        // (offset, the batch's buffers written there)
        let mut writes: Vec<(u64, Range<usize>)> = Vec::with_capacity(batch.len());
        if let Some(base) = state.alloc(total) {
            let mut cursor = base;
            for (entry, data) in batch {
                let len = data.len() as u64;
                placed.push((*entry, Extent { offset: cursor, len }));
                cursor += len;
            }
            writes.push((base, 0..batch.len()));
        } else {
            for (i, (entry, data)) in batch.iter().enumerate() {
                let len = data.len() as u64;
                let Some(offset) = state.alloc(len) else {
                    self.abandon(to, &placed);
                    return Err(DmemError::CapacityExhausted {
                        pool: format!("remote pool on {to}"),
                    });
                };
                placed.push((*entry, Extent { offset, len }));
                writes.push((offset, i..i + 1));
            }
        }

        let qp = match self.channel(from, to, ChannelKind::Data) {
            Ok(qp) => qp,
            Err(e) => {
                self.abandon(to, &placed);
                return Err(e);
            }
        };
        let bufs: Vec<Arc<[u8]>> = batch.iter().map(|(_, d)| Arc::clone(d)).collect();
        for (offset, range) in writes {
            if let Err(e) = self.fabric.write_shared(&qp, &bufs[range], &region, offset) {
                self.abandon(to, &placed);
                return Err(e);
            }
        }

        let state = self.hosts.get_mut(&to).ok_or(DmemError::NodeUnavailable(to))?;
        for (entry, extent) in placed {
            if let Some(old) = state.entries.insert(entry, extent) {
                state.release(&self.fabric, old);
            }
        }
        self.advertise(to);
        debug_assert!(self.holds_only_live(to), "{to} holds freed bytes after a store");
        Ok(())
    }

    /// Rolls back a failed [`RemoteStore::store_batch`] on `to`: frees the
    /// extents it placed and re-advertises the pool. Entries it replaced
    /// stay dropped: their space was freed first and may be gone after
    /// churn, so the caller re-stores them elsewhere or on disk.
    fn abandon(&mut self, to: NodeId, placed: &[(EntryId, Extent)]) {
        if let Some(state) = self.hosts.get_mut(&to) {
            for (_, extent) in placed {
                state.release(&self.fabric, *extent);
            }
        }
        self.advertise(to);
        debug_assert!(self.holds_only_live(to), "{to} holds freed bytes after a rollback");
    }

    /// Whether `to`'s region holds exactly the bytes of its live extents:
    /// every path that frees an extent (a replace, a rollback, a delete)
    /// has the region forget it, so freed far memory costs no host RAM.
    ///
    /// The one known exception is the `LinkDown` orphan (ROADMAP B1): a
    /// replicated delete that fails with `LinkDown` leaves its copy
    /// listed here though no cluster record names it any more, so its
    /// bytes stay held until the host resets, and this check, which
    /// trusts the listing, counts them as live.
    fn holds_only_live(&self, to: NodeId) -> bool {
        self.hosts.get(&to).is_none_or(|state| {
            let live: u64 = state.entries.values().map(|e| e.len).sum();
            self.fabric.held_bytes(&state.region) == live
        })
    }

    /// Fetches `entry` back from node `to`.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if the host does not hold the
    /// entry, plus fabric path errors.
    pub fn load(&mut self, from: NodeId, to: NodeId, entry: EntryId) -> DmemResult<Vec<u8>> {
        Ok(self.load_batch(from, to, &[entry])?.lend(0).into_owned())
    }

    /// Fetches several entries from `to`. Entries stored contiguously
    /// (e.g. by one [`RemoteStore::store_batch`] call) are fetched in a
    /// single RDMA READ spanning them — this is FastSwap's proactive batch
    /// swap-in; others fall back to per-entry reads. Each read's buffer is
    /// kept whole and lent out per entry ([`LoadedBatch::lend`]).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if any entry is missing (no
    /// partial results), plus fabric path errors.
    pub fn load_batch(
        &mut self,
        from: NodeId,
        to: NodeId,
        entries: &[EntryId],
    ) -> DmemResult<LoadedBatch> {
        let mut loaded = LoadedBatch {
            runs: Vec::with_capacity(entries.len()),
            slots: vec![(0, 0..0); entries.len()],
        };
        if entries.is_empty() {
            return Ok(loaded);
        }
        let span = self.fabric.clock().tracer().span("cluster", "load_batch");
        span.tag("host", to);
        span.tag("entries", entries.len());
        self.control_roundtrip(from, to)?;
        let state = self.hosts.get(&to).ok_or(DmemError::NodeUnavailable(to))?;
        let region = state.region;
        let extents = entries
            .iter()
            .map(|e| state.entries.get(e).copied().ok_or(DmemError::EntryNotFound(*e)))
            .collect::<DmemResult<Vec<Extent>>>()?;
        let qp = self.channel(from, to, ChannelKind::Data)?;

        // Coalesce maximal contiguous runs of extents into single reads:
        // entries stored by one batched write are adjacent, so a batch
        // swap-in usually needs one verb per originating window.
        let mut order: Vec<usize> = (0..extents.len()).collect();
        order.sort_by_key(|&i| extents[i].offset);
        let mut run: Vec<usize> = Vec::new();
        let mut run_end = 0u64;
        let flush_run = |run: &mut Vec<usize>, loaded: &mut LoadedBatch| -> DmemResult<()> {
            if run.is_empty() {
                return Ok(());
            }
            let start = extents[run[0]].offset;
            let last = extents[*run.last().expect("nonempty run")];
            let span = self
                .fabric
                .read(&qp, &region, start, (last.offset + last.len - start) as usize)?;
            let index = loaded.runs.len();
            loaded.runs.push((span, run.len()));
            for &i in run.iter() {
                let s = (extents[i].offset - start) as usize;
                loaded.slots[i] = (index, s..s + extents[i].len as usize);
            }
            run.clear();
            Ok(())
        };
        for &i in &order {
            if !run.is_empty() && extents[i].offset != run_end {
                flush_run(&mut run, &mut loaded)?;
            }
            run_end = extents[i].offset + extents[i].len;
            run.push(i);
        }
        flush_run(&mut run, &mut loaded)?;
        Ok(loaded)
    }

    /// Removes `entry` from node `to`, freeing its extent.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if absent.
    pub fn delete(&mut self, from: NodeId, to: NodeId, entry: EntryId) -> DmemResult<()> {
        self.control_roundtrip(from, to)?;
        let state = self.hosts.get_mut(&to).ok_or(DmemError::NodeUnavailable(to))?;
        let extent = state
            .entries
            .remove(&entry)
            .ok_or(DmemError::EntryNotFound(entry))?;
        state.release(&self.fabric, extent);
        self.advertise(to);
        debug_assert!(self.holds_only_live(to), "{to} holds freed bytes after a delete");
        Ok(())
    }

    /// `true` if node `to` currently hosts `entry`.
    pub fn hosts_entry(&self, to: NodeId, entry: EntryId) -> bool {
        self.hosts
            .get(&to)
            .is_some_and(|s| s.entries.contains_key(&entry))
    }

    /// Entries hosted on `node`, in ascending id order (used by the
    /// eviction handler). The order is load-bearing: the handler migrates
    /// a bounded batch per scan, so which entries come first decides what
    /// moves, and a hash table's iteration order is an accident of its
    /// insertion history.
    pub(crate) fn entries_on(&self, node: NodeId) -> Vec<EntryId> {
        let mut entries: Vec<EntryId> = self
            .hosts
            .get(&node)
            .map(|s| s.entries.keys().copied().collect())
            .unwrap_or_default();
        entries.sort_unstable();
        entries
    }

    /// Bytes `node`'s region holds (zero for an unknown node).
    #[cfg(test)]
    pub(crate) fn held_on(&self, node: NodeId) -> u64 {
        self.hosts
            .get(&node)
            .map_or(0, |s| self.fabric.held_bytes(&s.region))
    }

    /// Pool statistics for `node`.
    pub fn stats(&self, node: NodeId) -> Option<RemoteStoreStats> {
        self.hosts.get(&node).map(|s| RemoteStoreStats {
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
    pub fn reset_node(&mut self, node: NodeId) -> DmemResult<usize> {
        let old = self.hosts.remove(&node);
        let lost = old.as_ref().map(|s| s.entries.len()).unwrap_or(0);
        if let Some(state) = old {
            let _ = self.fabric.deregister(&state.region);
        }
        let region = self.fabric.register(node, self.pool_size)?;
        self.hosts
            .insert(node, HostState::new(region, self.pool_size.as_u64()));
        self.advertise(node);
        Ok(lost)
    }

    /// Shrinks `node`'s pool by deregistering `bytes` of slack capacity
    /// (the §IV-F "deregister preemptively" path). Only unallocated space
    /// can be reclaimed; returns the bytes actually reclaimed.
    pub(crate) fn shrink_pool(&mut self, node: NodeId, bytes: ByteSize) -> ByteSize {
        let Some(state) = self.hosts.get_mut(&node) else {
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
        self.advertise(node);
        ByteSize::new(reclaimed)
    }
}

impl fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteStore")
            .field("nodes", &self.hosts.len())
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
        let (_, _, mut store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[7u8; 4096]).unwrap();
        assert!(store.hosts_entry(b, entry(1)));
        assert_eq!(store.load(a, b, entry(1)).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn store_updates_advertised_free() {
        let (_, _, mut store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let before = store.free_of(b);
        store.store(a, b, entry(1), &[0u8; 4096]).unwrap();
        let after = store.free_of(b);
        assert_eq!(before - after, ByteSize::new(4096));
    }

    #[test]
    fn free_memory_advertisement() {
        let (_, _, mut store) = setup(2, 8);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(store.free_of(b), ByteSize::from_kib(8), "a new pool is all free");
        assert_eq!(store.free_of(NodeId::new(9)), ByteSize::ZERO, "never advertised");
        store.store(a, b, entry(1), &[0u8; 4096]).unwrap();
        assert_eq!(store.free_of(b), ByteSize::from_kib(4));
        // A rewrite too big for the pool frees the old extent and fails;
        // the advertisement follows at once, not at the periodic refresh.
        assert!(store.store(a, b, entry(1), &[0u8; 16 * 1024]).is_err());
        assert_eq!(store.stats(b).unwrap().free, ByteSize::from_kib(8));
        assert_eq!(store.free_of(b), ByteSize::from_kib(8));
        store.advertise_all();
        assert_eq!(store.free_of(b), ByteSize::from_kib(8));
    }

    #[test]
    fn capacity_exhaustion() {
        let (_, _, mut store) = setup(2, 8);
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
        let (clock, _, mut store) = setup(2, 256);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let batch: Vec<(EntryId, Arc<[u8]>)> = (0..16)
            .map(|k| (entry(k), Arc::from(vec![k as u8; 4096])))
            .collect();
        store.store_batch(a, b, &batch).unwrap();

        let keys: Vec<EntryId> = (0..16).map(entry).collect();
        let t0 = clock.now();
        let mut loaded = store.load_batch(a, b, &keys).unwrap();
        let batched_time = clock.now() - t0;
        for k in 0..16 {
            let data = loaded.lend(k);
            assert!(matches!(data, Cow::Borrowed(_)), "one run, lent in slices");
            assert_eq!(*data, [k as u8; 4096]);
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
        let (_, _, mut store) = setup(2, 256);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for k in 0..4 {
            store.store(a, b, entry(k), &[k as u8; 1024]).unwrap();
        }
        // Delete one in the middle so remaining extents have a hole.
        store.delete(a, b, entry(1)).unwrap();
        let mut loaded = store.load_batch(a, b, &[entry(0), entry(2), entry(3)]).unwrap();
        // Entry 0 is a read of its own, handed over; 2 and 3 share one.
        let alone = loaded.lend(0);
        assert!(matches!(alone, Cow::Owned(_)));
        assert_eq!(*alone, [0u8; 1024]);
        assert_eq!(*loaded.lend(1), [2u8; 1024]);
        assert_eq!(*loaded.lend(2), [3u8; 1024]);
    }

    #[test]
    fn missing_entry_not_found() {
        let (_, _, mut store) = setup(2, 64);
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
        let (_, _, mut store) = setup(2, 8);
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
        let (_, failures, mut store) = setup(2, 64);
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
        let (_, failures, mut store) = setup(2, 64);
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
        let (_, _, mut store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[0u8; 4096]).unwrap();
        let reclaimed = store.shrink_pool(b, ByteSize::from_kib(128));
        assert_eq!(reclaimed, ByteSize::from_kib(60), "only the free 60 KiB");
        let stats = store.stats(b).unwrap();
        assert_eq!(stats.capacity, ByteSize::new(4096));
        assert_eq!(stats.free, ByteSize::ZERO);
    }

    #[test]
    fn freed_extent_is_forgotten() {
        let (_, _, mut store) = setup(2, 64);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        store.store(a, b, entry(1), &[1u8; 4096]).unwrap();
        store.store(a, b, entry(2), &[2u8; 1000]).unwrap();
        assert_eq!(store.held_on(b), 5096);
        store.delete(a, b, entry(1)).unwrap();
        assert_eq!(store.held_on(b), 1000, "the deleted extent's 4096 bytes");
        // A replace forgets the old extent; so does a failed store's
        // rollback.
        store.store(a, b, entry(2), &[3u8; 500]).unwrap();
        assert_eq!(store.held_on(b), 500);
        assert!(store.store(a, b, entry(2), &[0u8; 128 * 1024]).is_err());
        assert_eq!(store.held_on(b), 0);
        // Freed far memory reads as zeros.
        let region = store.hosts[&b].region;
        let qp = store.channel(a, b, ChannelKind::Data).unwrap();
        assert_eq!(store.fabric.read(&qp, &region, 0, 4096).unwrap(), vec![0; 4096]);
    }

    #[test]
    fn failed_fragmented_store_forgets_what_it_wrote() {
        let (_, _, mut store) = setup(2, 16);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for k in 0..4 {
            store.store(a, b, entry(k), &[k as u8; 4096]).unwrap();
        }
        store.delete(a, b, entry(0)).unwrap();
        store.delete(a, b, entry(2)).unwrap();
        // Two 4 KiB holes, no 8 KiB run: the window goes per entry, and
        // its third entry does not fit.
        let batch: Vec<(EntryId, Arc<[u8]>)> = (10..13)
            .map(|k| (entry(k), Arc::from(vec![9u8; 4096])))
            .collect();
        assert!(matches!(
            store.store_batch(a, b, &batch),
            Err(DmemError::CapacityExhausted { .. })
        ));
        assert_eq!(store.held_on(b), 2 * 4096, "entries 1 and 3 only");
        assert_eq!(store.stats(b).unwrap().entries, 2);
    }

    #[test]
    fn free_list_coalesces() {
        let (_, _, mut store) = setup(2, 16);
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
