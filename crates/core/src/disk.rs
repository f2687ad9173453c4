//! The external-storage tier: per-node simulated swap disks.
//!
//! The paper's baseline (and final fallback) is the node's 7.2K rpm SATA
//! disk. Each node owns an independent disk; every access charges the
//! HDD cost model to the shared virtual clock. Batched reads pay one seek.

use dmem_sim::{CostModel, DeviceCost, SimClock};
use dmem_types::{ByteSize, DmemError, DmemResult, EntryId, IdMap, NodeId};
use std::fmt;
use std::sync::Arc;

/// Per-node simulated disks storing entry payloads.
pub struct DiskTier {
    clock: SimClock,
    device: DeviceCost,
    /// Span category for this tier's device accesses ("disk", "nvm", …).
    label: &'static str,
    disks: IdMap<NodeId, NodeDisk>,
}

/// One node's device: the payloads and their running byte total. A
/// payload is an immutable shared buffer, so a CXL block and its
/// write-behind shadow here are one allocation.
#[derive(Default)]
struct NodeDisk {
    entries: IdMap<EntryId, Arc<Vec<u8>>>,
    bytes: u64,
}

impl NodeDisk {
    fn insert(&mut self, entry: EntryId, data: Arc<Vec<u8>>) {
        self.bytes += data.len() as u64;
        if let Some(old) = self.entries.insert(entry, data) {
            self.bytes -= old.len() as u64;
        }
    }
}

impl DiskTier {
    /// Creates the tier over the shared clock, charging the cost model's
    /// HDD device.
    pub fn new(clock: SimClock, cost: CostModel) -> Self {
        DiskTier::with_device_labeled(clock, cost.hdd, "disk")
    }

    /// Creates a byte-store tier charging an arbitrary device under an
    /// explicit trace-span category — used for the NVM and SSD extension
    /// tiers, which share the same per-node store-entry semantics with
    /// different costs, so NVM accesses are attributed separately from
    /// spinning disk.
    pub(crate) fn with_device_labeled(clock: SimClock, device: DeviceCost, label: &'static str) -> Self {
        DiskTier {
            clock,
            device,
            label,
            disks: IdMap::default(),
        }
    }

    /// Bytes stored on `node`'s device.
    pub(crate) fn used(&self, node: NodeId) -> ByteSize {
        ByteSize::new(self.disks.get(&node).map_or(0, |d| d.bytes))
    }

    /// [`DiskTier::store`] for a tier of `capacity` bytes per node: the
    /// room is checked and taken in one step, and a tier of zero
    /// capacity — not installed — holds nothing, not even an empty entry.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when `data` does not fit.
    pub(crate) fn try_store(
        &mut self,
        node: NodeId,
        entry: EntryId,
        data: &[u8],
        capacity: ByteSize,
    ) -> DmemResult<()> {
        let disk = self.disks.entry(node).or_default();
        if capacity.is_zero() || disk.bytes + data.len() as u64 > capacity.as_u64() {
            return Err(DmemError::CapacityExhausted {
                pool: format!("{} on {node}", self.label),
            });
        }
        disk.insert(entry, Arc::new(data.to_vec()));
        let span = self.clock.tracer().span(self.label, "store");
        span.tag("bytes", data.len());
        self.clock.advance(self.device.transfer(data.len()));
        Ok(())
    }

    /// Writes `data` for `entry` on `node`'s disk, keeping the caller's
    /// buffer rather than a copy of it.
    pub fn store(&mut self, node: NodeId, entry: EntryId, data: Vec<u8>) {
        let span = self.clock.tracer().span(self.label, "store");
        span.tag("bytes", data.len());
        self.clock.advance(self.device.transfer(data.len()));
        self.disks.entry(node).or_default().insert(entry, Arc::new(data));
    }

    /// Writes `data` for `entry` on `node`'s disk **without charging the
    /// device on the foreground clock** — the write-behind path used for
    /// the CXL tier's shadow copies. The put completes at pool speed;
    /// the flush happens off the critical path, overlapping later
    /// foreground work (which the virtual clock models as free), and the
    /// copy is only ever read on the slow failover path, which does pay
    /// the full device cost. The shadow is the buffer the pool block
    /// holds, shared, not a second copy of it.
    pub(crate) fn store_behind(&mut self, node: NodeId, entry: EntryId, data: Arc<Vec<u8>>) {
        let span = self.clock.tracer().span(self.label, "store_behind");
        span.tag("bytes", data.len());
        self.disks.entry(node).or_default().insert(entry, data);
    }

    /// Writes a batch in one sequential disk operation (single seek).
    pub fn store_batch(&mut self, node: NodeId, batch: Vec<(EntryId, Vec<u8>)>) {
        let total: usize = batch.iter().map(|(_, d)| d.len()).sum();
        let span = self.clock.tracer().span(self.label, "store_batch");
        span.tag("bytes", total);
        span.tag("entries", batch.len());
        self.clock.advance(self.device.transfer(total));
        let disk = self.disks.entry(node).or_default();
        for (entry, data) in batch {
            disk.insert(entry, Arc::new(data));
        }
    }

    /// Reads `entry` back from `node`'s disk: [`DiskTier::read`] plus a
    /// copy the caller keeps.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if absent.
    pub fn load(&self, node: NodeId, entry: EntryId) -> DmemResult<Vec<u8>> {
        self.read(node, entry).map(<[u8]>::to_vec)
    }

    /// Reads `entry` from `node`'s disk, charging the device as
    /// [`DiskTier::load`] does, and lends the buffer the tier holds.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if absent.
    pub fn read(&self, node: NodeId, entry: EntryId) -> DmemResult<&[u8]> {
        let data = self.held(node, entry).ok_or(DmemError::EntryNotFound(entry))?;
        let span = self.clock.tracer().span(self.label, "load");
        span.tag("bytes", data.len());
        self.clock.advance(self.device.transfer(data.len()));
        Ok(data)
    }

    /// Reads a batch, lending each buffer the tier holds; contiguity on a
    /// spinning disk is approximated by a single seek plus the combined
    /// transfer.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if any entry is absent, before
    /// charging anything (no partial results, matching the remote batch
    /// semantics).
    pub fn read_batch(&self, node: NodeId, entries: &[EntryId]) -> DmemResult<Vec<&[u8]>> {
        let mut out = Vec::with_capacity(entries.len());
        let mut total = 0usize;
        for &e in entries {
            let data = self.held(node, e).ok_or(DmemError::EntryNotFound(e))?;
            total += data.len();
            out.push(data.as_slice());
        }
        let span = self.clock.tracer().span(self.label, "load_batch");
        span.tag("bytes", total);
        span.tag("entries", entries.len());
        self.clock.advance(self.device.transfer(total));
        Ok(out)
    }

    /// Removes `entry` from `node`'s disk (metadata-only, no seek
    /// charged), returning the freed payload size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if absent.
    pub fn delete(&mut self, node: NodeId, entry: EntryId) -> DmemResult<usize> {
        let disk = self.disks.get_mut(&node);
        let disk = disk.ok_or(DmemError::EntryNotFound(entry))?;
        let data = disk.entries.remove(&entry);
        let data = data.ok_or(DmemError::EntryNotFound(entry))?;
        disk.bytes -= data.len() as u64;
        Ok(data.len())
    }

    /// The buffer held for `entry` on `node`'s disk, as held.
    pub(crate) fn held(&self, node: NodeId, entry: EntryId) -> Option<&Arc<Vec<u8>>> {
        self.disks.get(&node)?.entries.get(&entry)
    }

    /// `true` if the entry is on `node`'s disk.
    pub fn contains(&self, node: NodeId, entry: EntryId) -> bool {
        self.held(node, entry).is_some()
    }

    /// Entries stored on `node`'s disk.
    pub fn len(&self, node: NodeId) -> usize {
        self.disks.get(&node).map_or(0, |d| d.entries.len())
    }
}

impl fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskTier")
            .field("nodes", &self.disks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::ServerId;

    fn tier() -> (SimClock, DiskTier) {
        let clock = SimClock::new();
        (clock.clone(), DiskTier::new(clock, CostModel::paper_default()))
    }

    fn entry(k: u64) -> EntryId {
        EntryId::new(ServerId::new(NodeId::new(0), 0), k)
    }

    #[test]
    fn store_load_roundtrip_charges_hdd_cost() {
        let (clock, mut tier) = tier();
        tier.store(NodeId::new(0), entry(1), vec![1u8; 4096]);
        let after_store = clock.now();
        assert!(after_store.nanos() > 3_000_000, "store pays a ~4ms seek");
        assert_eq!(tier.load(NodeId::new(0), entry(1)).unwrap(), vec![1u8; 4096]);
        assert!((clock.now() - after_store).as_millis_f64() > 3.0);
    }

    #[test]
    fn stores_keep_the_callers_buffer() {
        let (_, mut tier) = tier();
        let node = NodeId::new(0);
        let data = vec![9u8; 4096];
        let at = data.as_ptr();
        tier.store(node, entry(1), data);
        assert_eq!(
            tier.held(node, entry(1)).unwrap().as_ptr(),
            at,
            "moved, not copied"
        );
        let batch = vec![(entry(2), vec![8u8; 64])];
        let at = batch[0].1.as_ptr();
        tier.store_batch(node, batch);
        assert_eq!(tier.held(node, entry(2)).unwrap().as_ptr(), at);
        let shared = Arc::new(vec![7u8; 64]);
        tier.store_behind(node, entry(3), Arc::clone(&shared));
        assert!(Arc::ptr_eq(tier.held(node, entry(3)).unwrap(), &shared));
        assert_eq!(tier.read(node, entry(3)).unwrap().as_ptr(), shared.as_ptr(), "reads lend");
        tier.delete(node, entry(3)).unwrap();
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn batched_io_single_seek() {
        let (clock, mut tier) = tier();
        let batch: Vec<_> = (0..8).map(|k| (entry(k), vec![0u8; 4096])).collect();
        let t0 = clock.now();
        tier.store_batch(NodeId::new(0), batch);
        let batched = clock.now() - t0;

        let t1 = clock.now();
        for k in 8..16 {
            tier.store(NodeId::new(0), entry(k), vec![0u8; 4096]);
        }
        let separate = clock.now() - t1;
        assert!(batched.as_nanos() * 4 < separate.as_nanos());

        let keys: Vec<_> = (0..8).map(entry).collect();
        let t2 = clock.now();
        let read = tier.read_batch(NodeId::new(0), &keys).unwrap();
        assert_eq!(read.len(), 8);
        assert!((clock.now() - t2).as_nanos() * 4 < separate.as_nanos(), "one seek per batch read");
    }

    #[test]
    fn disks_are_per_node() {
        let (_, mut tier) = tier();
        tier.store(NodeId::new(0), entry(1), vec![1]);
        assert!(tier.contains(NodeId::new(0), entry(1)));
        assert!(!tier.contains(NodeId::new(1), entry(1)));
        assert!(tier.load(NodeId::new(1), entry(1)).is_err());
    }

    #[test]
    fn bounded_tier_counts_bytes_in_and_out() {
        let node = NodeId::new(0);
        let (_, mut tier) = tier();
        let cap = ByteSize::new(8);
        tier.try_store(node, entry(1), &[1; 6], cap).unwrap();
        assert!(matches!(
            tier.try_store(node, entry(2), &[2; 3], cap),
            Err(DmemError::CapacityExhausted { .. })
        ));
        // A replacement counts the new payload, not both.
        tier.store(node, entry(1), vec![1; 2]);
        assert_eq!(tier.used(node), ByteSize::new(2));
        tier.try_store(node, entry(2), &[2; 6], cap).unwrap();
        tier.delete(node, entry(1)).unwrap();
        assert_eq!(tier.used(node), ByteSize::new(6));
        assert_eq!(tier.used(NodeId::new(1)), ByteSize::ZERO);
        assert!(tier.try_store(node, entry(3), &[], ByteSize::ZERO).is_err());
    }

    #[test]
    fn delete_and_missing() {
        let (_, mut tier) = tier();
        tier.store(NodeId::new(0), entry(1), vec![1]);
        tier.delete(NodeId::new(0), entry(1)).unwrap();
        assert_eq!(tier.len(NodeId::new(0)), 0);
        assert!(matches!(
            tier.delete(NodeId::new(0), entry(1)),
            Err(DmemError::EntryNotFound(_))
        ));
        assert!(matches!(
            tier.read_batch(NodeId::new(0), &[entry(1)]),
            Err(DmemError::EntryNotFound(_))
        ));
    }
}
