//! The external-storage tier: per-node simulated swap disks.
//!
//! The paper's baseline (and final fallback) is the node's 7.2K rpm SATA
//! disk. Each node owns an independent disk; every access charges the
//! HDD cost model to the shared virtual clock. Batched reads pay one seek.

use dmem_sim::{CostModel, DeviceCost, SimClock};
use dmem_types::{ByteSize, DmemError, DmemResult, EntryId, IdMap, NodeId};
use parking_lot::Mutex;
use std::fmt;

/// Per-node simulated disks storing entry payloads.
pub struct DiskTier {
    clock: SimClock,
    device: DeviceCost,
    /// Span category for this tier's device accesses ("disk", "nvm", …).
    label: &'static str,
    disks: Mutex<IdMap<NodeId, NodeDisk>>,
}

/// One node's device: the payloads and their running byte total.
#[derive(Default)]
struct NodeDisk {
    entries: IdMap<EntryId, Vec<u8>>,
    bytes: u64,
}

impl NodeDisk {
    fn insert(&mut self, entry: EntryId, data: Vec<u8>) {
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
        DiskTier::with_device(clock, cost.hdd)
    }

    /// Creates a byte-store tier charging an arbitrary device — used for
    /// the NVM and SSD extension tiers, which share the same per-node
    /// store-entry semantics with different costs.
    pub fn with_device(clock: SimClock, device: DeviceCost) -> Self {
        DiskTier::with_device_labeled(clock, device, "disk")
    }

    /// [`DiskTier::with_device`] with an explicit trace-span category, so
    /// NVM accesses are attributed separately from spinning disk.
    pub fn with_device_labeled(clock: SimClock, device: DeviceCost, label: &'static str) -> Self {
        DiskTier {
            clock,
            device,
            label,
            disks: Mutex::new(IdMap::default()),
        }
    }

    /// Bytes stored on `node`'s device.
    pub(crate) fn used(&self, node: NodeId) -> ByteSize {
        ByteSize::new(self.disks.lock().get(&node).map_or(0, |d| d.bytes))
    }

    /// [`DiskTier::store`] for a tier of `capacity` bytes per node: the
    /// room is checked and taken under one lock, and a tier of zero
    /// capacity — not installed — holds nothing, not even an empty entry.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when `data` does not fit.
    pub(crate) fn try_store(
        &self,
        node: NodeId,
        entry: EntryId,
        data: &[u8],
        capacity: ByteSize,
    ) -> DmemResult<()> {
        let mut disks = self.disks.lock();
        let disk = disks.entry(node).or_default();
        if capacity.is_zero() || disk.bytes + data.len() as u64 > capacity.as_u64() {
            return Err(DmemError::CapacityExhausted {
                pool: format!("{} on {node}", self.label),
            });
        }
        disk.insert(entry, data.to_vec());
        drop(disks);
        let span = self.clock.tracer().span(self.label, "store");
        span.tag("bytes", data.len());
        self.clock.advance(self.device.transfer(data.len()));
        Ok(())
    }

    /// Writes `data` for `entry` on `node`'s disk.
    pub fn store(&self, node: NodeId, entry: EntryId, data: Vec<u8>) {
        let span = self.clock.tracer().span(self.label, "store");
        span.tag("bytes", data.len());
        self.clock.advance(self.device.transfer(data.len()));
        self.disks
            .lock()
            .entry(node)
            .or_default()
            .insert(entry, data);
    }

    /// Writes `data` for `entry` on `node`'s disk **without charging the
    /// device on the foreground clock** — the write-behind path used for
    /// the CXL tier's shadow copies. The put completes at pool speed;
    /// the flush happens off the critical path, overlapping later
    /// foreground work (which the virtual clock models as free), and the
    /// copy is only ever read on the slow failover path, which does pay
    /// the full device cost.
    pub fn store_behind(&self, node: NodeId, entry: EntryId, data: Vec<u8>) {
        let span = self.clock.tracer().span(self.label, "store_behind");
        span.tag("bytes", data.len());
        self.disks
            .lock()
            .entry(node)
            .or_default()
            .insert(entry, data);
    }

    /// Writes a batch in one sequential disk operation (single seek).
    pub fn store_batch(&self, node: NodeId, batch: Vec<(EntryId, Vec<u8>)>) {
        let total: usize = batch.iter().map(|(_, d)| d.len()).sum();
        let span = self.clock.tracer().span(self.label, "store_batch");
        span.tag("bytes", total);
        span.tag("entries", batch.len());
        self.clock.advance(self.device.transfer(total));
        let mut disks = self.disks.lock();
        let disk = disks.entry(node).or_default();
        for (entry, data) in batch {
            disk.insert(entry, data);
        }
    }

    /// Reads `entry` back from `node`'s disk.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if absent.
    pub fn load(&self, node: NodeId, entry: EntryId) -> DmemResult<Vec<u8>> {
        let disks = self.disks.lock();
        let data = disks
            .get(&node)
            .and_then(|d| d.entries.get(&entry))
            .cloned()
            .ok_or(DmemError::EntryNotFound(entry))?;
        drop(disks);
        let span = self.clock.tracer().span(self.label, "load");
        span.tag("bytes", data.len());
        self.clock.advance(self.device.transfer(data.len()));
        Ok(data)
    }

    /// Reads a batch; contiguity on a spinning disk is approximated by a
    /// single seek plus the combined transfer.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if any entry is absent (no
    /// partial results, matching the remote batch semantics).
    pub fn load_batch(&self, node: NodeId, entries: &[EntryId]) -> DmemResult<Vec<Vec<u8>>> {
        let disks = self.disks.lock();
        let disk = disks.get(&node);
        let mut out = Vec::with_capacity(entries.len());
        let mut total = 0usize;
        for e in entries {
            let data = disk
                .and_then(|d| d.entries.get(e))
                .cloned()
                .ok_or(DmemError::EntryNotFound(*e))?;
            total += data.len();
            out.push(data);
        }
        drop(disks);
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
    pub fn delete(&self, node: NodeId, entry: EntryId) -> DmemResult<usize> {
        let mut disks = self.disks.lock();
        let disk = disks.get_mut(&node);
        let disk = disk.ok_or(DmemError::EntryNotFound(entry))?;
        let data = disk.entries.remove(&entry);
        let data = data.ok_or(DmemError::EntryNotFound(entry))?;
        disk.bytes -= data.len() as u64;
        Ok(data.len())
    }

    /// `true` if the entry is on `node`'s disk.
    pub fn contains(&self, node: NodeId, entry: EntryId) -> bool {
        self.disks
            .lock()
            .get(&node)
            .is_some_and(|d| d.entries.contains_key(&entry))
    }

    /// Entries stored on `node`'s disk.
    pub fn len(&self, node: NodeId) -> usize {
        self.disks.lock().get(&node).map_or(0, |d| d.entries.len())
    }

    /// `true` if `node`'s disk holds no entries.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.len(node) == 0
    }
}

impl fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let disks = self.disks.lock();
        f.debug_struct("DiskTier")
            .field("nodes", &disks.len())
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
        let (clock, tier) = tier();
        tier.store(NodeId::new(0), entry(1), vec![1u8; 4096]);
        let after_store = clock.now();
        assert!(after_store.nanos() > 3_000_000, "store pays a ~4ms seek");
        assert_eq!(tier.load(NodeId::new(0), entry(1)).unwrap(), vec![1u8; 4096]);
        assert!((clock.now() - after_store).as_millis_f64() > 3.0);
    }

    #[test]
    fn batched_io_single_seek() {
        let (clock, tier) = tier();
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
        let loaded = tier.load_batch(NodeId::new(0), &keys).unwrap();
        assert_eq!(loaded.len(), 8);
    }

    #[test]
    fn disks_are_per_node() {
        let (_, tier) = tier();
        tier.store(NodeId::new(0), entry(1), vec![1]);
        assert!(tier.contains(NodeId::new(0), entry(1)));
        assert!(!tier.contains(NodeId::new(1), entry(1)));
        assert!(tier.load(NodeId::new(1), entry(1)).is_err());
    }

    #[test]
    fn bounded_tier_counts_bytes_in_and_out() {
        let node = NodeId::new(0);
        let (_, tier) = tier();
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
        let (_, tier) = tier();
        tier.store(NodeId::new(0), entry(1), vec![1]);
        tier.delete(NodeId::new(0), entry(1)).unwrap();
        assert!(tier.is_empty(NodeId::new(0)));
        assert!(matches!(
            tier.delete(NodeId::new(0), entry(1)),
            Err(DmemError::EntryNotFound(_))
        ));
        assert!(matches!(
            tier.load_batch(NodeId::new(0), &[entry(1)]),
            Err(DmemError::EntryNotFound(_))
        ));
    }
}
