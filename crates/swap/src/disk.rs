//! The Linux baseline: disk swap.

use crate::backend::SwapBackend;
use dmem_core::DiskTier;
use dmem_sim::{CostModel, SimClock};
use dmem_types::{DmemResult, EntryId, ServerId};

/// Swap pages to the node's spinning disk, as stock Linux does when no
/// disaggregated memory exists. Batches map to sequential disk I/O (one
/// seek per batch), which is how the kernel clusters swap writes.
pub struct LinuxDiskSwap {
    server: ServerId,
    disk: DiskTier,
}

impl LinuxDiskSwap {
    /// Creates the backend over its own simulated disk.
    pub(crate) fn new(server: ServerId, clock: SimClock, cost: CostModel) -> Self {
        LinuxDiskSwap {
            server,
            disk: DiskTier::new(clock, cost),
        }
    }

    fn entry(&self, pfn: u64) -> EntryId {
        EntryId::new(self.server, pfn)
    }
}

impl SwapBackend for LinuxDiskSwap {
    fn name(&self) -> &'static str {
        "Linux"
    }

    fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
        let batch: Vec<(EntryId, Vec<u8>)> = pages
            .iter()
            .map(|(pfn, data)| (self.entry(*pfn), data.clone()))
            .collect();
        self.disk.store_batch(self.server.node(), batch);
        Ok(())
    }

    fn load_batch(&mut self, pfns: &[u64], sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()> {
        let entries: Vec<EntryId> = pfns.iter().map(|p| self.entry(*p)).collect();
        for (i, page) in self.disk.read_batch(self.server.node(), &entries)?.into_iter().enumerate() {
            sink(i, page);
        }
        Ok(())
    }

    fn contains(&self, pfn: u64) -> bool {
        self.disk.contains(self.server.node(), self.entry(pfn))
    }

    fn invalidate(&mut self, pfn: u64) {
        let _ = self.disk.delete(self.server.node(), self.entry(pfn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{load_one, store_one};
    use dmem_types::NodeId;

    fn backend() -> (SimClock, LinuxDiskSwap) {
        let clock = SimClock::new();
        let server = ServerId::new(NodeId::new(0), 0);
        let b = LinuxDiskSwap::new(server, clock.clone(), CostModel::paper_default());
        (clock, b)
    }

    #[test]
    fn roundtrip_with_disk_latency() {
        let (clock, mut b) = backend();
        store_one(&mut b, 1, vec![7u8; 4096]).unwrap();
        assert!(b.contains(1));
        let t0 = clock.now();
        assert_eq!(load_one(&mut b, 1).unwrap(), vec![7u8; 4096]);
        assert!(
            (clock.now() - t0).as_millis_f64() > 3.0,
            "a disk page read costs milliseconds"
        );
    }

    #[test]
    fn batch_is_one_seek() {
        let (clock, mut b) = backend();
        let batch: Vec<(u64, Vec<u8>)> = (0..8).map(|p| (p, vec![0u8; 4096])).collect();
        let t0 = clock.now();
        b.store_batch(&batch).unwrap();
        let batched = clock.now() - t0;
        let t1 = clock.now();
        for p in 8..16 {
            store_one(&mut b, p, vec![0u8; 4096]).unwrap();
        }
        let singles = clock.now() - t1;
        assert!(batched.as_nanos() * 4 < singles.as_nanos());
    }

    #[test]
    fn invalidate_removes() {
        let (_, mut b) = backend();
        store_one(&mut b, 5, vec![1]).unwrap();
        b.invalidate(5);
        assert!(!b.contains(5));
        assert!(load_one(&mut b, 5).is_err());
        b.invalidate(5); // idempotent
    }

    #[test]
    fn name_is_linux() {
        let (_, b) = backend();
        assert_eq!(b.name(), "Linux");
    }
}
