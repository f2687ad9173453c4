//! FastSwap: hybrid disaggregated-memory swapping (paper §IV-H, §V-A).
//!
//! FastSwap parks swapped-out pages in the node-coordinated shared memory
//! pool first, overflows to triple-replicated remote memory in the
//! owner's group (with window-batched RDMA writes), and only then to
//! disk. Pages are compressed into size classes on every path. The
//! Fig. 8 distribution-ratio knob (FS-SM … FS-RDMA) deterministically
//! splits swap-out traffic between the node-level and cluster-level
//! pools.

use crate::backend::SwapBackend;
use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_types::{DistributionRatio, DmemResult, ServerId};
use std::sync::Arc;

/// The FastSwap backend over a [`DisaggregatedMemory`] cluster.
pub struct FastSwapBackend {
    dm: Arc<DisaggregatedMemory>,
    server: ServerId,
    ratio: DistributionRatio,
    accumulator: f64,
}

impl FastSwapBackend {
    /// The backend for `server` on an assembled cluster: `ratio` of
    /// swap-out traffic to the node shared pool (falling through to
    /// remote and disk when full), the rest straight to remote memory.
    pub fn new(dm: Arc<DisaggregatedMemory>, server: ServerId, ratio: DistributionRatio) -> Self {
        FastSwapBackend {
            dm,
            server,
            ratio,
            accumulator: 0.0,
        }
    }

    /// Deterministic traffic split: returns `true` when the next page
    /// should try the node shared pool.
    fn next_is_shared(&mut self, shared_fraction: f64) -> bool {
        self.accumulator += shared_fraction;
        if self.accumulator >= 1.0 - 1e-12 {
            self.accumulator -= 1.0;
            true
        } else {
            false
        }
    }
}

impl SwapBackend for FastSwapBackend {
    fn name(&self) -> &'static str {
        "FastSwap"
    }

    fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
        let mut shared_batch: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut remote_batch: Vec<(u64, Vec<u8>)> = Vec::new();
        for (pfn, data) in pages {
            if self.next_is_shared(self.ratio.shared_fraction()) {
                shared_batch.push((*pfn, data.clone()));
            } else {
                remote_batch.push((*pfn, data.clone()));
            }
        }
        let span = self.dm.clock().tracer().span("swap", "fs.store");
        span.tag("shared", shared_batch.len());
        span.tag("remote", remote_batch.len());
        if !shared_batch.is_empty() {
            // Auto tiers shared -> remote -> disk, with the overflow legs
            // batched (one replica set per window, one seek per disk
            // window).
            self.dm
                .put_batch(self.server, shared_batch, TierPreference::Auto)?;
        }
        if !remote_batch.is_empty() {
            self.dm
                .put_batch(self.server, remote_batch, TierPreference::Remote)?;
        }
        Ok(())
    }

    fn load_batch(&mut self, pfns: &[u64], sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()> {
        self.dm.get_batch_with(self.server, pfns, |i, page| sink(i, &page))
    }

    fn contains(&self, pfn: u64) -> bool {
        self.dm.record(self.server, pfn).is_some()
    }

    fn invalidate(&mut self, pfn: u64) {
        let _ = self.dm.delete(self.server, pfn);
    }

    fn cluster(&self) -> Option<&Arc<DisaggregatedMemory>> {
        Some(&self.dm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{load_one, store_one};
    use dmem_compress::synth;
    use dmem_sim::DetRng;
    use dmem_types::{ClusterConfig, DonationPolicy};

    fn cluster() -> Arc<DisaggregatedMemory> {
        Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap())
    }

    fn page(seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        synth::page_around_ratio(3.0, 0.5, &mut rng)
    }

    #[test]
    fn fs_sm_prefers_shared_pool() {
        let dm = cluster();
        let server = dm.servers()[0];
        let mut b = FastSwapBackend::new(Arc::clone(&dm), server, DistributionRatio::FS_SM);
        for pfn in 0..8 {
            store_one(&mut b, pfn, page(pfn)).unwrap();
        }
        let stats = dm.stats();
        assert_eq!(stats.shared, 8, "FS-SM sends everything to the shared pool");
        assert_eq!(stats.remote, 0);
        for pfn in 0..8 {
            assert_eq!(load_one(&mut b, pfn).unwrap(), page(pfn));
        }
    }

    #[test]
    fn fs_rdma_sends_everything_remote() {
        let dm = cluster();
        let server = dm.servers()[0];
        let mut b = FastSwapBackend::new(Arc::clone(&dm), server, DistributionRatio::FS_RDMA);
        let batch: Vec<(u64, Vec<u8>)> = (0..8).map(|p| (p, page(p))).collect();
        b.store_batch(&batch).unwrap();
        let stats = dm.stats();
        assert_eq!(stats.remote, 8);
        assert_eq!(stats.shared, 0);
        let mut seen = Vec::new();
        b.load_batch(&[0, 1, 2, 3], &mut |i, data| {
            assert_eq!(data, page(i as u64));
            seen.push(i);
        })
        .unwrap();
        assert_eq!(seen, [0, 1, 2, 3]);
    }

    #[test]
    fn ratio_splits_traffic_deterministically() {
        let dm = cluster();
        let server = dm.servers()[0];
        let mut b = FastSwapBackend::new(Arc::clone(&dm), server, DistributionRatio::FS_7_3);
        let batch: Vec<(u64, Vec<u8>)> = (0..100).map(|p| (p, page(p))).collect();
        b.store_batch(&batch).unwrap();
        let stats = dm.stats();
        assert_eq!(stats.shared, 70, "70% of a 100-page window is shared");
        assert_eq!(stats.remote, 30);
    }

    #[test]
    fn shared_overflow_spills_transparently() {
        let mut config = ClusterConfig::small();
        config.server.donation = DonationPolicy::fixed(0.0); // zero shared pool
        let dm = Arc::new(DisaggregatedMemory::new(config).unwrap());
        let server = dm.servers()[0];
        let mut b = FastSwapBackend::new(Arc::clone(&dm), server, DistributionRatio::FS_SM);
        store_one(&mut b, 1, page(1)).unwrap();
        let stats = dm.stats();
        assert_eq!(stats.shared, 0);
        assert_eq!(stats.remote, 1, "FS-SM with no pool falls through to remote");
        assert_eq!(load_one(&mut b, 1).unwrap(), page(1));
    }

    #[test]
    fn invalidate_and_contains() {
        let dm = cluster();
        let server = dm.servers()[0];
        let mut b = FastSwapBackend::new(Arc::clone(&dm), server, DistributionRatio::FS_SM);
        store_one(&mut b, 9, page(9)).unwrap();
        assert!(b.contains(9));
        b.invalidate(9);
        assert!(!b.contains(9));
        b.invalidate(9); // idempotent
    }
}
