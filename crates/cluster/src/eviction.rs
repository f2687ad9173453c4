//! The remote slab eviction handler (paper §IV-F).
//!
//! "Remote idle memory is monitored and when it drops below certain
//! threshold, remote memory slabs will be deregistered preemptively
//! through the remote slab eviction handler … At the same time, new
//! remote memory servers will be selected to host the evicted pages in
//! order to maintain the triple replica of the data entries."
//!
//! [`RemoteSlabEvictor::scan`] implements that loop: for every host whose
//! receive pool's free space fell below the threshold, it migrates hosted
//! entries to freshly placed peers, then deregisters (shrinks) the
//! reclaimed capacity so the host gets its DRAM back. The returned
//! [`EvictionOutcome`] lists every move so the owners' disaggregated
//! memory maps can be updated.

use crate::placement::Placer;
use crate::remote::RemoteStore;
use dmem_types::{ByteSize, DmemResult, EntryId, NodeId};
use std::fmt;
use std::sync::Arc;

/// Maps an entry to its owning tenant's priority (higher = more
/// important). Installed on the evictor by the QoS layer so migration
/// churn lands on low-priority tenants first.
pub type PriorityResolver = Arc<dyn Fn(EntryId) -> u8 + Send + Sync>;

/// What one eviction scan did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvictionOutcome {
    /// Entries migrated: `(entry, old_host, new_host)`.
    pub moves: Vec<(EntryId, NodeId, NodeId)>,
    /// Capacity deregistered and returned to host nodes.
    pub reclaimed: ByteSize,
}

impl EvictionOutcome {
    /// `true` if the scan found nothing to do.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.reclaimed.is_zero()
    }
}

/// Periodic eviction policy for over-committed remote pools.
#[derive(Clone)]
pub struct RemoteSlabEvictor {
    /// Hosts with less free pool space than this are relieved.
    threshold: ByteSize,
    /// At most this many entries migrate away from one host per scan.
    batch: usize,
    /// Optional tenant-priority resolver: when set, migration candidates
    /// are ordered lowest-priority-first so high-priority tenants' pages
    /// stay put. `None` preserves the historical entry-id order exactly.
    priority: Option<PriorityResolver>,
}

impl RemoteSlabEvictor {
    /// Creates an evictor with the given low-water threshold and per-host
    /// migration batch limit.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(threshold: ByteSize, batch: usize) -> Self {
        assert!(batch > 0, "batch must be at least 1");
        RemoteSlabEvictor {
            threshold,
            batch,
            priority: None,
        }
    }

    /// Installs a tenant-priority resolver; see [`PriorityResolver`].
    pub fn with_priority(mut self, resolver: PriorityResolver) -> Self {
        self.priority = Some(resolver);
        self
    }

    /// The low-water threshold.
    pub fn threshold(&self) -> ByteSize {
        self.threshold
    }

    /// Scans every node and relieves those below the threshold.
    ///
    /// # Errors
    ///
    /// Individual migration failures are skipped (the entry stays on its
    /// old host); only infrastructure-level failures (no destination at
    /// all) abort the scan.
    pub fn scan(&self, store: &RemoteStore, placer: &Placer) -> DmemResult<EvictionOutcome> {
        let mut outcome = EvictionOutcome::default();
        let nodes: Vec<NodeId> = store.membership().nodes().to_vec();
        for host in nodes {
            let Some(stats) = store.stats(host) else { continue };
            if stats.free >= self.threshold || !store.membership().is_alive(host) {
                continue;
            }
            let deficit = self.threshold - stats.free;
            let mut moved_bytes = ByteSize::ZERO;
            let mut entries = store.entries_on(host);
            if let Some(priority) = &self.priority {
                // Stable and deterministic: equal priorities fall back to
                // the entry-id order `entries_on` already guarantees.
                entries.sort_by_key(|&e| (priority(e), e));
            }
            for entry in entries.into_iter().take(self.batch) {
                if moved_bytes >= deficit {
                    break;
                }
                // Destination: an alive peer that does not already hold a
                // copy of this entry (so replica degree is preserved).
                let candidates: Vec<NodeId> = store
                    .membership()
                    .candidates(host)
                    .into_iter()
                    .filter(|&n| !store.hosts_entry(n, entry))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let Ok(picked) = placer.pick(&candidates, 1) else {
                    continue;
                };
                let to = picked[0];
                // Migrate: pull to the new host, then drop from the old.
                let Ok(data) = store.load(to, host, entry) else {
                    continue;
                };
                let len = data.len();
                if store.store(host, to, entry, &data).is_err() {
                    continue;
                }
                if store.delete(host, host, entry).is_err() {
                    // Undo to avoid a duplicate copy.
                    let _ = store.delete(host, to, entry);
                    continue;
                }
                moved_bytes += ByteSize::from(len);
                outcome.moves.push((entry, host, to));
            }
            // Deregister the recovered capacity so the host's own
            // applications get their DRAM back.
            outcome.reclaimed += store.shrink_pool(host, deficit.min(moved_bytes + stats.free));
        }
        Ok(outcome)
    }
}

impl fmt::Debug for RemoteSlabEvictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteSlabEvictor")
            .field("threshold", &self.threshold)
            .field("batch", &self.batch)
            .field("priority", &self.priority.is_some())
            .finish()
    }
}

impl fmt::Display for RemoteSlabEvictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evictor(threshold={}, batch={})",
            self.threshold, self.batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::ClusterMembership;
    use dmem_net::Fabric;
    use dmem_sim::{CostModel, DetRng, FailureInjector, SimClock};
    use dmem_types::{PlacementStrategy, ServerId};

    fn setup(n: u32, pool_kib: u64) -> (RemoteStore, Placer) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes, failures);
        let store = RemoteStore::new(fabric, membership.clone(), ByteSize::from_kib(pool_kib)).unwrap();
        let placer = Placer::new(
            PlacementStrategy::WeightedRoundRobin,
            membership,
            DetRng::new(3),
        );
        (store, placer)
    }

    fn entry(k: u64) -> EntryId {
        EntryId::new(ServerId::new(NodeId::new(9), 0), k)
    }

    #[test]
    fn healthy_cluster_is_left_alone() {
        let (store, placer) = setup(3, 64);
        let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(4), 8);
        let outcome = evictor.scan(&store, &placer).unwrap();
        assert!(outcome.is_empty());
    }

    #[test]
    fn overloaded_host_gets_relieved() {
        let (store, placer) = setup(4, 16);
        let host = NodeId::new(1);
        // Fill the 16 KiB pool on node 1 completely.
        for k in 0..4 {
            store
                .store(NodeId::new(0), host, entry(k), &[k as u8; 4096])
                .unwrap();
        }
        assert_eq!(store.stats(host).unwrap().free, ByteSize::ZERO);

        let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(8), 8);
        let outcome = evictor.scan(&store, &placer).unwrap();
        assert!(!outcome.moves.is_empty());
        // Every moved entry still readable from its new host, intact.
        for (e, from, to) in &outcome.moves {
            assert_eq!(*from, host);
            assert!(store.hosts_entry(*to, *e));
            assert!(!store.hosts_entry(host, *e));
            let data = store.load(NodeId::new(0), *to, *e).unwrap();
            assert_eq!(data, vec![e.key() as u8; 4096]);
        }
        assert!(outcome.reclaimed > ByteSize::ZERO, "capacity was deregistered");
        // Host capacity shrank by the reclaimed amount.
        let stats = store.stats(host).unwrap();
        assert!(stats.capacity < ByteSize::from_kib(16));
    }

    #[test]
    fn destination_never_already_hosts_the_entry() {
        let (store, placer) = setup(3, 16);
        let host = NodeId::new(1);
        // The same entry already lives on node 2 (a replica).
        store
            .store(NodeId::new(0), NodeId::new(2), entry(0), &[1u8; 512])
            .unwrap();
        for k in 0..4 {
            store
                .store(NodeId::new(0), host, entry(k), &[2u8; 4096])
                .unwrap();
        }
        let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(16), 8);
        let outcome = evictor.scan(&store, &placer).unwrap();
        for (e, _, to) in &outcome.moves {
            if e.key() == 0 {
                assert_ne!(*to, NodeId::new(2), "entry 0 must avoid its replica host");
            }
        }
    }

    #[test]
    fn batch_limit_caps_migrations() {
        let (store, placer) = setup(4, 32);
        let host = NodeId::new(1);
        for k in 0..8 {
            store
                .store(NodeId::new(0), host, entry(k), &[0u8; 4096])
                .unwrap();
        }
        // Threshold of 16 KiB: only the stuffed host (free = 0) is below;
        // destinations keep ≥ 28 KiB free and stay out of scope.
        let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(16), 2);
        let outcome = evictor.scan(&store, &placer).unwrap();
        assert!(!outcome.moves.is_empty());
        assert!(outcome.moves.len() <= 2);
    }

    #[test]
    fn priority_resolver_orders_low_priority_first() {
        let (store, placer) = setup(4, 32);
        let host = NodeId::new(1);
        for k in 0..8 {
            store
                .store(NodeId::new(0), host, entry(k), &[0u8; 4096])
                .unwrap();
        }
        // Entries 0..4 are "high priority" (200), 4..8 are "low" (10).
        let resolver: PriorityResolver = Arc::new(|e| if e.key() < 4 { 200 } else { 10 });
        let evictor =
            RemoteSlabEvictor::new(ByteSize::from_kib(16), 4).with_priority(resolver);
        let outcome = evictor.scan(&store, &placer).unwrap();
        assert!(!outcome.moves.is_empty());
        for (e, _, _) in &outcome.moves {
            assert!(
                e.key() >= 4,
                "high-priority entry {e} migrated before low-priority ones"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_panics() {
        let _ = RemoteSlabEvictor::new(ByteSize::from_kib(1), 0);
    }
}
