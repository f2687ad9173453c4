//! Triple-replica remote writes (paper §IV-D).
//!
//! "We can offer the same degree of fault tolerance by enforcing triple
//! replica modularity for all remote read and write operations. Finally,
//! each remote write or read operation is treated as an atomic
//! transaction, all or nothing." The [`Replicator`] implements exactly
//! that: a replicated store either lands on every chosen replica or on
//! none; reads fail over across replicas; a degraded set can be repaired
//! by re-replication.

use crate::membership::ClusterMembership;
use crate::placement::Placer;
use crate::remote::RemoteStore;
use dmem_types::{DmemError, DmemResult, EntryId, NodeId, ReplicationFactor};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Replicated store/load/delete over the [`RemoteStore`] it owns.
pub struct Replicator {
    store: RemoteStore,
    placer: Placer,
    factor: ReplicationFactor,
    /// Nodes a failed read had to fail over past: candidates for the
    /// repair path to probe, repair around, or evict. Populated only
    /// under fault injection, so fault-free runs never touch it.
    suspects: BTreeSet<NodeId>,
}

impl Replicator {
    /// Creates a replicator writing `factor` copies placed by `placer`.
    pub fn new(store: RemoteStore, placer: Placer, factor: ReplicationFactor) -> Self {
        Replicator {
            store,
            placer,
            factor,
            suspects: BTreeSet::new(),
        }
    }

    /// The configured replication factor.
    pub fn factor(&self) -> ReplicationFactor {
        self.factor
    }

    /// The remote store the replicas live in.
    pub fn store(&self) -> &RemoteStore {
        &self.store
    }

    /// The remote store, for writers outside the replicated paths.
    pub fn store_mut(&mut self) -> &mut RemoteStore {
        &mut self.store
    }

    /// The membership used for candidate selection.
    fn membership(&self) -> &ClusterMembership {
        self.store.membership()
    }

    /// All currently suspect nodes, sorted.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.suspects.iter().copied().collect()
    }

    /// Clears a suspicion (the repair path probed the node healthy, or
    /// repaired its data elsewhere and evicted it from replica sets).
    /// Returns `true` if the node was suspect.
    pub fn clear_suspect(&mut self, node: NodeId) -> bool {
        self.suspects.remove(&node)
    }

    /// Stores `data` on `factor` distinct remote nodes chosen from
    /// `candidates` (or from all alive peers of `from` when `candidates`
    /// is `None`) and returns them, primary first: a window of one through
    /// [`Replicator::store_batch_replicated`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Replicator::store_batch_replicated`].
    pub fn store_replicated(
        &mut self,
        from: NodeId,
        entry: EntryId,
        data: &[u8],
        candidates: Option<&[NodeId]>,
    ) -> DmemResult<Vec<NodeId>> {
        let default_candidates;
        let candidates = match candidates {
            Some(c) => c,
            None => {
                default_candidates = self.membership().candidates(from);
                &default_candidates
            }
        };
        self.store_batch_replicated(from, &[(entry, data)], candidates)
    }

    /// Stores a whole window of entries on one freshly placed replica set,
    /// using one batched RDMA write per replica (§IV-H batching combined
    /// with §IV-D replication), and returns the set, primary first.
    /// Each entry is copied once, into a buffer every replica holds.
    /// All-or-nothing across the entire batch and every replica: if the
    /// full degree cannot be committed, every already-written copy is
    /// deleted and an error is returned.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ReplicationFailed`] after rollback when any
    /// replica write fails, or placement errors when too few candidates
    /// exist.
    pub fn store_batch_replicated(
        &mut self,
        from: NodeId,
        batch: &[(EntryId, &[u8])],
        candidates: &[NodeId],
    ) -> DmemResult<Vec<NodeId>> {
        // Try placer-preferred nodes first, falling back to the remaining
        // candidates when a host is full or unreachable (the node manager
        // "identif[ies] a subset of remote nodes that are candidates",
        // §IV-E); only when the whole candidate set cannot host the
        // required degree does the write roll back.
        let shared: Vec<(EntryId, Arc<[u8]>)> = batch
            .iter()
            .map(|&(entry, data)| (entry, Arc::from(data)))
            .collect();
        let mut remaining: Vec<NodeId> = candidates.to_vec();
        let mut written: Vec<NodeId> = Vec::with_capacity(self.factor.get());
        while written.len() < self.factor.get() && !remaining.is_empty() {
            let node = self.placer.pick(&self.store, &remaining, 1)?[0];
            remaining.retain(|&n| n != node);
            if self.store.store_batch(from, node, &shared).is_ok() {
                written.push(node);
            }
        }
        if written.len() < self.factor.get() {
            for &w in &written {
                for (entry, _) in batch {
                    let _ = self.store.delete(from, w, *entry);
                }
            }
            return Err(DmemError::ReplicationFailed {
                reached: written.len(),
                required: self.factor.get(),
            });
        }
        Ok(written)
    }

    /// Reads the entry from the replica set, failing over across
    /// replicas in order.
    ///
    /// Under fault injection a successful failover also marks every
    /// skipped replica that *failed to answer* (verb timeout, link down,
    /// node unreachable) *suspect*, handing it to the
    /// repair path to probe healthy, repair around, or evict. A replica
    /// that answers `EntryNotFound` is healthy — it responded, it just
    /// lost the copy (e.g. a restart) — so it is skipped without
    /// suspicion. Fault-free runs skip all of that accounting, so their
    /// metrics stay byte-identical.
    ///
    /// # Errors
    ///
    /// Returns the last replica's error if every replica fails.
    pub fn load_replicated(
        &mut self,
        from: NodeId,
        entry: EntryId,
        replicas: &[NodeId],
    ) -> DmemResult<Vec<u8>> {
        let mut last_err = DmemError::EntryNotFound(entry);
        let mut unresponsive: Vec<NodeId> = Vec::new();
        for (skipped, &node) in replicas.iter().enumerate() {
            match self.store.load(from, node, entry) {
                Ok(data) => {
                    if skipped > 0 && self.store.fabric().faults_installed() {
                        let metrics = self.store.fabric().metrics();
                        metrics.counter("cluster.failover.reads").inc();
                        let now = self.store.fabric().clock().now();
                        self.store.fabric().clock().tracer().record_async(
                            "cluster",
                            "failover.read",
                            now,
                            now,
                            &[("skipped", skipped as u64)],
                        );
                        for &suspect in &unresponsive {
                            if self.suspects.insert(suspect) {
                                metrics.counter("cluster.suspect.marked").inc();
                            }
                        }
                    }
                    return Ok(data);
                }
                Err(e) => {
                    if self.store.fabric().faults_installed()
                        && matches!(
                            e,
                            DmemError::Timeout { .. }
                                | DmemError::LinkDown { .. }
                                | DmemError::NodeUnavailable(_)
                        )
                    {
                        unresponsive.push(node);
                    }
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Deletes the entry from every reachable replica. Unreachable
    /// replicas are skipped (their pools vanish with the node anyway).
    pub fn delete_replicated(&mut self, from: NodeId, entry: EntryId, replicas: &[NodeId]) {
        for &node in replicas {
            let _ = self.store.delete(from, node, entry);
        }
    }

    /// Counts how many *distinct* replicas still hold the entry.
    ///
    /// Distinctness matters: a replica list that ends up mentioning the
    /// same node twice (however it got that way) provides one copy of
    /// redundancy, not two, and counting it twice would mask a degraded
    /// entry from the repair scan.
    pub fn live_degree(&self, entry: EntryId, replicas: &[NodeId]) -> usize {
        let mut counted: Vec<NodeId> = Vec::with_capacity(replicas.len());
        for &node in replicas {
            if !counted.contains(&node)
                && self.membership().is_alive(node)
                && self.store.hosts_entry(node, entry)
            {
                counted.push(node);
            }
        }
        counted.len()
    }

    /// Restores a degraded replica set back to full degree: reads the
    /// payload from a surviving replica and stores it on newly placed
    /// nodes, which all hold that one buffer. Returns the repaired set.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if no replica survives, or
    /// placement errors if the cluster is too small to restore the degree.
    pub fn re_replicate(
        &mut self,
        from: NodeId,
        entry: EntryId,
        replicas: &[NodeId],
    ) -> DmemResult<Vec<NodeId>> {
        let span = self
            .store
            .fabric()
            .clock()
            .tracer()
            .span("cluster", "re_replicate");
        span.tag("entry", entry);
        let survivors: Vec<NodeId> = replicas
            .iter()
            .copied()
            .filter(|&n| self.membership().is_alive(n) && self.store.hosts_entry(n, entry))
            .collect();
        if survivors.is_empty() {
            return Err(DmemError::EntryNotFound(entry));
        }
        let missing = self.factor.get().saturating_sub(survivors.len());
        if missing == 0 {
            return Ok(survivors);
        }
        let data = [(entry, Arc::from(self.store.load(from, survivors[0], entry)?))];
        let candidates: Vec<NodeId> = self
            .membership()
            .candidates(from)
            .into_iter()
            .filter(|n| !survivors.contains(n))
            .collect();
        let new_hosts = self.placer.pick(&self.store, &candidates, missing)?;
        let mut nodes = survivors;
        for &node in &new_hosts {
            self.store.store_batch(from, node, &data)?;
            nodes.push(node);
        }
        Ok(nodes)
    }
}

impl fmt::Debug for Replicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replicator")
            .field("factor", &self.factor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_net::{Fabric, FabricFaults, FaultProfile};
    use dmem_sim::{CostModel, DetRng, FailureEvent, FailureInjector, SimClock};
    use dmem_types::{ByteSize, PlacementStrategy, ServerId};

    fn setup(n: u32) -> (FailureInjector, Replicator) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes, failures.clone());
        let store = RemoteStore::new(fabric, membership, ByteSize::from_kib(64)).unwrap();
        let placer = Placer::new(PlacementStrategy::PowerOfTwoChoices, DetRng::new(1));
        (failures, Replicator::new(store, placer, ReplicationFactor::TRIPLE))
    }

    fn entry(k: u64) -> EntryId {
        EntryId::new(ServerId::new(NodeId::new(0), 0), k)
    }

    #[test]
    fn writes_land_on_three_distinct_nodes() {
        let (_, mut rep) = setup(5);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[9u8; 256], None)
            .unwrap();
        assert_eq!(set.len(), 3);
        assert!(!set.contains(&NodeId::new(0)), "never self-hosted");
        for &n in &set {
            assert!(rep.store().hosts_entry(n, entry(1)));
        }
        assert_eq!(rep.live_degree(entry(1), &set), 3);
    }

    #[test]
    fn replicas_share_one_buffer() {
        let (_, mut rep) = setup(5);
        let window: Vec<Vec<u8>> = (0..4u8).map(|k| vec![k; 1024]).collect();
        let batch: Vec<(EntryId, &[u8])> = (0..4)
            .map(|k| (entry(k), window[k as usize].as_slice()))
            .collect();
        let candidates = rep.membership().candidates(NodeId::new(0));
        let set = rep
            .store_batch_replicated(NodeId::new(0), &batch, &candidates)
            .unwrap();
        assert_eq!(set.len(), 3);
        for &n in &set {
            assert_eq!(rep.store().held_on(n), 4096, "{n} holds the window");
        }
        assert_eq!(rep.store().fabric().buffer_bytes(), 4096, "three replicas, one copy");
    }

    #[test]
    fn read_fails_over_across_replicas() {
        let (failures, mut rep) = setup(5);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[5u8; 64], None)
            .unwrap();
        // Kill the primary and the second replica: third still serves.
        failures.inject_now(FailureEvent::NodeDown(set[0]));
        failures.inject_now(FailureEvent::NodeDown(set[1]));
        assert_eq!(
            rep.load_replicated(NodeId::new(0), entry(1), &set).unwrap(),
            vec![5u8; 64]
        );
        assert_eq!(rep.live_degree(entry(1), &set), 1);
    }

    #[test]
    fn suspects_are_sorted_and_idempotent() {
        let (failures, mut rep) = setup(6);
        let fabric = rep.store().fabric().clone();
        // Suspects are marked only with a fault layer installed; a silent
        // one adds no verb noise.
        fabric.install_faults(Arc::new(FabricFaults::new(DetRng::new(0), FaultProfile::none())));
        let from = NodeId::new(0);
        let set = rep.store_replicated(from, entry(1), &[4u8; 64], None).unwrap();
        failures.inject_now(FailureEvent::NodeDown(set[0]));
        for _ in 0..2 {
            assert_eq!(rep.load_replicated(from, entry(1), &set).unwrap(), vec![4u8; 64]);
        }
        assert_eq!(rep.suspects(), vec![set[0]]);
        let marked = || fabric.metrics().counter("cluster.suspect.marked").get();
        assert_eq!(marked(), 1, "a second failover past the same node is a no-op");
        failures.inject_now(FailureEvent::NodeDown(set[1]));
        rep.load_replicated(from, entry(1), &set).unwrap();
        assert_eq!(marked(), 2);
        let mut sorted = vec![set[0], set[1]];
        sorted.sort_unstable();
        assert_eq!(rep.suspects(), sorted);
        assert!(rep.clear_suspect(set[0]));
        assert!(!rep.clear_suspect(set[0]));
        assert_eq!(rep.suspects(), vec![set[1]]);
    }

    #[test]
    fn all_replicas_down_errors() {
        let (failures, mut rep) = setup(5);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], None)
            .unwrap();
        for &n in &set {
            failures.inject_now(FailureEvent::NodeDown(n));
        }
        assert!(rep.load_replicated(NodeId::new(0), entry(1), &set).is_err());
    }

    #[test]
    fn failed_write_rolls_back_all_copies() {
        let (failures, mut rep) = setup(4);
        // With 4 nodes, candidates for node 0 are {1,2,3}; kill node 3 so
        // the triple write must fail partway (placement can't avoid it).
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(3)));
        let err = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], None)
            .unwrap_err();
        // Either placement already saw only 2 candidates, or the write
        // reached some replicas and rolled back.
        assert!(matches!(
            err,
            DmemError::ReplicationFailed { .. } | DmemError::CapacityExhausted { .. }
        ));
        for n in 1..3 {
            assert!(
                !rep.store().hosts_entry(NodeId::new(n), entry(1)),
                "rollback must leave no copy on node {n}"
            );
        }
    }

    #[test]
    fn re_replication_restores_degree() {
        let (failures, mut rep) = setup(6);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[3u8; 128], None)
            .unwrap();
        let victim = set[1];
        failures.inject_now(FailureEvent::NodeDown(victim));
        rep.store_mut().reset_node(victim).ok(); // crash loses contents
        failures.inject_now(FailureEvent::NodeUp(victim));
        rep.store_mut().reset_node(victim).unwrap();

        assert_eq!(rep.live_degree(entry(1), &set), 2);
        let repaired = rep.re_replicate(NodeId::new(0), entry(1), &set).unwrap();
        assert_eq!(repaired.len(), 3);
        assert_eq!(rep.live_degree(entry(1), &repaired), 3);
        // The payload is intact on the repaired set.
        assert_eq!(
            rep.load_replicated(NodeId::new(0), entry(1), &repaired).unwrap(),
            vec![3u8; 128]
        );
    }

    #[test]
    fn re_replicate_picks_live_non_duplicate_host() {
        // A replica host dies for good (no restart). The repaired set must
        // be back at factor with a replacement that is (a) not the dead
        // node, (b) not a duplicate of a survivor, (c) alive, and (d) a
        // legal placement candidate (never the writing node itself).
        let (failures, mut rep) = setup(6);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[8u8; 128], None)
            .unwrap();
        let victim = set[0];
        failures.inject_now(FailureEvent::NodeDown(victim));

        let repaired = rep.re_replicate(NodeId::new(0), entry(1), &set).unwrap();
        assert_eq!(repaired.len(), rep.factor().get());
        let distinct: std::collections::HashSet<_> = repaired.iter().collect();
        assert_eq!(distinct.len(), repaired.len(), "duplicates in {repaired:?}");
        assert!(
            !repaired.contains(&victim),
            "repair re-used dead node {victim}: {repaired:?}"
        );
        assert!(
            !repaired.contains(&NodeId::new(0)),
            "repair placed a replica on the writer: {repaired:?}"
        );
        for &n in &repaired {
            assert!(rep.membership().is_alive(n), "{n} is not alive");
            assert!(rep.store().hosts_entry(n, entry(1)), "{n} holds no copy");
        }
        // The survivors were kept — repair copies once, not three times.
        for &n in &set {
            if n != victim {
                assert!(repaired.contains(&n), "survivor {n} was dropped");
            }
        }
    }

    #[test]
    fn live_degree_counts_distinct_replicas_once() {
        let (_, mut rep) = setup(6);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1u8; 32], None)
            .unwrap();
        // A corrupted list mentioning one host twice is one copy of
        // redundancy, not two.
        let duplicated = [set[0], set[0], set[1]];
        assert_eq!(rep.live_degree(entry(1), &duplicated), 2);
    }

    #[test]
    fn re_replicate_noop_when_healthy() {
        let (_, mut rep) = setup(6);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], None)
            .unwrap();
        let same = rep.re_replicate(NodeId::new(0), entry(1), &set).unwrap();
        assert_eq!(same.len(), 3);
    }

    #[test]
    fn delete_removes_reachable_copies() {
        let (_, mut rep) = setup(5);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], None)
            .unwrap();
        rep.delete_replicated(NodeId::new(0), entry(1), &set);
        for &n in &set {
            assert!(!rep.store().hosts_entry(n, entry(1)));
        }
    }

    #[test]
    fn candidate_restriction_respected() {
        let (_, mut rep) = setup(8);
        let allowed = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], Some(&allowed))
            .unwrap();
        for n in &set {
            assert!(allowed.contains(n), "{n} outside the allowed group");
        }
    }

    #[test]
    fn single_and_window_of_one_place_identically() {
        // Same seed on both sides: the single write and a window of one
        // draw the same hosts and leave the placer's stream at the same
        // point, so the write after them lands identically too.
        let (_, mut single) = setup(8);
        let (_, mut window) = setup(8);
        let from = NodeId::new(0);
        let candidates = single.membership().candidates(from);
        for k in 1..=4 {
            let data = [k as u8; 96];
            let a = single.store_replicated(from, entry(k), &data, None).unwrap();
            let b = window
                .store_batch_replicated(from, &[(entry(k), &data[..])], &candidates)
                .unwrap();
            assert_eq!(a, b, "write {k} diverged");
        }
    }

    #[test]
    fn full_host_rolls_back_both_paths() {
        // Candidates of node 0 are {1,2,3}; node 3's pool is full, so the
        // third copy cannot land and the first two must be taken back.
        let (_, mut rep) = setup(4);
        let from = NodeId::new(0);
        let full = NodeId::new(3);
        rep.store_mut().store(from, full, entry(99), &vec![0u8; 64 * 1024]).unwrap();
        let candidates = rep.membership().candidates(from);
        let data = [7u8; 512];
        let errs = [
            rep.store_replicated(from, entry(1), &data, None).unwrap_err(),
            rep.store_batch_replicated(from, &[(entry(2), &data[..])], &candidates)
                .unwrap_err(),
        ];
        for err in errs {
            assert_eq!(
                err,
                DmemError::ReplicationFailed {
                    reached: 2,
                    required: 3
                }
            );
        }
        for n in 1..=3 {
            for k in [1, 2] {
                assert!(
                    !rep.store().hosts_entry(NodeId::new(n), entry(k)),
                    "rollback left a copy of entry {k} on node {n}"
                );
            }
        }
    }
}
