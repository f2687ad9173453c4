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
use std::fmt;
use std::sync::Arc;

/// Replicated store/load/delete over the [`RemoteStore`].
pub struct Replicator {
    store: Arc<RemoteStore>,
    placer: Placer,
    factor: ReplicationFactor,
}

impl Replicator {
    /// Creates a replicator writing `factor` copies placed by `placer`.
    pub fn new(store: Arc<RemoteStore>, placer: Placer, factor: ReplicationFactor) -> Self {
        Replicator {
            store,
            placer,
            factor,
        }
    }

    /// The configured replication factor.
    pub fn factor(&self) -> ReplicationFactor {
        self.factor
    }

    /// The membership used for candidate selection.
    fn membership(&self) -> &ClusterMembership {
        self.store.membership()
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
        &self,
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
        &self,
        from: NodeId,
        batch: &[(EntryId, &[u8])],
        candidates: &[NodeId],
    ) -> DmemResult<Vec<NodeId>> {
        // Try placer-preferred nodes first, falling back to the remaining
        // candidates when a host is full or unreachable (the node manager
        // "identif[ies] a subset of remote nodes that are candidates",
        // §IV-E); only when the whole candidate set cannot host the
        // required degree does the write roll back.
        let mut remaining: Vec<NodeId> = candidates.to_vec();
        let mut written: Vec<NodeId> = Vec::with_capacity(self.factor.get());
        while written.len() < self.factor.get() && !remaining.is_empty() {
            let node = self.placer.pick(&remaining, 1)?[0];
            remaining.retain(|&n| n != node);
            if self.store.store_batch(from, node, batch).is_ok() {
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
    /// node unreachable) *suspect* in the membership, handing it to the
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
        &self,
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
                            if self.membership().mark_suspect(suspect) {
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
    pub fn delete_replicated(&self, from: NodeId, entry: EntryId, replicas: &[NodeId]) {
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
    /// payload from a surviving replica and stores fresh copies on newly
    /// placed nodes. Returns the repaired set.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] if no replica survives, or
    /// placement errors if the cluster is too small to restore the degree.
    pub fn re_replicate(
        &self,
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
        let data = self.store.load(from, survivors[0], entry)?;
        let candidates: Vec<NodeId> = self
            .membership()
            .candidates(from)
            .into_iter()
            .filter(|n| !survivors.contains(n))
            .collect();
        let new_hosts = self.placer.pick(&candidates, missing)?;
        let mut nodes = survivors;
        for &node in &new_hosts {
            self.store.store(from, node, entry, &data)?;
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
    use dmem_net::Fabric;
    use dmem_sim::{CostModel, DetRng, FailureEvent, FailureInjector, SimClock};
    use dmem_types::{ByteSize, PlacementStrategy, ServerId};

    fn setup(n: u32) -> (FailureInjector, Arc<RemoteStore>, Replicator) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes, failures.clone());
        let store =
            Arc::new(RemoteStore::new(fabric, membership.clone(), ByteSize::from_kib(64)).unwrap());
        let placer = Placer::new(
            PlacementStrategy::PowerOfTwoChoices,
            membership,
            DetRng::new(1),
        );
        let replicator = Replicator::new(Arc::clone(&store), placer, ReplicationFactor::TRIPLE);
        (failures, store, replicator)
    }

    fn entry(k: u64) -> EntryId {
        EntryId::new(ServerId::new(NodeId::new(0), 0), k)
    }

    #[test]
    fn writes_land_on_three_distinct_nodes() {
        let (_, store, rep) = setup(5);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[9u8; 256], None)
            .unwrap();
        assert_eq!(set.len(), 3);
        assert!(!set.contains(&NodeId::new(0)), "never self-hosted");
        for &n in &set {
            assert!(store.hosts_entry(n, entry(1)));
        }
        assert_eq!(rep.live_degree(entry(1), &set), 3);
    }

    #[test]
    fn read_fails_over_across_replicas() {
        let (failures, _, rep) = setup(5);
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
    fn all_replicas_down_errors() {
        let (failures, _, rep) = setup(5);
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
        let (failures, store, rep) = setup(4);
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
                !store.hosts_entry(NodeId::new(n), entry(1)),
                "rollback must leave no copy on node {n}"
            );
        }
    }

    #[test]
    fn re_replication_restores_degree() {
        let (failures, store, rep) = setup(6);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[3u8; 128], None)
            .unwrap();
        let victim = set[1];
        failures.inject_now(FailureEvent::NodeDown(victim));
        store.reset_node(victim).ok(); // crash loses contents
        failures.inject_now(FailureEvent::NodeUp(victim));
        store.reset_node(victim).unwrap();

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
        let (failures, store, rep) = setup(6);
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
            assert!(store.hosts_entry(n, entry(1)), "{n} holds no copy");
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
        let (_, _, rep) = setup(6);
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
        let (_, _, rep) = setup(6);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], None)
            .unwrap();
        let same = rep.re_replicate(NodeId::new(0), entry(1), &set).unwrap();
        assert_eq!(same.len(), 3);
    }

    #[test]
    fn delete_removes_reachable_copies() {
        let (_, store, rep) = setup(5);
        let set = rep
            .store_replicated(NodeId::new(0), entry(1), &[1], None)
            .unwrap();
        rep.delete_replicated(NodeId::new(0), entry(1), &set);
        for &n in &set {
            assert!(!store.hosts_entry(n, entry(1)));
        }
    }

    #[test]
    fn candidate_restriction_respected() {
        let (_, _, rep) = setup(8);
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
        let (_, _, single) = setup(8);
        let (_, _, window) = setup(8);
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
        let (_, store, rep) = setup(4);
        let from = NodeId::new(0);
        let full = NodeId::new(3);
        store.store(from, full, entry(99), &vec![0u8; 64 * 1024]).unwrap();
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
                    !store.hosts_entry(NodeId::new(n), entry(k)),
                    "rollback left a copy of entry {k} on node {n}"
                );
            }
        }
    }
}
