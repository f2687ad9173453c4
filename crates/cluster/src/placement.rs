//! Replica placement policies (paper §IV-E).
//!
//! "Several algorithms can be employed to minimize memory imbalance across
//! nodes in a cluster (or a group), such as random, round robin (RR),
//! weighted RR, or power of two choices." All four are implemented behind
//! one [`Placer`]; the `ablation_placement` bench compares the imbalance
//! they produce.

use crate::membership::ClusterMembership;
use dmem_sim::shard::{ShardId, ShardMap};
use dmem_sim::{splitmix64, DetRng};
use dmem_types::{DmemError, DmemResult, NodeId, PlacementStrategy};
use parking_lot::Mutex;
use std::fmt;

/// Chooses the nodes that will host a replicated remote write.
pub struct Placer {
    strategy: PlacementStrategy,
    membership: ClusterMembership,
    rng: Mutex<DetRng>,
    rr_cursor: Mutex<usize>,
}

impl Placer {
    /// Creates a placer with the given strategy and a deterministic
    /// random stream.
    pub fn new(strategy: PlacementStrategy, membership: ClusterMembership, rng: DetRng) -> Self {
        Placer {
            strategy,
            membership,
            rng: Mutex::new(rng),
            rr_cursor: Mutex::new(0),
        }
    }

    /// The active strategy.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Picks `count` distinct nodes from `candidates` to host a replica
    /// set (first pick is the primary).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when fewer than `count`
    /// candidates exist.
    pub fn pick(&self, candidates: &[NodeId], count: usize) -> DmemResult<Vec<NodeId>> {
        if candidates.len() < count {
            return Err(DmemError::CapacityExhausted {
                pool: format!(
                    "placement: {} candidates for {count} replicas",
                    candidates.len()
                ),
            });
        }
        let mut picked: Vec<NodeId> = Vec::with_capacity(count);
        let mut remaining: Vec<NodeId> = candidates.to_vec();
        for _ in 0..count {
            let idx = self.pick_one(&remaining)?;
            picked.push(remaining.swap_remove(idx));
        }
        Ok(picked)
    }

    fn pick_one(&self, remaining: &[NodeId]) -> DmemResult<usize> {
        debug_assert!(!remaining.is_empty());
        let idx = match self.strategy {
            PlacementStrategy::Random => self.rng.lock().below(remaining.len()),
            PlacementStrategy::RoundRobin => {
                let mut cursor = self.rr_cursor.lock();
                let idx = *cursor % remaining.len();
                *cursor = cursor.wrapping_add(1);
                idx
            }
            PlacementStrategy::WeightedRoundRobin => {
                // Weight each candidate by advertised free memory; draw
                // proportionally. Falls back to uniform when all zero.
                let weights: Vec<u64> = remaining
                    .iter()
                    .map(|&n| self.membership.free_of(n).as_u64().max(1))
                    .collect();
                let total: u64 = weights.iter().sum();
                let mut rng = self.rng.lock();
                let mut draw = (rng.unit() * total as f64) as u64;
                let mut chosen = remaining.len() - 1;
                for (i, w) in weights.iter().enumerate() {
                    if draw < *w {
                        chosen = i;
                        break;
                    }
                    draw -= w;
                }
                chosen
            }
            PlacementStrategy::PowerOfTwoChoices => {
                let mut rng = self.rng.lock();
                let a = rng.below(remaining.len());
                let b = rng.below(remaining.len());
                drop(rng);
                if self.membership.free_of(remaining[a]) >= self.membership.free_of(remaining[b]) {
                    a
                } else {
                    b
                }
            }
        };
        Ok(idx)
    }
}

impl fmt::Debug for Placer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Placer")
            .field("strategy", &self.strategy)
            .finish()
    }
}

/// Hash-derived, shard-spreading replica placement for the rack model.
///
/// A pure function of `(page, hosts, map)` — no membership state, no
/// shared RNG — so every shard computes the same replica set for a page
/// without exchanging any message, which is what lets the sharded engine
/// resolve placement locally. Replicas avoid the faulting host and, while
/// possible, prefer hosts on *distinct shards*: a rack-level failure
/// domain spread, and (incidentally) what makes replication traffic
/// cross-shard and the mailbox path non-vacuous.
///
/// # Examples
///
/// ```
/// use dmem_cluster::spread_replicas;
/// use dmem_sim::shard::ShardMap;
///
/// let map = ShardMap::grouped(64, 4);
/// let replicas = spread_replicas(0xfeed, 3, 64, 2, &map);
/// assert_eq!(replicas.len(), 2);
/// assert!(!replicas.contains(&3), "never places on the faulting host");
/// // Two replicas, two distinct shards.
/// assert_ne!(map.shard_of(replicas[0]), map.shard_of(replicas[1]));
/// ```
pub fn spread_replicas(
    page: u64,
    avoid_host: usize,
    hosts: usize,
    count: usize,
    map: &ShardMap,
) -> Vec<usize> {
    let mut picked = Vec::new();
    spread_replicas_into(
        page,
        avoid_host,
        hosts,
        count,
        map,
        &mut picked,
        &mut Vec::new(),
    );
    picked
}

/// [`spread_replicas`] into caller-owned buffers: `picked` receives the
/// replica set, `used_shards` is scratch. Both are cleared first and keep
/// their capacity, so a caller that holds on to them places a page
/// without allocating.
pub fn spread_replicas_into(
    page: u64,
    avoid_host: usize,
    hosts: usize,
    count: usize,
    map: &ShardMap,
    picked: &mut Vec<usize>,
    used_shards: &mut Vec<ShardId>,
) {
    assert!(hosts > 1, "need at least two hosts to place remotely");
    let count = count.min(hosts - 1);
    picked.clear();
    used_shards.clear();
    used_shards.push(map.shard_of(avoid_host));
    // First pass requires an unused shard; once shards run out, any
    // distinct host qualifies. Probing is derived from the page id only.
    for pass in 0..2 {
        let mut probe = 0u64;
        while picked.len() < count {
            let h = (splitmix64(page.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ probe) % hosts as u64)
                as usize;
            probe += 1;
            if probe > 8 * hosts as u64 {
                break; // give up this pass; the next one relaxes the rule
            }
            if h == avoid_host || picked.contains(&h) {
                continue;
            }
            let shard = map.shard_of(h);
            if pass == 0 && used_shards.contains(&shard) {
                continue;
            }
            used_shards.push(shard);
            picked.push(h);
        }
        if picked.len() == count {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{FailureInjector, SimClock};
    use dmem_types::ByteSize;
    use std::collections::HashMap;
    use std::collections::HashSet;

    fn membership(n: u32) -> ClusterMembership {
        let failures = FailureInjector::new(SimClock::new());
        ClusterMembership::new((0..n).map(NodeId::new).collect(), failures)
    }

    fn placer(strategy: PlacementStrategy, m: &ClusterMembership) -> Placer {
        Placer::new(strategy, m.clone(), DetRng::new(42))
    }

    fn candidates(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn picks_are_distinct() {
        let m = membership(8);
        for strategy in [
            PlacementStrategy::Random,
            PlacementStrategy::RoundRobin,
            PlacementStrategy::WeightedRoundRobin,
            PlacementStrategy::PowerOfTwoChoices,
        ] {
            let p = placer(strategy, &m);
            for _ in 0..20 {
                let picked = p.pick(&candidates(8), 3).unwrap();
                let set: HashSet<_> = picked.iter().collect();
                assert_eq!(set.len(), 3, "{strategy}: duplicates in {picked:?}");
            }
        }
    }

    #[test]
    fn spread_replicas_is_pure_distinct_and_shard_diverse() {
        let map = ShardMap::grouped(64, 8);
        for page in 0..500u64 {
            let owner = (page % 64) as usize;
            let a = spread_replicas(page, owner, 64, 2, &map);
            assert_eq!(a, spread_replicas(page, owner, 64, 2, &map), "must be pure");
            assert_eq!(a.len(), 2);
            assert!(!a.contains(&owner));
            assert_ne!(a[0], a[1]);
            // 8 shards, 3 distinct hosts involved: all shards distinct.
            let shards: HashSet<_> = a
                .iter()
                .map(|&h| map.shard_of(h))
                .chain([map.shard_of(owner)])
                .collect();
            assert_eq!(shards.len(), 3, "page {page}: replicas must spread shards");
        }
    }

    #[test]
    fn spread_replicas_wrapper_matches_the_buffer_form() {
        let map = ShardMap::grouped(64, 8);
        // Dirty on entry, and from then on left as the previous page's
        // call filled them.
        let (mut picked, mut used_shards) = (vec![usize::MAX; 5], vec![ShardId(9); 5]);
        for page in 0..500u64 {
            let owner = (page % 64) as usize;
            spread_replicas_into(page, owner, 64, 2, &map, &mut picked, &mut used_shards);
            assert_eq!(
                picked,
                spread_replicas(page, owner, 64, 2, &map),
                "page {page}"
            );
        }
    }

    #[test]
    fn spread_replicas_relaxes_when_shards_run_out() {
        // 4 hosts on 2 shards, 3 replicas + owner = all hosts: the
        // distinct-shard rule cannot hold, but placement must still fill.
        let map = ShardMap::grouped(4, 2);
        let picked = spread_replicas(1, 0, 4, 3, &map);
        assert_eq!(picked.len(), 3);
        let set: HashSet<_> = picked.iter().collect();
        assert_eq!(set.len(), 3);
        assert!(!picked.contains(&0));
    }

    #[test]
    fn insufficient_candidates_rejected() {
        let m = membership(2);
        let p = placer(PlacementStrategy::Random, &m);
        assert!(matches!(
            p.pick(&candidates(2), 3),
            Err(DmemError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn round_robin_cycles() {
        let m = membership(4);
        let p = placer(PlacementStrategy::RoundRobin, &m);
        let firsts: Vec<NodeId> = (0..4)
            .map(|_| p.pick(&candidates(4), 1).unwrap()[0])
            .collect();
        let unique: HashSet<_> = firsts.iter().collect();
        assert_eq!(unique.len(), 4, "RR must visit all nodes: {firsts:?}");
    }

    #[test]
    fn power_of_two_prefers_free_nodes() {
        let m = membership(4);
        // Node 3 has far more free memory than the rest.
        m.advertise_free(NodeId::new(3), ByteSize::from_gib(1));
        for n in 0..3 {
            m.advertise_free(NodeId::new(n), ByteSize::from_mib(1));
        }
        let p = placer(PlacementStrategy::PowerOfTwoChoices, &m);
        let mut wins = 0;
        const TRIALS: usize = 200;
        for _ in 0..TRIALS {
            if p.pick(&candidates(4), 1).unwrap()[0] == NodeId::new(3) {
                wins += 1;
            }
        }
        // d=2 sampling: node 3 is picked whenever sampled ≈ 7/16 ≈ 44%.
        assert!(
            wins > TRIALS / 4,
            "power-of-two picked the big node only {wins}/{TRIALS} times"
        );
    }

    #[test]
    fn weighted_rr_skews_toward_free() {
        let m = membership(2);
        m.advertise_free(NodeId::new(0), ByteSize::from_mib(9));
        m.advertise_free(NodeId::new(1), ByteSize::from_mib(1));
        let p = placer(PlacementStrategy::WeightedRoundRobin, &m);
        let mut zero_wins = 0;
        const TRIALS: usize = 300;
        for _ in 0..TRIALS {
            if p.pick(&candidates(2), 1).unwrap()[0] == NodeId::new(0) {
                zero_wins += 1;
            }
        }
        let share = zero_wins as f64 / TRIALS as f64;
        assert!(
            share > 0.75,
            "expected ~90% of picks on the 9x node, got {share:.2}"
        );
    }

    /// Replays a skewed allocation stream (a heavy tail of large
    /// allocations) against `strategy` with closed-loop feedback: every
    /// placement debits the chosen node's advertised free memory, exactly
    /// like the advertise maintenance task would. Returns the maximum
    /// bytes loaded onto any single node.
    fn max_load_under_skew(strategy: PlacementStrategy, seed: u64) -> u64 {
        const NODES: u32 = 8;
        let capacity = ByteSize::from_mib(64).as_u64();
        let m = membership(NODES);
        for n in 0..NODES {
            m.advertise_free(NodeId::new(n), ByteSize::from(capacity));
        }
        let p = Placer::new(strategy, m.clone(), DetRng::new(seed));
        let mut stream = DetRng::new(seed ^ 0x5EED);
        let mut load = vec![0u64; NODES as usize];
        for _ in 0..600 {
            // 10% of allocations are 64x larger: the skew that load-aware
            // policies exist to absorb (paper §IV-E).
            let size: u64 = if stream.chance(0.1) { 1 << 20 } else { 16 << 10 };
            let node = p.pick(&candidates(NODES), 1).unwrap()[0];
            load[node.index() as usize] += size;
            m.advertise_free(
                node,
                ByteSize::from(capacity.saturating_sub(load[node.index() as usize])),
            );
        }
        load.into_iter().max().unwrap()
    }

    #[test]
    fn power_of_two_beats_random_on_max_load() {
        // Deterministic seeds: the comparison must hold seed-for-seed,
        // not just on average, for several independent streams.
        for seed in [3u64, 17, 29] {
            let p2c = max_load_under_skew(PlacementStrategy::PowerOfTwoChoices, seed);
            let random = max_load_under_skew(PlacementStrategy::Random, seed);
            assert!(
                p2c < random,
                "seed {seed}: power-of-two max load {p2c} not below random {random}"
            );
        }
    }

    #[test]
    fn weighted_rr_share_tracks_advertised_ratio() {
        // Three nodes advertising 6:3:1 free memory should receive picks
        // in roughly that proportion (no feedback: weights held fixed).
        let m = membership(3);
        m.advertise_free(NodeId::new(0), ByteSize::from_mib(6));
        m.advertise_free(NodeId::new(1), ByteSize::from_mib(3));
        m.advertise_free(NodeId::new(2), ByteSize::from_mib(1));
        let p = placer(PlacementStrategy::WeightedRoundRobin, &m);
        let mut counts = [0usize; 3];
        const TRIALS: usize = 1000;
        for _ in 0..TRIALS {
            counts[p.pick(&candidates(3), 1).unwrap()[0].index() as usize] += 1;
        }
        let share = |i: usize| counts[i] as f64 / TRIALS as f64;
        assert!(
            (0.5..0.7).contains(&share(0)),
            "6/10 node got {:.2}", share(0)
        );
        assert!(
            (0.2..0.4).contains(&share(1)),
            "3/10 node got {:.2}", share(1)
        );
        assert!(
            (0.05..0.15).contains(&share(2)),
            "1/10 node got {:.2}", share(2)
        );
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn random_is_roughly_uniform() {
        let m = membership(4);
        let p = placer(PlacementStrategy::Random, &m);
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        const TRIALS: usize = 400;
        for _ in 0..TRIALS {
            *counts.entry(p.pick(&candidates(4), 1).unwrap()[0]).or_default() += 1;
        }
        for (&node, &count) in &counts {
            let share = count as f64 / TRIALS as f64;
            assert!(
                (0.12..0.40).contains(&share),
                "{node} got share {share:.2}, expected ~0.25"
            );
        }
    }
}
