//! Seeded chaos schedules.
//!
//! A [`ChaosSchedule`] is an interleaved, fully concrete sequence of
//! workload operations and failure injections with matched recoveries,
//! generated from a single `u64` seed. Generation is a pure function of
//! `(seed, config)` — the same seed always yields the same schedule — so
//! any failure the chaos harness finds replays exactly from its seed.
//!
//! This layer is pure data and lives in `dmem-sim` next to the failure
//! injector and the deterministic RNG it builds on. Executing a schedule
//! against the assembled system, checking cluster invariants after every
//! step, is the umbrella crate's `chaos` module.

use crate::failure::FailureEvent;
use crate::rng::DetRng;
use crate::time::SimDuration;
use dmem_types::{NodeId, ReplicationFactor, ServerId};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Value sizes drawn uniformly per put. They span every tier: sub-page
/// values land in the node shared pool, page-sized values overflow to
/// remote memory, multi-page values bypass the shared pool entirely and
/// large ones spill to disk.
const VALUE_SIZES: [usize; 5] = [128, 2048, 4096, 16 * 1024, 64 * 1024];
/// Probability that a step injects a failure instead of workload.
const FAILURE_PROBABILITY: f64 = 0.08;
/// Probability that a step runs a background-maintenance window.
const MAINTAIN_PROBABILITY: f64 = 0.08;
/// Recovery delay bounds, in schedule steps, for injected failures
/// (both inclusive).
const MIN_RECOVERY_STEPS: usize = 3;
const MAX_RECOVERY_STEPS: usize = 20;
/// How many nodes may be down at once. Keeping this below
/// `nodes - replication - 1` leaves re-replication feasible, which is
/// what the convergence invariant checks at quiescence.
const MAX_CONCURRENT_NODE_FAILURES: usize = 1;
/// Virtual-time horizon of one maintenance window; it covers at least
/// two repair intervals so the convergence invariant's bound ("degree
/// restored within one maintenance window") is fair.
const MAINTAIN_HORIZON: SimDuration = SimDuration::from_millis(250);
/// Probability a step opens a host-pair partition (fabric faults only; at
/// most one partition is active at a time).
const PARTITION_PROBABILITY: f64 = 0.05;
/// Probability a step breaks every QP of a host pair (fabric faults only).
const QP_BREAK_PROBABILITY: f64 = 0.05;
/// Probability a step opens a pool-node outage window (CXL only; at most
/// one pool node is down at a time).
const CXL_OUTAGE_PROBABILITY: f64 = 0.05;
/// Probability a step performs a remote atomic fetch-add on one of the
/// shared counter slots (CXL only).
const CXL_ATOMIC_PROBABILITY: f64 = 0.10;
/// Pool nodes of the CXL tier the harness configures (CXL only).
pub const CXL_POOL_NODES: u16 = 2;
/// Shared remote-atomic counter slots the schedule hammers (CXL only).
pub const CXL_ATOMIC_SLOTS: usize = 3;

/// Steps until an injected failure's matched recovery.
fn recovery_delay(rng: &mut DetRng) -> usize {
    MIN_RECOVERY_STEPS + rng.below(MAX_RECOVERY_STEPS - MIN_RECOVERY_STEPS + 1)
}

/// Shape of a generated chaos schedule and of the cluster it runs on.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Physical nodes in the simulated cluster.
    pub nodes: usize,
    /// Virtual servers hosted per node.
    pub servers_per_node: usize,
    /// Base steps to generate (recovery injections are appended on top,
    /// so the final schedule is slightly longer).
    pub steps: usize,
    /// Per-server key space; small enough that gets and deletes regularly
    /// hit keys that earlier puts acked.
    pub keys: u64,
    /// Replication factor of the cluster the harness builds. Read by the
    /// harness only: the schedule does not depend on it.
    pub replication: ReplicationFactor,
    /// Install the multi-tenant QoS control plane on that cluster and
    /// check its invariants — quota ceilings, priority-eviction ordering
    /// (harness only). Off by default, so runs without it are
    /// byte-identical to pre-QoS builds.
    pub qos: bool,
    /// Generate fabric-fault steps (host-pair partitions with matched
    /// heals, QP breaks) from an independent RNG fork. The harness reads
    /// the same flag: it installs the fabric fault-injection layer
    /// (seeded verb drop/delay/duplication) and checks the fault-mode
    /// invariants (reads never wrong or stale, suspect primaries repaired
    /// or evicted) — fault steps mean nothing on a cluster without the
    /// layer. Off by default, so runs without it are byte-identical to
    /// pre-fault builds.
    pub fabric_faults: bool,
    /// Generate CXL pool-tier steps — pool-node outage windows with
    /// matched recoveries plus remote-atomic counter ops — from an
    /// independent RNG fork. The harness reads the same flag: it
    /// configures the pool on the chaos cluster and checks the tier's
    /// invariants (shadow reads exact during outage windows, remote
    /// atomics exactly-once and sum-exact). Off by default, so runs
    /// without it are byte-identical to pre-CXL builds.
    pub cxl: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            nodes: 5,
            servers_per_node: 2,
            steps: 120,
            keys: 24,
            replication: ReplicationFactor::TRIPLE,
            qos: false,
            fabric_faults: false,
            cxl: false,
        }
    }
}

impl ChaosConfig {
    /// Every virtual server of the configured cluster, in id order.
    pub fn servers(&self) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(self.nodes * self.servers_per_node);
        for node in 0..self.nodes as u32 {
            for local in 0..self.servers_per_node as u32 {
                out.push(ServerId::new(NodeId::new(node), local));
            }
        }
        out
    }
}

/// One fully concrete step of a chaos schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosStep {
    /// Store a value of `len` deterministic bytes under `(server, key)`.
    Put {
        /// Owning virtual server.
        server: ServerId,
        /// Caller-chosen key.
        key: u64,
        /// Payload length in bytes.
        len: usize,
    },
    /// Read `(server, key)` back and verify its bytes.
    Get {
        /// Owning virtual server.
        server: ServerId,
        /// Key to read.
        key: u64,
    },
    /// Probe the memory map for `(server, key)` without reading data.
    Record {
        /// Owning virtual server.
        server: ServerId,
        /// Key to probe.
        key: u64,
    },
    /// Delete `(server, key)` from whichever tier holds it.
    Delete {
        /// Owning virtual server.
        server: ServerId,
        /// Key to delete.
        key: u64,
    },
    /// Apply a failure or recovery event immediately.
    Inject(FailureEvent),
    /// Run background maintenance (repair, eviction, advertisement)
    /// until the given virtual-time horizon has passed.
    Maintain {
        /// Window length on the virtual clock.
        horizon: SimDuration,
    },
    /// Partition the host pair at the fabric fault layer: all verbs
    /// between `a` and `b` fail until the matching [`ChaosStep::HealPair`].
    PartitionPair {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Heal a previously injected host-pair partition.
    HealPair {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Drive every established queue pair between the hosts to the RC
    /// error state; traffic resumes only after re-establishment.
    BreakQps {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Mark a CXL pool node unreachable: loads, stores, allocations, and
    /// atomics against it fail until the matching [`ChaosStep::CxlPoolUp`].
    CxlPoolDown {
        /// The pool node entering its outage window.
        pool_node: u16,
    },
    /// Recover a CXL pool node; its data survived the outage intact.
    CxlPoolUp {
        /// The pool node coming back.
        pool_node: u16,
    },
    /// Remote atomic fetch-add of `delta` on shared counter slot `slot`.
    CxlAtomic {
        /// Which shared counter cell to hit.
        slot: usize,
        /// Increment to apply.
        delta: u64,
    },
}

impl fmt::Display for ChaosStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosStep::Put { server, key, len } => {
                write!(f, "put {server} key={key} len={len}")
            }
            ChaosStep::Get { server, key } => write!(f, "get {server} key={key}"),
            ChaosStep::Record { server, key } => write!(f, "record {server} key={key}"),
            ChaosStep::Delete { server, key } => write!(f, "delete {server} key={key}"),
            ChaosStep::Inject(event) => write!(f, "inject {event}"),
            ChaosStep::Maintain { horizon } => write!(f, "maintain {horizon}"),
            ChaosStep::PartitionPair { a, b } => write!(f, "partition {a}<->{b}"),
            ChaosStep::HealPair { a, b } => write!(f, "heal {a}<->{b}"),
            ChaosStep::BreakQps { a, b } => write!(f, "break-qps {a}<->{b}"),
            ChaosStep::CxlPoolDown { pool_node } => write!(f, "cxl-down pool-{pool_node}"),
            ChaosStep::CxlPoolUp { pool_node } => write!(f, "cxl-up pool-{pool_node}"),
            ChaosStep::CxlAtomic { slot, delta } => {
                write!(f, "cxl-atomic slot={slot} delta={delta}")
            }
        }
    }
}

/// A generated schedule plus the seed that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// The steps, in execution order.
    pub steps: Vec<ChaosStep>,
}

impl ChaosSchedule {
    /// Generates the schedule for `seed` under `config`.
    ///
    /// Properties the harness relies on:
    ///
    /// * **Determinism** — a pure function of `(seed, config)`.
    /// * **Matched recoveries** — every injected `*Down` event has its
    ///   `*Up` counterpart scheduled a bounded number of steps later, so
    ///   a full run always returns to an all-up cluster. (Schedule
    ///   *shrinking* may remove a recovery; the invariant checkers
    ///   condition on observed liveness, not on this property.)
    /// * **Closing maintenance** — the schedule ends with a
    ///   [`ChaosStep::Maintain`] window so convergence invariants get a
    ///   final quiescent look at the cluster.
    pub fn generate(seed: u64, config: &ChaosConfig) -> ChaosSchedule {
        let root = DetRng::new(seed);
        let mut ops = root.fork("chaos.ops");
        let mut faults = root.fork("chaos.faults");
        // Fabric faults draw from their own fork so enabling them leaves
        // the ops/failure streams — and thus the base schedule — intact.
        let mut netfaults = config.fabric_faults.then(|| root.fork("chaos.netfaults"));
        // The CXL stream is gated the same way for the same reason.
        let mut cxlrng = config.cxl.then(|| root.fork("chaos.cxl"));
        let servers = config.servers();
        let nodes: Vec<NodeId> = (0..config.nodes as u32).map(NodeId::new).collect();

        let mut steps: Vec<ChaosStep> = Vec::with_capacity(config.steps + 16);
        // base-step index -> recoveries due before that step runs.
        let mut recoveries: BTreeMap<usize, Vec<FailureEvent>> = BTreeMap::new();
        let mut down_nodes: HashSet<NodeId> = HashSet::new();
        let mut down_servers: HashSet<ServerId> = HashSet::new();
        let mut down_links: HashSet<(NodeId, NodeId)> = HashSet::new();
        // base-step index -> partition heals due before that step runs.
        let mut pending_heals: BTreeMap<usize, Vec<(NodeId, NodeId)>> = BTreeMap::new();
        let mut partitioned: HashSet<(NodeId, NodeId)> = HashSet::new();
        // base-step index -> pool-node recoveries due before that step.
        let mut pending_pool_ups: BTreeMap<usize, Vec<u16>> = BTreeMap::new();
        let mut cxl_down: HashSet<u16> = HashSet::new();

        for index in 0..config.steps {
            if let Some(nf) = netfaults.as_mut() {
                for (a, b) in pending_heals.remove(&index).unwrap_or_default() {
                    partitioned.remove(&(a, b));
                    steps.push(ChaosStep::HealPair { a, b });
                }
                let roll = nf.unit();
                if roll < PARTITION_PROBABILITY {
                    let a = nodes[nf.below(nodes.len())];
                    let b = nodes[nf.below(nodes.len())];
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    // One partition at a time: a second concurrent cut
                    // (plus the allowed node failure) could make triple
                    // replication infeasible outright.
                    if a != b && partitioned.is_empty() && partitioned.insert((a, b)) {
                        let due = index + recovery_delay(nf);
                        pending_heals.entry(due).or_default().push((a, b));
                        steps.push(ChaosStep::PartitionPair { a, b });
                    }
                } else if roll < PARTITION_PROBABILITY + QP_BREAK_PROBABILITY {
                    let a = nodes[nf.below(nodes.len())];
                    let b = nodes[nf.below(nodes.len())];
                    if a != b {
                        steps.push(ChaosStep::BreakQps { a, b });
                    }
                }
            }

            if let Some(cx) = cxlrng.as_mut() {
                for pool_node in pending_pool_ups.remove(&index).unwrap_or_default() {
                    cxl_down.remove(&pool_node);
                    steps.push(ChaosStep::CxlPoolUp { pool_node });
                }
                let roll = cx.unit();
                if roll < CXL_OUTAGE_PROBABILITY {
                    let pool_node = cx.below(CXL_POOL_NODES as usize) as u16;
                    // One outage window at a time: the write-behind shadow
                    // covers a single pool-node loss; concurrent losses are
                    // a capacity story, not a correctness one.
                    if cxl_down.is_empty() && cxl_down.insert(pool_node) {
                        let due = index + recovery_delay(cx);
                        pending_pool_ups.entry(due).or_default().push(pool_node);
                        steps.push(ChaosStep::CxlPoolDown { pool_node });
                    }
                } else if roll < CXL_OUTAGE_PROBABILITY + CXL_ATOMIC_PROBABILITY {
                    let slot = cx.below(CXL_ATOMIC_SLOTS);
                    let delta = 1 + cx.below(9) as u64;
                    steps.push(ChaosStep::CxlAtomic { slot, delta });
                }
            }

            for event in recoveries.remove(&index).unwrap_or_default() {
                match event {
                    FailureEvent::NodeUp(n) => {
                        down_nodes.remove(&n);
                    }
                    FailureEvent::ServerUp(s) => {
                        down_servers.remove(&s);
                    }
                    FailureEvent::LinkUp(a, b) => {
                        down_links.remove(&(a, b));
                    }
                    _ => {}
                }
                steps.push(ChaosStep::Inject(event));
            }

            let roll = ops.unit();
            if roll < FAILURE_PROBABILITY {
                let due = index + recovery_delay(&mut faults);
                let injected = match faults.below(3) {
                    0 => {
                        let node = nodes[faults.below(nodes.len())];
                        if down_nodes.len() < MAX_CONCURRENT_NODE_FAILURES
                            && down_nodes.insert(node)
                        {
                            recoveries.entry(due).or_default().push(FailureEvent::NodeUp(node));
                            Some(FailureEvent::NodeDown(node))
                        } else {
                            None
                        }
                    }
                    1 => {
                        let a = nodes[faults.below(nodes.len())];
                        let b = nodes[faults.below(nodes.len())];
                        let (a, b) = if a <= b { (a, b) } else { (b, a) };
                        if a != b && down_links.insert((a, b)) {
                            recoveries.entry(due).or_default().push(FailureEvent::LinkUp(a, b));
                            Some(FailureEvent::LinkDown(a, b))
                        } else {
                            None
                        }
                    }
                    _ => {
                        let server = servers[faults.below(servers.len())];
                        if down_servers.insert(server) {
                            recoveries
                                .entry(due)
                                .or_default()
                                .push(FailureEvent::ServerUp(server));
                            Some(FailureEvent::ServerDown(server))
                        } else {
                            None
                        }
                    }
                };
                if let Some(event) = injected {
                    steps.push(ChaosStep::Inject(event));
                    continue;
                }
                // Entity already down (or the cap reached): fall through
                // to a workload step so the schedule keeps its length.
            } else if roll < FAILURE_PROBABILITY + MAINTAIN_PROBABILITY {
                steps.push(ChaosStep::Maintain {
                    horizon: MAINTAIN_HORIZON,
                });
                continue;
            }

            let server = servers[ops.below(servers.len())];
            let key = ops.below(config.keys as usize) as u64;
            let kind = ops.below(100);
            steps.push(if kind < 45 {
                ChaosStep::Put {
                    server,
                    key,
                    len: VALUE_SIZES[ops.below(VALUE_SIZES.len())],
                }
            } else if kind < 75 {
                ChaosStep::Get { server, key }
            } else if kind < 88 {
                ChaosStep::Record { server, key }
            } else {
                ChaosStep::Delete { server, key }
            });
        }

        // Flush recoveries and heals that fell past the end, then settle.
        for (_, events) in recoveries {
            for event in events {
                steps.push(ChaosStep::Inject(event));
            }
        }
        for (_, pairs) in pending_heals {
            for (a, b) in pairs {
                steps.push(ChaosStep::HealPair { a, b });
            }
        }
        for (_, pool_nodes) in pending_pool_ups {
            for pool_node in pool_nodes {
                steps.push(ChaosStep::CxlPoolUp { pool_node });
            }
        }
        steps.push(ChaosStep::Maintain {
            horizon: MAINTAIN_HORIZON,
        });
        ChaosSchedule { seed, steps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::default();
        let a = ChaosSchedule::generate(7, &cfg);
        let b = ChaosSchedule::generate(7, &cfg);
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(8, &cfg);
        assert_ne!(a.steps, c.steps, "distinct seeds must differ");
    }

    #[test]
    fn every_down_has_a_later_up() {
        let cfg = ChaosConfig::default();
        for seed in 0..16 {
            let schedule = ChaosSchedule::generate(seed, &cfg);
            for (i, step) in schedule.steps.iter().enumerate() {
                let wanted = match step {
                    ChaosStep::Inject(FailureEvent::NodeDown(n)) => FailureEvent::NodeUp(*n),
                    ChaosStep::Inject(FailureEvent::ServerDown(s)) => FailureEvent::ServerUp(*s),
                    ChaosStep::Inject(FailureEvent::LinkDown(a, b)) => FailureEvent::LinkUp(*a, *b),
                    _ => continue,
                };
                assert!(
                    schedule.steps[i + 1..]
                        .iter()
                        .any(|s| *s == ChaosStep::Inject(wanted)),
                    "seed {seed}: no recovery for step {i} ({step})"
                );
            }
        }
    }

    #[test]
    fn schedule_ends_with_maintenance() {
        let cfg = ChaosConfig::default();
        for seed in 0..16 {
            let schedule = ChaosSchedule::generate(seed, &cfg);
            assert!(matches!(
                schedule.steps.last(),
                Some(ChaosStep::Maintain { .. })
            ));
        }
    }

    #[test]
    fn steps_respect_config_bounds() {
        let cfg = ChaosConfig::default();
        let servers = cfg.servers();
        let schedule = ChaosSchedule::generate(3, &cfg);
        assert!(schedule.steps.len() >= cfg.steps);
        for step in &schedule.steps {
            match step {
                ChaosStep::Put { server, key, len } => {
                    assert!(servers.contains(server));
                    assert!(*key < cfg.keys);
                    assert!(VALUE_SIZES.contains(len));
                }
                ChaosStep::Get { server, key }
                | ChaosStep::Record { server, key }
                | ChaosStep::Delete { server, key } => {
                    assert!(servers.contains(server));
                    assert!(*key < cfg.keys);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn chaos_mixes_workload_failures_and_maintenance() {
        let cfg = ChaosConfig::default();
        let mut puts = 0;
        let mut gets = 0;
        let mut injects = 0;
        let mut maintains = 0;
        for seed in 0..8 {
            for step in ChaosSchedule::generate(seed, &cfg).steps {
                match step {
                    ChaosStep::Put { .. } => puts += 1,
                    ChaosStep::Get { .. } => gets += 1,
                    ChaosStep::Inject(_) => injects += 1,
                    ChaosStep::Maintain { .. } => maintains += 1,
                    _ => {}
                }
            }
        }
        assert!(puts > 0 && gets > 0 && injects > 0 && maintains > 8);
    }

    #[test]
    fn fabric_faults_add_steps_without_touching_the_base_schedule() {
        let plain = ChaosConfig::default();
        let with = ChaosConfig {
            fabric_faults: true,
            ..ChaosConfig::default()
        };
        let mut partitions = 0usize;
        let mut breaks = 0usize;
        for seed in 0..16 {
            let a = ChaosSchedule::generate(seed, &plain);
            let b = ChaosSchedule::generate(seed, &with);
            let strip: Vec<&ChaosStep> = b
                .steps
                .iter()
                .filter(|s| {
                    !matches!(
                        s,
                        ChaosStep::PartitionPair { .. }
                            | ChaosStep::HealPair { .. }
                            | ChaosStep::BreakQps { .. }
                    )
                })
                .collect();
            let base: Vec<&ChaosStep> = a.steps.iter().collect();
            assert_eq!(strip, base, "seed {seed}: base schedule perturbed");
            for step in &b.steps {
                match step {
                    ChaosStep::PartitionPair { .. } => partitions += 1,
                    ChaosStep::BreakQps { a, b } => {
                        assert_ne!(a, b, "seed {seed}");
                        breaks += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(partitions > 0, "partitions must actually fire");
        assert!(breaks > 0, "qp breaks must actually fire");
    }

    #[test]
    fn every_partition_has_a_later_heal_and_one_active_at_a_time() {
        let cfg = ChaosConfig {
            fabric_faults: true,
            steps: 300,
            ..ChaosConfig::default()
        };
        let mut opened = 0usize;
        for seed in 0..8 {
            let schedule = ChaosSchedule::generate(seed, &cfg);
            let mut open = 0usize;
            for (i, step) in schedule.steps.iter().enumerate() {
                match step {
                    ChaosStep::PartitionPair { a, b } => {
                        open += 1;
                        opened += 1;
                        assert_eq!(open, 1, "seed {seed}: overlapping partitions");
                        assert!(
                            schedule.steps[i + 1..].iter().any(
                                |s| *s == ChaosStep::HealPair { a: *a, b: *b }
                            ),
                            "seed {seed}: partition at step {i} never heals"
                        );
                    }
                    ChaosStep::HealPair { .. } => open -= 1,
                    _ => {}
                }
            }
            assert_eq!(open, 0, "seed {seed}: unhealed partition at end");
        }
        assert!(opened > 0, "no partition opened across 8 seeds");
    }

    #[test]
    fn cxl_adds_steps_without_touching_the_base_schedule() {
        let plain = ChaosConfig::default();
        let with = ChaosConfig {
            cxl: true,
            ..ChaosConfig::default()
        };
        let mut outages = 0usize;
        let mut atomics = 0usize;
        for seed in 0..16 {
            let a = ChaosSchedule::generate(seed, &plain);
            let b = ChaosSchedule::generate(seed, &with);
            let strip: Vec<&ChaosStep> = b
                .steps
                .iter()
                .filter(|s| {
                    !matches!(
                        s,
                        ChaosStep::CxlPoolDown { .. }
                            | ChaosStep::CxlPoolUp { .. }
                            | ChaosStep::CxlAtomic { .. }
                    )
                })
                .collect();
            let base: Vec<&ChaosStep> = a.steps.iter().collect();
            assert_eq!(strip, base, "seed {seed}: base schedule perturbed");
            for step in &b.steps {
                match step {
                    ChaosStep::CxlPoolDown { pool_node } => {
                        assert!(*pool_node < CXL_POOL_NODES, "seed {seed}");
                        outages += 1;
                    }
                    ChaosStep::CxlAtomic { slot, delta } => {
                        assert!(*slot < CXL_ATOMIC_SLOTS, "seed {seed}");
                        assert!(*delta > 0, "seed {seed}: zero-delta atomic is vacuous");
                        atomics += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(outages > 0, "pool outages must actually fire");
        assert!(atomics > 0, "remote atomics must actually fire");
    }

    #[test]
    fn every_pool_outage_recovers_and_one_is_down_at_a_time() {
        let cfg = ChaosConfig {
            cxl: true,
            steps: 300,
            ..ChaosConfig::default()
        };
        let mut opened = 0usize;
        for seed in 0..8 {
            let schedule = ChaosSchedule::generate(seed, &cfg);
            let mut open = 0usize;
            for (i, step) in schedule.steps.iter().enumerate() {
                match step {
                    ChaosStep::CxlPoolDown { pool_node } => {
                        open += 1;
                        opened += 1;
                        assert_eq!(open, 1, "seed {seed}: overlapping pool outages");
                        assert!(
                            schedule.steps[i + 1..]
                                .iter()
                                .any(|s| *s == ChaosStep::CxlPoolUp { pool_node: *pool_node }),
                            "seed {seed}: pool outage at step {i} never recovers"
                        );
                    }
                    ChaosStep::CxlPoolUp { .. } => open -= 1,
                    _ => {}
                }
            }
            assert_eq!(open, 0, "seed {seed}: pool node still down at end");
        }
        assert!(opened > 0, "no pool outage opened across 8 seeds");
    }

    #[test]
    fn node_failures_respect_concurrency_cap() {
        let cfg = ChaosConfig {
            steps: 400,
            ..ChaosConfig::default()
        };
        let mut downs = 0usize;
        for seed in 0..4 {
            let schedule = ChaosSchedule::generate(seed, &cfg);
            let mut down = 0usize;
            for step in &schedule.steps {
                match step {
                    ChaosStep::Inject(FailureEvent::NodeDown(_)) => {
                        down += 1;
                        downs += 1;
                        assert!(down <= MAX_CONCURRENT_NODE_FAILURES, "seed {seed}");
                    }
                    ChaosStep::Inject(FailureEvent::NodeUp(_)) => down -= 1,
                    _ => {}
                }
            }
        }
        assert!(downs > 0, "no node failure fired across 4 seeds");
    }
}
