//! Deterministic fabric fault injection (ROADMAP "failure semantics").
//!
//! The paper's survey chapters single out fault tolerance of the
//! far-memory path as the hardest open problem: a fabric that silently
//! never fails hides every bug in the recovery code above it. This module
//! supplies the missing adversary — a seeded fault layer the
//! [`crate::Fabric`] consults on every verb — plus the retry policy the
//! fabric uses to survive it. Verb noise is drawn per attempt; partitions
//! and QP breaks are injected by the caller at the step it chooses
//! ([`FabricFaults::partition_now`] / [`FabricFaults::heal_now`],
//! [`crate::Fabric::break_qps`]).
//!
//! Everything is deterministic: outcomes come from a [`DetRng`] fork, so
//! the same seed produces the same drops, delays and jitter, run after
//! run and across parallel chaos jobs.
//!
//! The layer is strictly opt-in. A fabric without an installed
//! [`FabricFaults`] performs zero extra RNG draws, zero extra clock
//! advances and creates zero extra metric keys, keeping fault-free runs
//! byte-identical to builds that predate this module.

use dmem_sim::{DetRng, SimDuration, SimInstant};
use dmem_types::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fmt;

/// Per-verb fault probabilities.
///
/// Probabilities are evaluated per verb attempt from the layer's seeded
/// RNG; they are independent of link or payload (the simulated fabric is
/// symmetric, and per-link skew would only thin each probability out).
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// Probability a verb is dropped on the wire (the caller observes a
    /// timeout after the transfer budget burns).
    pub drop: f64,
    /// Probability a verb is delayed by a uniform extra latency.
    pub delay: f64,
    /// Upper bound for the injected delay.
    pub max_delay: SimDuration,
    /// Probability a verb is duplicated (the wire carries it twice; verbs
    /// are idempotent at this layer, so only the time cost doubles).
    pub duplicate: f64,
}

impl FaultProfile {
    /// The profile the chaos `--faults` mode runs: 2% drop, 5% delay of
    /// up to 20 µs, 1% duplication. High enough that every seed retries,
    /// low enough that a 5-attempt policy fails a verb on an *up* path
    /// with probability ~3e-9 (which would falsely trip the durability
    /// invariant).
    pub fn chaos_default() -> Self {
        FaultProfile {
            drop: 0.02,
            delay: 0.05,
            max_delay: SimDuration::from_micros(20),
            duplicate: 0.01,
        }
    }

    /// All probabilities zero: the layer is installed (retries armed, QP
    /// breaks and partitions honoured) but no verb-level noise fires.
    pub fn none() -> Self {
        FaultProfile {
            drop: 0.0,
            delay: 0.0,
            max_delay: SimDuration::ZERO,
            duplicate: 0.0,
        }
    }
}

/// Verb-level retry policy: capped exponential backoff with jitter, all
/// on the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per verb (first try included). Always ≥ 1.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Backoff growth cap.
    pub max_backoff: SimDuration,
    /// Overall per-verb deadline: once this much virtual time has passed
    /// since the first attempt, the verb fails with a timeout even if
    /// attempts remain.
    pub op_timeout: SimDuration,
}

impl Default for RetryPolicy {
    /// 5 attempts, 10 µs doubling to a 160 µs cap, 2 ms per-verb
    /// deadline — roughly the RC retransmit budget of a real NIC scaled
    /// to the cost model's microsecond fabric.
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_backoff: SimDuration::from_micros(10),
            max_backoff: SimDuration::from_micros(160),
            op_timeout: SimDuration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// The deterministic (un-jittered) backoff before retry number
    /// `attempt` (0-based): `base · 2^attempt`, capped at
    /// [`RetryPolicy::max_backoff`].
    ///
    /// With the default policy the sequence is 10, 20, 40, 80, 160,
    /// 160, … µs.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let grown = self
            .base_backoff
            .as_nanos()
            .saturating_shl(attempt.min(32))
            .max(self.base_backoff.as_nanos());
        SimDuration::from_nanos(grown.min(self.max_backoff.as_nanos()))
    }
}

/// The fate the fault layer assigns one verb attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerbOutcome {
    /// Delivered normally.
    Deliver,
    /// Lost on the wire: the transfer budget burns, then a timeout.
    Drop,
    /// Delivered after an extra injected latency.
    Delay(SimDuration),
    /// Delivered, but the wire carried it twice (double transfer cost).
    Duplicate,
}

/// Interior state behind one mutex so outcome draws and the partition
/// set mutate atomically and deterministically.
struct FaultState {
    rng: DetRng,
    /// Currently partitioned host pairs, stored with endpoints ordered.
    partitions: BTreeSet<(NodeId, NodeId)>,
}

/// The seeded fault layer a [`crate::Fabric`] consults on every verb.
///
/// Install with [`crate::Fabric::install_faults`]; at most one layer per
/// fabric, for the whole run (mirroring the QoS engine's install
/// contract).
pub struct FabricFaults {
    profile: FaultProfile,
    retry: RetryPolicy,
    state: Mutex<FaultState>,
}

/// Normalizes a host pair so `(a, b)` and `(b, a)` name the same link.
fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FabricFaults {
    /// Creates a layer drawing outcomes and jitter from `rng`.
    pub fn new(rng: DetRng, profile: FaultProfile, retry: RetryPolicy) -> Self {
        FabricFaults {
            profile,
            retry,
            state: Mutex::new(FaultState {
                rng,
                partitions: BTreeSet::new(),
            }),
        }
    }

    /// The retry policy verbs run under while this layer is installed.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// The verb fault profile in force.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// Partitions the pair immediately. Returns `false` if it already was.
    pub fn partition_now(&self, a: NodeId, b: NodeId) -> bool {
        self.state.lock().partitions.insert(ordered(a, b))
    }

    /// Heals the pair immediately. Returns `false` if it was not
    /// partitioned.
    pub fn heal_now(&self, a: NodeId, b: NodeId) -> bool {
        self.state.lock().partitions.remove(&ordered(a, b))
    }

    /// Whether the pair is currently partitioned.
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.state.lock().partitions.contains(&ordered(a, b))
    }

    /// Draws the fate of one verb attempt from the seeded stream.
    pub fn verb_outcome(&self) -> VerbOutcome {
        let p = self.profile;
        let mut state = self.state.lock();
        let roll = state.rng.unit();
        if roll < p.drop {
            VerbOutcome::Drop
        } else if roll < p.drop + p.delay {
            let span = p.max_delay.as_nanos().max(1) as usize;
            let extra = 1 + state.rng.below(span) as u64;
            VerbOutcome::Delay(SimDuration::from_nanos(extra))
        } else if roll < p.drop + p.delay + p.duplicate {
            VerbOutcome::Duplicate
        } else {
            VerbOutcome::Deliver
        }
    }

    /// The jittered backoff before retry `attempt` (0-based): half the
    /// deterministic [`RetryPolicy::backoff`] plus a uniform draw over
    /// the other half ("equal jitter"), so concurrent retries decorrelate
    /// while the expected wait keeps the exponential shape.
    pub fn jittered_backoff(&self, attempt: u32) -> SimDuration {
        let full = self.retry.backoff(attempt).as_nanos();
        let half = full / 2;
        let jitter = self.state.lock().rng.below((full - half + 1) as usize) as u64;
        SimDuration::from_nanos(half + jitter)
    }
}

impl fmt::Debug for FabricFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FabricFaults")
            .field("profile", &self.profile)
            .field("retry", &self.retry)
            .field("partitions", &state.partitions.len())
            .finish()
    }
}

/// One host outage window in a sharded rack simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostOutage {
    /// The host that goes down.
    pub host: usize,
    /// When the host stops answering.
    pub from: SimInstant,
    /// When the host is back (exclusive: answering again at this time).
    pub until: SimInstant,
}

/// A deterministic host-outage schedule for the sharded rack model.
///
/// The sharded engine cannot share one [`FabricFaults`] stream across
/// shards (a shared RNG would couple shard execution order to draw
/// order), so rack-scale fault schedules are generated *up front* from
/// the root seed and dealt to each host's owning shard — every shard
/// sees exactly the outages of its own hosts, no cross-shard draws ever
/// happen, and the schedule is identical at every worker count.
///
/// # Examples
///
/// ```
/// use dmem_net::ShardFaultSchedule;
/// use dmem_sim::SimDuration;
///
/// let horizon = SimDuration::from_millis(1);
/// let schedule = ShardFaultSchedule::generate(7, 64, horizon, 0.25);
/// let again = ShardFaultSchedule::generate(7, 64, horizon, 0.25);
/// assert_eq!(schedule.outages(), again.outages());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFaultSchedule {
    outages: Vec<HostOutage>,
}

impl ShardFaultSchedule {
    /// Generates the outage schedule: each host independently suffers at
    /// most one outage with probability `outage_fraction`, starting
    /// uniformly inside the first half of `horizon` and lasting a
    /// uniform 5–20% of `horizon` (clamped to end before `horizon`, so
    /// runs always finish with every host back up and suspects can
    /// resolve). Outages are listed in host order.
    pub fn generate(
        root_seed: u64,
        hosts: usize,
        horizon: SimDuration,
        outage_fraction: f64,
    ) -> Self {
        let root = DetRng::new(root_seed);
        let mut outages = Vec::new();
        for host in 0..hosts {
            let mut rng = root.fork_indexed("rack.outage", host as u64);
            if !rng.chance(outage_fraction) {
                continue;
            }
            let h = horizon.as_nanos();
            let from = rng.below((h / 2).max(1) as usize) as u64;
            let len = h / 20 + rng.below((h * 3 / 20).max(1) as usize) as u64;
            let until = (from + len).min(h.saturating_sub(1));
            if until <= from {
                continue;
            }
            outages.push(HostOutage {
                host,
                from: SimInstant::from_nanos(from),
                until: SimInstant::from_nanos(until),
            });
        }
        ShardFaultSchedule { outages }
    }

    /// All outage windows, in host order.
    pub fn outages(&self) -> &[HostOutage] {
        &self.outages
    }

    /// The outage windows of hosts in `[range.start, range.end)` — the
    /// deal handed to the shard owning that host group.
    pub fn for_hosts(&self, range: std::ops::Range<usize>) -> Vec<HostOutage> {
        self.outages
            .iter()
            .filter(|o| range.contains(&o.host))
            .copied()
            .collect()
    }

    /// Number of scheduled outages.
    pub fn len(&self) -> usize {
        self.outages.len()
    }

    /// `true` when no outages are scheduled.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }
}

/// `u64` has no `saturating_shl`; a helper keeps [`RetryPolicy::backoff`]
/// readable.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_schedule_is_deterministic_and_bounded() {
        let horizon = SimDuration::from_millis(2);
        let s = ShardFaultSchedule::generate(11, 100, horizon, 0.3);
        assert_eq!(s, ShardFaultSchedule::generate(11, 100, horizon, 0.3));
        assert!(!s.is_empty(), "30% of 100 hosts should fault");
        assert!(s.len() < 60, "should stay near the configured fraction");
        let end = SimInstant::from_nanos(horizon.as_nanos());
        for o in s.outages() {
            assert!(o.from < o.until, "window must be non-empty");
            assert!(o.until < end, "every host must be back up before the horizon");
        }
        // Host order, one outage per host.
        for w in s.outages().windows(2) {
            assert!(w[0].host < w[1].host);
        }
    }

    #[test]
    fn outage_schedule_deals_by_host_group() {
        let horizon = SimDuration::from_millis(1);
        let s = ShardFaultSchedule::generate(3, 64, horizon, 0.5);
        let mut dealt = 0;
        for group in [0..16, 16..32, 32..48, 48..64] {
            let part = s.for_hosts(group.clone());
            assert!(part.iter().all(|o| group.contains(&o.host)));
            dealt += part.len();
        }
        assert_eq!(dealt, s.len(), "the deal partitions the schedule");
    }

    #[test]
    fn outage_schedule_independent_of_host_count_prefix() {
        // Per-host forked streams: host h's outage is the same whether
        // the rack has 32 or 64 hosts — growth doesn't reshuffle faults.
        let horizon = SimDuration::from_millis(1);
        let small = ShardFaultSchedule::generate(9, 32, horizon, 0.4);
        let large = ShardFaultSchedule::generate(9, 64, horizon, 0.4);
        assert_eq!(small.outages(), large.for_hosts(0..32).as_slice());
    }

    #[test]
    fn backoff_sequence_doubles_then_caps() {
        let policy = RetryPolicy::default();
        let micros: Vec<u64> = (0..7)
            .map(|i| policy.backoff(i).as_nanos() / 1_000)
            .collect();
        assert_eq!(micros, vec![10, 20, 40, 80, 160, 160, 160]);
    }

    #[test]
    fn jittered_backoff_stays_within_the_envelope() {
        let layer = FabricFaults::new(
            DetRng::new(7),
            FaultProfile::chaos_default(),
            RetryPolicy::default(),
        );
        for attempt in 0..6 {
            let full = layer.retry().backoff(attempt);
            for _ in 0..32 {
                let j = layer.jittered_backoff(attempt);
                assert!(j.as_nanos() >= full.as_nanos() / 2, "below half: {j:?}");
                assert!(j <= full, "beyond cap: {j:?} > {full:?}");
            }
        }
    }

    #[test]
    fn outcomes_are_seed_deterministic() {
        let draw = |seed| {
            let layer = FabricFaults::new(
                DetRng::new(seed),
                FaultProfile::chaos_default(),
                RetryPolicy::default(),
            );
            (0..256).map(|_| layer.verb_outcome()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn none_profile_always_delivers() {
        let layer = FabricFaults::new(
            DetRng::new(3),
            FaultProfile::none(),
            RetryPolicy::default(),
        );
        for _ in 0..100 {
            assert_eq!(layer.verb_outcome(), VerbOutcome::Deliver);
        }
    }
}
