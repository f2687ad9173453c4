//! Deterministic fabric fault injection (ROADMAP "failure semantics").
//!
//! The paper's survey chapters single out fault tolerance of the
//! far-memory path as the hardest open problem: a fabric that silently
//! never fails hides every bug in the recovery code above it. This module
//! supplies the missing adversary — a seeded fault layer the
//! [`crate::Fabric`] consults on every verb — plus the retry policy the
//! fabric uses to survive it. The layer holds only verb noise, drawn per
//! attempt. What is down lives elsewhere: link cuts and host-pair
//! partitions are one counted set on [`dmem_sim::FailureInjector`], and
//! QP breaks are [`crate::Fabric::break_qps`]; the caller injects both at
//! the step it chooses, and they take effect there.
//!
//! Everything is deterministic: outcomes come from a [`DetRng`] fork, so
//! the same seed produces the same drops, delays and jitter, run after
//! run and across parallel chaos jobs.
//!
//! The layer is strictly opt-in. A fabric without an installed
//! [`FabricFaults`] performs zero extra RNG draws, zero extra clock
//! advances and creates zero extra metric keys, keeping fault-free runs
//! byte-identical to builds that predate this module.

use dmem_sim::{DetRng, SimDuration};
use parking_lot::Mutex;
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

    /// All probabilities zero: the layer is installed (retries armed) but
    /// no verb-level noise fires.
    pub fn none() -> Self {
        FaultProfile {
            drop: 0.0,
            delay: 0.0,
            max_delay: SimDuration::ZERO,
            duplicate: 0.0,
        }
    }
}

// Verb-level retry policy: capped exponential backoff with jitter, all on
// the virtual clock. 5 attempts, 10 µs doubling to a 160 µs cap, 2 ms
// per-verb deadline — roughly the RC retransmit budget of a real NIC
// scaled to the cost model's microsecond fabric.

/// Total attempts per verb (first try included).
pub const RETRY_ATTEMPTS: u32 = 5;
/// Backoff before the first retry.
const BASE_BACKOFF: SimDuration = SimDuration::from_micros(10);
/// Backoff growth cap.
const MAX_BACKOFF: SimDuration = SimDuration::from_micros(160);
/// Overall per-verb deadline: once this much virtual time has passed since
/// the first attempt, the verb fails with a timeout even if attempts
/// remain.
pub(crate) const OP_TIMEOUT: SimDuration = SimDuration::from_millis(2);

/// The deterministic (un-jittered) backoff before retry number `attempt`
/// (0-based): `base · 2^attempt`, capped at 160 µs — the sequence is 10,
/// 20, 40, 80, 160, 160, … µs.
pub fn retry_backoff(attempt: u32) -> SimDuration {
    // 10 µs << 32 still fits a u64; the cap binds long before.
    let grown = BASE_BACKOFF.as_nanos() << attempt.min(32);
    SimDuration::from_nanos(grown.min(MAX_BACKOFF.as_nanos()))
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

/// The seeded fault layer a [`crate::Fabric`] consults on every verb.
///
/// Install with [`crate::Fabric::install_faults`]; at most one layer per
/// fabric, for the whole run (mirroring the QoS engine's install
/// contract).
pub struct FabricFaults {
    profile: FaultProfile,
    rng: Mutex<DetRng>,
}

impl FabricFaults {
    /// Creates a layer drawing outcomes and jitter from `rng`.
    pub fn new(rng: DetRng, profile: FaultProfile) -> Self {
        FabricFaults {
            profile,
            rng: Mutex::new(rng),
        }
    }

    /// Draws the fate of one verb attempt from the seeded stream.
    pub(crate) fn verb_outcome(&self) -> VerbOutcome {
        let p = self.profile;
        let mut rng = self.rng.lock();
        let roll = rng.unit();
        if roll < p.drop {
            VerbOutcome::Drop
        } else if roll < p.drop + p.delay {
            let span = p.max_delay.as_nanos().max(1) as usize;
            let extra = 1 + rng.below(span) as u64;
            VerbOutcome::Delay(SimDuration::from_nanos(extra))
        } else if roll < p.drop + p.delay + p.duplicate {
            VerbOutcome::Duplicate
        } else {
            VerbOutcome::Deliver
        }
    }

    /// The jittered backoff before retry `attempt` (0-based): half the
    /// deterministic [`retry_backoff`] plus a uniform draw over
    /// the other half ("equal jitter"), so concurrent retries decorrelate
    /// while the expected wait keeps the exponential shape.
    pub fn jittered_backoff(&self, attempt: u32) -> SimDuration {
        let full = retry_backoff(attempt).as_nanos();
        let half = full / 2;
        let jitter = self.rng.lock().below((full - half + 1) as usize) as u64;
        SimDuration::from_nanos(half + jitter)
    }
}

impl fmt::Debug for FabricFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricFaults")
            .field("profile", &self.profile)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_sequence_doubles_then_caps() {
        let micros: Vec<u64> = (0..7).map(|i| retry_backoff(i).as_nanos() / 1_000).collect();
        assert_eq!(micros, vec![10, 20, 40, 80, 160, 160, 160]);
    }

    #[test]
    fn jittered_backoff_stays_within_the_envelope() {
        let layer = FabricFaults::new(DetRng::new(7), FaultProfile::chaos_default());
        for attempt in 0..6 {
            let full = retry_backoff(attempt);
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
            let layer = FabricFaults::new(DetRng::new(seed), FaultProfile::chaos_default());
            (0..256).map(|_| layer.verb_outcome()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn none_profile_always_delivers() {
        let layer = FabricFaults::new(DetRng::new(3), FaultProfile::none());
        for _ in 0..100 {
            assert_eq!(layer.verb_outcome(), VerbOutcome::Deliver);
        }
    }
}
