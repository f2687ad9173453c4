//! Deterministic token buckets on the virtual clock.
//!
//! Fabric rate limiting must be *exactly* reproducible: the same seed has
//! to yield byte-identical admission and throttle decisions across runs
//! and across parallel chaos execution. The bucket therefore does all its
//! arithmetic in integers — tokens are tracked in **nano-bytes** (one
//! byte = 10⁹ nano-bytes) so that refills of `rate × elapsed_ns / 10⁹`
//! lose nothing to truncation — and time comes exclusively from the
//! virtual clock, never from the host.

use dmem_sim::{SimDuration, SimInstant};

/// Nano-bytes per byte: the fixed-point scale for token accounting.
const NANO: u128 = 1_000_000_000;

/// A deterministic token bucket metering bytes per virtual second.
///
/// [`TokenBucket::acquire`] never blocks; it returns the virtual duration
/// the caller must advance the clock by before the transfer may proceed.
/// The bucket assumes the caller *does* advance — the deficit is
/// considered repaid once the returned wait has elapsed.
///
/// # Examples
///
/// ```
/// use dmem_qos::TokenBucket;
/// use dmem_sim::{SimDuration, SimInstant};
///
/// // 1 MiB/s with a 4 KiB burst allowance.
/// let mut b = TokenBucket::new(1 << 20, 4096);
/// let t0 = SimInstant::from_nanos(0);
/// assert_eq!(b.acquire(4096, t0), SimDuration::ZERO); // burst absorbs it
/// let wait = b.acquire(4096, t0);
/// assert!(wait > SimDuration::ZERO); // second page must wait ~3.9 ms
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Sustained rate in bytes per virtual second. Always ≥ 1.
    rate: u64,
    /// Capacity in nano-bytes.
    burst_nano: u128,
    /// Available tokens in nano-bytes.
    tokens_nano: u128,
    /// Virtual time of the last refill, in nanoseconds.
    last_ns: u64,
}

impl TokenBucket {
    /// Creates a full bucket sustaining `rate` bytes per virtual second
    /// with a `burst` bytes allowance. A zero `rate` is clamped to 1 so
    /// waits stay finite; a zero `burst` is clamped to 1 byte.
    pub fn new(rate: u64, burst: u64) -> Self {
        let burst_nano = u128::from(burst.max(1)) * NANO;
        TokenBucket {
            rate: rate.max(1),
            burst_nano,
            tokens_nano: burst_nano,
            last_ns: 0,
        }
    }

    /// Brings the token count up to date at `now_ns`.
    fn refill(&mut self, now_ns: u64) {
        if now_ns <= self.last_ns {
            return;
        }
        let elapsed = u128::from(now_ns - self.last_ns);
        let earned = u128::from(self.rate) * elapsed;
        self.tokens_nano = (self.tokens_nano + earned).min(self.burst_nano);
        self.last_ns = now_ns;
    }

    /// Charges `bytes` and returns how long the caller must advance the
    /// virtual clock before proceeding ([`SimDuration::ZERO`] when the
    /// bucket has the tokens already).
    pub fn acquire(&mut self, bytes: u64, now: SimInstant) -> SimDuration {
        let now_ns = now.nanos();
        self.refill(now_ns);
        let need = u128::from(bytes) * NANO;
        if self.tokens_nano >= need {
            self.tokens_nano -= need;
            return SimDuration::ZERO;
        }
        let deficit = need - self.tokens_nano;
        self.tokens_nano = 0;
        // ceil(deficit / rate): the wait exactly repays the deficit, so
        // account the bucket as refilled-through the end of the wait.
        let rate = u128::from(self.rate);
        let wait_ns = deficit.div_ceil(rate);
        let wait_ns = u64::try_from(wait_ns).unwrap_or(u64::MAX);
        self.last_ns = now_ns.saturating_add(wait_ns);
        SimDuration::from_nanos(wait_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(ns: u64) -> SimInstant {
        SimInstant::from_nanos(ns)
    }

    #[test]
    fn burst_is_free_then_rate_limits() {
        let mut b = TokenBucket::new(1_000_000, 4096); // 1 MB/s
        assert_eq!(b.acquire(4096, at(0)), SimDuration::ZERO);
        let wait = b.acquire(1000, at(0));
        // 1000 bytes at 1 MB/s = exactly 1 ms.
        assert_eq!(wait, SimDuration::from_millis(1));
    }

    #[test]
    fn refill_restores_tokens_without_drift() {
        let mut b = TokenBucket::new(1_000_000, 1_000_000);
        assert_eq!(b.acquire(1_000_000, at(0)), SimDuration::ZERO);
        // After exactly 0.5 s, exactly half the burst is back.
        assert_eq!(b.acquire(500_000, at(500_000_000)), SimDuration::ZERO);
        // And nothing more: the very next byte waits 1 µs.
        assert_eq!(
            b.acquire(1, at(500_000_000)),
            SimDuration::from_nanos(1_000)
        );
    }

    #[test]
    fn waits_repay_deficit_exactly_once() {
        let mut b = TokenBucket::new(1_000, 1); // 1 KB/s, 1-byte burst
        let mut now = 0u64;
        b.acquire(1, at(now)); // drain the burst
        let w1 = b.acquire(100, at(now));
        now += w1.as_nanos();
        // Arriving exactly when the wait ends, the bucket is empty again.
        let w2 = b.acquire(100, at(now));
        assert_eq!(w1, w2, "equal charges after full waits must wait equally");
    }

    #[test]
    fn identical_sequences_are_byte_identical() {
        let charges: Vec<(u64, u64)> =
            (0..200).map(|i| (1 + (i * 37) % 9000, i * 13_331)).collect();
        let run = || {
            let mut b = TokenBucket::new(123_457, 8192);
            charges
                .iter()
                .map(|&(bytes, t)| b.acquire(bytes, at(t)).as_nanos())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_rate_clamps_instead_of_hanging() {
        let mut b = TokenBucket::new(0, 0);
        let w = b.acquire(2, at(0));
        assert!(w > SimDuration::ZERO);
        assert!(w.as_nanos() < u64::MAX);
    }

    // Property tests for the nano-token fixed-point arithmetic: the
    // invariants the chaos digests silently depend on (saturation at the
    // burst cap, finite waits even for clamped zero-rate buckets, and the
    // engine's throttle-halving charge never panicking or regressing).
    proptest! {
        /// Idle time refills to the cap and not a nano-byte past it: after
        /// any idle gap a full-burst charge is free, and the very next
        /// byte waits.
        #[test]
        fn prop_refill_saturates_at_the_burst_cap(
            rate in 1u64..10_000_000,
            burst in 1u64..1_000_000,
            idle_ns in 0u64..100_000_000_000,
        ) {
            let mut b = TokenBucket::new(rate, burst);
            // Drain the initial burst, then idle arbitrarily long.
            prop_assert_eq!(b.acquire(burst, at(0)), SimDuration::ZERO);
            let later = 1 + idle_ns;
            // Whatever refilled is capped at `burst`: a follow-up byte at
            // the same instant must wait exactly one byte's worth
            // whenever the idle gap was long enough to refill fully.
            let fully_refilled = u128::from(later) * u128::from(rate) >= u128::from(burst) * NANO;
            if fully_refilled {
                prop_assert_eq!(b.acquire(burst, at(later)), SimDuration::ZERO);
                let w = b.acquire(1, at(later));
                prop_assert_eq!(w.as_nanos(), NANO.div_ceil(u128::from(rate)) as u64);
            } else {
                // Partial refill: the burst charge waits for precisely the
                // missing tokens, never underflows, never hangs.
                let w = b.acquire(burst, at(later));
                prop_assert!(w.as_nanos() < u64::MAX);
            }
        }

        /// A zero rate is clamped, not honoured: every charge completes
        /// with a finite, positive wait once the burst is gone.
        #[test]
        fn prop_zero_rate_buckets_stay_finite(
            bytes in 1u64..1_000_000_000,
            now_ns in 0u64..1_000_000_000,
        ) {
            let mut b = TokenBucket::new(0, 0);
            let first = b.acquire(bytes, at(now_ns));
            prop_assert!(first.as_nanos() < u64::MAX, "wait must stay finite");
            // The clamped 1 B/s rate repays `bytes` in exactly that many
            // virtual seconds (the 1-byte burst absorbs one byte once).
            prop_assert!(first.as_nanos() >= (bytes - 1).saturating_mul(NANO as u64 / 1));
        }

        /// The QoS engine's throttle penalty charges `bytes << level`
        /// (capped at 32): for any realistic transfer size and *any*
        /// throttle level the charge neither panics nor wraps, and a
        /// harsher level never waits less on a fresh bucket.
        #[test]
        fn prop_throttle_halving_never_panics_and_never_regresses(
            rate in 1u64..100_000_000,
            burst in 1u64..1_000_000,
            bytes in 1u64..4_294_967_295u64,
        ) {
            let mut previous = SimDuration::ZERO;
            for level in 0u8..=u8::MAX {
                // Mirrors `QosEngine::fabric_acquire`'s charge math.
                let charged = bytes << u64::from(level).min(32);
                prop_assert!(charged >= bytes, "charge wrapped at level {level}");
                let mut b = TokenBucket::new(rate, burst);
                let w = b.acquire(charged, at(0));
                prop_assert!(w.as_nanos() < u64::MAX || charged > rate,
                    "finite charge produced an unpayable wait");
                prop_assert!(w >= previous,
                    "level {level} waited less than level {}", level.wrapping_sub(1));
                previous = w;
                if level >= 40 {
                    break; // beyond the 32-shift cap the charge is constant
                }
            }
        }
    }
}
