//! The shared virtual clock.

use crate::time::{SimDuration, SimInstant};
use crate::trace::Tracer;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cheaply cloneable, thread-safe virtual clock.
///
/// All components of one simulated cluster share a single clock; device
/// models advance it by the modelled cost of each operation. Time never
/// goes backwards.
///
/// The clock also carries the cluster's span [`Tracer`]: since every
/// component already holds a clone of the clock, every component can emit
/// virtual-time spans with no extra plumbing. Tracing is disabled (and
/// free) unless [`Tracer::enable`] is called.
///
/// # Examples
///
/// ```
/// use dmem_sim::{SimClock, SimDuration};
///
/// let clock = SimClock::new();
/// let view = clock.clone(); // same underlying time
/// clock.advance(SimDuration::from_micros(2));
/// assert_eq!(view.now().nanos(), 2_000);
/// ```
#[derive(Clone)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
    tracer: Tracer,
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

impl SimClock {
    /// Creates a clock at the simulation epoch.
    pub fn new() -> Self {
        let now_ns = Arc::new(AtomicU64::new(0));
        let tracer = Tracer::new(Arc::clone(&now_ns));
        SimClock { now_ns, tracer }
    }

    /// The span collector stamped from this clock. Clones of the clock
    /// share the tracer, so enabling it anywhere enables it everywhere.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The current virtual time.
    pub fn now(&self) -> SimInstant {
        SimInstant::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        let ns = self.now_ns.fetch_add(d.as_nanos(), Ordering::SeqCst) + d.as_nanos();
        SimInstant::from_nanos(ns)
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves
    /// it unchanged. Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: SimInstant) -> SimInstant {
        let target = t.nanos();
        let mut cur = self.now_ns.load(Ordering::SeqCst);
        while cur < target {
            match self.now_ns.compare_exchange_weak(
                cur,
                target,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        SimInstant::from_nanos(cur)
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimClock").field("now", &self.now()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn starts_at_epoch() {
        assert_eq!(SimClock::new().now(), SimInstant::EPOCH);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(SimDuration::from_nanos(5));
        c.advance(SimDuration::from_nanos(7));
        assert_eq!(c.now().nanos(), 12);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_micros(1));
        assert_eq!(b.now().nanos(), 1_000);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance(SimDuration::from_micros(10));
        c.advance_to(SimInstant::from_nanos(3_000)); // in the past
        assert_eq!(c.now().nanos(), 10_000);
        c.advance_to(SimInstant::from_nanos(20_000));
        assert_eq!(c.now().nanos(), 20_000);
    }

    #[test]
    fn concurrent_advances_all_counted() {
        let c = SimClock::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        c.advance(SimDuration::from_nanos(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now().nanos(), 8_000);
    }

    #[test]
    fn debug_shows_time() {
        let c = SimClock::new();
        assert!(format!("{c:?}").contains("now"));
    }
}
