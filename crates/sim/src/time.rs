//! Virtual time newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use dmem_sim::SimDuration;
///
/// let page = SimDuration::from_micros(3);
/// assert_eq!((page * 4).as_micros_f64(), 12.0);
/// assert_eq!(SimDuration::from_millis(1) / SimDuration::from_micros(10), 100);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, )]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub(crate) const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Saturating at zero.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0);
        SimDuration((self.0 as f64 * rhs) as u64)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many times `rhs` fits into `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: SimDuration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero SimDuration");
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A point in virtual time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, )]
pub struct SimInstant(u64);

impl SimInstant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant from raw nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`; zero if `earlier` is in the future.
    pub const fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(4).to_string(), "4.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert_eq!(SimInstant::EPOCH.to_string(), "t+0ns");
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_micros(5);
        assert_eq!(t1 - t0, SimDuration::from_micros(5));
        assert_eq!(t0 - t1, SimDuration::ZERO, "reverse order saturates");
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3u64, SimDuration::from_micros(30));
        assert_eq!(d * 0.5f64, SimDuration::from_micros(5));
    }

    proptest! {
        #[test]
        fn prop_duration_ordering_consistent(a in 0u64..1 << 50, b in 0u64..1 << 50) {
            let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
            prop_assert_eq!(da < db, a < b);
        }

        #[test]
        fn prop_instant_roundtrip(start in 0u64..1 << 40, delta in 0u64..1 << 40) {
            let t = SimInstant::from_nanos(start);
            let later = t + SimDuration::from_nanos(delta);
            prop_assert_eq!(later.duration_since(t).as_nanos(), delta);
        }
    }
}
