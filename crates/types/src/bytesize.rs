//! Byte-size arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A quantity of bytes.
///
/// Wraps `u64` so memory capacities, donation amounts and transfer sizes
/// cannot be confused with counts or durations. Subtraction saturates at
/// zero — capacity accounting never wraps.
///
/// # Examples
///
/// ```
/// use dmem_types::ByteSize;
///
/// let pool = ByteSize::from_gib(2);
/// let slab = ByteSize::from_mib(1);
/// assert_eq!(pool / slab, 2048);
/// assert_eq!((slab * 4).as_u64(), 4 * 1024 * 1024);
/// assert_eq!(format!("{}", ByteSize::from_kib(512)), "512.0 KiB");
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    )]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size of `n` KiB.
    pub const fn from_kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Creates a size of `n` MiB.
    pub const fn from_mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Creates a size of `n` GiB.
    pub const fn from_gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `usize` (only possible on 32-bit
    /// targets).
    pub fn as_usize(self) -> usize {
        usize::try_from(self.0).expect("byte size exceeds usize")
    }

    /// Returns `true` if this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub(crate) const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a ratio in `[0.0, 1.0+]`, rounding down.
    ///
    /// Used for donation fractions ("each server donates x% of its memory",
    /// paper §IV-B).
    pub fn scaled(self, ratio: f64) -> ByteSize {
        debug_assert!(ratio >= 0.0, "negative ratio");
        ByteSize((self.0 as f64 * ratio) as u64)
    }

    /// Number of whole pages of `page_size` bytes this size covers
    /// (rounding up).
    pub fn pages(self, page_size: usize) -> u64 {
        let ps = page_size as u64;
        self.0.div_ceil(ps)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    /// Saturating at zero: pool accounting treats over-release as empty.
    fn sub(self, rhs: ByteSize) -> ByteSize {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Div<ByteSize> for ByteSize {
    type Output = u64;
    /// How many times `rhs` fits into `self` (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: ByteSize) -> u64 {
        assert!(!rhs.is_zero(), "division by zero ByteSize");
        self.0 / rhs.0
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> Self {
        ByteSize(bytes)
    }
}

impl From<usize> for ByteSize {
    fn from(bytes: usize) -> Self {
        ByteSize(bytes as u64)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [(&str, u64); 4] = [
            ("GiB", 1 << 30),
            ("MiB", 1 << 20),
            ("KiB", 1 << 10),
            ("B", 1),
        ];
        for (name, factor) in UNITS {
            if self.0 >= factor {
                return write!(f, "{:.1} {}", self.0 as f64 / factor as f64, name);
            }
        }
        write!(f, "0 B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert_eq!(ByteSize::from_kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::from_gib(1).as_u64(), 1 << 30);
        assert!(ByteSize::ZERO.is_zero());
    }

    #[test]
    fn subtraction_saturates() {
        let small = ByteSize::new(10);
        let big = ByteSize::new(100);
        assert_eq!(small - big, ByteSize::ZERO);
    }

    #[test]
    fn scaled_fraction() {
        let total = ByteSize::from_gib(64);
        // 10% donation as in paper §IV-F.
        assert_eq!(total.scaled(0.10), ByteSize::new(6871947673));
        assert_eq!(total.scaled(0.0), ByteSize::ZERO);
    }

    #[test]
    fn pages_rounds_up() {
        assert_eq!(ByteSize::new(4096).pages(4096), 1);
        assert_eq!(ByteSize::new(4097).pages(4096), 2);
        assert_eq!(ByteSize::ZERO.pages(4096), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::new(512).to_string(), "512.0 B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.0 KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.0 MiB");
        assert_eq!(ByteSize::ZERO.to_string(), "0 B");
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = ByteSize::new(1) / ByteSize::ZERO;
    }

    #[test]
    fn sum_of_sizes() {
        let total: ByteSize = (1..=4).map(ByteSize::from_kib).sum();
        assert_eq!(total, ByteSize::from_kib(10));
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in 0u64..1 << 40, b in 0u64..1 << 40) {
            let (a, b) = (ByteSize::new(a), ByteSize::new(b));
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn prop_sub_never_underflows(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let d = ByteSize::new(a) - ByteSize::new(b);
            prop_assert!(d.as_u64() <= a);
        }

        #[test]
        fn prop_pages_covers_size(sz in 0u64..1 << 32) {
            let pages = ByteSize::new(sz).pages(4096);
            prop_assert!(pages * 4096 >= sz);
            prop_assert!(pages == 0 || (pages - 1) * 4096 < sz);
        }

        #[test]
        fn prop_scaled_monotone(sz in 0u64..1 << 40, r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
            let s = ByteSize::new(sz);
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(s.scaled(lo) <= s.scaled(hi));
        }
    }
}
