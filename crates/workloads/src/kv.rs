//! Key-value operation streams (paper Fig. 8-9).
//!
//! The throughput experiments drive Memcached (Facebook's ETC mix), Redis
//! and VoltDB under 50% memory pressure. What the paging layer sees is a
//! stream of get/set operations over a skewed key space, with values that
//! occupy whole pages once the store's heap pages out. [`KvWorkload`]
//! produces that stream deterministically.

use crate::catalog::{AppKind, AppProfile};
use crate::zipf::ZipfSampler;
use dmem_sim::DetRng;

/// One key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read of a key.
    Get {
        /// The key touched.
        key: u64,
    },
    /// Write of a key with a value of `len` bytes.
    Set {
        /// The key touched.
        key: u64,
        /// Value size in bytes.
        len: usize,
    },
}

impl KvOp {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match self {
            KvOp::Get { key } | KvOp::Set { key, .. } => *key,
        }
    }

    /// `true` for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, KvOp::Set { .. })
    }
}

/// A deterministic generator of KV operations.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    read_fraction: f64,
    sampler: ZipfSampler,
    rng: DetRng,
    /// ETC-style value sizes: mostly small objects, a tail of page-sized
    /// values. `(size, cumulative probability)` pairs.
    value_cdf: Vec<(usize, f64)>,
}

impl KvWorkload {
    /// ETC-like skew exponent.
    pub(crate) const ETC_SKEW: f64 = 0.99;

    /// Creates a workload over `keys` keys from an application profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile is not a key-value application or `keys`
    /// is zero.
    pub fn from_profile(profile: &AppProfile, keys: u64, seed: u64) -> Self {
        let AppKind::KeyValue { read_fraction } = profile.kind else {
            panic!("{} is not a key-value application", profile.name);
        };
        Self::new(keys, read_fraction, seed)
    }

    /// Creates a workload with an explicit read fraction.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero or `read_fraction` is outside `[0, 1]`.
    pub(crate) fn new(keys: u64, read_fraction: f64, seed: u64) -> Self {
        assert!(keys > 0, "key space must be nonempty");
        assert!(
            (0.0..=1.0).contains(&read_fraction),
            "read fraction outside [0, 1]"
        );
        KvWorkload {
            read_fraction,
            sampler: ZipfSampler::new(keys as usize, Self::ETC_SKEW),
            rng: DetRng::new(seed),
            // ETC: dominated by sub-KB objects with a page-sized tail.
            value_cdf: vec![(64, 0.40), (256, 0.70), (1024, 0.90), (4096, 1.0)],
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let key = self.sampler.sample(&mut self.rng) as u64;
        if self.rng.chance(self.read_fraction) {
            KvOp::Get { key }
        } else {
            let u = self.rng.unit();
            let len = self
                .value_cdf
                .iter()
                .find(|(_, p)| u <= *p)
                .map(|(s, _)| *s)
                .unwrap_or(4096);
            KvOp::Set { key, len }
        }
    }

    /// Generates `n` operations.
    #[cfg(test)]
    pub(crate) fn ops(&mut self, n: usize) -> Vec<KvOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn read_mix_matches_profile() {
        let profile = catalog::by_name("Memcached").unwrap();
        let mut wl = KvWorkload::from_profile(&profile, 10_000, 1);
        let ops = wl.ops(10_000);
        let reads = ops.iter().filter(|o| !o.is_write()).count() as f64 / 10_000.0;
        assert!(
            (reads - 0.95).abs() < 0.02,
            "ETC should be ~95% reads, got {reads:.3}"
        );
    }

    #[test]
    fn voltdb_is_write_heavy() {
        let profile = catalog::by_name("VoltDB").unwrap();
        let mut wl = KvWorkload::from_profile(&profile, 1_000, 2);
        let ops = wl.ops(4_000);
        let writes = ops.iter().filter(|o| o.is_write()).count() as f64 / 4_000.0;
        assert!((writes - 0.50).abs() < 0.05, "VoltDB ~50% writes, got {writes:.3}");
    }

    #[test]
    fn keys_are_skewed() {
        let mut wl = KvWorkload::new(10_000, 0.95, 3);
        let ops = wl.ops(20_000);
        let top100 = ops.iter().filter(|o| o.key() < 100).count() as f64 / 20_000.0;
        assert!(top100 > 0.25, "top-1% keys should carry heavy traffic: {top100:.2}");
    }

    #[test]
    fn value_sizes_from_cdf() {
        let mut wl = KvWorkload::new(100, 0.0, 4); // all writes
        for op in wl.ops(1_000) {
            match op {
                KvOp::Set { len, .. } => {
                    assert!([64, 256, 1024, 4096].contains(&len), "unexpected size {len}")
                }
                KvOp::Get { .. } => panic!("read_fraction 0 must produce only writes"),
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = KvWorkload::new(1000, 0.9, 7).ops(100);
        let b = KvWorkload::new(1000, 0.9, 7).ops(100);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not a key-value application")]
    fn ml_profile_rejected() {
        let profile = catalog::by_name("PageRank").unwrap();
        let _ = KvWorkload::from_profile(&profile, 10, 0);
    }
}
