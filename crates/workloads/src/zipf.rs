//! A bounded Zipf sampler.
//!
//! Key-value workloads like Facebook's ETC trace are strongly skewed; the
//! paper's Memcached/Redis experiments inherit that skew. `rand` 0.8 has
//! no Zipf distribution without `rand_distr`, so we implement the bounded
//! version directly with a cumulative table and binary search — exact,
//! allocation-free after construction, and fast enough for millions of
//! draws.

use dmem_sim::DetRng;

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` is uniform; ETC-like skew is around `s ≈ 0.99`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over zero ranks");
        assert!(s >= 0.0, "negative zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit();
        // partition_point returns the first index with cdf > u.
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_when_s_zero() {
        let sampler = ZipfSampler::new(4, 0.0);
        let mut rng = DetRng::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "uniform draw skewed: {counts:?}");
        }
    }

    #[test]
    fn skew_prefers_low_ranks() {
        let sampler = ZipfSampler::new(1000, 0.99);
        let mut rng = DetRng::new(2);
        let mut top10 = 0usize;
        const N: usize = 10_000;
        for _ in 0..N {
            if sampler.sample(&mut rng) < 10 {
                top10 += 1;
            }
        }
        let share = top10 as f64 / N as f64;
        // With s=0.99 over 1000 ranks, the top-10 carry ~39% of the mass.
        assert!(share > 0.30 && share < 0.50, "top-10 share {share:.2}");
    }

    #[test]
    fn single_rank_always_zero() {
        let sampler = ZipfSampler::new(1, 1.0);
        let mut rng = DetRng::new(3);
        for _ in 0..10 {
            assert_eq!(sampler.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    proptest! {
        #[test]
        fn prop_samples_in_range(n in 1usize..500, s in 0.0f64..2.0, seed in 0u64..100) {
            let sampler = ZipfSampler::new(n, s);
            let mut rng = DetRng::new(seed);
            for _ in 0..20 {
                prop_assert!(sampler.sample(&mut rng) < n);
            }
        }

        #[test]
        fn prop_cdf_monotone(n in 2usize..200, s in 0.0f64..2.0) {
            let sampler = ZipfSampler::new(n, s);
            for w in sampler.cdf.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert!((sampler.cdf.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }
}
