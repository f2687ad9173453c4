//! Page-access trace generation for iterative workloads.
//!
//! An iterative ML job sweeps its input sequentially each iteration while
//! hammering a smaller hot set (model state) with skewed random accesses.
//! The paging experiments only see the resulting page reference string, so
//! that is what we generate — deterministically, from a profile and a
//! seed.

use crate::catalog::{AppKind, AppProfile};
use crate::zipf::ZipfSampler;
use dmem_sim::DetRng;
use dmem_types::PageId;

/// One access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccess {
    /// The page touched.
    pub page: PageId,
    /// `true` if the access dirties the page.
    pub write: bool,
}

/// Parameters of a generated trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Total pages in the working set.
    pub working_set_pages: u64,
    /// Sweeps over the working set.
    pub iterations: usize,
    /// Pages in the hot set (at the front of the address space).
    pub hot_pages: u64,
    /// Probability of an access going to the hot set.
    pub hot_access_prob: f64,
    /// Probability an access is a write.
    pub write_fraction: f64,
}

/// Zipf exponent of hot-set popularity.
const HOT_SKEW: f64 = 0.9;

impl TraceConfig {
    /// Scales a paper-sized profile down to `working_set_pages` while
    /// preserving its structure (iterations, locality, write mix).
    pub fn scaled_from(profile: AppProfile, working_set_pages: u64) -> Self {
        let iterations = match profile.kind {
            AppKind::IterativeMl { iterations } => iterations,
            // KV stores have no sweep structure; a single "iteration"
            // stands for a fixed op budget when traced this way.
            AppKind::KeyValue { .. } => 1,
        };
        TraceConfig {
            working_set_pages,
            iterations,
            hot_pages: ((working_set_pages as f64) * profile.hot_fraction).ceil() as u64,
            hot_access_prob: profile.hot_access_prob,
            write_fraction: profile.write_fraction,
        }
    }

    /// Total accesses the full trace will produce.
    pub fn total_accesses(&self) -> u64 {
        self.working_set_pages * self.iterations as u64
    }

    /// Generates the deterministic access stream for `seed`.
    ///
    /// Each iteration emits one access per working-set page: either the
    /// sequential sweep position or (with `hot_access_prob`) a zipf-skewed
    /// hot page. The stream length is [`TraceConfig::total_accesses`].
    pub fn generate(&self, seed: u64) -> Trace {
        let hot = if self.hot_pages > 0 {
            Some(ZipfSampler::new(self.hot_pages as usize, HOT_SKEW))
        } else {
            None
        };
        Trace {
            config: self.clone(),
            rng: DetRng::new(seed),
            hot,
            iteration: 0,
            position: 0,
        }
    }
}

/// The iterator over a generated trace. Created by
/// [`TraceConfig::generate`].
#[derive(Debug, Clone)]
pub struct Trace {
    config: TraceConfig,
    rng: DetRng,
    hot: Option<ZipfSampler>,
    iteration: usize,
    position: u64,
}

impl Iterator for Trace {
    type Item = PageAccess;

    fn next(&mut self) -> Option<PageAccess> {
        if self.iteration >= self.config.iterations {
            return None;
        }
        let sweep_page = self.position;
        self.position += 1;
        if self.position >= self.config.working_set_pages {
            self.position = 0;
            self.iteration += 1;
        }
        let page = match &self.hot {
            Some(hot) if self.rng.chance(self.config.hot_access_prob) => {
                hot.sample(&mut self.rng) as u64
            }
            _ => sweep_page,
        };
        let write = self.rng.chance(self.config.write_fraction);
        Some(PageAccess {
            page: PageId::new(page),
            write,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .config
            .total_accesses()
            .saturating_sub(self.iteration as u64 * self.config.working_set_pages + self.position)
            as usize;
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn config(pages: u64) -> TraceConfig {
        TraceConfig::scaled_from(catalog::by_name("PageRank").unwrap(), pages)
    }

    #[test]
    fn trace_length_matches_structure() {
        let cfg = config(128);
        let count = cfg.generate(1).count() as u64;
        assert_eq!(count, cfg.total_accesses());
        assert_eq!(count, 128 * 10, "PageRank runs 10 iterations");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = config(64);
        let a: Vec<_> = cfg.generate(5).collect();
        let b: Vec<_> = cfg.generate(5).collect();
        let c: Vec<_> = cfg.generate(6).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds yield different traces");
    }

    #[test]
    fn all_pages_in_working_set() {
        let cfg = config(100);
        for access in cfg.generate(2) {
            assert!(access.page.pfn() < 100);
        }
    }

    #[test]
    fn every_page_eventually_touched() {
        // The sequential sweep guarantees coverage of the cold tail.
        let cfg = TraceConfig {
            hot_access_prob: 0.3,
            ..config(50)
        };
        let touched: HashSet<u64> = cfg.generate(3).map(|a| a.page.pfn()).collect();
        assert!(
            touched.len() > 45,
            "only {} of 50 pages touched",
            touched.len()
        );
    }

    #[test]
    fn hot_pages_dominate_frequency() {
        let cfg = config(1000); // 15% hot, 55% hot-access prob
        let mut counts = vec![0u64; 1000];
        for access in cfg.generate(4) {
            counts[access.page.pfn() as usize] += 1;
        }
        let hot_total: u64 = counts[..150].iter().sum();
        let cold_avg = counts[150..].iter().sum::<u64>() as f64 / 850.0;
        let hot_avg = hot_total as f64 / 150.0;
        assert!(
            hot_avg > cold_avg * 2.0,
            "hot avg {hot_avg:.1} not dominant over cold avg {cold_avg:.1}"
        );
    }

    #[test]
    fn write_fraction_respected() {
        let cfg = config(500);
        let total = cfg.total_accesses() as f64;
        let writes = cfg.generate(5).filter(|a| a.write).count() as f64;
        let fraction = writes / total;
        assert!(
            (fraction - 0.30).abs() < 0.05,
            "write fraction {fraction:.2}, expected ≈0.30"
        );
    }

    #[test]
    fn kv_profile_traces_single_pass() {
        let cfg = TraceConfig::scaled_from(catalog::by_name("Memcached").unwrap(), 64);
        assert_eq!(cfg.iterations, 1);
        assert_eq!(cfg.generate(1).count(), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_size_hint_exact(pages in 1u64..200, seed in 0u64..50) {
            let cfg = config(pages);
            let mut trace = cfg.generate(seed);
            let (lo, hi) = trace.size_hint();
            prop_assert_eq!(Some(lo), hi);
            let mut remaining = lo;
            while trace.next().is_some() {
                remaining -= 1;
                prop_assert_eq!(trace.size_hint().0, remaining);
            }
            prop_assert_eq!(remaining, 0);
        }
    }
}
