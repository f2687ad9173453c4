//! Deterministic random streams.
//!
//! Every randomized component (placement, workload generation, failure
//! schedules) takes a [`DetRng`] forked from the cluster seed, so whole
//! experiments are reproducible and components do not perturb each other's
//! streams when the call order changes.

use crate::digest;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator with labelled forking.
///
/// # Examples
///
/// ```
/// use dmem_sim::DetRng;
/// use rand::RngCore;
///
/// let mut root = DetRng::new(42);
/// let mut placement = root.fork("placement");
/// let mut workload = root.fork("workload");
/// // Streams are independent: same labels always yield the same streams.
/// let a: u64 = placement.next_u64();
/// let b: u64 = DetRng::new(42).fork("placement").next_u64();
/// assert_eq!(a, b);
/// # let _ = workload;
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            seed,
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream from a label.
    ///
    /// Forking depends only on the parent seed and the label — not on how
    /// much of the parent stream has been consumed — so adding draws in one
    /// component never shifts another component's stream.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(splitmix(self.seed ^ digest::fold(digest::OFFSET, label.as_bytes())))
    }

    /// Derives an independent child stream from a label and an index,
    /// useful for per-node or per-server streams.
    pub fn fork_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(splitmix(
            self.seed ^ digest::fold(digest::OFFSET, label.as_bytes()) ^ splitmix(index),
        ))
    }

    /// The per-shard stream for `shard` under `root_seed`.
    ///
    /// Each shard of a sharded simulation owns its own stream, derived by
    /// splitmixing the `(root_seed, shard_id)` pair — shards never share
    /// a stream, so one shard's draw count cannot perturb another's, and
    /// the stream does not depend on which worker thread runs the shard.
    /// The constant is ASCII `"shard_id"`, domain-separating these
    /// streams from [`fork`](DetRng::fork)/[`fork_indexed`](DetRng::fork_indexed)
    /// children of the same seed.
    pub fn for_shard(root_seed: u64, shard: u32) -> DetRng {
        DetRng::new(splitmix(
            splitmix(root_seed) ^ splitmix(0x7368_6172_645f_6964 ^ u64::from(shard)),
        ))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The splitmix64 finalizer used for all seed derivation in this crate.
///
/// Public so deterministic models (synthetic page contents, hash-derived
/// placement) can reuse the exact mixing function instead of cloning it.
pub fn splitmix64(x: u64) -> u64 {
    splitmix(x)
}

#[cfg(test)]
mod tests {
    use super::DetRng;
    use proptest::prelude::*;
    use rand::RngCore;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_label_stable() {
        let root = DetRng::new(9);
        let mut f1 = root.fork("x");
        let mut f2 = DetRng::new(9).fork("x");
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn forks_with_distinct_labels_differ() {
        let root = DetRng::new(9);
        assert_ne!(root.fork("a").next_u64(), root.fork("b").next_u64());
        assert_ne!(
            root.fork_indexed("n", 0).next_u64(),
            root.fork_indexed("n", 1).next_u64()
        );
    }

    #[test]
    fn fork_independent_of_consumption() {
        let mut a = DetRng::new(5);
        let b = DetRng::new(5);
        let _ = a.next_u64(); // consume from a only
        assert_eq!(a.fork("z").next_u64(), b.fork("z").next_u64());
    }

    #[test]
    fn for_shard_streams_are_decoupled() {
        // Distinct shards under one root get distinct streams; the same
        // (root, shard) pair always gets the same stream; and draining
        // one shard's stream does not move another's.
        let mut s0 = DetRng::for_shard(42, 0);
        let mut s1 = DetRng::for_shard(42, 1);
        assert_ne!(s0.next_u64(), s1.next_u64());
        for _ in 0..100 {
            s0.next_u64(); // drain shard 0 only
        }
        assert_eq!(
            s1.next_u64(),
            {
                let mut fresh = DetRng::for_shard(42, 1);
                fresh.next_u64();
                fresh.next_u64()
            },
            "shard 1's stream moved when shard 0 drew"
        );
    }

    /// Regression pin (ISSUE 6 satellite): the first 8 draws of each
    /// per-shard stream under root seed 42. A refactor that re-couples
    /// the shard streams (e.g. sharing one stream and interleaving
    /// draws) or changes the (root_seed, shard_id) splitmix derivation
    /// changes these constants and must be caught loudly.
    #[test]
    fn for_shard_first_draws_pinned() {
        let drawn: Vec<Vec<u64>> = (0..4u32)
            .map(|shard| {
                let mut rng = DetRng::for_shard(42, shard);
                (0..8).map(|_| rng.next_u64()).collect()
            })
            .collect();
        let pinned: Vec<Vec<u64>> = PINNED_SHARD_DRAWS.iter().map(|row| row.to_vec()).collect();
        assert_eq!(drawn, pinned, "per-shard RNG streams drifted from the pinned draws");
    }

    const PINNED_SHARD_DRAWS: [[u64; 8]; 4] = [
        [
            16829355891764180607,
            15882058413658173892,
            17820893164338299404,
            5144328381643623652,
            1364873874310483353,
            4366024183538727682,
            13056282451472324527,
            5559001033805495957,
        ],
        [
            8188818255236367244,
            15954405057447964089,
            3231769362227271657,
            12928073294796072163,
            7357096703657010488,
            15284408820465470867,
            8499492202528589663,
            11430423760590759341,
        ],
        [
            5260100335399750961,
            15377860381000620225,
            12927741521746117203,
            7548960515719739315,
            11668138992962888808,
            16860077118446976305,
            14508271676000935388,
            3045326611189230853,
        ],
        [
            18105703923453588421,
            3752928265252563280,
            9382703702612864087,
            13192417234672382593,
            3339302615710553660,
            13959045332006555282,
            13751189682195918058,
            16799462786900488378,
        ],
    ];

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = DetRng::new(1);
        let picks = rng.sample_indices(10, 3);
        assert_eq!(picks.len(), 3);
        let set: HashSet<_> = picks.iter().collect();
        assert_eq!(set.len(), 3);
        assert!(picks.iter().all(|&i| i < 10));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        DetRng::new(0).sample_indices(2, 3);
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = DetRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn prop_unit_in_range(seed in 0u64..1000) {
            let mut rng = DetRng::new(seed);
            for _ in 0..50 {
                let u = rng.unit();
                prop_assert!((0.0..1.0).contains(&u));
            }
        }

        #[test]
        fn prop_below_in_range(seed in 0u64..1000, n in 1usize..10_000) {
            let mut rng = DetRng::new(seed);
            prop_assert!(rng.below(n) < n);
        }
    }
}
