//! Deterministic random streams.
//!
//! Every randomized component (placement, workload generation, failure
//! schedules) takes a [`DetRng`] forked from the cluster seed, so whole
//! experiments are reproducible and components do not perturb each other's
//! streams when the call order changes.

use crate::digest;

/// A deterministic random number generator with labelled forking.
///
/// The generator is xoshiro256++, its state expanded from the seed by
/// SplitMix64. `shims/proptest` keeps a private copy of the same
/// generator as its `TestRng`; a test here holds the two to one stream.
///
/// # Examples
///
/// ```
/// use dmem_sim::DetRng;
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
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 seed expansion: the first four outputs of the
        // splitmix stream that starts at `seed`.
        let s = std::array::from_fn(|i| {
            splitmix64(seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        });
        DetRng { seed, s }
    }

    /// Derives an independent child stream from a label.
    ///
    /// Forking depends only on the parent seed and the label — not on how
    /// much of the parent stream has been consumed — so adding draws in one
    /// component never shifts another component's stream.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(splitmix64(
            self.seed ^ digest::fold(digest::OFFSET, label.as_bytes()),
        ))
    }

    /// Derives an independent child stream from a label and an index,
    /// useful for per-node or per-server streams.
    pub fn fork_indexed(&self, label: &str, index: u64) -> DetRng {
        DetRng::new(splitmix64(
            self.seed ^ digest::fold(digest::OFFSET, label.as_bytes()) ^ splitmix64(index),
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
        DetRng::new(splitmix64(
            splitmix64(root_seed) ^ splitmix64(0x7368_6172_645f_6964 ^ u64::from(shard)),
        ))
    }

    /// The next 64 random bits (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills `dest` with random bytes: one whole draw per started 8-byte
    /// chunk, little-endian.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        // Whole words in fixed-size copies; only the tail's length varies.
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            tail.copy_from_slice(&self.next_u64().to_le_bytes()[..tail.len()]);
        }
    }

    /// Uniform draw in `[0, 1)`: 53 uniform mantissa bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        (u128::from(self.next_u64()) % n as u128) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
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

/// The splitmix64 finalizer used for all seed derivation in this crate.
///
/// Public so deterministic models (synthetic page contents, hash-derived
/// placement) can reuse the exact mixing function instead of cloning it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::DetRng;
    use proptest::prelude::*;
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

    /// What one `DetRng::new(seed)` stream yields, drawn in field order.
    #[derive(Debug, PartialEq)]
    struct StreamPin {
        words: [u64; 8],
        unit_bits: [u64; 8],
        below_7: usize,
        below_2_62: usize,
        chance_0_3: bool,
        bytes: [u8; 13],
        shuffled: [u32; 10],
    }

    fn draw_pin(seed: u64) -> StreamPin {
        let mut rng = DetRng::new(seed);
        let words = std::array::from_fn(|_| rng.next_u64());
        let unit_bits = std::array::from_fn(|_| rng.unit().to_bits());
        let below_7 = rng.below(7);
        let below_2_62 = rng.below(1 << 62);
        let chance_0_3 = rng.chance(0.3);
        let mut bytes = [0u8; 13];
        rng.fill_bytes(&mut bytes);
        let mut shuffled = std::array::from_fn(|i| i as u32);
        rng.shuffle(&mut shuffled);
        StreamPin {
            words,
            unit_bits,
            below_7,
            below_2_62,
            chance_0_3,
            bytes,
            shuffled,
        }
    }

    /// Regression pin: every derivation of a `DetRng::new` stream at
    /// three seeds. Every golden CSV and chaos digest is drawn from these
    /// streams, so a change to the generator, its seed expansion or a
    /// derivation must leave them the same, draw for draw.
    #[test]
    fn new_streams_pinned() {
        for (seed, pin) in PINNED_STREAMS {
            assert_eq!(draw_pin(seed), pin, "DetRng::new({seed:#x}) drifted");
        }
    }

    /// The proptest shim's `TestRng` is a private copy of this generator
    /// (it cannot depend on this crate); the two must give one stream.
    #[test]
    fn proptest_rng_is_the_same_stream() {
        for seed in [0, 7, 0xdead_beef, u64::MAX] {
            let mut ours = DetRng::new(seed);
            let mut theirs = proptest::TestRng::seed_from_u64(seed);
            for i in 0..64 {
                assert_eq!(
                    ours.next_u64(),
                    theirs.next_u64(),
                    "seed {seed:#x}, draw {i}"
                );
            }
        }
    }

    const PINNED_STREAMS: [(u64, StreamPin); 3] = [
        (
            0,
            StreamPin {
                words: [
                    5987356902031041503,
                    7051070477665621255,
                    6633766593972829180,
                    211316841551650330,
                    9136120204379184874,
                    379361710973160858,
                    15813423377499357806,
                    15596884590815070553,
                ],
                unit_bits: [
                    4598983807939961468,
                    4590013529041420872,
                    4599337545279582310,
                    4589425337114929736,
                    4592174451281597960,
                    4591424302423800544,
                    4589405037653437456,
                    4600883638806463780,
                ],
                below_7: 1,
                below_2_62: 2112337836944366787,
                chance_0_3: false,
                bytes: [225, 8, 121, 63, 121, 53, 50, 103, 220, 251, 53, 69, 235],
                shuffled: [6, 0, 4, 3, 9, 5, 1, 8, 7, 2],
            },
        ),
        (
            7,
            StreamPin {
                words: [
                    1021219803524665661,
                    3174977118032272916,
                    13236943193235544178,
                    7880630202246103356,
                    17776380574336353142,
                    8590716767756797065,
                    13353728918970868608,
                    6084463542373836072,
                ],
                unit_bits: [
                    4607023195397190528,
                    4589945074327601424,
                    4592896369390868240,
                    4595363825524192468,
                    4604784915991872024,
                    4592813109062953496,
                    4602582174832554528,
                    4591673912827270368,
                ],
                below_7: 1,
                below_2_62: 3402098188805647038,
                chance_0_3: true,
                bytes: [156, 179, 198, 163, 246, 89, 57, 202, 244, 189, 221, 190, 31],
                shuffled: [6, 3, 8, 4, 1, 9, 5, 2, 7, 0],
            },
        ),
        (
            0xdead_beef,
            StreamPin {
                words: [
                    887788264254705374,
                    3131310381243359458,
                    13700943409776775970,
                    6855428166950120087,
                    16142291723720382552,
                    4857730991252279843,
                    9440362974109087444,
                    12100820404280242201,
                ],
                unit_bits: [
                    4598097502048840360,
                    4587363520541976864,
                    4593969114264312796,
                    4600848127643834350,
                    4566753729646597376,
                    4602418420755037478,
                    4591906091304741696,
                    4605370834907786169,
                ],
                below_7: 6,
                below_2_62: 2835599448999328161,
                chance_0_3: false,
                bytes: [22, 191, 174, 152, 216, 194, 94, 224, 150, 126, 231, 178, 31],
                shuffled: [7, 9, 3, 2, 5, 4, 8, 0, 6, 1],
            },
        ),
    ];

    #[test]
    fn chance_respects_extremes() {
        let mut rng = DetRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    /// `fill_bytes` against a per-chunk reference at every tail length:
    /// one draw per started 8-byte chunk, its little-endian prefix, and
    /// no draw more or less (the next draw is the reference's next).
    #[test]
    fn fill_bytes_matches_per_chunk_reference() {
        for len in (0..=17).chain([3_001]) {
            let mut rng = DetRng::new(0x5EED + len as u64);
            let mut reference = rng.clone();
            let mut got = vec![0xAA; len];
            rng.fill_bytes(&mut got);
            let mut want = Vec::with_capacity(len);
            while want.len() < len {
                let word = reference.next_u64().to_le_bytes();
                let take = (len - want.len()).min(8);
                want.extend_from_slice(&word[..take]);
            }
            assert_eq!(got, want, "bytes at length {len}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "stream after length {len}");
        }
    }

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
