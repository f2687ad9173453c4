//! Payload checksumming and key hashing.

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;

/// Lane seeds: distinct, so the eight lanes are not interchangeable.
const SEEDS: [u64; 8] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
    0x9b05_688c_2b3e_6c1f,
    0x1f83_d9ab_fb41_bd6b,
    0x5be0_cd19_137e_2179,
];

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Absorbs one word into a block lane with one multiply. Like
/// [`absorb`], a bijection of the word for a fixed lane and of the lane
/// for a fixed word.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).rotate_left(31).wrapping_mul(PRIME_1)
}

/// Absorbs one word into the serial state. For a fixed state this is a
/// bijection of the word and for a fixed word a bijection of the state,
/// so a change confined to one word always changes the final state.
#[inline(always)]
fn absorb(hash: u64, word: u64) -> u64 {
    (hash ^ word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Computes the 64-bit integrity checksum of `bytes`: eight independent
/// `u64` lanes over 64-byte blocks with one multiply per word (so the
/// eight dependency chains of a block overlap), the lanes folded
/// pairwise, the remaining words and bytes absorbed serially, the length
/// folded in, and a final avalanche.
///
/// Stored in [`crate::EntryRecord`] and verified after decompression or
/// a tier read. The value never leaves the process — it is only compared
/// against another value this function computed — so it is not a stable
/// format; key placement that must not drift uses [`fnv1a64`].
///
/// # Examples
///
/// ```
/// use dmem_types::checksum;
///
/// let a = checksum(b"page contents");
/// let b = checksum(b"page contents");
/// assert_eq!(a, b);
/// assert_ne!(a, checksum(b"tampered contents"));
/// ```
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    // A pairwise tree (three absorbs deep, not eight): each absorb is a
    // bijection of either input, so one changed lane always changes
    // `hash`.
    let [a, b, c, d, e, f, g, h] = lanes;
    let mut hash = absorb(
        absorb(absorb(a, b), absorb(c, d)),
        absorb(absorb(e, f), absorb(g, h)),
    );
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        hash = absorb(hash, le_word(word));
    }
    for &b in words.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME_1);
    }
    hash ^= bytes.len() as u64;
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

/// [`fnv1a64`] of nothing: the state a running digest starts from.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Computes the FNV-1a 64-bit hash of `bytes`.
///
/// Byte-serial and a published, stable function: used where a hash
/// decides *placement* (the KV store's key → chunk base), which must not
/// move when the integrity [`checksum`] changes.
///
/// # Examples
///
/// ```
/// use dmem_types::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_OFFSET, bytes)
}

/// Folds `bytes` into a running [`fnv1a64`] state. Start from
/// [`FNV1A64_OFFSET`]; folding in pieces equals hashing the
/// concatenation, which is how the QoS decision digest and the
/// allocator's structural digest grow.
pub fn fnv1a64_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic non-repeating filler (a repeating pattern would make
    /// word swaps no-ops).
    fn filler(len: usize) -> Vec<u8> {
        let mut state = 0x1234_5678_9abc_def0u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    /// Every single-bit flip of `data` must change its checksum.
    fn assert_every_flip_detected(data: &mut [u8]) {
        let before = checksum(data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                data[pos] ^= 1 << bit;
                assert_ne!(
                    before,
                    checksum(data),
                    "flip of bit {bit} at byte {pos} of {} undetected",
                    data.len()
                );
                data[pos] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn single_bit_flips_change_hash_at_every_short_length() {
        // 0..=200 crosses the 64-byte block boundary three times, with
        // every tail of words and bytes in between.
        for len in 0..=200 {
            assert_every_flip_detected(&mut filler(len));
        }
    }

    #[test]
    fn any_change_to_one_page_word_is_detected() {
        // The certainty claim: each step is a bijection of the word, so a
        // nonzero xor into any one of a page's 512 words changes the hash.
        let data = filler(4096);
        let before = checksum(&data);
        for delta in [1u64, 1 << 63, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            for word in 0..512 {
                let mut changed = data.clone();
                let at = word * 8..word * 8 + 8;
                let value = u64::from_le_bytes(changed[at.clone()].try_into().unwrap()) ^ delta;
                changed[at].copy_from_slice(&value.to_le_bytes());
                assert_ne!(before, checksum(&changed), "xor {delta:#x} into word {word}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_hash_at_page_and_blob_sizes() {
        for len in [4096, 65536] {
            let mut data = filler(len);
            let before = checksum(&data);
            for pos in 0..len {
                data[pos] ^= 1 << (pos % 8);
                assert_ne!(before, checksum(&data), "flip at byte {pos} of {len}");
                data[pos] ^= 1 << (pos % 8);
            }
        }
    }

    #[test]
    fn zero_extension_changes_hash() {
        for len in 0..=100 {
            let x = filler(len);
            let mut x_then_zero = x.clone();
            x_then_zero.push(0);
            let mut zero_then_x = vec![0u8];
            zero_then_x.extend_from_slice(&x);
            let (a, b, c) = (checksum(&x), checksum(&x_then_zero), checksum(&zero_then_x));
            assert_ne!(a, b, "x vs x||0 at len {len}");
            assert_ne!(a, c, "x vs 0||x at len {len}");
            // For an all-zero x the two extensions are the same bytes.
            if x_then_zero != zero_then_x {
                assert_ne!(b, c, "x||0 vs 0||x at len {len}");
            }
        }
        // All-zero inputs differ by length alone.
        let zeros = [0u8; 100];
        for len in 0..100 {
            assert_ne!(checksum(&zeros[..len]), checksum(&zeros[..len + 1]));
        }
    }

    /// `data` with its words `a` and `b` (8-byte indices) exchanged.
    fn swap_words(data: &[u8], a: usize, b: usize) -> Vec<u8> {
        let mut swapped = data.to_vec();
        for i in 0..8 {
            swapped.swap(a * 8 + i, b * 8 + i);
        }
        swapped
    }

    #[test]
    fn lanes_are_not_interchangeable() {
        // Two distinct words in different lanes of one 64-byte block.
        let data = filler(3 * 64);
        let before = checksum(&data);
        for block in 0..3 {
            for a in 0..8 {
                for b in a + 1..8 {
                    assert_ne!(
                        before,
                        checksum(&swap_words(&data, block * 8 + a, block * 8 + b)),
                        "swap of lanes {a} and {b} in block {block} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn blocks_are_not_interchangeable_within_a_lane() {
        // Two distinct words in one lane, in two different blocks.
        let data = filler(4 * 64);
        let before = checksum(&data);
        for lane in 0..8 {
            for x in 0..4 {
                for y in x + 1..4 {
                    assert_ne!(
                        before,
                        checksum(&swap_words(&data, x * 8 + lane, y * 8 + lane)),
                        "swap of lane {lane} between blocks {x} and {y} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn fnv1a64_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a64_fold(fnv1a64_fold(FNV1A64_OFFSET, b"foo"), b"bar"),
            fnv1a64(b"foobar")
        );
    }

    proptest! {
        #[test]
        fn prop_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(checksum(&data), checksum(&data));
        }

        #[test]
        fn prop_prefix_sensitivity(data in proptest::collection::vec(any::<u8>(), 1..512)) {
            let mut longer = data.clone();
            longer.push(0xAB);
            prop_assert_ne!(checksum(&data), checksum(&longer));
        }
    }
}
