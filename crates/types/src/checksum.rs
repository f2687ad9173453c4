//! Payload checksumming and key hashing.

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;

/// Lane seeds: distinct, so the four lanes are not interchangeable.
const SEEDS: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];

/// Absorbs one little-endian word into a lane. For a fixed lane this is
/// a bijection of the word and for a fixed word a bijection of the lane,
/// so a change confined to one word always changes the lane's final
/// state.
#[inline(always)]
fn absorb(lane: u64, word: &[u8]) -> u64 {
    let word = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
    (lane ^ word.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Computes the 64-bit integrity checksum of `bytes`: four independent
/// `u64` lanes over 32-byte blocks (so the multiplies of one block
/// overlap), the remaining words and bytes absorbed serially, the length
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
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = absorb(lanes[0], &block[..8]);
        lanes[1] = absorb(lanes[1], &block[8..16]);
        lanes[2] = absorb(lanes[2], &block[16..24]);
        lanes[3] = absorb(lanes[3], &block[24..]);
    }
    // Xor of distinct rotations: one changed lane always changes `hash`.
    let mut hash = lanes[0]
        ^ lanes[1].rotate_left(16)
        ^ lanes[2].rotate_left(32)
        ^ lanes[3].rotate_left(48);
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        hash = absorb(hash, word);
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
        // 0..=100 crosses the lane (8), block (32) and tail boundaries.
        for len in 0..=100 {
            assert_every_flip_detected(&mut filler(len));
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

    #[test]
    fn lanes_are_not_interchangeable() {
        let data = filler(96);
        let before = checksum(&data);
        for block in 0..3 {
            for a in 0..4 {
                for b in a + 1..4 {
                    let mut swapped = data.clone();
                    for i in 0..8 {
                        swapped.swap(block * 32 + a * 8 + i, block * 32 + b * 8 + i);
                    }
                    assert_ne!(
                        before,
                        checksum(&swapped),
                        "swap of words {a} and {b} in block {block} undetected"
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
