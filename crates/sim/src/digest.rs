//! The house digest fold: FNV-1a's xor-then-multiply over bytes, with
//! the prime this repository has always used for its seeds and digests.
//!
//! That prime, `0x1000_0000_01b3` (2⁴⁴ + 0x1b3), is *not* the published
//! 64-bit FNV prime (2⁴⁰ + 0x1b3): `dmem_types::fnv1a64`, the QoS
//! decision digest and the allocator's structural digest use the
//! published one and are a different function. Every RNG stream label,
//! alert-log digest, KV demotion digest and rack report digest goes
//! through [`fold`], so changing it moves every golden at once.

/// Starting value of an empty digest (the FNV-1a 64-bit offset basis).
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x1000_0000_01b3;

/// Folds `bytes` into `hash`, one xor and one multiply per byte. Start
/// from [`OFFSET`]; folding in pieces equals folding the concatenation.
pub fn fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_to_the_rng_label_hash() {
        // `DetRng::fork("chaos.cxl")` hashes its label through this fold:
        // a different value here means every RNG stream has moved.
        assert_eq!(fold(OFFSET, b"chaos.cxl"), 0x612f_38a6_77e9_8e6c);
        assert_eq!(fold(OFFSET, b""), OFFSET);
    }

    #[test]
    fn folding_in_pieces_equals_folding_the_whole() {
        assert_eq!(
            fold(fold(OFFSET, b"chaos"), b".cxl"),
            fold(OFFSET, b"chaos.cxl")
        );
    }
}
