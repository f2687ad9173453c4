//! Hash maps and sets keyed by identifiers.
//!
//! Every key in this workspace's id-keyed tables is one to three machine
//! words the program itself minted (node, server, entry, queue-pair and
//! region ids, pool offsets, page numbers), so `std`'s keyed SipHash buys
//! no protection and costs tens of cycles per lookup. [`IdHasher`] folds
//! each written word with one rotate, one xor and one multiply.
//!
//! The hasher has no per-process key, so iteration order is a function
//! of the insertion history alone. Nothing may rely on that order all
//! the same: sort wherever order is observable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an id or a small integer (tuple), hashed by
/// [`IdHasher`]. Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids or small integers (tuples), hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd, so multiplying by it permutes the 64-bit words.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// How far `finish` rotates the state.
///
/// A multiply only carries entropy upwards: a key that is a multiple of
/// 2^k yields a product whose low k bits are zero. CXL addresses are
/// 64-byte aligned and pool offsets page aligned, and `std`'s table picks
/// the bucket from the *low* bits, so unrotated they would pile into a
/// handful of buckets. Rotating left by 26 brings the well-mixed high
/// bits down to where the bucket index is read, and still leaves mixed
/// bits in the top seven that the table uses as its in-group tag.
const FINISH_ROTATE: u32 = 26;

/// A word-at-a-time hasher for trusted integer keys: a pure function of
/// the words written, with no per-process state.
///
/// Not for keys that arrive from outside the program — nothing here
/// resists deliberately colliding input.
///
/// # Examples
///
/// ```
/// use dmem_types::{IdMap, NodeId};
///
/// let mut free: IdMap<NodeId, u64> = IdMap::default();
/// free.insert(NodeId::new(3), 4096);
/// assert_eq!(free[&NodeId::new(3)], 4096);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(FINISH_ROTATE)
    }

    /// Byte strings fold as little-endian words, the last one
    /// zero-padded. Ids never come through here; it exists so that any
    /// `Hash` key still works.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntryId, NodeId, ServerId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Distinct values of the twelve bits a 4096-bucket table indexes by.
    fn low_bit_spread(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash_of(k) & 0xfff)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn hash_is_a_pure_function_of_the_written_words() {
        let entry = EntryId::new(ServerId::new(NodeId::new(2), 1), 77);
        assert_eq!(hash_of(entry), hash_of(entry));
        // A derived `Hash` writes one word per field, so the struct and
        // the tuple of its fields hash alike.
        assert_eq!(hash_of(entry), hash_of((2u32, 1u32, 77u64)));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
        let mut by_bytes = IdHasher::default();
        by_bytes.write(&77u64.to_le_bytes());
        assert_eq!(by_bytes.finish(), hash_of(77u64));
    }

    #[test]
    fn same_insertions_iterate_in_the_same_order() {
        let fill = || {
            let mut map: IdMap<u64, u64> = IdMap::default();
            for key in (0..12).map(|k| k * 4096) {
                map.insert(key, key);
            }
            map.remove(&8192);
            map.keys().copied().collect::<Vec<_>>()
        };
        let order = fill();
        assert_eq!(order, fill());
        // No per-process key: the order is the same in every run. (It is
        // `std`'s table layout under this hash, pinned here so a change
        // of either is noticed — nothing else may depend on it.)
        assert_eq!(
            order,
            [0, 12288, 16384, 20480, 28672, 32768, 36864, 40960, 45056, 24576, 4096]
        );
    }

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // Unrotated, the low twelve bits of `k · 4096 · MULTIPLIER` are
        // zero — one bucket for all 4096 keys — and 64-byte-aligned
        // addresses reach 64. Rotated by 26 these measure 3660 and 3428;
        // a uniformly random function would give about 2590.
        let pages = low_bit_spread((0..4096).map(|k| k * 4096));
        assert!(pages >= 1024, "page-aligned keys hit {pages} buckets");
        let lines = low_bit_spread((0..4096u64).map(|k| ((k % 4) << 48) | (64 * (k / 4))));
        assert!(lines >= 1024, "CXL addresses hit {lines} buckets");
    }

    #[test]
    fn entry_id_grid_has_no_collisions() {
        let mut seen = HashSet::new();
        for node in 0..8 {
            for local in 0..2 {
                let owner = ServerId::new(NodeId::new(node), local);
                for key in 0..4096 {
                    assert!(seen.insert(hash_of(EntryId::new(owner, key))));
                }
            }
        }
    }
}
