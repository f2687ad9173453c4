//! O(1) data structures for the paging hot path.
//!
//! Every access is a touch and every fault scans residency, so recency
//! and residency bookkeeping are the largest constants in the fault loop:
//!
//! * Resident frames are a [`dmem_types::Lru`] of [`FrameFlags`] keyed by
//!   pfn: touch, insert and evict are O(1), the slab recycles its slots
//!   so a warmed-up engine never allocates for them, and the eviction
//!   order is that of the tick + `BTreeMap` structure the engine started
//!   with (held to it by a differential test below).
//! * [`PfnSet`] — backend residency as a growable bitset. Membership,
//!   insert and remove are O(1); ordered ascending iteration (which the
//!   proactive-restore scan relies on for its lowest-address-first
//!   policy) walks set bits from block zero, exactly matching the old
//!   `BTreeSet` iteration order. Page frame numbers are dense small
//!   integers by construction (trace generators draw them from the
//!   working set), which is what makes a bitset the right shape.

use dmem_types::Lru;

/// Per-frame metadata carried in the resident-frame LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFlags {
    /// The page diverged from its backend copy (needs writeback).
    pub dirty: bool,
    /// The page arrived by prefetch and has not been demanded yet.
    pub prefetched: bool,
}

/// Records an access: moves `pfn` to most-recently-used (inserting it if
/// absent), ORs `write` into its dirty bit and sets its prefetched flag
/// to `prefetched`.
pub(crate) fn touch(frames: &mut Lru<u64, FrameFlags>, pfn: u64, write: bool, prefetched: bool) {
    match frames.touch(&pfn) {
        Some(flags) => {
            flags.dirty |= write;
            flags.prefetched = prefetched;
        }
        None => {
            frames.insert(
                pfn,
                FrameFlags {
                    dirty: write,
                    prefetched,
                },
            );
        }
    }
}

/// A growable bitset over page frame numbers with ordered iteration.
#[derive(Debug, Default)]
pub struct PfnSet {
    blocks: Vec<u64>,
    len: usize,
}

impl PfnSet {
    /// An empty set.
    pub(crate) fn new() -> Self {
        PfnSet::default()
    }

    /// `true` when no pfn is present.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `pfn` is in the set.
    pub(crate) fn contains(&self, pfn: u64) -> bool {
        let block = (pfn / 64) as usize;
        self.blocks
            .get(block)
            .is_some_and(|b| b & (1u64 << (pfn % 64)) != 0)
    }

    /// Inserts `pfn`; returns `true` if it was absent.
    pub(crate) fn insert(&mut self, pfn: u64) -> bool {
        let block = (pfn / 64) as usize;
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let bit = 1u64 << (pfn % 64);
        let fresh = self.blocks[block] & bit == 0;
        self.blocks[block] |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `pfn`; returns `true` if it was present.
    pub(crate) fn remove(&mut self, pfn: u64) -> bool {
        let block = (pfn / 64) as usize;
        let Some(b) = self.blocks.get_mut(block) else {
            return false;
        };
        let bit = 1u64 << (pfn % 64);
        let present = *b & bit != 0;
        *b &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Iterates members in ascending order (the old `BTreeSet` order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, &bits)| bits != 0)
            .flat_map(|(block, &bits)| {
                let base = block as u64 * 64;
                BitIter { bits, base }
            })
    }
}

struct BitIter {
    bits: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        if self.bits == 0 {
            return None;
        }
        let tz = self.bits.trailing_zeros() as u64;
        self.bits &= self.bits - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::DetRng;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// The engine's original tick-based structure, kept verbatim as the
    /// reference implementation for the differential test.
    #[derive(Default)]
    struct TickLru {
        resident: HashMap<u64, (u64, bool, bool)>, // pfn -> (tick, dirty, prefetched)
        lru: BTreeMap<u64, u64>,                   // tick -> pfn
        tick: u64,
    }

    impl TickLru {
        fn touch(&mut self, pfn: u64, write: bool, prefetched: bool) {
            self.tick += 1;
            if let Some(&(tick, _, _)) = self.resident.get(&pfn) {
                self.lru.remove(&tick);
            }
            let dirty = write || self.resident.get(&pfn).map(|r| r.1).unwrap_or(false);
            self.resident.insert(pfn, (self.tick, dirty, prefetched));
            self.lru.insert(self.tick, pfn);
        }

        fn pop_lru(&mut self) -> Option<(u64, FrameFlags)> {
            let (&tick, &pfn) = self.lru.iter().next()?;
            self.lru.remove(&tick);
            let (_, dirty, prefetched) = self.resident.remove(&pfn).expect("victim resident");
            Some((pfn, FrameFlags { dirty, prefetched }))
        }
    }

    #[test]
    fn differential_10k_accesses_identical_victim_sequence() {
        let mut rng = DetRng::new(0x1b0);
        let mut new = Lru::with_capacity(64);
        let mut old = TickLru::default();
        let mut victims_new = Vec::new();
        let mut victims_old = Vec::new();
        for _ in 0..10_000 {
            if new.len() > 48 || (new.len() > 0 && rng.chance(0.3)) {
                victims_new.push(new.pop_lru());
                victims_old.push(old.pop_lru());
            } else {
                let pfn = rng.below(96) as u64;
                let write = rng.chance(0.4);
                let prefetched = rng.chance(0.1);
                touch(&mut new, pfn, write, prefetched);
                old.touch(pfn, write, prefetched);
            }
            assert_eq!(new.len(), old.resident.len());
        }
        // Drain the rest so the full eviction order is compared.
        while let Some(v) = new.pop_lru() {
            victims_new.push(Some(v));
            victims_old.push(old.pop_lru());
        }
        assert_eq!(
            victims_new, victims_old,
            "O(1) LRU must evict in the exact order of the tick-based structure"
        );
    }

    #[test]
    fn mru_fast_path_keeps_flags_fresh() {
        let mut lru = Lru::with_capacity(4);
        touch(&mut lru, 1, false, true);
        touch(&mut lru, 1, true, false); // already MRU: still ORs dirty, clears prefetched
        let flags = lru.get(&1).unwrap();
        assert!(flags.dirty);
        assert!(!flags.prefetched);
        touch(&mut lru, 1, false, false); // dirty stays sticky
        assert!(lru.get(&1).unwrap().dirty);
    }

    #[test]
    fn pfn_set_matches_btreeset() {
        let mut rng = DetRng::new(7);
        let mut set = PfnSet::new();
        let mut reference = BTreeSet::new();
        for _ in 0..5_000 {
            let pfn = rng.below(512) as u64;
            if rng.chance(0.4) {
                assert_eq!(set.remove(pfn), reference.remove(&pfn));
            } else {
                assert_eq!(set.insert(pfn), reference.insert(pfn));
            }
            assert_eq!(set.len, reference.len());
        }
        let scan: Vec<u64> = set.iter().collect();
        let want: Vec<u64> = reference.iter().copied().collect();
        assert_eq!(scan, want, "ordered iteration must match BTreeSet");
        for pfn in 0..512 {
            assert_eq!(set.contains(pfn), reference.contains(&pfn));
        }
    }

    #[test]
    fn pfn_set_handles_block_boundaries() {
        let mut set = PfnSet::new();
        for pfn in [0u64, 63, 64, 127, 128, 1000] {
            assert!(set.insert(pfn));
            assert!(!set.insert(pfn), "double insert reports absent");
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 1000]);
        assert!(set.remove(64));
        assert!(!set.remove(64));
        assert!(!set.contains(64));
        assert_eq!(set.len, 5);
    }
}
