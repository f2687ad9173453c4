//! The one recency structure: a keyed list ordered from least to most
//! recently used, with O(1) touch, insert, remove and evict.
//!
//! Every bounded hot set in the workspace (resident page frames, KV hot
//! entries, cached RDD blocks) is an [`Lru`]. It has no
//! capacity, weight or policy: byte budgets, pins and where a victim
//! spills to stay with each owner. Its order is that of a per-access tick
//! counter with a `BTreeMap<tick, key>` beside the table — ticks are
//! unique, so list order *is* tick order; a differential test below
//! holds the two together. DESIGN.md § Recency lists the owners.

use crate::IdMap;
use std::borrow::Borrow;
use std::hash::Hash;

/// Slot 0 holds no entry and closes the list into a ring: its `next` is
/// the least recently used slot, its `prev` the most recently used, and
/// an empty list links it to itself — so linking never meets an end.
const SENTINEL: usize = 0;

#[derive(Debug)]
struct Slot<K, V> {
    /// `None` in the sentinel and while the slot waits on the free list.
    entry: Option<(K, V)>,
    prev: usize,
    next: usize,
}

/// A map whose entries are also threaded on a list from least recently
/// used (the next victim) to most recently used. Slots live in a slab
/// and are recycled through a free list, so a warmed-up owner never
/// allocates here. Keys hash through [`IdMap`]: use program-minted keys
/// only.
///
/// # Examples
///
/// ```
/// use dmem_types::Lru;
///
/// let mut lru = Lru::with_capacity(2);
/// assert_eq!(lru.insert("a", 1), None);
/// assert_eq!(lru.insert("b", 2), None);
/// lru.touch("a");
/// assert_eq!(lru.insert("b", 3), Some(2), "the displaced value comes back");
/// assert_eq!(lru.pop_lru(), Some(("a", 1)));
/// ```
#[derive(Debug)]
pub struct Lru<K, V> {
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    index: IdMap<K, usize>,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty list with room for `entries` before reallocation.
    pub fn with_capacity(entries: usize) -> Self {
        let mut slots = Vec::with_capacity(entries + 1);
        slots.push(Slot {
            entry: None,
            prev: SENTINEL,
            next: SENTINEL,
        });
        Lru {
            slots,
            free: Vec::with_capacity(entries),
            index: IdMap::with_capacity_and_hasher(entries, Default::default()),
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether `key` is held. No recency change.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.contains_key(key)
    }

    /// The value under `key`. No recency change.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &slot = self.index.get(key)?;
        self.slots[slot].entry.as_ref().map(|(_, value)| value)
    }

    /// The value under `key`, mutably. No recency change.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &slot = self.index.get(key)?;
        self.value_mut(slot)
    }

    /// Records an access: moves `key` to most recently used and returns
    /// its value; `None` (and no change) if it is not held.
    pub fn touch<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &slot = self.index.get(key)?;
        self.move_to_mru(slot);
        self.value_mut(slot)
    }

    /// Stores `value` under `key` as the most recently used entry and
    /// returns the value it displaced, if `key` was already held.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(held) = self.touch(&key) {
            return Some(std::mem::replace(held, value));
        }
        let entry = Some((key.clone(), value));
        let slot = self.free.pop().unwrap_or(self.slots.len());
        match self.slots.get_mut(slot) {
            Some(free) => free.entry = entry,
            None => self.slots.push(Slot {
                entry,
                prev: SENTINEL,
                next: SENTINEL,
            }),
        }
        self.index.insert(key, slot);
        self.push_mru(slot);
        None
    }

    /// Removes `key` and returns its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.index.remove(key)?;
        self.release(slot).map(|(_, value)| value)
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let (key, value) = self.release(self.slots[SENTINEL].next)?;
        self.index.remove(&key);
        Some((key, value))
    }

    /// Every entry, from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        // Once round the ring: the walk ends back at the empty sentinel.
        let mut at = self.slots[SENTINEL].next;
        std::iter::from_fn(move || {
            let (key, value) = self.slots[at].entry.as_ref()?;
            at = self.slots[at].next;
            Some((key, value))
        })
    }

    fn value_mut(&mut self, slot: usize) -> Option<&mut V> {
        self.slots[slot].entry.as_mut().map(|(_, value)| value)
    }

    /// Empties `slot`, unlinks it and puts it on the free list; `None`
    /// (and no change) for the sentinel, which is all an empty list has.
    fn release(&mut self, slot: usize) -> Option<(K, V)> {
        let entry = self.slots[slot].entry.take()?;
        self.unlink(slot);
        self.free.push(slot);
        Some(entry)
    }

    fn move_to_mru(&mut self, slot: usize) {
        // Already MRU: no list surgery.
        if self.slots[SENTINEL].prev != slot {
            self.unlink(slot);
            self.push_mru(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        self.slots[prev].next = next;
        self.slots[next].prev = prev;
    }

    fn push_mru(&mut self, slot: usize) {
        let tail = self.slots[SENTINEL].prev;
        self.slots[slot].prev = tail;
        self.slots[slot].next = SENTINEL;
        self.slots[tail].next = slot;
        self.slots[SENTINEL].prev = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use std::fmt::Debug;

    /// The structure every owner used to hand-roll — a table of entries
    /// each carrying a tick, and a `BTreeMap<tick, key>` beside it — kept
    /// as the reference the list order is held to.
    struct TickLru<K, V> {
        entries: HashMap<K, (u64, V)>,
        order: BTreeMap<u64, K>,
        tick: u64,
    }

    impl<K: Hash + Eq + Clone, V> TickLru<K, V> {
        fn new() -> Self {
            TickLru {
                entries: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
            }
        }

        fn touch(&mut self, key: &K) -> Option<&mut V> {
            self.tick += 1;
            let (tick, value) = self.entries.get_mut(key)?;
            self.order.remove(&*tick);
            *tick = self.tick;
            self.order.insert(self.tick, key.clone());
            Some(value)
        }

        fn insert(&mut self, key: K, value: V) -> Option<V> {
            self.tick += 1;
            let displaced = self.entries.insert(key.clone(), (self.tick, value));
            if let Some((tick, _)) = &displaced {
                self.order.remove(tick);
            }
            self.order.insert(self.tick, key);
            displaced.map(|(_, value)| value)
        }

        fn remove(&mut self, key: &K) -> Option<V> {
            let (tick, value) = self.entries.remove(key)?;
            self.order.remove(&tick);
            Some(value)
        }

        fn pop_lru(&mut self) -> Option<(K, V)> {
            let (_, key) = self.order.pop_first()?;
            let (_, value) = self.entries.remove(&key).expect("ordered key is held");
            Some((key, value))
        }

        fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
            self.order.values().map(|key| (key, &self.entries[key].1))
        }
    }

    /// Drives both structures with one random op stream over `keys`
    /// distinct keys and compares every return value, the full `iter()`
    /// order every 64 ops, and the closing drain.
    fn differential<K: Hash + Eq + Clone + Debug>(seed: u64, keys: u64, key_of: fn(u64) -> K) {
        let mut rng = proptest::TestRng::seed_from_u64(seed);
        let mut new: Lru<K, u64> = Lru::with_capacity(8);
        let mut old: TickLru<K, u64> = TickLru::new();
        let mut peak = 0;
        for op in 0..20_000u64 {
            let key = key_of(rng.next_u64() % keys);
            match rng.next_u64() % 10 {
                0..=3 => assert_eq!(new.insert(key.clone(), op), old.insert(key, op), "op {op}"),
                4..=6 => {
                    let (a, b) = (new.touch(&key), old.touch(&key));
                    assert_eq!(a, b, "op {op}");
                    if let (Some(a), Some(b)) = (a, b) {
                        *a += 1;
                        *b += 1;
                    }
                }
                7 => assert_eq!(new.remove(&key), old.remove(&key), "op {op}"),
                8 => assert_eq!(new.pop_lru(), old.pop_lru(), "op {op}"),
                _ => {
                    assert_eq!(new.get(&key), old.entries.get(&key).map(|(_, v)| v));
                    assert_eq!(new.contains(&key), old.entries.contains_key(&key));
                }
            }
            assert_eq!(new.len(), old.entries.len());
            assert_eq!(new.index.is_empty(), old.entries.is_empty());
            if op % 64 == 0 {
                assert!(new.iter().eq(old.iter()), "iter order at op {op}");
            }
            // The slab grows only when more is held than ever before:
            // once warm, freed slots are recycled.
            peak = peak.max(new.len());
            assert_eq!(new.slots.len(), 1 + peak, "op {op}");
        }
        assert!(new.iter().eq(old.iter()));
        while let Some(popped) = new.pop_lru() {
            assert_eq!(Some(popped), old.pop_lru());
        }
        assert_eq!(old.pop_lru(), None);
        assert_eq!(new.iter().count(), 0);
    }

    #[test]
    fn differential_against_tick_and_btreemap_u64_keys() {
        differential(0x1b0, 48, |k| k);
        differential(7, 3, |k| k * 4096);
    }

    #[test]
    fn differential_against_tick_and_btreemap_string_keys() {
        differential(0x1b1, 48, |k| format!("key-{k}"));
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut lru = Lru::with_capacity(4);
        lru.insert(1u64, ());
        lru.insert(2, ());
        assert!(lru.touch(&1).is_some()); // 2 is now LRU
        assert!(lru.touch(&9).is_none());
        assert_eq!(lru.pop_lru(), Some((2, ())));
        assert_eq!(lru.pop_lru(), Some((1, ())));
        assert_eq!(lru.pop_lru(), None);
    }

    #[test]
    fn insert_returns_the_displaced_value_and_refreshes() {
        let mut lru = Lru::with_capacity(0);
        assert_eq!(lru.insert("a".to_owned(), vec![1u8; 3]), None);
        assert_eq!(lru.insert("b".to_owned(), vec![2u8; 5]), None);
        assert_eq!(lru.insert("a".to_owned(), vec![3u8; 7]), Some(vec![1u8; 3]));
        assert_eq!(lru.len(), 2);
        let order: Vec<&str> = lru.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(order, ["b", "a"], "a re-inserted key is most recent");
        assert_eq!(lru.get("a"), Some(&vec![3u8; 7]));
    }

    #[test]
    fn get_and_get_mut_leave_order_alone() {
        let mut lru = Lru::with_capacity(2);
        lru.insert(1u32, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(&10));
        *lru.get_mut(&1).unwrap() += 1;
        assert_eq!(lru.pop_lru(), Some((1, 11)), "1 is still the victim");
    }

    #[test]
    fn slab_recycles_slots() {
        let mut lru = Lru::with_capacity(2);
        for round in 0..100u64 {
            lru.insert(round, round % 2 == 0);
            if lru.len() > 2 {
                lru.pop_lru();
            }
        }
        assert_eq!(
            lru.slots.len(),
            1 + 3,
            "sentinel + the three ever held at once"
        );
    }
}
