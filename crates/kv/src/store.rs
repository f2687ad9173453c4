//! The cache implementation.

use dmem_core::{chunked, DisaggregatedMemory, TierPreference};
use dmem_types::{fnv1a64, ByteSize, DmemResult, Lru, ServerId};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Statistics of a [`KvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvCacheStats {
    /// Gets served from the in-heap hot set.
    pub hot_hits: u64,
    /// Gets served from disaggregated memory (promoted back to hot).
    pub dm_hits: u64,
    /// Gets that found nothing.
    pub misses: u64,
    /// Set operations.
    pub sets: u64,
    /// Hot entries demoted to disaggregated memory.
    pub demotions: u64,
}

impl KvCacheStats {
    /// Overall hit rate in `[0, 1]`; 0 when no gets were served.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hot_hits + self.dm_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hot_hits + self.dm_hits) as f64 / total as f64
        }
    }
}

/// A Memcached-style cache with a bounded in-heap hot set and a
/// disaggregated-memory overflow tier.
///
/// Values up to 16 MiB are supported (they are chunked into pages when
/// demoted). Keys are arbitrary strings; the overflow tier indexes them
/// by a 52-bit hash, and stored frames carry the full key so a hash
/// collision degrades to a cache miss, never to wrong data.
pub struct KvCache {
    dm: Arc<DisaggregatedMemory>,
    server: ServerId,
    capacity: ByteSize,
    used: ByteSize,
    hot: Lru<String, Vec<u8>>,
    demoted: HashSet<String>,
    stats: KvCacheStats,
}

impl KvCache {
    /// Creates a cache whose hot set holds at most `hot_capacity` of
    /// values.
    pub fn new(dm: Arc<DisaggregatedMemory>, server: ServerId, hot_capacity: ByteSize) -> Self {
        KvCache {
            dm,
            server,
            capacity: hot_capacity,
            used: ByteSize::ZERO,
            hot: Lru::with_capacity(0),
            demoted: HashSet::new(),
            stats: KvCacheStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> KvCacheStats {
        self.stats
    }

    /// Entries currently in the hot set.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Entries currently demoted to disaggregated memory.
    pub fn demoted_len(&self) -> usize {
        self.demoted.len()
    }

    fn base_of(key: &str) -> u64 {
        fnv1a64(key.as_bytes()) >> chunked::CHUNK_BITS
    }

    fn frame(key: &str, value: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + key.len() + value.len());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key.as_bytes());
        out.extend_from_slice(value);
        out
    }

    fn unframe<'a>(frame: &'a [u8], key: &str) -> Option<&'a [u8]> {
        let key_len = u32::from_le_bytes(frame.get(..4)?.try_into().ok()?) as usize;
        if frame.get(4..4 + key_len)? != key.as_bytes() {
            return None; // hash collision: treat as miss
        }
        Some(&frame[4 + key_len..])
    }

    fn demote_until(&mut self, needed: ByteSize) -> DmemResult<()> {
        // Collect every LRU victim first, then spill them in one
        // coalesced batch: per-host fabric verbs are shared across the
        // whole eviction burst instead of paid per value.
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        while self.used + needed > self.capacity {
            let Some((victim, value)) = self.hot.pop_lru() else {
                break;
            };
            self.used -= ByteSize::from(value.len());
            frames.push((Self::base_of(&victim), Self::frame(&victim, &value)));
            self.demoted.insert(victim);
            self.stats.demotions += 1;
        }
        if !frames.is_empty() {
            let items: Vec<(u64, &[u8])> =
                frames.iter().map(|(b, f)| (*b, f.as_slice())).collect();
            chunked::store_chunked_many(&self.dm, self.server, &items, TierPreference::Auto)?;
        }
        Ok(())
    }

    fn insert_hot(&mut self, key: &str, value: Vec<u8>) -> DmemResult<()> {
        // The old value leaves first, so it is neither a victim of the
        // demotion below nor counted against the room the new one needs.
        self.remove_hot(key);
        let size = ByteSize::from(value.len());
        if size > self.capacity {
            // Larger than the whole hot set: straight to the overflow tier.
            chunked::store_chunked(
                &self.dm,
                self.server,
                Self::base_of(key),
                &Self::frame(key, &value),
                TierPreference::Auto,
            )?;
            self.demoted.insert(key.to_owned());
            self.stats.demotions += 1;
            return Ok(());
        }
        self.demote_until(size)?;
        self.used += size;
        self.hot.insert(key.to_owned(), value);
        Ok(())
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// Propagates disaggregated-memory failures from demotions.
    pub fn set(&mut self, key: &str, value: Vec<u8>) -> DmemResult<()> {
        self.stats.sets += 1;
        // A fresh set supersedes any demoted copy.
        if self.demoted.remove(key) {
            chunked::delete_chunked(&self.dm, self.server, Self::base_of(key));
        }
        self.insert_hot(key, value)
    }

    /// Fetches `key`: hot set first, then disaggregated memory (promoting
    /// the entry back to hot).
    ///
    /// # Errors
    ///
    /// Propagates disaggregated-memory failures other than not-found.
    pub fn get(&mut self, key: &str) -> DmemResult<Option<Vec<u8>>> {
        if let Some(value) = self.hot.touch(key) {
            self.stats.hot_hits += 1;
            return Ok(Some(value.clone()));
        }
        if self.demoted.contains(key) {
            let base = Self::base_of(key);
            match chunked::load_chunked(&self.dm, self.server, base) {
                Ok(frame) => {
                    if let Some(value) = Self::unframe(&frame, key) {
                        let value = value.to_vec();
                        self.demoted.remove(key);
                        chunked::delete_chunked(&self.dm, self.server, base);
                        self.insert_hot(key, value.clone())?;
                        self.stats.dm_hits += 1;
                        return Ok(Some(value));
                    }
                    // Collision overwrote our frame: it is gone.
                    self.demoted.remove(key);
                    self.stats.misses += 1;
                    Ok(None)
                }
                Err(_) => {
                    self.demoted.remove(key);
                    self.stats.misses += 1;
                    Ok(None)
                }
            }
        } else {
            self.stats.misses += 1;
            Ok(None)
        }
    }

    fn remove_hot(&mut self, key: &str) {
        if let Some(value) = self.hot.remove(key) {
            self.used -= ByteSize::from(value.len());
        }
    }

    /// Removes `key` from every tier. Returns `true` if it existed.
    #[cfg(test)]
    pub(crate) fn delete(&mut self, key: &str) -> bool {
        let was_hot = self.hot.contains(key);
        self.remove_hot(key);
        let was_demoted = self.demoted.remove(key);
        if was_demoted {
            chunked::delete_chunked(&self.dm, self.server, Self::base_of(key));
        }
        was_hot || was_demoted
    }
}

impl fmt::Debug for KvCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvCache")
            .field("hot", &self.hot.len())
            .field("demoted", &self.demoted.len())
            .field("used", &self.used)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::ClusterConfig;

    fn cache(hot_kib: u64) -> KvCache {
        let dm = Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap());
        let server = dm.servers()[0];
        KvCache::new(dm, server, ByteSize::from_kib(hot_kib))
    }

    #[test]
    fn key_to_chunk_base_is_pinned() {
        // Where a key's chunks live in the demoted tier is FNV-1a of the
        // key above the chunk-index bits. A moved mapping would orphan
        // every demoted value, so it must not follow the integrity hash.
        assert_eq!(KvCache::base_of("user:42"), 0x0006_c151_ea4d_cd22);
    }

    #[test]
    fn set_get_delete() {
        let mut c = cache(64);
        c.set("a", b"1".to_vec()).unwrap();
        assert_eq!(c.get("a").unwrap(), Some(b"1".to_vec()));
        assert!(c.delete("a"));
        assert!(!c.delete("a"));
        assert_eq!(c.get("a").unwrap(), None);
        let stats = c.stats();
        assert_eq!(stats.hot_hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn overflow_demotes_lru_and_promotes_on_access() {
        let mut c = cache(8); // 8 KiB hot set
        for i in 0..8 {
            c.set(&format!("k{i}"), vec![i as u8; 2048]).unwrap();
        }
        assert!(c.stats().demotions >= 4, "half the entries must demote");
        assert!(c.demoted_len() >= 4);
        // The demoted entries are still readable (dm hit + promotion).
        let value = c.get("k0").unwrap();
        assert_eq!(value, Some(vec![0u8; 2048]));
        assert!(c.stats().dm_hits >= 1);
        assert!(c.hot.contains("k0"), "promoted back to hot");
    }

    #[test]
    fn giant_value_goes_straight_to_dm() {
        let mut c = cache(4);
        let big = vec![7u8; 100_000];
        c.set("big", big.clone()).unwrap();
        assert_eq!(c.hot_len(), 0);
        assert_eq!(c.demoted_len(), 1);
        assert_eq!(c.get("big").unwrap(), Some(big));
    }

    #[test]
    fn overwrite_supersedes_demoted_copy() {
        let mut c = cache(4);
        c.set("k", vec![1u8; 2048]).unwrap();
        c.set("f1", vec![2u8; 2048]).unwrap();
        c.set("f2", vec![2u8; 2048]).unwrap(); // k demoted
        assert!(c.demoted.contains("k"));
        c.set("k", b"new".to_vec()).unwrap();
        assert_eq!(c.get("k").unwrap(), Some(b"new".to_vec()));
        assert!(!c.demoted.contains("k"));
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = cache(64);
        c.set("a", b"1".to_vec()).unwrap();
        let _ = c.get("a").unwrap();
        let _ = c.get("nope").unwrap();
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
        let empty = KvCacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn collision_degrades_to_miss_not_wrong_data() {
        let mut c = cache(4);
        c.set("victim", vec![9u8; 2048]).unwrap();
        c.set("f1", vec![0u8; 2048]).unwrap();
        c.set("f2", vec![0u8; 2048]).unwrap(); // victim demoted
        assert!(c.demoted.contains("victim"));
        // Forge a colliding frame: overwrite victim's chunk base with a
        // frame carrying a different key.
        let base = KvCache::base_of("victim");
        let forged = KvCache::frame("attacker", b"evil");
        chunked::store_chunked(&c.dm, c.server, base, &forged, TierPreference::Auto).unwrap();
        assert_eq!(c.get("victim").unwrap(), None, "collision must read as miss");
    }

    #[test]
    fn model_based_random_ops() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::new(
            proptest::test_runner::Config::with_cases(16),
        );
        let ops = proptest::collection::vec(
            (0u8..3, 0u64..24, 1usize..4000),
            1..80,
        );
        runner
            .run(&ops, |ops| {
                let mut cache = cache(8); // tiny hot set: constant churn
                let mut model: std::collections::HashMap<String, Vec<u8>> =
                    std::collections::HashMap::new();
                for (kind, key, len) in ops {
                    let key = format!("k{key}");
                    match kind {
                        0 => {
                            let value = vec![(key.len() + len) as u8; len];
                            cache.set(&key, value.clone()).unwrap();
                            model.insert(key, value);
                        }
                        1 => {
                            let got = cache.get(&key).unwrap();
                            prop_assert_eq!(got.as_ref(), model.get(&key));
                        }
                        _ => {
                            let deleted = cache.delete(&key);
                            prop_assert_eq!(deleted, model.remove(&key).is_some());
                        }
                    }
                }
                // Closing audit across both tiers.
                for (key, value) in &model {
                    let got = cache.get(key).unwrap();
                    prop_assert_eq!(got.as_ref(), Some(value));
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn many_keys_roundtrip_through_tiers() {
        let mut c = cache(16);
        // 64 × 1 KiB values overflow the 16 KiB hot set four times over.
        for i in 0..64u32 {
            c.set(&format!("key-{i}"), vec![i as u8; 1024]).unwrap();
        }
        for i in 0..64u32 {
            assert_eq!(
                c.get(&format!("key-{i}")).unwrap(),
                Some(vec![i as u8; 1024]),
                "key-{i}"
            );
        }
        let stats = c.stats();
        assert!(stats.dm_hits > 0, "cold keys came from disaggregated memory");
        assert_eq!(stats.misses, 0);
    }

    /// `digest::fold` of `(op, key)` for every key a fixed 3000-op stream
    /// demotes (keys that leave in one op fold in key order), captured at
    /// b8ffcf9 — while `hot` was a `HashMap` with a tick per entry and a
    /// `BTreeMap<tick, key>` beside it — before any code changed.
    const DEMOTION_SEQUENCE_FNV: u64 = 0xe0b6_1dc9_81b8_3762;

    #[test]
    fn demotion_sequence_is_pinned() {
        use dmem_sim::{digest, DetRng};
        let mut c = cache(16);
        let keys: Vec<String> = (0..40).map(|k| format!("k{k}")).collect();
        let mut was_demoted = vec![false; keys.len()];
        let mut rng = DetRng::new(0x19);
        let mut fnv = digest::OFFSET;
        for op in 0..3000u32 {
            let k = rng.below(keys.len());
            match rng.below(10) {
                0..=3 => {
                    // 1-in-64 values exceed the whole hot set.
                    let len = if rng.below(64) == 0 { 20_000 } else { 200 + 900 * rng.below(4) };
                    c.set(&keys[k], vec![k as u8; len]).unwrap();
                }
                4..=8 => {
                    c.get(&keys[k]).unwrap();
                }
                _ => {
                    c.delete(&keys[k]);
                }
            }
            for (key, was) in keys.iter().zip(&mut was_demoted) {
                let now = c.demoted.contains(key);
                if now && !*was {
                    fnv = digest::fold(fnv, &op.to_le_bytes());
                    fnv = digest::fold(fnv, key.as_bytes());
                }
                *was = now;
            }
        }
        assert_eq!(c.stats().demotions, 1567);
        assert_eq!(fnv, DEMOTION_SEQUENCE_FNV, "{fnv:#018x}");
    }
}
