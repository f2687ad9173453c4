//! The executor block manager: bounded memory store with LRU eviction
//! and a pluggable spill tier.
//!
//! Vanilla Spark (`MEMORY_AND_DISK`) spills evicted cached partitions to
//! the executor's local disk; DAHI redirects the spill to disaggregated
//! memory — node shared pool first, then cluster remote memory — in
//! page-sized chunks (its prototype rides Accelio's 8 KiB messages; ours
//! rides the 4 KiB entry path of `dmem-core`).

use crate::record::{deserialize_partition, serialize_partition, Record};
use dmem_core::{DiskTier, DisaggregatedMemory};
use dmem_sim::{CostModel, SimClock};
use dmem_types::{ByteSize, DmemResult, EntryId, Lru, NodeId, ServerId, PAGE_SIZE};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies one cached partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Owning RDD.
    pub rdd: u64,
    /// Partition index.
    pub partition: usize,
}

impl BlockId {
    /// Creates a block id.
    pub(crate) fn new(rdd: u64, partition: usize) -> Self {
        BlockId { rdd, partition }
    }

    /// Key prefix for chunked off-heap storage: 16 bits of chunk space.
    fn chunk_key(&self, chunk: u64) -> u64 {
        (self.rdd << 36) | ((self.partition as u64) << 16) | chunk
    }
}

/// Where evicted blocks go.
pub enum SpillBackend {
    /// Vanilla Spark: executor-local disk.
    VanillaDisk {
        /// The simulated disk.
        disk: DiskTier,
        /// Node owning the disk.
        node: NodeId,
        /// Executor identity (namespaces disk entries).
        server: ServerId,
    },
    /// DAHI: off-heap disaggregated memory.
    Dahi {
        /// The assembled disaggregated memory cluster.
        dm: Arc<DisaggregatedMemory>,
        /// The executor's virtual-server identity on that cluster.
        server: ServerId,
    },
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Reads served from executor memory.
    pub memory_hits: u64,
    /// Reads served from the spill tier.
    pub spill_hits: u64,
    /// Reads that found nothing (caller recomputes from lineage).
    pub misses: u64,
    /// Blocks written to the spill tier.
    pub spills: u64,
    /// Blocks evicted from memory.
    pub evictions: u64,
}

/// The canonical serialized form of a block plus its parsed records.
///
/// Reads are served as `Arc` clones of `records` instead of re-parsing
/// `bytes` on every `get` — the deserialization loop (one `Vec<f64>`
/// allocation per record, tens of millions of records across a fig10
/// run) dominated the real CPU profile before this. Spill-tier reads are
/// byte-guarded: the bytes coming back from the tier must equal `bytes`
/// for the cached parse to be served, so a corrupted or stale tier read
/// still goes through `deserialize_partition` and fails (or re-parses)
/// exactly as without the cache. Virtual-time charges are unaffected.
struct ParsedBlock {
    bytes: Vec<u8>,
    records: Arc<Vec<Record>>,
}

/// The bounded-memory block store of one executor.
pub struct BlockManager {
    clock: SimClock,
    cost: CostModel,
    capacity: ByteSize,
    used: ByteSize,
    /// Serialized length of every block in executor memory.
    memory: Lru<BlockId, usize>,
    spilled: HashMap<BlockId, usize>, // serialized length
    /// Parse cache over every block this manager has seen (memory or
    /// spill tier); memory use is bounded by the job's dataset, which a
    /// single-run manager holds anyway.
    parsed: HashMap<BlockId, ParsedBlock>,
    backend: SpillBackend,
    stats: BlockStats,
}

impl BlockManager {
    /// Creates a block manager with `capacity` of executor cache memory.
    pub(crate) fn new(capacity: ByteSize, clock: SimClock, cost: CostModel, backend: SpillBackend) -> Self {
        BlockManager {
            clock,
            cost,
            capacity,
            used: ByteSize::ZERO,
            memory: Lru::with_capacity(0),
            spilled: HashMap::new(),
            parsed: HashMap::new(),
            backend,
            stats: BlockStats::default(),
        }
    }

    /// Statistics so far.
    pub(crate) fn stats(&self) -> BlockStats {
        self.stats
    }

    fn spill_out(&mut self, id: BlockId, bytes: Vec<u8>) -> DmemResult<()> {
        let len = bytes.len();
        let span = self.clock.tracer().span("rdd", "spill.out");
        span.tag("bytes", len);
        span.tag(
            "tier",
            match &self.backend {
                SpillBackend::VanillaDisk { .. } => "disk",
                SpillBackend::Dahi { .. } => "dmem",
            },
        );
        match &mut self.backend {
            SpillBackend::VanillaDisk { disk, node, server } => {
                disk.store(*node, EntryId::new(*server, id.chunk_key(0)), bytes);
            }
            SpillBackend::Dahi { dm, server } => {
                let batch: Vec<(u64, Vec<u8>)> = bytes
                    .chunks(PAGE_SIZE)
                    .enumerate()
                    .map(|(i, c)| (id.chunk_key(i as u64), c.to_vec()))
                    .collect();
                dm.put_batch(*server, batch, dmem_core::TierPreference::Auto)?;
            }
        }
        self.spilled.insert(id, len);
        self.stats.spills += 1;
        Ok(())
    }

    fn spill_in(&mut self, id: BlockId) -> DmemResult<Vec<u8>> {
        let len = *self.spilled.get(&id).expect("caller checked membership");
        let span = self.clock.tracer().span("rdd", "spill.in");
        span.tag("bytes", len);
        span.tag(
            "tier",
            match &self.backend {
                SpillBackend::VanillaDisk { .. } => "disk",
                SpillBackend::Dahi { .. } => "dmem",
            },
        );
        match &self.backend {
            SpillBackend::VanillaDisk { disk, node, server } => {
                disk.load(*node, EntryId::new(*server, id.chunk_key(0)))
            }
            SpillBackend::Dahi { dm, server } => {
                let chunks = len.div_ceil(PAGE_SIZE) as u64;
                let keys: Vec<u64> = (0..chunks).map(|c| id.chunk_key(c)).collect();
                let parts = dm.get_batch(*server, &keys)?;
                let mut out = Vec::with_capacity(len);
                for part in parts {
                    out.extend_from_slice(&part);
                }
                Ok(out)
            }
        }
    }

    /// Deletes the block's spilled copy, if it has one: the entry on the
    /// local disk, or every chunk on the cluster.
    fn drop_spilled(&mut self, id: BlockId) {
        let Some(len) = self.spilled.remove(&id) else {
            return;
        };
        match &mut self.backend {
            SpillBackend::VanillaDisk { disk, node, server } => {
                let _ = disk.delete(*node, EntryId::new(*server, id.chunk_key(0)));
            }
            SpillBackend::Dahi { dm, server } => {
                for chunk in 0..len.div_ceil(PAGE_SIZE) as u64 {
                    let _ = dm.delete(*server, id.chunk_key(chunk));
                }
            }
        }
    }

    fn evict_until(&mut self, needed: ByteSize) -> DmemResult<()> {
        while self.used + needed > self.capacity {
            let Some((victim, len)) = self.memory.pop_lru() else {
                break;
            };
            self.used -= ByteSize::from(len);
            self.stats.evictions += 1;
            // A block is in memory or spilled, never both (see `put`).
            debug_assert!(!self.spilled.contains_key(&victim), "{victim:?} is in memory and spilled");
            let bytes = self.parsed[&victim].bytes.clone();
            self.spill_out(victim, bytes)?;
        }
        Ok(())
    }

    /// Caches a partition (serializing it) and returns the shared handle
    /// reads will serve. Blocks larger than the whole cache go straight
    /// to the spill tier.
    ///
    /// A put replaces the block: its previous copy leaves memory and the
    /// spill tier first. So a block is in memory or spilled, never both,
    /// and a spilled copy is always the bytes of the block's last put.
    ///
    /// # Errors
    ///
    /// Propagates spill-tier failures.
    pub(crate) fn put(&mut self, id: BlockId, records: Vec<Record>) -> DmemResult<Arc<Vec<Record>>> {
        if let Some(displaced) = self.memory.remove(&id) {
            self.used -= ByteSize::from(displaced);
        }
        self.drop_spilled(id);
        let bytes = serialize_partition(&records);
        // Serialization cost: one memory pass over the payload.
        self.clock.advance(self.cost.dram.transfer(bytes.len()));
        let size = ByteSize::from(bytes.len());
        let records = Arc::new(records);
        self.parsed.insert(
            id,
            ParsedBlock {
                bytes: bytes.clone(),
                records: Arc::clone(&records),
            },
        );
        if size > self.capacity {
            self.spill_out(id, bytes)?;
            return Ok(records);
        }
        self.evict_until(size)?;
        self.used += size;
        self.memory.insert(id, bytes.len());
        Ok(records)
    }

    /// Fetches a cached partition: executor memory, then the spill tier.
    /// `None` means the caller must recompute from lineage.
    ///
    /// # Errors
    ///
    /// Propagates spill-tier read failures.
    pub(crate) fn get(&mut self, id: BlockId) -> DmemResult<Option<Arc<Vec<Record>>>> {
        if let Some(&mut len) = self.memory.touch(&id) {
            // The in-memory bytes are exactly what `put` serialized, so
            // the cached parse is served without a guard.
            self.clock.advance(self.cost.dram.transfer(len));
            self.stats.memory_hits += 1;
            return Ok(Some(Arc::clone(&self.parsed[&id].records)));
        }
        if self.spilled.contains_key(&id) {
            let bytes = self.spill_in(id)?;
            self.clock.advance(self.cost.dram.transfer(bytes.len()));
            let records = match self.parsed.get(&id) {
                // Byte guard: tier bytes must equal the serialized form
                // we remembered for the cached parse to be valid.
                Some(block) if block.bytes == bytes => Arc::clone(&block.records),
                _ => {
                    let records = Arc::new(deserialize_partition(&bytes)?);
                    self.parsed.insert(
                        id,
                        ParsedBlock {
                            bytes,
                            records: Arc::clone(&records),
                        },
                    );
                    records
                }
            };
            self.stats.spill_hits += 1;
            return Ok(Some(records));
        }
        self.stats.misses += 1;
        Ok(None)
    }

    /// `true` if the block is cached anywhere.
    #[cfg(test)]
    pub(crate) fn contains(&self, id: BlockId) -> bool {
        self.memory.contains(&id) || self.spilled.contains_key(&id)
    }
}

impl fmt::Debug for BlockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockManager")
            .field("capacity", &self.capacity)
            .field("used", &self.used)
            .field("memory_blocks", &self.memory.len())
            .field("spilled_blocks", &self.spilled.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::ClusterConfig;

    fn records(n: usize, tag: f64) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as u64, vec![tag; 8])).collect()
    }

    fn disk_bm(capacity: ByteSize) -> (SimClock, BlockManager) {
        let clock = SimClock::new();
        let cost = CostModel::paper_default();
        let node = NodeId::new(0);
        let backend = SpillBackend::VanillaDisk {
            disk: DiskTier::new(clock.clone(), cost),
            node,
            server: ServerId::new(node, 0),
        };
        (clock.clone(), BlockManager::new(capacity, clock, cost, backend))
    }

    fn dahi_bm(capacity: ByteSize) -> (Arc<DisaggregatedMemory>, BlockManager) {
        let dm = Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap());
        let server = dm.servers()[0];
        let clock = dm.clock().clone();
        let backend = SpillBackend::Dahi {
            dm: Arc::clone(&dm),
            server,
        };
        let bm = BlockManager::new(capacity, clock, CostModel::paper_default(), backend);
        (dm, bm)
    }

    #[test]
    fn memory_hit_roundtrip() {
        let (_, mut bm) = disk_bm(ByteSize::from_mib(1));
        let id = BlockId::new(1, 0);
        bm.put(id, records(100, 1.0)).unwrap();
        let got = bm.get(id).unwrap().unwrap();
        assert_eq!(*got, records(100, 1.0));
        assert_eq!(bm.stats().memory_hits, 1);
        assert_eq!(bm.stats().spills, 0);
    }

    #[test]
    fn overflow_spills_lru_to_disk() {
        // Each 100-record block is ~7.4 KB; capacity fits two.
        let (_, mut bm) = disk_bm(ByteSize::from_kib(16));
        for p in 0..4 {
            bm.put(BlockId::new(1, p), records(100, p as f64)).unwrap();
        }
        assert!(bm.stats().spills >= 2);
        // Everything still readable, spilled or not.
        for p in 0..4 {
            let got = bm.get(BlockId::new(1, p)).unwrap().unwrap();
            assert_eq!(*got, records(100, p as f64));
        }
        assert!(bm.stats().spill_hits >= 2);
    }

    #[test]
    fn vanilla_spill_read_costs_disk_time() {
        let (clock, mut bm) = disk_bm(ByteSize::from_kib(12));
        bm.put(BlockId::new(1, 0), records(100, 0.0)).unwrap();
        bm.put(BlockId::new(1, 1), records(100, 1.0)).unwrap(); // evicts 0
        let t0 = clock.now();
        let _ = bm.get(BlockId::new(1, 0)).unwrap().unwrap();
        assert!((clock.now() - t0).as_millis_f64() > 3.0, "disk spill read");
    }

    #[test]
    fn dahi_spill_read_is_fast() {
        let (_, mut bm) = dahi_bm(ByteSize::from_kib(12));
        let clock = bm.clock.clone();
        bm.put(BlockId::new(1, 0), records(100, 0.0)).unwrap();
        bm.put(BlockId::new(1, 1), records(100, 1.0)).unwrap(); // evicts 0
        let t0 = clock.now();
        let got = bm.get(BlockId::new(1, 0)).unwrap().unwrap();
        assert_eq!(*got, records(100, 0.0));
        assert!(
            (clock.now() - t0).as_millis_f64() < 1.0,
            "DAHI spill read must be sub-millisecond"
        );
    }

    #[test]
    fn dahi_chunks_large_blocks() {
        let (dm, mut bm) = dahi_bm(ByteSize::from_kib(4));
        // ~30 KB block: cannot fit the cache at all, goes off-heap in
        // eight 4 KiB chunks.
        bm.put(BlockId::new(2, 0), records(400, 3.0)).unwrap();
        assert!(dm.stats().entries >= 8);
        let got = bm.get(BlockId::new(2, 0)).unwrap().unwrap();
        assert_eq!(got.len(), 400);
    }

    #[test]
    fn miss_returns_none() {
        let (_, mut bm) = disk_bm(ByteSize::from_kib(64));
        assert!(bm.get(BlockId::new(9, 9)).unwrap().is_none());
        assert_eq!(bm.stats().misses, 1);
        assert!(!bm.contains(BlockId::new(9, 9)));
    }

    #[test]
    fn lru_eviction_order() {
        let (_, mut bm) = disk_bm(ByteSize::from_kib(16));
        let (a, b, c) = (BlockId::new(1, 0), BlockId::new(1, 1), BlockId::new(1, 2));
        bm.put(a, records(100, 0.0)).unwrap();
        bm.put(b, records(100, 1.0)).unwrap();
        let _ = bm.get(a).unwrap(); // refresh a
        bm.put(c, records(100, 2.0)).unwrap(); // must evict b
        assert!(bm.memory.contains(&a));
        assert!(!bm.memory.contains(&b));
        assert!(bm.spilled.contains_key(&b));
    }

    #[test]
    fn putting_a_block_twice_counts_it_once() {
        let (_, mut bm) = disk_bm(ByteSize::from_kib(16));
        let id = BlockId::new(1, 0);
        bm.put(id, records(100, 0.0)).unwrap();
        let one_block = bm.used;
        bm.put(id, records(100, 0.0)).unwrap();
        assert_eq!(bm.used, one_block, "the displaced copy's bytes are taken back");
        // Evicting past the doubled block used to find its id twice in
        // the recency index and panic on the second.
        for p in 1..6 {
            bm.put(BlockId::new(1, p), records(100, p as f64)).unwrap();
        }
        assert!(bm.used <= ByteSize::from_kib(16));
        assert_eq!(*bm.get(id).unwrap().unwrap(), records(100, 0.0));
    }

    /// Differential test against a map of each block's last put, over
    /// put / re-put / get / evict on both spill backends: whichever tier
    /// serves a read, it returns the records of the block's latest put.
    #[test]
    fn reads_match_a_model_of_last_puts() {
        use dmem_sim::DetRng;
        for dahi in [false, true] {
            let capacity = ByteSize::from_kib(16);
            let mut bm = if dahi { dahi_bm(capacity).1 } else { disk_bm(capacity).1 };
            let mut model: HashMap<BlockId, Vec<Record>> = HashMap::new();
            let mut rng = DetRng::new(0xb3);
            for op in 0..600u32 {
                let id = BlockId::new(1, rng.below(6));
                match rng.below(8) {
                    // Put or re-put fresh records: 40..=200 records
                    // (~3-15 KiB), and 1 in 8 larger than the cache.
                    0..=2 => {
                        let n = if rng.below(8) == 0 { 300 } else { 40 + 40 * rng.below(5) };
                        let fresh = records(n, f64::from(op));
                        bm.put(id, fresh.clone()).unwrap();
                        model.insert(id, fresh);
                    }
                    3 => bm.evict_until(capacity).unwrap(),
                    _ => {
                        let got = bm.get(id).unwrap();
                        let current = got.as_deref() == model.get(&id);
                        assert!(current, "op {op}: {id:?} read stale records (dahi {dahi})");
                    }
                }
            }
            assert!(bm.stats().spill_hits > 0 && bm.stats().memory_hits > 0);
        }
    }

    /// `digest::fold` of `(op, partition)` for every block a fixed 2000-op
    /// put/get stream evicts from memory (blocks that leave in one op
    /// fold in id order), captured at b8ffcf9 — while `memory` was a
    /// `HashMap` with a tick per block and a `BTreeMap<tick, id>` beside
    /// it — before any code changed.
    const EVICTION_SEQUENCE_FNV: u64 = 0x3e53_b4d2_fe74_c474;

    #[test]
    fn eviction_sequence_is_pinned() {
        use dmem_sim::{digest, DetRng};
        let (_, mut bm) = disk_bm(ByteSize::from_kib(64));
        let ids: Vec<BlockId> = (0..24).map(|p| BlockId::new(1 + p as u64 % 3, p)).collect();
        let mut was_in_memory = vec![false; ids.len()];
        let mut rng = DetRng::new(0x19);
        let mut fnv = digest::OFFSET;
        for op in 0..2000u32 {
            let b = rng.below(ids.len());
            // A block already in memory is only read: putting it again
            // panicked before `put` took the displaced block's bytes back.
            if !was_in_memory[b] && (!bm.contains(ids[b]) || rng.below(4) == 0) {
                // 40..=200 records: ~3-15 KiB, so one put evicts up to
                // five blocks; 1-in-32 exceed the whole cache.
                let n = if rng.below(32) == 0 { 1200 } else { 40 + 40 * rng.below(5) };
                bm.put(ids[b], records(n, b as f64)).unwrap();
            } else {
                bm.get(ids[b]).unwrap().unwrap();
            }
            for (id, was) in ids.iter().zip(&mut was_in_memory) {
                let now = bm.memory.contains(id);
                if *was && !now {
                    fnv = digest::fold(fnv, &op.to_le_bytes());
                    fnv = digest::fold(fnv, &(id.partition as u32).to_le_bytes());
                }
                *was = now;
            }
        }
        // Every eviction writes its victim out (374), plus 11 puts larger
        // than the whole cache.
        assert_eq!((bm.stats().evictions, bm.stats().spills), (374, 385));
        assert_eq!(fnv, EVICTION_SEQUENCE_FNV, "{fnv:#018x}");
    }
}
