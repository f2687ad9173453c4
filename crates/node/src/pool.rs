//! The size-class slab allocator backing the node shared memory pool.
//!
//! The pool's capacity is the sum of server donations (it grows and
//! shrinks as the balloon controller adjusts fractions). Memory is carved
//! into fixed-size slabs; each slab is dedicated to one [`SizeClass`] and
//! split into equal blocks, exactly like the slab-class layout FastSwap
//! inherits from memcached-style allocators. Compressed pages therefore
//! occupy their class footprint, which is what makes the Fig. 3
//! compression-ratio accounting physical.

use dmem_types::{ByteSize, DmemError, DmemResult, IdMap, SizeClass, SlabId};
use std::fmt;

/// A reference to an allocated block: slab plus byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRef {
    /// The slab containing the block.
    pub slab: SlabId,
    /// Byte offset of the block within the slab.
    pub offset: u64,
}

#[derive(Debug)]
struct Slab {
    class: SizeClass,
    buf: Vec<u8>,
    free: Vec<u32>,   // free block indices
    live: usize,      // allocated block count
}

impl Slab {
    fn new(class: SizeClass, slab_size: usize) -> Self {
        let block = class.bytes().as_u64() as usize;
        let blocks = slab_size / block;
        Slab {
            class,
            buf: vec![0; blocks * block],
            free: (0..blocks as u32).rev().collect(),
            live: 0,
        }
    }

    fn block_size(&self) -> usize {
        self.class.bytes().as_u64() as usize
    }
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Configured capacity (total donations).
    pub capacity: ByteSize,
    /// Bytes held by carved slabs.
    pub slab_bytes: ByteSize,
    /// Bytes of live blocks (class footprints).
    pub live_bytes: ByteSize,
    /// Live allocations.
    pub live_blocks: usize,
    /// Carved slabs.
    pub slabs: usize,
}

impl PoolStats {
    /// Fraction of capacity held in live blocks.
    pub fn utilization(&self) -> f64 {
        if self.capacity.is_zero() {
            0.0
        } else {
            self.live_bytes.as_u64() as f64 / self.capacity.as_u64() as f64
        }
    }
}

/// The node shared-memory pool.
///
/// Purely an allocator plus storage: time costs are charged by
/// [`crate::NodeManager`], and eviction policy lives with the caller.
#[derive(Debug)]
pub struct SharedMemoryPool {
    slab_size: usize,
    capacity: ByteSize,
    slabs: IdMap<SlabId, Slab>,
    next_slab: u64,
    live_blocks: usize,
}

impl SharedMemoryPool {
    /// Creates a pool with the given slab size and initial capacity.
    ///
    /// # Panics
    ///
    /// Panics if `slab_size` is smaller than the largest size class
    /// (4 KiB) — such slabs could never hold a raw page.
    pub fn new(slab_size: ByteSize, capacity: ByteSize) -> Self {
        assert!(
            slab_size.as_u64() >= SizeClass::C4K.bytes().as_u64(),
            "slab size must hold at least one 4 KiB block"
        );
        SharedMemoryPool {
            slab_size: slab_size.as_usize(),
            capacity,
            slabs: IdMap::default(),
            next_slab: 1,
            live_blocks: 0,
        }
    }

    /// Current capacity (the donation total).
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Adjusts capacity (called when donations change). Shrinking below
    /// the currently carved slab bytes is allowed; the pool simply stops
    /// carving new slabs until usage falls back under the limit.
    pub fn set_capacity(&mut self, capacity: ByteSize) {
        self.capacity = capacity;
    }

    /// Allocates a block of `class`, writing `data` into it.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::CapacityExhausted`] when no free block exists
    /// and carving another slab would exceed capacity, and
    /// [`DmemError::InvalidConfig`] if `data` exceeds the class footprint.
    pub fn alloc(&mut self, class: SizeClass, data: &[u8]) -> DmemResult<BlockRef> {
        if data.len() > class.bytes().as_u64() as usize {
            return Err(DmemError::InvalidConfig {
                reason: format!("{} bytes do not fit class {class}", data.len()),
            });
        }
        // Find a slab of this class with a free block.
        let slab_id = self
            .slabs
            .iter()
            .find(|(_, s)| s.class == class && !s.free.is_empty())
            .map(|(id, _)| *id);
        let slab_id = match slab_id {
            Some(id) => id,
            None => self.carve_slab(class)?,
        };
        let slab = self.slabs.get_mut(&slab_id).expect("slab exists");
        let index = slab.free.pop().expect("slab has a free block");
        let offset = index as u64 * slab.block_size() as u64;
        let start = offset as usize;
        let block_size = slab.block_size();
        slab.buf[start..start + data.len()].copy_from_slice(data);
        // Zero the tail so stale bytes never leak across entries.
        slab.buf[start + data.len()..start + block_size].fill(0);
        slab.live += 1;
        self.live_blocks += 1;
        Ok(BlockRef {
            slab: slab_id,
            offset,
        })
    }

    fn carve_slab(&mut self, class: SizeClass) -> DmemResult<SlabId> {
        let carved: u64 = self.slabs.len() as u64 * self.slab_size as u64;
        if carved + self.slab_size as u64 > self.capacity.as_u64() {
            return Err(DmemError::CapacityExhausted {
                pool: "node shared memory".into(),
            });
        }
        let id = SlabId::new(self.next_slab);
        self.next_slab += 1;
        self.slabs.insert(id, Slab::new(class, self.slab_size));
        Ok(id)
    }

    /// Reads `len` bytes from a block.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::RegionNotRegistered`] for an unknown slab and
    /// [`DmemError::RegionOutOfBounds`] for a bad offset/length.
    pub fn read(&self, block: BlockRef, len: usize) -> DmemResult<Vec<u8>> {
        let slab = self
            .slabs
            .get(&block.slab)
            .ok_or(DmemError::RegionNotRegistered)?;
        let start = block.offset as usize;
        if start + len > slab.buf.len() || len > slab.block_size() {
            return Err(DmemError::RegionOutOfBounds {
                offset: block.offset,
                len: len as u64,
                capacity: slab.buf.len() as u64,
            });
        }
        Ok(slab.buf[start..start + len].to_vec())
    }

    /// Frees a block. Fully free slabs are returned to the pool (so a
    /// shrunken capacity takes effect).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::RegionNotRegistered`] for an unknown slab.
    pub fn free(&mut self, block: BlockRef) -> DmemResult<()> {
        let slab = self
            .slabs
            .get_mut(&block.slab)
            .ok_or(DmemError::RegionNotRegistered)?;
        let index = (block.offset / slab.block_size() as u64) as u32;
        debug_assert!(!slab.free.contains(&index), "double free of {block:?}");
        slab.free.push(index);
        slab.live -= 1;
        self.live_blocks -= 1;
        if slab.live == 0 {
            self.slabs.remove(&block.slab);
        }
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let slab_bytes = ByteSize::from(self.slabs.len() * self.slab_size);
        let live_bytes: u64 = self
            .slabs
            .values()
            .map(|s| s.live as u64 * s.block_size() as u64)
            .sum();
        PoolStats {
            capacity: self.capacity,
            slab_bytes,
            live_bytes: ByteSize::new(live_bytes),
            live_blocks: self.live_blocks,
            slabs: self.slabs.len(),
        }
    }

    /// `true` if a block of `class` could be allocated right now.
    pub fn can_fit(&self, class: SizeClass) -> bool {
        self.slabs
            .values()
            .any(|s| s.class == class && !s.free.is_empty())
            || (self.slabs.len() + 1) * self.slab_size <= self.capacity.as_u64() as usize
    }
}

impl fmt::Display for SharedMemoryPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "pool {}/{} live in {} slabs",
            s.live_bytes, s.capacity, s.slabs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pool(capacity_kib: u64) -> SharedMemoryPool {
        SharedMemoryPool::new(ByteSize::from_kib(16), ByteSize::from_kib(capacity_kib))
    }

    #[test]
    fn alloc_read_roundtrip() {
        let mut p = pool(64);
        let b = p.alloc(SizeClass::C1K, b"data").unwrap();
        assert_eq!(p.read(b, 4).unwrap(), b"data");
        // Tail of the block is zeroed.
        assert_eq!(p.read(b, 1024).unwrap()[4..], vec![0u8; 1020]);
    }

    #[test]
    fn blocks_of_same_class_share_slab() {
        let mut p = pool(64);
        let a = p.alloc(SizeClass::C512, b"a").unwrap();
        let b = p.alloc(SizeClass::C512, b"b").unwrap();
        assert_eq!(a.slab, b.slab);
        assert_ne!(a.offset, b.offset);
        assert_eq!(p.stats().slabs, 1);
    }

    #[test]
    fn classes_use_distinct_slabs() {
        let mut p = pool(64);
        let a = p.alloc(SizeClass::C512, b"a").unwrap();
        let b = p.alloc(SizeClass::C4K, b"b").unwrap();
        assert_ne!(a.slab, b.slab);
    }

    #[test]
    fn capacity_enforced() {
        let mut p = pool(16); // exactly one slab
        let _ = p.alloc(SizeClass::C4K, b"x").unwrap();
        // Second class would need a second slab: over capacity.
        assert!(matches!(
            p.alloc(SizeClass::C512, b"y"),
            Err(DmemError::CapacityExhausted { .. })
        ));
        // Same class still fits: the slab has free blocks.
        assert!(p.alloc(SizeClass::C4K, b"z").is_ok());
    }

    #[test]
    fn slab_exhaustion_rolls_to_new_slab() {
        let mut p = pool(48);
        // 16 KiB slab holds 4 × 4 KiB blocks.
        let blocks: Vec<_> = (0..5)
            .map(|_| p.alloc(SizeClass::C4K, b"x").unwrap())
            .collect();
        assert_eq!(p.stats().slabs, 2);
        assert_ne!(blocks[0].slab, blocks[4].slab);
    }

    #[test]
    fn free_releases_and_reclaims_slab() {
        let mut p = pool(16);
        let b = p.alloc(SizeClass::C4K, b"x").unwrap();
        p.free(b).unwrap();
        assert_eq!(p.stats().slabs, 0);
        assert_eq!(p.stats().live_blocks, 0);
        // Freed capacity can be reused by a different class now.
        assert!(p.alloc(SizeClass::C512, b"y").is_ok());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut p = pool(64);
        assert!(matches!(
            p.alloc(SizeClass::C512, &[0u8; 513]),
            Err(DmemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn read_bad_block_rejected() {
        let p = pool(64);
        let bogus = BlockRef {
            slab: SlabId::new(99),
            offset: 0,
        };
        assert_eq!(p.read(bogus, 1), Err(DmemError::RegionNotRegistered));
    }

    #[test]
    fn shrink_capacity_blocks_new_slabs() {
        let mut p = pool(64);
        let block = p.alloc(SizeClass::C4K, b"x").unwrap();
        p.set_capacity(ByteSize::from_kib(16));
        assert!(p.alloc(SizeClass::C512, b"y").is_err(), "no room for 2nd slab");
        p.free(block).unwrap();
        assert!(p.alloc(SizeClass::C512, b"y").is_ok());
    }

    #[test]
    fn utilization_and_can_fit() {
        let mut p = pool(16);
        assert_eq!(p.stats().utilization(), 0.0);
        assert!(p.can_fit(SizeClass::C4K));
        for _ in 0..4 {
            p.alloc(SizeClass::C4K, b"x").unwrap();
        }
        assert!(!p.can_fit(SizeClass::C4K));
        assert!((p.stats().utilization() - 1.0).abs() < 1e-9);
        assert!(!p.to_string().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_alloc_free_conserves(ops in proptest::collection::vec((0usize..4, any::<bool>()), 1..100)) {
            let mut p = pool(256);
            let mut live: Vec<(BlockRef, usize)> = Vec::new();
            for (class_idx, is_alloc) in ops {
                let class = SizeClass::ALL[class_idx];
                if is_alloc || live.is_empty() {
                    if let Ok(b) = p.alloc(class, &[7u8; 64]) {
                        live.push((b, 64));
                    }
                } else {
                    let (b, _) = live.swap_remove(0);
                    p.free(b).unwrap();
                }
                prop_assert_eq!(p.stats().live_blocks, live.len());
                prop_assert!(p.stats().slab_bytes <= ByteSize::from_kib(256));
            }
            for (b, len) in &live {
                prop_assert_eq!(p.read(*b, *len).unwrap(), vec![7u8; 64]);
            }
        }
    }
}
