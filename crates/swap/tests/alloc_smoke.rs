//! Steady-state allocation smoke test for the paging fault loop.
//!
//! The engine promises that a warmed-up fault loop performs zero heap
//! allocation: page buffers are pooled, batch pfn lists are reused
//! scratch, the LRU recycles slab slots, and the LZ scratch is
//! thread-local. This test installs a counting global allocator, warms
//! the engine through several full eviction cycles, and then asserts the
//! allocation count does not move across two more cycles.
//!
//! The backend is a sink (stores dropped, loads empty) so the count
//! isolates the engine itself; backend-internal allocation is its own
//! concern and is amortized by the memoization layer.

use dmem_swap::{EngineConfig, PageSource, PagingEngine, SwapBackend};
use dmem_sim::SimClock;
use dmem_types::DmemResult;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A backend that swallows stores and serves empty loads without touching
/// the heap.
struct SinkBackend;

impl SwapBackend for SinkBackend {
    fn name(&self) -> &'static str {
        "sink"
    }
    fn store_batch(&mut self, _pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
        Ok(())
    }
    fn load_batch(&mut self, _pfns: &[u64], _sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()> {
        Ok(())
    }
    fn contains(&self, _pfn: u64) -> bool {
        true
    }
    fn invalidate(&mut self, _pfn: u64) {}
}

#[test]
fn fault_loop_steady_state_allocates_nothing() {
    const FRAMES: usize = 64;
    const PAGES: u64 = 128;

    let config = EngineConfig {
        swap_out_window: 8,
        ..EngineConfig::demand(FRAMES)
    };
    let mut engine = PagingEngine::new(
        config,
        SimClock::new(),
        Box::new(SinkBackend),
        PageSource::new(3.0, 0.5, 42),
    );

    // Warm up: several full sweeps of a working set twice the frame count
    // drives constant eviction, writeback flushes, and major refaults, and
    // grows every pool/scratch/map to its steady-state capacity.
    for round in 0..6 {
        for pfn in 0..PAGES {
            engine.access(pfn, round % 2 == 0).unwrap();
        }
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..2 {
        for pfn in 0..PAGES {
            engine.access(pfn, round % 2 == 0).unwrap();
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "warmed-up fault loop must not allocate ({} allocations over {} accesses)",
        after - before,
        2 * PAGES as usize,
    );
}
