//! Allocation count of FastSwap's batch swap-in.
//!
//! `SwapBackend::load_batch` lends each page to its sink, and FastSwap
//! lends it from where the cluster holds it: a raw page from its
//! shared-pool slab, a compressed one from the compress memo's original
//! (a warm read is always a memo hit). So a warm batch read allocates per
//! call, never per page. This test installs a counting global allocator
//! and requires a 32-page load to allocate exactly as often as a 1-page
//! one, with half the pages compressed and half kept raw.

use dmem_compress::synth;
use dmem_core::DisaggregatedMemory;
use dmem_sim::DetRng;
use dmem_swap::{FastSwapBackend, SwapBackend};
use dmem_types::{ClusterConfig, DistributionRatio, EntryLocation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

const PAGES: u64 = 32;

/// Even pages compress, odd pages are noise the codec keeps raw.
fn page(pfn: u64) -> Vec<u8> {
    let mut rng = DetRng::new(pfn);
    if pfn.is_multiple_of(2) {
        synth::page_with_ratio(4.0, &mut rng)
    } else {
        synth::random_page(&mut rng)
    }
}

#[test]
fn warm_shared_pool_batch_read_allocates_per_call_not_per_page() {
    let dm = Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap());
    let server = dm.servers()[0];
    let mut backend = FastSwapBackend::new(Arc::clone(&dm), server, DistributionRatio::FS_SM);
    let pages: Vec<Vec<u8>> = (0..PAGES).map(page).collect();
    let batch: Vec<(u64, Vec<u8>)> = (0..PAGES).map(|pfn| (pfn, pages[pfn as usize].clone())).collect();
    backend.store_batch(&batch).unwrap();
    for pfn in 0..PAGES {
        let record = dm.record(server, pfn).unwrap();
        assert!(matches!(record.location, EntryLocation::NodeShared { .. }), "pfn {pfn} in the shared pool");
        assert_eq!(record.class.is_some(), pfn.is_multiple_of(2), "pfn {pfn}: even compressed, odd raw");
    }

    let pfns: Vec<u64> = (0..PAGES).collect();
    let mut load = |pfns: &[u64]| {
        let mut seen = 0u64;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        backend
            .load_batch(pfns, &mut |i, bytes| {
                assert!(bytes == pages[pfns[i] as usize], "pfn {} reads back its bytes", pfns[i]);
                seen += 1;
            })
            .unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(seen, pfns.len() as u64);
        allocations
    };
    // Warm up: resolves the metric handles on first touch.
    load(&pfns);
    let one = load(&pfns[..1]);
    let all = load(&pfns);
    assert_eq!(all, one, "a 32-page read allocates {all} times, a 1-page read {one}");
}
