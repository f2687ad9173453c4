//! The paging engine.
//!
//! Models the part of the virtual-memory path that FastSwap modifies: a
//! virtual server with a fixed number of resident page frames, true-LRU
//! reclaim, a write-behind swap-out window, and demand or proactive-batch
//! swap-in. Every access charges a configurable per-access compute cost
//! (the application's own work per page of data), so completion time =
//! compute + fault service — the quantity Figs. 4-7 plot.
//!
//! The fault loop is the simulator's hottest path, so its bookkeeping is
//! all O(1) ([`dmem_types::Lru`] for recency, [`crate::lru::PfnSet`]
//! for backend residency) and its buffers are recycled: evicted page
//! content is generated into pooled 4 KiB buffers that flow through the
//! write-behind window and back to the pool, so a warmed-up engine
//! performs no heap allocation per access (asserted by the
//! `alloc_smoke` integration test).

use crate::backend::SwapBackend;
use crate::lru::{self, FrameFlags, PfnSet};
use dmem_compress::synth;
use dmem_sim::{DetRng, SimClock, SimDuration};
use dmem_types::{DmemResult, Lru, SwapInMode};
use dmem_workloads::PageAccess;
use std::fmt;

/// Deterministic page-content generator: the same pfn always regenerates
/// the same bytes, with per-workload compressibility.
#[derive(Debug, Clone)]
pub struct PageSource {
    mean_ratio: f64,
    spread: f64,
    seed: u64,
}

impl PageSource {
    /// Creates a source producing pages around the given compression
    /// ratio.
    pub fn new(mean_ratio: f64, spread: f64, seed: u64) -> Self {
        PageSource {
            mean_ratio,
            spread,
            seed,
        }
    }

    /// The bytes of page `pfn`.
    pub fn page(&self, pfn: u64) -> Vec<u8> {
        let mut page = Vec::new();
        self.page_into(pfn, &mut page);
        page
    }

    /// [`PageSource::page`] into a caller-provided buffer, reusing its
    /// capacity. The content is a pure function of `(seed, pfn)`, so
    /// repeated calls for the same pfn yield identical bytes.
    pub(crate) fn page_into(&self, pfn: u64, page: &mut Vec<u8>) {
        let mut rng = DetRng::new(self.seed).fork_indexed("page", pfn);
        synth::page_mixture_into(
            self.mean_ratio,
            self.spread,
            synth::DEFAULT_ZERO_FRACTION,
            &mut rng,
            page,
        );
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Resident page frames (the "memory" of the virtual server). The
    /// paper's 75%/50% configurations set this to that fraction of the
    /// working set.
    pub frames: usize,
    /// Dirty pages buffered before one batched swap-out (1 = no batching,
    /// the Infiniswap/Linux behaviour).
    pub swap_out_window: usize,
    /// Swap-in strategy: demand paging or proactive batch swap-in.
    pub swap_in: SwapInMode,
    /// Application compute charged per page access.
    pub compute_per_access: SimDuration,
    /// Kernel cost of taking one major fault (trap, page-table walk,
    /// swap-entry lookup, context switch). Charged once per fault, so
    /// batch swap-in amortizes it across the window — a large part of why
    /// PBS wins in Fig. 6/9.
    pub fault_overhead: SimDuration,
}

impl EngineConfig {
    /// A demand-paging configuration with no batching (the baselines).
    pub fn demand(frames: usize) -> Self {
        EngineConfig {
            frames,
            swap_out_window: 1,
            swap_in: SwapInMode::Demand,
            compute_per_access: SimDuration::from_micros(2),
            fault_overhead: SimDuration::from_micros(15),
        }
    }
}

/// Counters the engine maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total page accesses.
    pub accesses: u64,
    /// Faults served from the backend (page had been swapped out).
    pub major_faults: u64,
    /// First-touch faults (no I/O).
    pub minor_faults: u64,
    /// Faults absorbed by the write-behind buffer.
    pub writeback_hits: u64,
    /// Pages written to the backend.
    pub swap_outs: u64,
    /// Pages read from the backend (includes prefetched pages).
    pub swap_ins: u64,
    /// Prefetched pages that were later actually used.
    pub prefetch_hits: u64,
    /// Clean pages dropped without writeback.
    pub clean_evictions: u64,
    /// Pages restored proactively (PBS background restore).
    pub proactive_restores: u64,
}

/// The paging engine. See the module docs.
pub struct PagingEngine {
    config: EngineConfig,
    clock: SimClock,
    backend: Box<dyn SwapBackend>,
    source: PageSource,
    frames: Lru<u64, FrameFlags>,
    in_backend: PfnSet,
    writeback: Vec<(u64, Vec<u8>)>,
    /// Recycled 4 KiB page buffers: eviction pops one, fills it via
    /// [`PageSource::page_into`], and the write-behind flush returns it.
    page_pool: Vec<Vec<u8>>,
    /// Scratch pfn list for the swap-in window (reused across faults).
    fault_batch: Vec<u64>,
    /// Scratch pfn list for the proactive restore scan.
    restore_batch: Vec<u64>,
    recent_faults: std::collections::VecDeque<u64>,
    stats: EngineStats,
}

impl PagingEngine {
    /// Creates an engine over a backend and page source.
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `swap_out_window` is zero.
    pub fn new(
        config: EngineConfig,
        clock: SimClock,
        backend: Box<dyn SwapBackend>,
        source: PageSource,
    ) -> Self {
        assert!(config.frames > 0, "at least one resident frame required");
        assert!(config.swap_out_window > 0, "swap-out window must be >= 1");
        let frames = Lru::with_capacity(config.frames);
        PagingEngine {
            config,
            clock,
            backend,
            source,
            frames,
            in_backend: PfnSet::new(),
            writeback: Vec::new(),
            page_pool: Vec::new(),
            fault_batch: Vec::new(),
            restore_batch: Vec::new(),
            recent_faults: std::collections::VecDeque::new(),
            stats: EngineStats::default(),
        }
    }

    /// The engine's statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The backend's display name.
    pub fn system_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The disaggregated-memory cluster behind the backend, when there is
    /// one (see [`SwapBackend::cluster`]).
    pub fn cluster(&self) -> Option<&std::sync::Arc<dmem_core::DisaggregatedMemory>> {
        self.backend.cluster()
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    fn touch(&mut self, pfn: u64, write: bool, prefetched: bool) {
        lru::touch(&mut self.frames, pfn, write, prefetched);
        // The swap-cache copy, if there is one, is now stale. A page the
        // backend does not hold is not deleted: every backend's
        // `invalidate` of an absent page charges and counts nothing.
        if write && self.in_backend.remove(pfn) {
            self.backend.invalidate(pfn);
        }
    }

    fn flush_writeback(&mut self) -> DmemResult<()> {
        if self.writeback.is_empty() {
            return Ok(());
        }
        let span = self.clock.tracer().span("swap", "out");
        span.tag("pages", self.writeback.len());
        self.backend.store_batch(&self.writeback)?;
        self.stats.swap_outs += self.writeback.len() as u64;
        for (pfn, buf) in self.writeback.drain(..) {
            self.in_backend.insert(pfn);
            self.page_pool.push(buf);
        }
        Ok(())
    }

    fn evict_one(&mut self) -> DmemResult<()> {
        let (victim, flags) = self.frames.pop_lru().expect("resident set nonempty");
        if !flags.dirty && self.in_backend.contains(victim) {
            // Clean page with a valid swap-cache copy: free to drop.
            self.stats.clean_evictions += 1;
            return Ok(());
        }
        let span = self.clock.tracer().span("swap", "evict");
        span.tag("pfn", victim);
        let mut buf = self.page_pool.pop().unwrap_or_default();
        self.source.page_into(victim, &mut buf);
        self.writeback.push((victim, buf));
        if self.writeback.len() >= self.config.swap_out_window {
            self.flush_writeback()?;
        }
        Ok(())
    }

    fn ensure_frames(&mut self, needed: usize) -> DmemResult<()> {
        while self.frames.len() + needed > self.config.frames {
            self.evict_one()?;
        }
        Ok(())
    }

    /// Serves one page access.
    ///
    /// # Errors
    ///
    /// Propagates backend failures (a backend that cannot store or load;
    /// the hybrid backends themselves fall back to disk internally, so in
    /// practice this surfaces only catastrophic failures).
    pub fn access(&mut self, pfn: u64, write: bool) -> DmemResult<()> {
        self.access_inner(pfn, write)?;
        self.proactive_restore()
    }

    fn access_inner(&mut self, pfn: u64, write: bool) -> DmemResult<()> {
        self.stats.accesses += 1;
        self.clock.advance(self.config.compute_per_access);

        if let Some(flags) = self.frames.get(&pfn) {
            if flags.prefetched {
                self.stats.prefetch_hits += 1;
            }
            self.touch(pfn, write, false);
            return Ok(());
        }
        // Write-behind buffer hit: page not yet flushed, pull it back.
        if let Some(pos) = self.writeback.iter().position(|(p, _)| *p == pfn) {
            let (_, buf) = self.writeback.remove(pos);
            self.page_pool.push(buf);
            self.stats.writeback_hits += 1;
            self.ensure_frames(1)?;
            self.touch(pfn, write, false);
            // It never reached the backend; it is dirty again.
            if let Some(flags) = self.frames.get_mut(&pfn) {
                flags.dirty = true;
            }
            return Ok(());
        }

        if self.in_backend.contains(pfn) {
            self.stats.major_faults += 1;
            let span = self.clock.tracer().span("swap", "in");
            self.clock.advance(self.config.fault_overhead);
            // Assemble the swap-in window: the faulted page plus up to
            // window-1 contiguous swapped-out successors (PBS).
            // Readahead gating: a full prefetch window only when the
            // fault stream looks sequential (the kernel's readahead and
            // FastSwap's PBS both ramp on sequentiality); random faults
            // fetch one page, avoiding wasted remote reads.
            let sequential = (1..=3)
                .filter_map(|d| pfn.checked_sub(d))
                .any(|p| self.recent_faults.contains(&p));
            self.recent_faults.push_back(pfn);
            if self.recent_faults.len() > 32 {
                self.recent_faults.pop_front();
            }
            let window = if sequential {
                self.config.swap_in.window().min(self.config.frames)
            } else {
                1
            };
            self.fault_batch.clear();
            self.fault_batch.push(pfn);
            if window > 1 {
                // Prefetch contiguous swapped-out successors; eviction
                // below makes room, as the kernel's readahead does.
                for next in pfn + 1.. {
                    if self.fault_batch.len() >= window {
                        break;
                    }
                    if self.in_backend.contains(next) && !self.frames.contains(&next) {
                        self.fault_batch.push(next);
                    } else {
                        break;
                    }
                }
            }
            let batch_len = self.fault_batch.len();
            span.tag("pages", batch_len);
            span.tag("mode", if sequential { "readahead" } else { "demand" });
            self.ensure_frames(batch_len)?;
            // The engine regenerates page content on eviction, so what
            // the backend lends is not kept.
            self.backend.load_batch(&self.fault_batch, &mut |_, _| {})?;
            self.stats.swap_ins += batch_len as u64;
            for i in 0..batch_len {
                let page = self.fault_batch[i];
                let is_faulted = i == 0;
                self.touch(page, write && is_faulted, !is_faulted);
            }
            Ok(())
        } else {
            // First touch: anonymous page, no I/O.
            self.stats.minor_faults += 1;
            self.ensure_frames(1)?;
            self.touch(pfn, write, false);
            Ok(())
        }
    }

    /// PBS's *proactive* side (paper Fig. 9): while free frames exist and
    /// swapped-out pages remain, stream them back in batches in the
    /// background, hottest (lowest-address) first. This is what lets a
    /// cold store recover at transfer bandwidth instead of one page per
    /// fault. No-op in demand mode or when memory is full.
    fn proactive_restore(&mut self) -> DmemResult<()> {
        let window = match self.config.swap_in {
            SwapInMode::ProactiveBatch { window } => window.max(1),
            SwapInMode::Demand => return Ok(()),
        };
        let free = self.config.frames.saturating_sub(self.frames.len());
        if free == 0 || self.in_backend.is_empty() {
            return Ok(());
        }
        let budget = free.min(window);
        self.restore_batch.clear();
        // Bounded scan: look at most a few windows deep so a pool full of
        // resident swap-cache copies cannot turn this into O(n) per access.
        for pfn in self.in_backend.iter().take(window * 8) {
            if self.restore_batch.len() >= budget {
                break;
            }
            if !self.frames.contains(&pfn) && !self.writeback.iter().any(|(p, _)| *p == pfn) {
                self.restore_batch.push(pfn);
            }
        }
        if self.restore_batch.is_empty() {
            return Ok(());
        }
        let batch_len = self.restore_batch.len();
        let span = self.clock.tracer().span("swap", "restore");
        span.tag("pages", batch_len);
        self.backend.load_batch(&self.restore_batch, &mut |_, _| {})?;
        self.stats.swap_ins += batch_len as u64;
        self.stats.proactive_restores += batch_len as u64;
        for i in 0..batch_len {
            let page = self.restore_batch[i];
            self.touch(page, false, true);
        }
        Ok(())
    }

    /// Runs a whole access trace, returning the stats and the virtual
    /// time it consumed.
    ///
    /// # Errors
    ///
    /// Propagates the first backend failure.
    pub fn run<I: IntoIterator<Item = PageAccess>>(
        &mut self,
        trace: I,
    ) -> DmemResult<(EngineStats, SimDuration)> {
        let start = self.clock.now();
        for access in trace {
            self.access(access.page.pfn(), access.write)?;
        }
        self.flush_writeback()?;
        Ok((self.stats, self.clock.now() - start))
    }

    /// Pre-faults the first `n` pages and then swaps them all out, so a
    /// run starts from full memory pressure (the Fig. 9 "cold" start where
    /// the store's working set begins on the swap device).
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn preload_swapped(&mut self, n: u64) -> DmemResult<()> {
        let batch_size = self.config.swap_out_window.max(1);
        let mut batch: Vec<(u64, Vec<u8>)> = Vec::with_capacity(batch_size);
        for pfn in 0..n {
            let mut buf = self.page_pool.pop().unwrap_or_default();
            self.source.page_into(pfn, &mut buf);
            batch.push((pfn, buf));
            if batch.len() >= batch_size {
                self.backend.store_batch(&batch)?;
                for (p, buf) in batch.drain(..) {
                    self.in_backend.insert(p);
                    self.page_pool.push(buf);
                }
            }
        }
        if !batch.is_empty() {
            self.backend.store_batch(&batch)?;
            for (p, buf) in batch.drain(..) {
                self.in_backend.insert(p);
                self.page_pool.push(buf);
            }
        }
        Ok(())
    }
}

impl fmt::Debug for PagingEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagingEngine")
            .field("system", &self.backend.name())
            .field("frames", &self.config.frames)
            .field("resident", &self.frames.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::{DmemError, EntryId};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    /// Test backend recording batch shapes.
    #[derive(Default)]
    struct Recorder {
        pages: HashMap<u64, Vec<u8>>,
        store_batches: Vec<usize>,
        load_batches: Vec<usize>,
    }

    struct RecBackend(Rc<RefCell<Recorder>>);

    impl SwapBackend for RecBackend {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
            let mut r = self.0.borrow_mut();
            r.store_batches.push(pages.len());
            for (p, d) in pages {
                r.pages.insert(*p, d.clone());
            }
            Ok(())
        }
        fn load_batch(&mut self, pfns: &[u64], sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()> {
            let mut r = self.0.borrow_mut();
            r.load_batches.push(pfns.len());
            for (i, p) in pfns.iter().enumerate() {
                let page = r.pages.get(p).ok_or(DmemError::EntryNotFound(EntryId::default()))?;
                sink(i, page);
            }
            Ok(())
        }
        fn contains(&self, pfn: u64) -> bool {
            self.0.borrow().pages.contains_key(&pfn)
        }
        fn invalidate(&mut self, pfn: u64) {
            self.0.borrow_mut().pages.remove(&pfn);
        }
    }

    fn engine(config: EngineConfig) -> (Rc<RefCell<Recorder>>, PagingEngine) {
        let recorder = Rc::new(RefCell::new(Recorder::default()));
        let clock = SimClock::new();
        let engine = PagingEngine::new(
            config,
            clock,
            Box::new(RecBackend(Rc::clone(&recorder))),
            PageSource::new(3.0, 0.5, 42),
        );
        (recorder, engine)
    }

    #[test]
    fn first_touches_are_minor_faults() {
        let (_, mut e) = engine(EngineConfig::demand(4));
        for pfn in 0..4 {
            e.access(pfn, false).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.minor_faults, 4);
        assert_eq!(s.major_faults, 0);
        assert_eq!(s.swap_outs, 0);
        assert_eq!(e.resident_pages(), 4);
    }

    #[test]
    fn overflow_swaps_out_lru_and_faults_back() {
        let (_, mut e) = engine(EngineConfig::demand(2));
        e.access(0, true).unwrap();
        e.access(1, true).unwrap();
        e.access(2, true).unwrap(); // evicts 0 (LRU), flushed (window 1)
        assert_eq!(e.stats().swap_outs, 1);
        e.access(0, false).unwrap(); // major fault
        let s = e.stats();
        assert_eq!(s.major_faults, 1);
        assert_eq!(s.swap_ins, 1);
    }

    #[test]
    fn lru_order_is_respected() {
        let (rec, mut e) = engine(EngineConfig::demand(2));
        e.access(0, true).unwrap();
        e.access(1, true).unwrap();
        e.access(0, false).unwrap(); // 0 now MRU
        e.access(2, true).unwrap(); // must evict 1, not 0
        assert!(rec.borrow().pages.contains_key(&1));
        assert!(!rec.borrow().pages.contains_key(&0));
    }

    #[test]
    fn clean_pages_evict_for_free() {
        let (_, mut e) = engine(EngineConfig::demand(2));
        e.access(0, true).unwrap();
        e.access(1, true).unwrap();
        e.access(2, true).unwrap(); // swap out 0
        e.access(0, false).unwrap(); // fault 0 back in (clean copy kept)
        e.access(3, true).unwrap(); // evicts 1 (dirty) -> swap out
        e.access(4, true).unwrap(); // evicts 2 (dirty) -> swap out... order varies
        // Re-fault 0 stays clean; evicting it later costs nothing.
        let before = e.stats().swap_outs;
        e.access(5, true).unwrap();
        e.access(6, true).unwrap();
        let s = e.stats();
        assert!(
            s.clean_evictions >= 1,
            "clean swap-cache pages should drop for free: {s:?}"
        );
        assert!(s.swap_outs >= before);
    }

    #[test]
    fn write_invalidates_swap_cache_copy() {
        let (rec, mut e) = engine(EngineConfig::demand(2));
        e.access(0, true).unwrap();
        e.access(1, true).unwrap();
        e.access(2, true).unwrap(); // evict 0
        e.access(0, true).unwrap(); // fault back AND dirty it
        assert!(
            !rec.borrow().pages.contains_key(&0),
            "dirtying the page must invalidate the backend copy"
        );
    }

    #[test]
    fn swap_out_window_batches_stores() {
        let (rec, mut e) = engine(EngineConfig {
            swap_out_window: 4,
            ..EngineConfig::demand(2)
        });
        for pfn in 0..8 {
            e.access(pfn, true).unwrap();
        }
        // 6 evictions buffered in windows of 4: one full flush so far.
        let batches = rec.borrow().store_batches.clone();
        assert!(batches.iter().all(|&b| b <= 4));
        assert!(batches.contains(&4), "a full window flush must occur: {batches:?}");
    }

    #[test]
    fn writeback_buffer_absorbs_refaults() {
        let (_, mut e) = engine(EngineConfig {
            swap_out_window: 8,
            ..EngineConfig::demand(2)
        });
        e.access(0, true).unwrap();
        e.access(1, true).unwrap();
        e.access(2, true).unwrap(); // 0 goes to writeback buffer (not flushed)
        e.access(0, false).unwrap(); // still in buffer: no backend I/O
        let s = e.stats();
        assert_eq!(s.writeback_hits, 1);
        assert_eq!(s.major_faults, 0);
        assert_eq!(s.swap_ins, 0);
    }

    #[test]
    fn pbs_prefetches_contiguous_pages() {
        let (rec, mut e) = engine(EngineConfig {
            swap_in: SwapInMode::ProactiveBatch { window: 4 },
            ..EngineConfig::demand(8)
        });
        // Store pages 0..8 in the backend via preload.
        e.preload_swapped(8).unwrap();
        // First access faults page 0 (readahead has no history), then the
        // proactive restore streams a window of 4 more pages into the
        // free frames.
        e.access(0, false).unwrap();
        assert_eq!(rec.borrow().load_batches, vec![1, 4]);
        assert_eq!(e.resident_pages(), 5);
        // Next access hits a restored page (prefetch hit, no fault) and
        // the restore finishes the remaining 3 pages.
        e.access(1, false).unwrap();
        assert_eq!(rec.borrow().load_batches, vec![1, 4, 3]);
        let s = e.stats();
        assert_eq!(s.major_faults, 1);
        assert_eq!(s.swap_ins, 8);
        assert_eq!(s.proactive_restores, 7);
        assert!(s.prefetch_hits >= 1);
        // Memory now full: no further restore activity.
        e.access(2, false).unwrap();
        assert_eq!(rec.borrow().load_batches.len(), 3);
        assert_eq!(e.stats().major_faults, 1, "no further faults");
    }

    #[test]
    fn demand_mode_fetches_one() {
        let (rec, mut e) = engine(EngineConfig::demand(8));
        e.preload_swapped(6).unwrap();
        e.access(0, false).unwrap();
        assert_eq!(rec.borrow().load_batches, vec![1]);
    }

    #[test]
    fn run_trace_and_time_accounting() {
        let (_, mut e) = engine(EngineConfig::demand(16));
        let accesses: Vec<PageAccess> = (0..64)
            .map(|i| PageAccess {
                page: dmem_types::PageId::new(i % 32),
                write: i % 3 == 0,
            })
            .collect();
        let (stats, elapsed) = e.run(accesses).unwrap();
        assert_eq!(stats.accesses, 64);
        assert!(
            elapsed >= SimDuration::from_micros(128),
            "compute cost alone is 64 × 2us"
        );
    }

    #[test]
    #[should_panic(expected = "at least one resident frame")]
    fn zero_frames_panics() {
        let _ = engine(EngineConfig::demand(0));
    }
}
