//! The pure allocator core: dlmalloc-style size classes, per-class free
//! lists, and an address-ordered free-run map with coalescing and break
//! trimming.
//!
//! Nothing in this module touches the cluster — [`ArenaMap`] hands out
//! and reclaims *addresses* in a flat object address space measured in
//! [`PAGE_SIZE`] pages, and the [`crate::ObjectHeap`] layers the backing
//! store on top. Keeping the bookkeeping pure makes the allocator
//! invariants (no overlap, reuse determinism, exact accounting)
//! property-testable without spinning up a cluster, and keeps every
//! structure deterministic: `BTreeMap` run maps, LIFO `Vec` bins, no
//! hashing anywhere.

use std::collections::BTreeMap;

use dmem_types::{fnv1a64_fold, FNV1A64_OFFSET, PAGE_SIZE};

/// The small size classes, in bytes. Every class is a multiple of 16 so
/// slot addresses stay 16-byte aligned (the heap packs `addr >> 4` into
/// backing-store keys). The progression is dlmalloc's: dense at the
/// small end where internal fragmentation hurts most, roughly
/// geometric above 256 B, capped at one page.
pub const CLASSES: [u32; 15] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1360, 2048, 4096,
];

/// Pages claimed from the break per carve. Purely a bookkeeping unit —
/// pages are carved one at a time; this bounds nothing.
pub const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// The smallest class that fits `len` bytes, or `None` when the request
/// needs a multi-page run.
#[must_use]
pub fn class_of(len: usize) -> Option<usize> {
    if len == 0 {
        return Some(0);
    }
    CLASSES.iter().position(|&c| len <= c as usize)
}

/// Slot shape of a live object: a small size-class slot or a contiguous
/// multi-page run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SlotKind {
    /// Index into [`CLASSES`].
    Class(usize),
    /// Contiguous run of whole pages.
    Run(u64),
}

impl SlotKind {
    /// Capacity of the slot in bytes.
    #[must_use]
    pub fn capacity(self) -> u64 {
        match self {
            SlotKind::Class(idx) => u64::from(CLASSES[idx]),
            SlotKind::Run(pages) => pages * PAGE_BYTES,
        }
    }
}

/// A live object: where it sits and how many bytes the caller asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveObject {
    /// Slot shape (class or page run).
    pub kind: SlotKind,
    /// Requested payload length in bytes (framing excluded).
    pub len: u64,
}

/// Per-page carve state for pages handed to a size class.
#[derive(Debug, Clone, Copy)]
struct ClassPage {
    class: usize,
    live_slots: u32,
}

/// Deterministic arena map: the sbrk high-water mark, per-class free
/// lists, carved-page directory, and the coalesced free-run map.
#[derive(Debug, Default)]
pub struct ArenaMap {
    /// sbrk break, in pages. Trimmed back down when the topmost run
    /// frees, so the map is a pure function of the live set plus bin
    /// history.
    break_pages: u64,
    /// Per-class LIFO free lists of slot addresses.
    bins: Vec<Vec<u64>>,
    /// Pages currently carved for a size class, keyed by page index.
    class_pages: BTreeMap<u64, ClassPage>,
    /// Free page runs below the break: `start_page -> run_pages`,
    /// address-ordered, adjacent runs always merged.
    free_runs: BTreeMap<u64, u64>,
    /// Live objects keyed by byte address.
    live: BTreeMap<u64, LiveObject>,
}

impl ArenaMap {
    /// An empty arena (break at zero).
    #[must_use]
    pub fn new() -> Self {
        ArenaMap {
            break_pages: 0,
            bins: vec![Vec::new(); CLASSES.len()],
            class_pages: BTreeMap::new(),
            free_runs: BTreeMap::new(),
            live: BTreeMap::new(),
        }
    }

    /// Reserves a slot for an object whose *stored* footprint is
    /// `stored_len` bytes and whose caller-visible length is `len`.
    /// Returns the object's byte address.
    pub fn reserve(&mut self, stored_len: usize, len: u64) -> (u64, SlotKind) {
        let kind = match class_of(stored_len) {
            Some(class) => SlotKind::Class(class),
            None => {
                let pages = (stored_len as u64).div_ceil(PAGE_BYTES);
                SlotKind::Run(pages)
            }
        };
        let addr = match kind {
            SlotKind::Class(class) => self.reserve_class_slot(class),
            SlotKind::Run(pages) => self.take_run(pages) * PAGE_BYTES,
        };
        self.live.insert(addr, LiveObject { kind, len });
        (addr, kind)
    }

    /// Whether `page` is currently carved for a size class (still has
    /// live slots). The heap's page-granularity free path uses this to
    /// decide between zeroing a slot and dropping the whole page image.
    #[must_use]
    pub fn page_carved(&self, page: u64) -> bool {
        self.class_pages.contains_key(&page)
    }

    /// Releases the object at `addr`, returning its record. The slot
    /// goes back to its bin; a fully-free carved page or a freed run
    /// re-enters the run map with coalescing and break trimming.
    ///
    /// Returns `None` if no live object sits at `addr`.
    pub fn release(&mut self, addr: u64) -> Option<LiveObject> {
        let obj = self.live.remove(&addr)?;
        match obj.kind {
            SlotKind::Class(_) => {
                let page = addr / PAGE_BYTES;
                let emptied = {
                    let cp = self
                        .class_pages
                        .get_mut(&page)
                        .expect("live class slot on an uncarved page");
                    cp.live_slots -= 1;
                    cp.live_slots == 0
                };
                if emptied {
                    // Coalesce: pull the page's remaining free slots out
                    // of the bin and return the whole page to the run map.
                    let cp = self.class_pages.remove(&page).expect("carved page");
                    self.bins[cp.class].retain(|a| a / PAGE_BYTES != page);
                    self.free_run(page, 1);
                } else {
                    let cp = self.class_pages[&page];
                    self.bins[cp.class].push(addr);
                }
            }
            SlotKind::Run(pages) => self.free_run(addr / PAGE_BYTES, pages),
        }
        Some(obj)
    }

    /// The live object at `addr`, if any.
    #[must_use]
    pub fn lookup(&self, addr: u64) -> Option<&LiveObject> {
        self.live.get(&addr)
    }

    /// Iterates live objects in address order.
    pub fn live_objects(&self) -> impl Iterator<Item = (u64, &LiveObject)> {
        self.live.iter().map(|(a, o)| (*a, o))
    }

    /// Updates the recorded caller-visible length of a live object
    /// (slot shape is unchanged; the heap enforces that the new stored
    /// footprint still fits).
    pub fn set_len(&mut self, addr: u64, len: u64) {
        if let Some(obj) = self.live.get_mut(&addr) {
            obj.len = len;
        }
    }

    /// Number of live objects.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total caller-requested bytes across live objects.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live.values().map(|o| o.len).sum()
    }

    /// Total slot capacity across live objects — the internal
    /// fragmentation denominator.
    #[must_use]
    pub fn slot_bytes(&self) -> u64 {
        self.live.values().map(|o| o.kind.capacity()).sum()
    }

    /// Bytes of address space currently claimed from the break and not
    /// sitting in the free-run map: carved class pages (even partially
    /// free ones) plus live runs — the external fragmentation
    /// denominator.
    #[must_use]
    pub fn reserved_bytes(&self) -> u64 {
        let free: u64 = self.free_runs.values().sum();
        (self.break_pages - free) * PAGE_BYTES
    }

    /// Current break, in pages.
    #[must_use]
    pub fn break_pages(&self) -> u64 {
        self.break_pages
    }

    /// FNV-1a digest of the structural state: every live object, the
    /// break, and the free-run map. Bin order is deliberately excluded —
    /// it is history-dependent LIFO, while this digest must also match a
    /// map rebuilt from a backing-store scan.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A64_OFFSET;
        let mut eat = |v: u64| h = fnv1a64_fold(h, &v.to_le_bytes());
        eat(self.break_pages);
        for (addr, obj) in &self.live {
            eat(*addr);
            eat(obj.len);
            match obj.kind {
                SlotKind::Class(c) => {
                    eat(0);
                    eat(c as u64);
                }
                SlotKind::Run(p) => {
                    eat(1);
                    eat(p);
                }
            }
        }
        for (start, len) in &self.free_runs {
            eat(*start);
            eat(*len);
        }
        h
    }

    /// Rebuilds an arena map from a scan of the backing store: the live
    /// set alone. The break becomes the highest claimed page, gaps
    /// become free runs, and partially-occupied class pages get their
    /// free slots re-binned in descending address order (so pops come
    /// out address-ordered). The structural [`Self::digest`] of the
    /// rebuilt map equals the original's.
    #[must_use]
    pub fn rebuild(objects: &[(u64, SlotKind, u64)]) -> Self {
        let mut map = ArenaMap::new();
        for &(addr, kind, len) in objects {
            map.live.insert(addr, LiveObject { kind, len });
            let page = addr / PAGE_BYTES;
            match kind {
                SlotKind::Class(class) => {
                    let cp = map
                        .class_pages
                        .entry(page)
                        .or_insert(ClassPage { class, live_slots: 0 });
                    assert_eq!(cp.class, class, "mixed classes on page {page}");
                    cp.live_slots += 1;
                }
                SlotKind::Run(_) => {}
            }
        }
        // Claimed pages: carved class pages plus every page of a run.
        let mut claimed: BTreeMap<u64, u64> = BTreeMap::new();
        for page in map.class_pages.keys() {
            claimed.insert(*page, 1);
        }
        for (addr, obj) in &map.live {
            if let SlotKind::Run(pages) = obj.kind {
                claimed.insert(addr / PAGE_BYTES, pages);
            }
        }
        map.break_pages = claimed
            .iter()
            .last()
            .map_or(0, |(start, pages)| start + pages);
        // Gaps between claimed extents become free runs.
        let mut cursor = 0u64;
        for (start, pages) in &claimed {
            if *start > cursor {
                map.free_runs.insert(cursor, start - cursor);
            }
            cursor = start + pages;
        }
        // Re-bin the unoccupied slots of partially-free class pages,
        // descending so LIFO pops walk ascending addresses.
        for (page, cp) in &map.class_pages {
            let class_bytes = u64::from(CLASSES[cp.class]);
            let slots = PAGE_BYTES / class_bytes;
            for slot in (0..slots).rev() {
                let addr = page * PAGE_BYTES + slot * class_bytes;
                if !map.live.contains_key(&addr) {
                    map.bins[cp.class].push(addr);
                }
            }
        }
        map
    }

    fn reserve_class_slot(&mut self, class: usize) -> u64 {
        if let Some(addr) = self.bins[class].pop() {
            let page = addr / PAGE_BYTES;
            self.class_pages
                .get_mut(&page)
                .expect("binned slot on an uncarved page")
                .live_slots += 1;
            return addr;
        }
        // Carve a fresh page for this class: slots pushed in descending
        // address order so pops hand out ascending addresses.
        let page = self.take_run(1);
        self.class_pages.insert(page, ClassPage { class, live_slots: 1 });
        let class_bytes = u64::from(CLASSES[class]);
        let slots = PAGE_BYTES / class_bytes;
        for slot in (1..slots).rev() {
            self.bins[class].push(page * PAGE_BYTES + slot * class_bytes);
        }
        page * PAGE_BYTES
    }

    /// First-fit over the address-ordered run map; extends the break
    /// when nothing fits (the "sbrk" of this allocator).
    fn take_run(&mut self, pages: u64) -> u64 {
        let found = self
            .free_runs
            .iter()
            .find(|(_, len)| **len >= pages)
            .map(|(start, len)| (*start, *len));
        if let Some((start, len)) = found {
            self.free_runs.remove(&start);
            if len > pages {
                self.free_runs.insert(start + pages, len - pages);
            }
            return start;
        }
        let start = self.break_pages;
        self.break_pages += pages;
        start
    }

    /// Returns a run to the free map, merging with both neighbours and
    /// trimming the break if the merged run ends at the top.
    fn free_run(&mut self, start: u64, pages: u64) {
        let mut start = start;
        let mut pages = pages;
        if let Some((prev_start, prev_len)) = self
            .free_runs
            .range(..start)
            .next_back()
            .map(|(s, l)| (*s, *l))
        {
            if prev_start + prev_len == start {
                self.free_runs.remove(&prev_start);
                start = prev_start;
                pages += prev_len;
            }
        }
        if let Some(next_len) = self.free_runs.remove(&(start + pages)) {
            pages += next_len;
        }
        if start + pages == self.break_pages {
            // sbrk trim: the freed extent touches the break, give the
            // address space back instead of keeping a top-of-heap run.
            self.break_pages = start;
        } else {
            self.free_runs.insert(start, pages);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_maps_boundaries() {
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(4096), Some(CLASSES.len() - 1));
        assert_eq!(class_of(4097), None);
    }

    #[test]
    fn classes_are_16_aligned() {
        for c in CLASSES {
            assert_eq!(c % 16, 0, "class {c} breaks key packing alignment");
        }
    }

    #[test]
    fn slot_reuse_is_lifo() {
        let mut map = ArenaMap::new();
        let (a, _) = map.reserve(64, 64);
        let (b, _) = map.reserve(64, 64);
        assert_ne!(a, b);
        map.release(b).unwrap();
        let (c, _) = map.reserve(64, 64);
        assert_eq!(b, c, "freed slot must be reused first (LIFO)");
    }

    #[test]
    fn empty_class_page_coalesces_and_trims_break() {
        let mut map = ArenaMap::new();
        let (a, _) = map.reserve(128, 128);
        let (b, _) = map.reserve(128, 128);
        assert_eq!(map.break_pages(), 1);
        map.release(a).unwrap();
        map.release(b).unwrap();
        assert_eq!(map.break_pages(), 0, "empty page must coalesce + trim");
        assert_eq!(map.reserved_bytes(), 0);
    }

    #[test]
    fn run_coalescing_merges_neighbours() {
        let mut map = ArenaMap::new();
        let (a, _) = map.reserve(2 * PAGE_SIZE, 2 * PAGE_BYTES);
        let (b, _) = map.reserve(3 * PAGE_SIZE, 3 * PAGE_BYTES);
        let (c, _) = map.reserve(PAGE_SIZE + 1, PAGE_BYTES + 1);
        assert_eq!(map.break_pages(), 7);
        // Free the middle run, then the first: they must merge into one
        // 5-page run, then trimming kicks in when the last run frees.
        map.release(b).unwrap();
        map.release(a).unwrap();
        let (d, _) = map.reserve(5 * PAGE_SIZE, 5 * PAGE_BYTES);
        assert_eq!(d, 0, "coalesced 5-page hole must satisfy a 5-page run");
        map.release(d).unwrap();
        map.release(c).unwrap();
        assert_eq!(map.break_pages(), 0);
    }

    #[test]
    fn rebuild_matches_digest() {
        let mut map = ArenaMap::new();
        let mut addrs = Vec::new();
        for i in 0..40usize {
            let len = 16 + (i * 37) % 6000;
            addrs.push(map.reserve(len + 1, len as u64).0);
        }
        for i in (0..40).step_by(3) {
            map.release(addrs[i]).unwrap();
        }
        let objects: Vec<(u64, SlotKind, u64)> = map
            .live_objects()
            .map(|(a, o)| (a, o.kind, o.len))
            .collect();
        let rebuilt = ArenaMap::rebuild(&objects);
        assert_eq!(rebuilt.digest(), map.digest());
        assert_eq!(rebuilt.live_bytes(), map.live_bytes());
        assert_eq!(rebuilt.reserved_bytes(), map.reserved_bytes());
    }
}
