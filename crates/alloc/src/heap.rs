//! [`ObjectHeap`]: the object-granularity far-memory heap.
//!
//! The heap binds an [`ArenaMap`] (pure address bookkeeping) to one
//! virtual server of a [`DisaggregatedMemory`] cluster. Its "sbrk" is
//! conceptual: extending the break claims fresh page indices in the
//! flat object address space, and the bytes themselves live as cluster
//! entries — placed, replicated, QoS-admitted and fault-retried by the
//! existing tiers.
//!
//! Two backing granularities share the identical allocator, isolating
//! transfer granularity as the only variable:
//!
//! - **Object**: every object is its own entry (key packs the 16-byte-
//!   aligned address). A `get` moves exactly the framed object; an
//!   `update` is a pure write — no read-modify-write at all.
//! - **Page**: entries are whole [`PAGE_SIZE`] page images, the paging
//!   baseline. Every op reads and/or writes each 4 KiB page it touches,
//!   reproducing the access amplification the paper charges against
//!   paging-based disaggregation.
//!
//! Each stored object carries a 2-byte frame header `[kind, aux]`
//! (class index, or `0xff` + run length in pages) so a recovery scan
//! can rebuild the allocator metadata from the backing store alone —
//! see [`ObjectHeap::reconstruct`].

use std::sync::Arc;

use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_sim::{Counter, Gauge, MetricsRegistry};
use dmem_types::{DmemError, DmemResult, EntryId, ServerId, PAGE_SIZE};

use crate::classes::{ArenaMap, SlotKind, CLASSES, PAGE_BYTES};

/// Frame header: `[kind, aux]` — kind is the class index or
/// [`RUN_TAG`], aux is the run length in pages (0 for class slots).
pub const HEADER_BYTES: usize = 2;

/// Frame kind byte marking a multi-page run.
pub const RUN_TAG: u8 = 0xff;

/// Largest multi-page run the 1-byte aux field can describe (1 MiB
/// objects — far above anything the size-class path should see).
pub const MAX_RUN_PAGES: u64 = 255;

/// Backing-store granularity of a heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One cluster entry per object; transfers move only object bytes.
    Object,
    /// One cluster entry per 4 KiB page image; transfers move whole
    /// pages (the paging baseline).
    Page,
}

impl Granularity {
    /// Short label used in reports and CSVs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Object => "object",
            Granularity::Page => "page",
        }
    }
}

/// Base of a heap's key namespace on its server. Object keys are
/// `KEY_BASE + (addr >> 4)`, page keys `KEY_BASE + page_index`.
const KEY_BASE: u64 = 1 << 56;

/// Heap construction knobs.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Backing granularity.
    pub granularity: Granularity,
    /// Tier preference for backing puts.
    pub pref: TierPreference,
}

impl HeapConfig {
    /// A config for the given granularity with `Auto` placement.
    #[must_use]
    pub fn new(granularity: Granularity) -> Self {
        HeapConfig {
            granularity,
            pref: TierPreference::Auto,
        }
    }

    /// Same config with an explicit tier preference.
    #[must_use]
    pub fn with_pref(mut self, pref: TierPreference) -> Self {
        self.pref = pref;
        self
    }
}

/// Operation counters of one heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Completed `alloc`/`alloc_many` objects.
    pub alloc: u64,
    /// Completed frees.
    pub free: u64,
    /// Completed reads.
    pub get: u64,
    /// Completed in-place updates.
    pub update: u64,
}

/// Point-in-time accounting snapshot of a heap.
#[derive(Debug, Clone)]
pub struct HeapStats {
    /// Backing granularity.
    pub granularity: Granularity,
    /// QoS tenant owning the heap's server, when an engine is installed.
    pub tenant: Option<String>,
    /// Live object count.
    pub live_objects: usize,
    /// Caller-requested bytes across live objects.
    pub live_bytes: u64,
    /// Slot capacity across live objects (internal-frag denominator).
    pub slot_bytes: u64,
    /// Address space claimed from the break (external-frag denominator).
    pub reserved_bytes: u64,
    /// Bytes moved through the cluster by heap ops.
    pub fetched_bytes: u64,
    /// Caller-useful bytes of those ops.
    pub useful_bytes: u64,
    /// Per-verb op counts.
    pub ops: OpCounts,
}

impl HeapStats {
    /// Access amplification: fabric-moved bytes per useful byte.
    #[must_use]
    pub fn amplification(&self) -> f64 {
        if self.useful_bytes == 0 {
            return 0.0;
        }
        self.fetched_bytes as f64 / self.useful_bytes as f64
    }

    /// Internal fragmentation (slot slack) as a percentage.
    #[must_use]
    pub fn internal_frag_pct(&self) -> f64 {
        if self.slot_bytes == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.live_bytes as f64 / self.slot_bytes as f64)
    }

    /// Total fragmentation (live bytes vs reserved address space) as a
    /// percentage.
    #[must_use]
    pub fn total_frag_pct(&self) -> f64 {
        if self.reserved_bytes == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.live_bytes as f64 / self.reserved_bytes as f64)
    }
}

/// The `alloc.*` counter family, registered up front so a report lists
/// `alloc.ops.update 0` for a heap that never updated.
struct AllocCounters {
    /// Fetched, useful and amplification (fetched minus useful) bytes.
    bytes: [Counter; 3],
    /// Op counts, indexed by [`ObjectHeap::note_op`]'s kind.
    ops: [Counter; 4],
    /// Live, slot and reserved bytes, then total fragmentation in basis
    /// points (integer math, so timelines stay byte-deterministic).
    footprint: [Gauge; 4],
}

impl AllocCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        AllocCounters {
            bytes: ["alloc.fetched_bytes", "alloc.useful_bytes", "alloc.amplification_bytes"]
                .map(|name| registry.counter(name)),
            ops: ["alloc.ops.alloc", "alloc.ops.free", "alloc.ops.get", "alloc.ops.update"]
                .map(|name| registry.counter(name)),
            footprint: [
                "alloc.live_bytes",
                "alloc.slot_bytes",
                "alloc.reserved_bytes",
                "alloc.fragmentation_bp",
            ]
            .map(|name| registry.gauge(name)),
        }
    }
}

/// An object-granularity far-memory heap over one cluster server.
pub struct ObjectHeap {
    dm: Arc<DisaggregatedMemory>,
    server: ServerId,
    config: HeapConfig,
    arena: ArenaMap,
    counters: Option<AllocCounters>,
    tenant: Option<String>,
    fetched_bytes: u64,
    useful_bytes: u64,
    ops: OpCounts,
}

impl ObjectHeap {
    /// Binds a fresh heap to `server`. If a QoS engine is installed on
    /// the cluster the heap resolves and records its tenant, so every
    /// backing put flows through that tenant's quota/admission path.
    #[must_use]
    pub fn new(dm: Arc<DisaggregatedMemory>, server: ServerId, config: HeapConfig) -> Self {
        let tenant = dm
            .qos()
            .map(|engine| engine.tenant_name(engine.tenant_of(server)));
        ObjectHeap {
            dm,
            server,
            config,
            arena: ArenaMap::new(),
            counters: None,
            tenant,
            fetched_bytes: 0,
            useful_bytes: 0,
            ops: OpCounts::default(),
        }
    }

    /// Arms the `alloc.*` counter family on `registry` (normally the
    /// cluster's own, so telemetry windows and `dmem_top` pick it up).
    /// Until armed, every op pays one `None` check; re-arming is a no-op
    /// (the first registry wins).
    pub fn arm_telemetry(&mut self, registry: &MetricsRegistry) {
        self.counters
            .get_or_insert_with(|| AllocCounters::register(registry));
    }

    /// The heap's server.
    #[must_use]
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Allocates `data` into the heap, returning the object address.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures (the reservation is rolled
    /// back); rejects objects larger than [`MAX_RUN_PAGES`] pages.
    pub fn alloc(&mut self, data: &[u8]) -> DmemResult<u64> {
        let stored_len = data.len() + HEADER_BYTES;
        if (stored_len as u64).div_ceil(PAGE_BYTES) > MAX_RUN_PAGES {
            return Err(DmemError::Unsupported {
                op: format!("alloc of {} bytes (> {MAX_RUN_PAGES} pages)", data.len()),
            });
        }
        let (addr, kind) = self.arena.reserve(stored_len, data.len() as u64);
        let framed = frame(kind, data);
        let result = match self.config.granularity {
            Granularity::Object => self
                .dm
                .put_pref(self.server, self.object_key(addr), framed, self.config.pref)
                .map(|()| {
                    self.fetched_bytes += stored_len as u64;
                }),
            Granularity::Page => self.write_span(addr, &framed),
        };
        if let Err(err) = result {
            self.arena.release(addr);
            return Err(err);
        }
        self.useful_bytes += data.len() as u64;
        self.ops.alloc += 1;
        self.note_op(0, stored_len as u64, data.len() as u64);
        Ok(addr)
    }

    /// Allocates a batch, using the cluster's batched put verb in
    /// object mode so small objects share fabric round-trips.
    ///
    /// # Errors
    ///
    /// Propagates the first backing failure; prior reservations of the
    /// failed batch are rolled back.
    pub fn alloc_many(&mut self, items: &[Vec<u8>]) -> DmemResult<Vec<u64>> {
        match self.config.granularity {
            Granularity::Page => items.iter().map(|d| self.alloc(d)).collect(),
            Granularity::Object => {
                let mut addrs = Vec::with_capacity(items.len());
                let mut batch = Vec::with_capacity(items.len());
                let mut stored = 0u64;
                let mut useful = 0u64;
                for data in items {
                    let stored_len = data.len() + HEADER_BYTES;
                    if (stored_len as u64).div_ceil(PAGE_BYTES) > MAX_RUN_PAGES {
                        for addr in &addrs {
                            self.arena.release(*addr);
                        }
                        return Err(DmemError::Unsupported {
                            op: format!("alloc of {} bytes (> {MAX_RUN_PAGES} pages)", data.len()),
                        });
                    }
                    let (addr, kind) = self.arena.reserve(stored_len, data.len() as u64);
                    addrs.push(addr);
                    batch.push((self.object_key(addr), frame(kind, data)));
                    stored += stored_len as u64;
                    useful += data.len() as u64;
                }
                if let Err(err) = self.dm.put_batch(self.server, batch, self.config.pref) {
                    for addr in &addrs {
                        self.arena.release(*addr);
                    }
                    return Err(err);
                }
                self.fetched_bytes += stored;
                self.useful_bytes += useful;
                self.ops.alloc += items.len() as u64;
                self.note_op(0, stored, useful);
                Ok(addrs)
            }
        }
    }

    /// Reads the object at `addr` byte-exactly.
    ///
    /// # Errors
    ///
    /// `EntryNotFound` when no live object sits at `addr`; propagates
    /// backing-store failures.
    pub fn get(&mut self, addr: u64) -> DmemResult<Vec<u8>> {
        let obj = *self
            .arena
            .lookup(addr)
            .ok_or_else(|| self.not_found(addr))?;
        let stored_len = obj.len as usize + HEADER_BYTES;
        let framed = match self.config.granularity {
            Granularity::Object => {
                let bytes = self.dm.get(self.server, self.object_key(addr))?;
                self.fetched_bytes += bytes.len() as u64;
                bytes
            }
            Granularity::Page => self.read_span(addr, stored_len)?,
        };
        let entry = EntryId::new(self.server, self.object_key(addr));
        let data = unframe(&framed, obj.kind, stored_len, entry)?;
        self.useful_bytes += obj.len;
        self.ops.get += 1;
        self.note_op(2, stored_len as u64, obj.len);
        Ok(data)
    }

    /// Batched read; uses the cluster's batched get verb in object mode.
    ///
    /// # Errors
    ///
    /// Fails on the first missing address or backing failure.
    pub fn get_many(&mut self, addrs: &[u64]) -> DmemResult<Vec<Vec<u8>>> {
        match self.config.granularity {
            Granularity::Page => addrs.iter().map(|a| self.get(*a)).collect(),
            Granularity::Object => {
                let mut objs = Vec::with_capacity(addrs.len());
                for addr in addrs {
                    objs.push(*self.arena.lookup(*addr).ok_or_else(|| self.not_found(*addr))?);
                }
                let keys: Vec<u64> = addrs.iter().map(|a| self.object_key(*a)).collect();
                let framed = self.dm.get_batch(self.server, &keys)?;
                let mut out = Vec::with_capacity(addrs.len());
                let mut stored = 0u64;
                let mut useful = 0u64;
                for ((bytes, obj), addr) in framed.into_iter().zip(objs.iter()).zip(addrs) {
                    let stored_len = obj.len as usize + HEADER_BYTES;
                    stored += bytes.len() as u64;
                    useful += obj.len;
                    let entry = EntryId::new(self.server, self.object_key(*addr));
                    out.push(unframe(&bytes, obj.kind, stored_len, entry)?);
                }
                self.fetched_bytes += stored;
                self.useful_bytes += useful;
                self.ops.get += addrs.len() as u64;
                self.note_op(2, stored, useful);
                Ok(out)
            }
        }
    }

    /// Overwrites the object at `addr` in place. The new payload must
    /// still fit the slot reserved at alloc time; in object mode this
    /// is a pure write (no read-modify-write).
    ///
    /// # Errors
    ///
    /// `EntryNotFound` for a dead address, `Unsupported` when the new
    /// payload outgrows the slot; propagates backing failures.
    pub fn update(&mut self, addr: u64, data: &[u8]) -> DmemResult<()> {
        let obj = *self
            .arena
            .lookup(addr)
            .ok_or_else(|| self.not_found(addr))?;
        let stored_len = data.len() + HEADER_BYTES;
        if stored_len as u64 > obj.kind.capacity() {
            return Err(DmemError::Unsupported {
                op: format!(
                    "update of {} bytes into a {}-byte slot",
                    data.len(),
                    obj.kind.capacity()
                ),
            });
        }
        let framed = frame(obj.kind, data);
        match self.config.granularity {
            Granularity::Object => {
                self.dm
                    .put_pref(self.server, self.object_key(addr), framed, self.config.pref)?;
                self.fetched_bytes += stored_len as u64;
            }
            Granularity::Page => self.write_span(addr, &framed)?,
        }
        self.arena.set_len(addr, data.len() as u64);
        self.useful_bytes += data.len() as u64;
        self.ops.update += 1;
        self.note_op(3, stored_len as u64, data.len() as u64);
        Ok(())
    }

    /// Alias for [`Self::update`] — the heap's store verb.
    ///
    /// # Errors
    ///
    /// See [`Self::update`].
    pub fn put(&mut self, addr: u64, data: &[u8]) -> DmemResult<()> {
        self.update(addr, data)
    }

    /// Frees the object at `addr`, returning its slot to the bins (and
    /// coalescing runs / trimming the break when extents empty).
    ///
    /// # Errors
    ///
    /// `EntryNotFound` for a dead address; propagates backing failures.
    pub fn free(&mut self, addr: u64) -> DmemResult<()> {
        let obj = self
            .arena
            .release(addr)
            .ok_or_else(|| self.not_found(addr))?;
        match self.config.granularity {
            Granularity::Object => {
                self.dm.delete(self.server, self.object_key(addr))?;
            }
            Granularity::Page => match obj.kind {
                SlotKind::Run(pages) => {
                    let first = addr / PAGE_BYTES;
                    for page in first..first + pages {
                        self.dm.delete(self.server, self.page_key(page))?;
                    }
                }
                SlotKind::Class(_) => {
                    let page = addr / PAGE_BYTES;
                    if self.arena.page_carved(page) {
                        // Slot neighbours live on: zero the slot with a
                        // read-modify-write of the page image.
                        let zeros = vec![0u8; obj.len as usize + HEADER_BYTES];
                        self.write_span(addr, &zeros)?;
                    } else {
                        // Last slot out: the page coalesced away, drop
                        // the whole image.
                        self.dm.delete(self.server, self.page_key(page))?;
                    }
                }
            },
        }
        self.ops.free += 1;
        self.note_op(1, 0, 0);
        Ok(())
    }

    /// Accounting snapshot.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            granularity: self.config.granularity,
            tenant: self.tenant.clone(),
            live_objects: self.arena.live_count(),
            live_bytes: self.arena.live_bytes(),
            slot_bytes: self.arena.slot_bytes(),
            reserved_bytes: self.arena.reserved_bytes(),
            fetched_bytes: self.fetched_bytes,
            useful_bytes: self.useful_bytes,
            ops: self.ops,
        }
    }

    /// Structural digest of the allocator metadata (live set, break,
    /// free runs) — equal before and after [`Self::reconstruct`].
    #[must_use]
    pub fn metadata_digest(&self) -> u64 {
        self.arena.digest()
    }

    /// Rebuilds a heap's allocator metadata from the backing store
    /// alone — the fault-survival path. The object bytes are already
    /// replicated by the cluster tiers; this recovery scan walks the
    /// heap's key namespace, reads each frame header, and rebuilds the
    /// arena map. The rebuilt [`Self::metadata_digest`] equals the
    /// original's.
    ///
    /// Only object granularity is reconstructible: page images do not
    /// record slot occupancy individually (exactly the metadata
    /// opacity the paper charges against paging).
    ///
    /// # Errors
    ///
    /// `Unsupported` for page granularity; propagates read failures
    /// and `Corrupt` for undecodable frames.
    pub fn reconstruct(
        dm: Arc<DisaggregatedMemory>,
        server: ServerId,
        config: HeapConfig,
    ) -> DmemResult<Self> {
        if config.granularity != Granularity::Object {
            return Err(DmemError::Unsupported {
                op: "reconstruct of a page-granularity heap".to_string(),
            });
        }
        let mut objects: Vec<(u64, SlotKind, u64)> = Vec::new();
        for (owner, key, _record) in dm.entries_snapshot() {
            if owner != server || key < KEY_BASE {
                continue;
            }
            let addr = (key - KEY_BASE) << 4;
            let bytes = dm.get(server, key)?;
            if bytes.len() < HEADER_BYTES {
                return Err(DmemError::Corrupt(EntryId::new(server, key)));
            }
            let kind = match bytes[0] {
                RUN_TAG => SlotKind::Run(u64::from(bytes[1])),
                idx if (idx as usize) < CLASSES.len() => SlotKind::Class(idx as usize),
                _ => return Err(DmemError::Corrupt(EntryId::new(server, key))),
            };
            objects.push((addr, kind, (bytes.len() - HEADER_BYTES) as u64));
        }
        objects.sort_by_key(|(addr, _, _)| *addr);
        let mut heap = ObjectHeap::new(dm, server, config);
        heap.arena = ArenaMap::rebuild(&objects);
        Ok(heap)
    }

    fn object_key(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr % 16, 0, "object addresses are 16-byte aligned");
        KEY_BASE + (addr >> 4)
    }

    fn page_key(&self, page: u64) -> u64 {
        KEY_BASE + page
    }

    fn not_found(&self, addr: u64) -> DmemError {
        DmemError::EntryNotFound(EntryId::new(self.server, self.object_key(addr)))
    }

    /// Page-granularity read of `[addr, addr + len)`: fetches every
    /// overlapped 4 KiB page image and splices the span out.
    fn read_span(&mut self, addr: u64, len: usize) -> DmemResult<Vec<u8>> {
        let first = addr / PAGE_BYTES;
        let last = (addr + len as u64 - 1) / PAGE_BYTES;
        let mut out = Vec::with_capacity(len);
        for page in first..=last {
            let image = self.dm.get(self.server, self.page_key(page))?;
            self.fetched_bytes += PAGE_BYTES;
            let page_start = page * PAGE_BYTES;
            let lo = addr.max(page_start) - page_start;
            let hi = (addr + len as u64).min(page_start + PAGE_BYTES) - page_start;
            out.extend_from_slice(&image[lo as usize..hi as usize]);
        }
        Ok(out)
    }

    /// Page-granularity write of `bytes` at `addr`: read-modify-write
    /// of every overlapped page image (first touch writes a fresh
    /// zero-filled image without a read).
    fn write_span(&mut self, addr: u64, bytes: &[u8]) -> DmemResult<()> {
        let first = addr / PAGE_BYTES;
        let last = (addr + bytes.len() as u64 - 1) / PAGE_BYTES;
        for page in first..=last {
            let pkey = self.page_key(page);
            let mut image = if self.dm.record(self.server, pkey).is_some() {
                let img = self.dm.get(self.server, pkey)?;
                self.fetched_bytes += PAGE_BYTES;
                img
            } else {
                vec![0u8; PAGE_SIZE]
            };
            let page_start = page * PAGE_BYTES;
            let lo = addr.max(page_start);
            let hi = (addr + bytes.len() as u64).min(page_start + PAGE_BYTES);
            let src = (lo - addr) as usize..(hi - addr) as usize;
            let dst = (lo - page_start) as usize..(hi - page_start) as usize;
            image[dst].copy_from_slice(&bytes[src]);
            self.dm
                .put_pref(self.server, pkey, image, self.config.pref)?;
            self.fetched_bytes += PAGE_BYTES;
        }
        Ok(())
    }

    /// Telemetry hook: op kind 0=alloc 1=free 2=get 3=update.
    fn note_op(&self, kind: u8, fetched: u64, useful: u64) {
        if let Some(counters) = &self.counters {
            let bytes = [fetched, useful, fetched.saturating_sub(useful)];
            for (counter, n) in counters.bytes.iter().zip(bytes) {
                counter.add(n);
            }
            counters.ops[usize::from(kind)].inc();
            let (live, reserved) = (self.arena.live_bytes(), self.arena.reserved_bytes());
            let frag_bp = match reserved {
                0 => 0,
                _ => 10_000u128 - 10_000u128 * u128::from(live) / u128::from(reserved),
            };
            let slot = self.arena.slot_bytes();
            let footprint = [live as i64, slot as i64, reserved as i64, frag_bp as i64];
            for (gauge, value) in counters.footprint.iter().zip(footprint) {
                gauge.set(value);
            }
        }
    }
}

/// Frames `data` with its slot-kind header.
fn frame(kind: SlotKind, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + HEADER_BYTES);
    match kind {
        SlotKind::Class(idx) => {
            out.push(idx as u8);
            out.push(0);
        }
        SlotKind::Run(pages) => {
            out.push(RUN_TAG);
            out.push(pages as u8);
        }
    }
    out.extend_from_slice(data);
    out
}

/// Strips and verifies the frame header.
fn unframe(framed: &[u8], kind: SlotKind, stored_len: usize, entry: EntryId) -> DmemResult<Vec<u8>> {
    let ok = framed.len() >= stored_len
        && match kind {
            SlotKind::Class(idx) => framed[0] == idx as u8,
            SlotKind::Run(pages) => framed[0] == RUN_TAG && u64::from(framed[1]) == pages,
        };
    if !ok {
        return Err(DmemError::Corrupt(entry));
    }
    Ok(framed[HEADER_BYTES..stored_len].to_vec())
}
