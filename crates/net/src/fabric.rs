//! The fabric: registered memory regions, queue pairs and verbs.

use crate::faults::{FabricFaults, VerbOutcome, OP_TIMEOUT, RETRY_ATTEMPTS};
use dmem_sim::{
    CostModel, Counter, FailureInjector, LazyCounter, LazyHistogram, MetricsRegistry, SimClock,
    SimDuration,
};
use dmem_types::{ByteSize, DmemError, DmemResult, IdMap, MrId, NodeId, QpId, TenantId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Handle to a registered memory region; carries the remote key the owner
/// hands out to peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionHandle {
    /// Region identifier.
    pub mr: MrId,
    /// Node owning the physical memory.
    pub node: NodeId,
    /// Remote key checked on every one-sided access.
    pub rkey: u64,
}

/// Handle to one endpoint of an RC queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpHandle {
    /// Queue pair identifier (shared by both endpoints).
    pub qp: QpId,
    /// The local endpoint.
    pub local: NodeId,
    /// The remote endpoint.
    pub peer: NodeId,
}

/// A run of a region's written bytes: `len` bytes of `buf` from `at`.
/// The buffer is shared and never changed, so every replica written
/// from it holds the same bytes once.
struct Piece {
    buf: Arc<[u8]>,
    at: usize,
    len: usize,
}

impl Piece {
    fn bytes(&self) -> &[u8] {
        &self.buf[self.at..self.at + self.len]
    }
}

/// A registered region. Registered memory costs physical pages only
/// where it has been written, so a region keeps just its written bytes,
/// as pieces of the writers' buffers keyed by region offset; the rest
/// reads as zeros. A receive pool that peers have filled a third of
/// holds a third of its length, and three replicas of one window hold
/// its buffers once between them.
struct Region {
    node: NodeId,
    rkey: u64,
    len: usize,
    /// Written bytes by region offset; no two pieces overlap.
    pieces: BTreeMap<usize, Piece>,
    /// The pieces' total length.
    held: usize,
}

impl Region {
    fn new(node: NodeId, rkey: u64, len: usize) -> Self {
        Region {
            node,
            rkey,
            len,
            pieces: BTreeMap::new(),
            held: 0,
        }
    }

    /// Places `bufs` end to end from `start`, over whatever was there.
    /// The caller has checked the bounds.
    fn write(&mut self, start: usize, bufs: &[Arc<[u8]>]) {
        let total = bufs.iter().map(|b| b.len()).sum::<usize>();
        self.forget(start, start + total);
        let mut at = start;
        for buf in bufs.iter().filter(|b| !b.is_empty()) {
            let len = buf.len();
            self.pieces.insert(at, Piece { buf: Arc::clone(buf), at: 0, len });
            self.held += len;
            at += len;
        }
    }

    /// Drops the bytes of `start..end`, trimming the pieces that reach
    /// into it: from then on the range reads as zeros. Walks the pieces
    /// from the right, so a range nothing overlaps costs one lookup.
    fn forget(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        while let Some((&at, piece)) = self.pieces.range_mut(..end).next_back() {
            let piece_end = at + piece.len;
            if piece_end <= start {
                return;
            }
            if at < start {
                // It begins before the range: it keeps its head, and its
                // tail too if it runs past the range. Nothing further
                // left reaches the range.
                piece.len = start - at;
                self.held -= piece_end.min(end) - start;
                if piece_end > end {
                    let tail = Piece {
                        buf: Arc::clone(&piece.buf),
                        at: piece.at + (end - at),
                        len: piece_end - end,
                    };
                    self.pieces.insert(end, tail);
                }
                return;
            }
            // It begins inside the range: it goes, but for what runs past
            // the range's end.
            let mut piece = self.pieces.remove(&at).expect("piece just seen");
            if piece_end > end {
                let cut = end - at;
                piece.at += cut;
                piece.len -= cut;
                self.held -= cut;
                self.pieces.insert(end, piece);
            } else {
                self.held -= piece.len;
            }
        }
    }

    /// The `len` bytes at `start`, zeros where nothing is held. A read
    /// inside one piece is one lookup and one copy. The caller has
    /// checked the bounds.
    fn read(&self, start: usize, len: usize) -> Vec<u8> {
        let end = start + len;
        let before = self.pieces.range(..=start).next_back();
        if let Some((&at, piece)) = before {
            if at + piece.len >= end {
                return piece.bytes()[start - at..end - at].to_vec();
            }
        }
        let mut out = Vec::with_capacity(len);
        let from = before.map_or(start, |(&at, _)| at);
        for (&at, piece) in self.pieces.range(from..end) {
            let (lo, hi) = (at.max(start), (at + piece.len).min(end));
            if lo < hi {
                out.resize(lo - start, 0);
                out.extend_from_slice(&piece.bytes()[lo - at..hi - at]);
            }
        }
        out.resize(len, 0);
        out
    }
}

struct QpState {
    a: NodeId,
    b: NodeId,
    /// In-order message queue per direction (two-sided SEND/RECV).
    to_a: VecDeque<Vec<u8>>,
    to_b: VecDeque<Vec<u8>>,
    /// Send sequence numbers per direction, for at-most-once accounting.
    seq_from_a: u64,
    seq_from_b: u64,
    connected: bool,
    /// A broken queue pair (fault injection drove it to the RC error
    /// state): verbs fail until the connection manager re-establishes.
    error: bool,
}

#[derive(Default)]
struct Inner {
    regions: IdMap<MrId, Region>,
    qps: IdMap<QpId, QpState>,
    registered_per_node: IdMap<NodeId, ByteSize>,
}

/// Every metric the fabric touches per verb, resolved on first touch:
/// one table behind an `Arc`, shared by all clones of a [`Fabric`].
struct FabricMetrics {
    mr_registered: LazyCounter,
    mr_deregistered: LazyCounter,
    qp_connected: LazyCounter,
    write_ops: LazyCounter,
    write_bytes: LazyCounter,
    write_ns: LazyHistogram,
    read_ops: LazyCounter,
    read_bytes: LazyCounter,
    read_ns: LazyHistogram,
    send_ops: LazyCounter,
    send_bytes: LazyCounter,
    recv_ops: LazyCounter,
    recv_bytes: LazyCounter,
    qp_broken: LazyCounter,
    retry_attempts: LazyCounter,
    retry_recovered: LazyCounter,
    retry_exhausted: LazyCounter,
    retry_deadline: LazyCounter,
    retry_wait_ns: LazyHistogram,
    inject_drop: LazyCounter,
    inject_delay: LazyCounter,
    inject_duplicate: LazyCounter,
    /// `(ops, bytes)` counters per scoped tenant, resolved on the
    /// tenant's first charged verb.
    tenants: Mutex<IdMap<u64, (Counter, Counter)>>,
}

impl FabricMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name: &'static str| LazyCounter::new(registry, name);
        let histogram = |name: &'static str| LazyHistogram::new(registry, name);
        FabricMetrics {
            mr_registered: counter("net.mr.registered"),
            mr_deregistered: counter("net.mr.deregistered"),
            qp_connected: counter("net.qp.connected"),
            write_ops: counter("net.write.ops"),
            write_bytes: counter("net.write.bytes"),
            write_ns: histogram("net.write.ns"),
            read_ops: counter("net.read.ops"),
            read_bytes: counter("net.read.bytes"),
            read_ns: histogram("net.read.ns"),
            send_ops: counter("net.send.ops"),
            send_bytes: counter("net.send.bytes"),
            recv_ops: counter("net.recv.ops"),
            recv_bytes: counter("net.recv.bytes"),
            qp_broken: counter("faults.qp.broken"),
            retry_attempts: counter("faults.retry.attempts"),
            retry_recovered: counter("faults.retry.recovered"),
            retry_exhausted: counter("faults.retry.exhausted"),
            retry_deadline: counter("faults.retry.deadline"),
            retry_wait_ns: histogram("faults.retry.wait.ns"),
            inject_drop: counter("faults.inject.drop"),
            inject_delay: counter("faults.inject.delay"),
            inject_duplicate: counter("faults.inject.duplicate"),
            tenants: Mutex::new(IdMap::default()),
        }
    }
}

/// The simulated RDMA fabric shared by all nodes of a cluster.
///
/// Cheap to clone; all clones view the same fabric.
#[derive(Clone)]
pub struct Fabric {
    clock: SimClock,
    cost: CostModel,
    failures: FailureInjector,
    metrics: MetricsRegistry,
    handles: Arc<FabricMetrics>,
    inner: Arc<Mutex<Inner>>,
    next_id: Arc<AtomicU64>,
    /// Tenant currently charged for verbs ([`NO_TENANT`] = unattributed).
    /// Shared across clones, set by the QoS layer around remote
    /// operations; per-tenant counters exist only while a scope is set,
    /// so QoS-disabled runs create no extra metric keys.
    tenant_scope: Arc<AtomicU64>,
    /// Installed-at-most-once fault layer. Absent (the default), verbs
    /// run exactly as they always have: no extra RNG draws, clock
    /// advances or metric keys, so fault-free runs stay byte-identical.
    faults: Arc<OnceLock<Arc<FabricFaults>>>,
}

/// Sentinel for "no tenant scope in force".
const NO_TENANT: u64 = u64::MAX;

impl Fabric {
    /// Creates a fabric over the given clock, cost model and failure
    /// injector.
    pub fn new(clock: SimClock, cost: CostModel, failures: FailureInjector) -> Self {
        let metrics = MetricsRegistry::new();
        Fabric {
            clock,
            cost,
            failures,
            handles: Arc::new(FabricMetrics::new(&metrics)),
            metrics,
            inner: Arc::new(Mutex::new(Inner::default())),
            next_id: Arc::new(AtomicU64::new(1)),
            tenant_scope: Arc::new(AtomicU64::new(NO_TENANT)),
            faults: Arc::new(OnceLock::new()),
        }
    }

    /// Installs the fault-injection layer. All clones of this fabric
    /// observe it; verbs consult it from then on for drops, delays,
    /// duplication and the retry policy.
    ///
    /// # Panics
    ///
    /// Panics if a layer is already installed — swapping adversaries
    /// mid-run would break seed reproducibility.
    pub fn install_faults(&self, faults: Arc<FabricFaults>) {
        if self.faults.set(faults).is_err() {
            panic!("fault layer already installed for this fabric");
        }
    }

    /// Whether a fault layer is installed. Layers above use this to keep
    /// their fault-mode accounting (failover counters, suspect marking,
    /// disk write-through) out of fault-free runs.
    pub fn faults_installed(&self) -> bool {
        self.faults.get().is_some()
    }

    /// Sets (or clears) the tenant charged for subsequent verbs. All
    /// clones of this fabric observe the scope; callers bracket their
    /// remote operations with set/clear.
    pub fn set_tenant_scope(&self, tenant: Option<TenantId>) {
        let raw = tenant.map_or(NO_TENANT, |t| u64::from(t.index()));
        self.tenant_scope.store(raw, Ordering::Relaxed);
    }

    /// Attributes `bytes` of verb traffic to the scoped tenant, if one is
    /// set. No-op (and no metric keys created) otherwise.
    fn charge_tenant(&self, bytes: u64) {
        let raw = self.tenant_scope.load(Ordering::Relaxed);
        if raw == NO_TENANT {
            return;
        }
        let mut tenants = self.handles.tenants.lock();
        let (ops, moved) = tenants.entry(raw).or_insert_with(|| {
            (
                self.metrics.counter(&format!("net.tenant-{raw}.ops")),
                self.metrics.counter(&format!("net.tenant-{raw}.bytes")),
            )
        });
        ops.inc();
        moved.add(bytes);
    }

    /// The fabric's metrics registry (verb counts, bytes moved).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The failure injector the fabric consults.
    pub fn failures(&self) -> &FailureInjector {
        &self.failures
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers `len` bytes of DRAM on `node` for remote access.
    ///
    /// Registration pins pages and programs the NIC's translation table;
    /// we charge one RDMA base latency per 256 registered pages to model
    /// that this is not free (which is why the eviction handler
    /// deregisters preemptively, §IV-F).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::NodeUnavailable`] if the node is down.
    pub fn register(&self, node: NodeId, len: ByteSize) -> DmemResult<RegionHandle> {
        if !self.failures.is_node_up(node) {
            return Err(DmemError::NodeUnavailable(node));
        }
        let pages = len.pages(4096);
        let span = self.clock.tracer().span("net", "register");
        span.tag("bytes", len.as_u64());
        self.clock
            .advance(self.cost.rdma.base * pages.div_ceil(256).max(1));
        let mr = MrId::new(self.fresh_id());
        let rkey = self.fresh_id() ^ u64_rotate(mr.as_u64());
        let mut inner = self.inner.lock();
        inner
            .regions
            .insert(mr, Region::new(node, rkey, len.as_usize()));
        *inner
            .registered_per_node
            .entry(node)
            .or_insert(ByteSize::ZERO) += len;
        self.handles.mr_registered.inc();
        Ok(RegionHandle { mr, node, rkey })
    }

    /// Deregisters a region, releasing its memory.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::RegionNotRegistered`] if the region does not
    /// exist (e.g. already deregistered).
    pub fn deregister(&self, handle: &RegionHandle) -> DmemResult<()> {
        let mut inner = self.inner.lock();
        let region = inner
            .regions
            .remove(&handle.mr)
            .ok_or(DmemError::RegionNotRegistered)?;
        let len = ByteSize::from(region.len);
        if let Some(total) = inner.registered_per_node.get_mut(&region.node) {
            *total -= len;
        }
        self.handles.mr_deregistered.inc();
        Ok(())
    }

    /// Total bytes currently registered on `node`.
    #[cfg(test)]
    pub(crate) fn registered_bytes(&self, node: NodeId) -> ByteSize {
        self.inner
            .lock()
            .registered_per_node
            .get(&node)
            .copied()
            .unwrap_or(ByteSize::ZERO)
    }

    /// Establishes an RC queue pair between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::NodeUnavailable`] or [`DmemError::LinkDown`]
    /// if either endpoint or the link is down.
    pub fn connect(&self, a: NodeId, b: NodeId) -> DmemResult<QpHandle> {
        self.failures.path(a, b)?;
        // Connection establishment is a control-plane round trip.
        self.clock.advance(self.cost.rdma.base * 2);
        let qp = QpId::new(self.fresh_id());
        self.inner.lock().qps.insert(
            qp,
            QpState {
                a,
                b,
                to_a: VecDeque::new(),
                to_b: VecDeque::new(),
                seq_from_a: 0,
                seq_from_b: 0,
                connected: true,
                error: false,
            },
        );
        self.handles.qp_connected.inc();
        Ok(QpHandle { qp, local: a, peer: b })
    }

    /// The same queue pair viewed from the other endpoint.
    pub fn peer_handle(&self, qp: &QpHandle) -> QpHandle {
        QpHandle {
            qp: qp.qp,
            local: qp.peer,
            peer: qp.local,
        }
    }

    /// Tears down a queue pair.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::RegionNotRegistered`] if the queue pair is
    /// unknown.
    pub(crate) fn disconnect(&self, qp: &QpHandle) -> DmemResult<()> {
        let mut inner = self.inner.lock();
        let state = inner
            .qps
            .get_mut(&qp.qp)
            .ok_or(DmemError::RegionNotRegistered)?;
        state.connected = false;
        Ok(())
    }

    /// Whether RDMA traffic can flow between `a` and `b` right now:
    /// both endpoints up and the link between them intact.
    ///
    /// This is the reachability query the chaos harness uses to decide
    /// whether a replica *should* be readable before asserting that a
    /// get succeeds.
    pub fn is_path_up(&self, a: NodeId, b: NodeId) -> bool {
        self.failures.path(a, b).is_ok()
    }

    /// Drives every established queue pair between `a` and `b` (either
    /// orientation) to the error state, as a NIC does on RC retransmit
    /// exhaustion. Verbs on a broken pair fail with [`DmemError::LinkDown`]
    /// until [`crate::ConnectionManager`] re-establishes fresh pairs.
    /// Returns how many pairs broke.
    pub fn break_qps(&self, a: NodeId, b: NodeId) -> usize {
        let mut broken = 0usize;
        {
            let mut inner = self.inner.lock();
            for state in inner.qps.values_mut() {
                let on_pair = (state.a == a && state.b == b) || (state.a == b && state.b == a);
                if on_pair && state.connected && !state.error {
                    state.error = true;
                    broken += 1;
                }
            }
        }
        if broken > 0 {
            self.handles.qp_broken.add(broken as u64);
        }
        broken
    }

    fn check_qp(&self, qp: &QpHandle) -> DmemResult<()> {
        self.failures.path(qp.local, qp.peer)?;
        let inner = self.inner.lock();
        match inner.qps.get(&qp.qp) {
            Some(state) if state.connected && !state.error => Ok(()),
            _ => Err(DmemError::LinkDown {
                from: qp.local,
                to: qp.peer,
            }),
        }
    }

    /// Runs one verb attempt under the installed retry policy: transient
    /// failures (timeouts, link errors) back off exponentially with
    /// seeded jitter on the virtual clock and retry, up to the policy's
    /// attempt budget or per-verb deadline. Without an installed fault
    /// layer this is exactly one plain call.
    ///
    /// Backoff waits happen outside any sync span, so they land in the
    /// attribution's `(untraced)` row and the exact-identity property
    /// (rows + untraced = total) is preserved; each wait is additionally
    /// recorded as an async `faults/backoff` timeline event.
    fn with_retry<T>(
        &self,
        what: &'static str,
        mut attempt_once: impl FnMut() -> DmemResult<T>,
    ) -> DmemResult<T> {
        let Some(faults) = self.faults.get() else {
            return attempt_once();
        };
        let deadline = self.clock.now() + OP_TIMEOUT;
        let mut attempt = 0u32;
        // Total backoff wait this verb accumulated, recorded into the
        // `faults.retry.wait.ns` histogram whenever a retry happened —
        // the per-attempt `net.*.ns` histograms see only the successful
        // transfer, so this is the timeline's view of retry-induced
        // latency (and what the burn-rate alert rules watch). The key is
        // only ever created after a real retry, keeping fault-free runs
        // metric-free.
        let mut waited = SimDuration::ZERO;
        loop {
            match attempt_once() {
                Ok(value) => {
                    if attempt > 0 {
                        self.handles.retry_recovered.inc();
                        self.handles.retry_wait_ns.record(waited.as_nanos());
                    }
                    return Ok(value);
                }
                Err(e) => {
                    let transient = matches!(
                        e,
                        DmemError::Timeout { .. } | DmemError::LinkDown { .. }
                    );
                    if !transient || attempt + 1 >= RETRY_ATTEMPTS {
                        if transient {
                            self.handles.retry_exhausted.inc();
                        }
                        if attempt > 0 {
                            self.handles.retry_wait_ns.record(waited.as_nanos());
                        }
                        return Err(e);
                    }
                    let now = self.clock.now();
                    if now >= deadline {
                        self.handles.retry_deadline.inc();
                        if attempt > 0 {
                            self.handles.retry_wait_ns.record(waited.as_nanos());
                        }
                        return Err(DmemError::Timeout {
                            what: format!("net.{what} deadline"),
                        });
                    }
                    let wait = faults.jittered_backoff(attempt);
                    self.handles.retry_attempts.inc();
                    waited = waited + wait;
                    self.clock.advance(wait);
                    self.clock.tracer().record_async(
                        "faults",
                        "backoff",
                        now,
                        self.clock.now(),
                        &[("attempt", u64::from(attempt) + 1)],
                    );
                    attempt += 1;
                }
            }
        }
    }

    /// Applies the fault layer's verdict to one verb attempt: charges
    /// injected latency (delays, duplicated transfers) to the virtual
    /// clock and surfaces drops as timeouts. No-op without a layer.
    fn inject_verb_fault(&self, verb: &'static str, bytes: usize) -> DmemResult<()> {
        let Some(faults) = self.faults.get() else {
            return Ok(());
        };
        match faults.verb_outcome() {
            VerbOutcome::Deliver => Ok(()),
            VerbOutcome::Drop => {
                // The verb left the NIC; the RC retransmit budget burns
                // the full transfer before the caller sees the timeout.
                let t0 = self.clock.now();
                self.clock.advance(self.cost.rdma.transfer(bytes));
                self.handles.inject_drop.inc();
                self.clock.tracer().record_async(
                    "faults",
                    "drop",
                    t0,
                    self.clock.now(),
                    &[("bytes", bytes as u64)],
                );
                Err(DmemError::Timeout {
                    what: format!("rdma {verb}"),
                })
            }
            VerbOutcome::Delay(extra) => {
                let t0 = self.clock.now();
                self.clock.advance(extra);
                self.handles.inject_delay.inc();
                self.clock.tracer().record_async(
                    "faults",
                    "delay",
                    t0,
                    self.clock.now(),
                    &[("bytes", bytes as u64)],
                );
                Ok(())
            }
            VerbOutcome::Duplicate => {
                // Idempotent at this layer (same bytes, same slot), so
                // duplication costs wire time, not correctness.
                let t0 = self.clock.now();
                self.clock.advance(self.cost.rdma.transfer(bytes));
                self.handles.inject_duplicate.inc();
                self.clock.tracer().record_async(
                    "faults",
                    "duplicate",
                    t0,
                    self.clock.now(),
                    &[("bytes", bytes as u64)],
                );
                Ok(())
            }
        }
    }

    /// One-sided RDMA WRITE: places `data` into the remote region at
    /// `offset` without involving the remote CPU. The region keeps one
    /// copy of `data`; [`Fabric::write_shared`] writes a caller's buffers
    /// without one.
    ///
    /// # Errors
    ///
    /// Fails if the path is down ([`DmemError::LinkDown`] /
    /// [`DmemError::NodeUnavailable`]), the region is gone
    /// ([`DmemError::RegionNotRegistered`]), the rkey does not match
    /// ([`DmemError::AccessDenied`]), the access is out of bounds
    /// ([`DmemError::RegionOutOfBounds`]), or the region is not on the
    /// peer node ([`DmemError::AccessDenied`]).
    pub fn write(&self, qp: &QpHandle, data: &[u8], region: &RegionHandle, offset: u64) -> DmemResult<()> {
        self.write_shared(qp, &[Arc::from(data)], region, offset)
    }

    /// One-sided RDMA WRITE with a gather list: places `bufs` end to end
    /// into the remote region from `offset`, as one verb that moves
    /// their total length. The region holds the buffers themselves, not
    /// copies, so regions written from the same buffers share them.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fabric::write`].
    pub fn write_shared(
        &self,
        qp: &QpHandle,
        bufs: &[Arc<[u8]>],
        region: &RegionHandle,
        offset: u64,
    ) -> DmemResult<()> {
        let total = bufs.iter().map(|b| b.len()).sum::<usize>();
        self.with_retry("write", || self.write_attempt(qp, bufs, total, region, offset))
    }

    fn write_attempt(
        &self,
        qp: &QpHandle,
        bufs: &[Arc<[u8]>],
        total: usize,
        region: &RegionHandle,
        offset: u64,
    ) -> DmemResult<()> {
        let span = self.clock.tracer().span("net", "write");
        span.tag("bytes", total);
        self.one_sided_access(qp, region, offset, total)?;
        self.inject_verb_fault("write", total)?;
        let t0 = self.clock.now();
        self.clock.advance(self.cost.rdma.transfer(total));
        let elapsed = self.clock.now() - t0;
        let mut inner = self.inner.lock();
        let r = inner
            .regions
            .get_mut(&region.mr)
            .ok_or(DmemError::RegionNotRegistered)?;
        r.write(offset as usize, bufs);
        self.handles.write_ops.inc();
        self.handles.write_bytes.add(total as u64);
        self.handles.write_ns.record(elapsed.as_nanos());
        self.charge_tenant(total as u64);
        Ok(())
    }

    /// Forgets `len` bytes of `region` from `offset`: the host freed
    /// them, so they read as zeros from now on and hold no memory. A
    /// local act of the owner: no verb, no virtual time, no metric. A
    /// region that is gone, or a range past its end, is ignored.
    pub fn discard(&self, region: &RegionHandle, offset: u64, len: u64) {
        let mut inner = self.inner.lock();
        if let Some(r) = inner.regions.get_mut(&region.mr) {
            let start = (offset as usize).min(r.len);
            let end = (offset.saturating_add(len) as usize).min(r.len);
            r.forget(start, end);
        }
    }

    /// Bytes `region` holds written: what it keeps in host memory (zero
    /// for a region that is gone).
    pub fn held_bytes(&self, region: &RegionHandle) -> u64 {
        self.inner
            .lock()
            .regions
            .get(&region.mr)
            .map_or(0, |r| r.held as u64)
    }

    /// Bytes of the distinct buffers every region's pieces keep alive:
    /// a buffer several regions share counts once, and one a later
    /// write trimmed counts whole.
    pub fn buffer_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let mut seen = std::collections::BTreeSet::new();
        inner
            .regions
            .values()
            .flat_map(|r| r.pieces.values())
            .filter(|p| seen.insert(Arc::as_ptr(&p.buf).cast::<u8>()))
            .map(|p| p.buf.len() as u64)
            .sum()
    }

    /// One-sided RDMA READ: fetches `len` bytes from the remote region.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fabric::write`].
    pub fn read(&self, qp: &QpHandle, region: &RegionHandle, offset: u64, len: usize) -> DmemResult<Vec<u8>> {
        self.with_retry("read", || self.read_attempt(qp, region, offset, len))
    }

    fn read_attempt(
        &self,
        qp: &QpHandle,
        region: &RegionHandle,
        offset: u64,
        len: usize,
    ) -> DmemResult<Vec<u8>> {
        let span = self.clock.tracer().span("net", "read");
        span.tag("bytes", len);
        self.one_sided_access(qp, region, offset, len)?;
        self.inject_verb_fault("read", len)?;
        let t0 = self.clock.now();
        self.clock.advance(self.cost.rdma.transfer(len));
        let elapsed = self.clock.now() - t0;
        let inner = self.inner.lock();
        let r = inner
            .regions
            .get(&region.mr)
            .ok_or(DmemError::RegionNotRegistered)?;
        let out = r.read(offset as usize, len);
        self.handles.read_ops.inc();
        self.handles.read_bytes.add(len as u64);
        self.handles.read_ns.record(elapsed.as_nanos());
        self.charge_tenant(len as u64);
        Ok(out)
    }

    fn one_sided_access(
        &self,
        qp: &QpHandle,
        region: &RegionHandle,
        offset: u64,
        len: usize,
    ) -> DmemResult<()> {
        self.check_qp(qp)?;
        let inner = self.inner.lock();
        let r = inner
            .regions
            .get(&region.mr)
            .ok_or(DmemError::RegionNotRegistered)?;
        if r.rkey != region.rkey {
            return Err(DmemError::AccessDenied);
        }
        if r.node != qp.peer {
            // One-sided verbs go to the connected peer's memory only.
            return Err(DmemError::AccessDenied);
        }
        let end = offset
            .checked_add(len as u64)
            .ok_or(DmemError::RegionOutOfBounds {
                offset,
                len: len as u64,
                capacity: r.len as u64,
            })?;
        if end > r.len as u64 {
            return Err(DmemError::RegionOutOfBounds {
                offset,
                len: len as u64,
                capacity: r.len as u64,
            });
        }
        Ok(())
    }

    /// Two-sided SEND: enqueues a message for the peer (control plane).
    ///
    /// Messages preserve boundaries and order, per the RDMA access model
    /// the paper describes in §IV-G.
    ///
    /// # Errors
    ///
    /// Fails with the same path errors as the one-sided verbs.
    pub fn send(&self, qp: &QpHandle, msg: Vec<u8>) -> DmemResult<u64> {
        // The clone feeds retries; skip it entirely on the fault-free
        // hot path.
        if self.faults.get().is_none() {
            return self.send_attempt(qp, msg);
        }
        self.with_retry("send", || self.send_attempt(qp, msg.clone()))
    }

    fn send_attempt(&self, qp: &QpHandle, msg: Vec<u8>) -> DmemResult<u64> {
        let span = self.clock.tracer().span("net", "send");
        span.tag("bytes", msg.len());
        self.check_qp(qp)?;
        self.inject_verb_fault("send", msg.len())?;
        let msg_len = msg.len() as u64;
        self.clock.advance(self.cost.rdma.transfer(msg.len()));
        let mut inner = self.inner.lock();
        let state = inner
            .qps
            .get_mut(&qp.qp)
            .ok_or(DmemError::RegionNotRegistered)?;
        debug_assert!(
            qp.local == state.a || qp.local == state.b,
            "queue pair handle endpoint mismatch"
        );
        let seq = if qp.local == state.a {
            state.to_b.push_back(msg);
            state.seq_from_a += 1;
            state.seq_from_a
        } else {
            state.to_a.push_back(msg);
            state.seq_from_b += 1;
            state.seq_from_b
        };
        self.handles.send_ops.inc();
        self.handles.send_bytes.add(msg_len);
        self.charge_tenant(msg_len);
        Ok(seq)
    }

    /// Two-sided RECV: dequeues the next message addressed to this
    /// endpoint, if any. Receiving does not advance the clock (the message
    /// already paid its transfer on send).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::RegionNotRegistered`] for an unknown queue
    /// pair.
    pub fn recv(&self, qp: &QpHandle) -> DmemResult<Option<Vec<u8>>> {
        let mut inner = self.inner.lock();
        let state = inner
            .qps
            .get_mut(&qp.qp)
            .ok_or(DmemError::RegionNotRegistered)?;
        let msg = if qp.local == state.a {
            state.to_a.pop_front()
        } else {
            state.to_b.pop_front()
        };
        if let Some(msg) = &msg {
            // Symmetric to send: count delivered messages and bytes.
            self.handles.recv_ops.inc();
            self.handles.recv_bytes.add(msg.len() as u64);
        }
        Ok(msg)
    }
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Fabric")
            .field("regions", &inner.regions.len())
            .field("qps", &inner.qps.len())
            .finish()
    }
}

// Small mixing helper so rkeys are not guessable from MrIds in tests.
fn u64_rotate(x: u64) -> u64 {
    x.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::FailureEvent;

    fn fabric() -> (SimClock, FailureInjector, Fabric) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
        (clock, failures, fabric)
    }

    #[test]
    fn write_read_roundtrip() {
        let (_, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(8)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        f.write(&qp, b"hello", &mr, 100).unwrap();
        assert_eq!(f.read(&qp, &mr, 100, 5).unwrap(), b"hello");
    }

    #[test]
    fn verbs_charge_time() {
        let (clock, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(8)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let before = clock.now();
        f.write(&qp, &[0u8; 4096], &mr, 0).unwrap();
        let elapsed = clock.now() - before;
        // 4 KiB at 5 GB/s + 1.8 us base ≈ 2.6 us.
        assert!(elapsed.as_micros_f64() > 2.0 && elapsed.as_micros_f64() < 4.0);
    }

    #[test]
    fn batched_transfer_cheaper_than_many_small() {
        let (clock, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_mib(1)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let t0 = clock.now();
        f.write(&qp, &vec![0u8; 32 * 4096], &mr, 0).unwrap();
        let batched = clock.now() - t0;
        let t1 = clock.now();
        for i in 0..32 {
            f.write(&qp, &vec![0u8; 4096], &mr, i * 4096).unwrap();
        }
        let separate = clock.now() - t1;
        assert!(batched < separate);
    }

    #[test]
    fn wrong_rkey_denied() {
        let (_, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(4)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let forged = RegionHandle { rkey: mr.rkey ^ 1, ..mr };
        assert_eq!(f.write(&qp, b"x", &forged, 0), Err(DmemError::AccessDenied));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (_, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(4)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(matches!(
            f.write(&qp, &[0u8; 16], &mr, 4090),
            Err(DmemError::RegionOutOfBounds { .. })
        ));
        assert!(matches!(
            f.read(&qp, &mr, u64::MAX, 16),
            Err(DmemError::RegionOutOfBounds { .. })
        ));
    }

    #[test]
    fn deregistered_region_faults() {
        let (_, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(4)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        f.deregister(&mr).unwrap();
        assert_eq!(f.read(&qp, &mr, 0, 1), Err(DmemError::RegionNotRegistered));
        assert_eq!(f.deregister(&mr), Err(DmemError::RegionNotRegistered));
        assert_eq!(f.registered_bytes(NodeId::new(1)), ByteSize::ZERO);
    }

    #[test]
    fn region_must_belong_to_peer() {
        let (_, _, f) = fabric();
        // Region on node 2, but QP connects 0 <-> 1.
        let mr = f.register(NodeId::new(2), ByteSize::from_kib(4)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(f.write(&qp, b"x", &mr, 0), Err(DmemError::AccessDenied));
    }

    #[test]
    fn send_recv_preserves_order_and_boundaries() {
        let (_, _, f) = fabric();
        let qp_a = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let qp_b = f.peer_handle(&qp_a);
        f.send(&qp_a, vec![1]).unwrap();
        f.send(&qp_a, vec![2, 2]).unwrap();
        f.send(&qp_b, vec![9]).unwrap(); // reverse direction independent
        assert_eq!(f.recv(&qp_b).unwrap(), Some(vec![1]));
        assert_eq!(f.recv(&qp_b).unwrap(), Some(vec![2, 2]));
        assert_eq!(f.recv(&qp_b).unwrap(), None, "at-most-once: nothing left");
        assert_eq!(f.recv(&qp_a).unwrap(), Some(vec![9]));
    }

    #[test]
    fn link_failure_blocks_verbs() {
        let (_, failures, f) = fabric();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mr = f.register(b, ByteSize::from_kib(4)).unwrap();
        let qp = f.connect(a, b).unwrap();
        failures.inject_now(FailureEvent::LinkDown(a, b));
        assert_eq!(
            f.write(&qp, b"x", &mr, 0),
            Err(DmemError::LinkDown { from: a, to: b })
        );
        failures.inject_now(FailureEvent::LinkUp(a, b));
        assert!(f.write(&qp, b"x", &mr, 0).is_ok());
    }

    #[test]
    fn node_failure_blocks_everything() {
        let (_, failures, f) = fabric();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mr = f.register(b, ByteSize::from_kib(4)).unwrap();
        let qp = f.connect(a, b).unwrap();
        failures.inject_now(FailureEvent::NodeDown(b));
        assert_eq!(f.read(&qp, &mr, 0, 1), Err(DmemError::NodeUnavailable(b)));
        assert_eq!(
            f.register(b, ByteSize::from_kib(4)),
            Err(DmemError::NodeUnavailable(b))
        );
        assert!(f.connect(a, b).is_err());
    }

    #[test]
    fn disconnect_blocks_qp() {
        let (_, _, f) = fabric();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        f.disconnect(&qp).unwrap();
        assert!(matches!(f.send(&qp, vec![1]), Err(DmemError::LinkDown { .. })));
    }

    #[test]
    fn send_recv_counters_symmetric() {
        let (_, _, f) = fabric();
        let qp_a = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let qp_b = f.peer_handle(&qp_a);
        f.send(&qp_a, vec![0; 48]).unwrap();
        f.send(&qp_a, vec![0; 16]).unwrap();
        assert_eq!(f.recv(&qp_b).unwrap().unwrap().len(), 48);
        // An empty poll must not count as a delivery.
        assert_eq!(f.recv(&qp_a).unwrap(), None);
        assert_eq!(f.metrics().counter("net.send.ops").get(), 2);
        assert_eq!(f.metrics().counter("net.send.bytes").get(), 64);
        assert_eq!(f.metrics().counter("net.recv.ops").get(), 1);
        assert_eq!(f.metrics().counter("net.recv.bytes").get(), 48);
        assert_eq!(f.recv(&qp_b).unwrap().unwrap().len(), 16);
        assert_eq!(f.metrics().counter("net.recv.bytes").get(), 64);
    }

    #[test]
    fn verbs_emit_spans_and_latency_histograms() {
        let (clock, _, f) = fabric();
        clock.tracer().enable();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(8)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        f.write(&qp, &[0u8; 4096], &mr, 0).unwrap();
        f.read(&qp, &mr, 0, 4096).unwrap();
        let trace = clock.tracer().finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"register"));
        assert!(names.contains(&"write"));
        assert!(names.contains(&"read"));
        // Sync verb spans carry their virtual cost; histograms agree.
        let write = trace.spans.iter().find(|s| s.name == "write").unwrap();
        assert_eq!(f.metrics().histogram("net.write.ns").count(), 1);
        assert!(write.duration().as_nanos() > 0);
    }

    #[test]
    fn tenant_scope_attributes_verbs_only_while_set() {
        let (_, _, f) = fabric();
        let mr = f.register(NodeId::new(1), ByteSize::from_kib(8)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        // Unscoped traffic creates no tenant keys at all.
        f.write(&qp, &[0u8; 100], &mr, 0).unwrap();
        assert!(f
            .metrics()
            .counter_snapshot()
            .iter()
            .all(|(k, _)| !k.starts_with("net.tenant-")));

        f.set_tenant_scope(Some(TenantId::new(3)));
        f.write(&qp, &[0u8; 64], &mr, 0).unwrap();
        f.read(&qp, &mr, 0, 36).unwrap();
        f.set_tenant_scope(None);
        f.write(&qp, &[0u8; 500], &mr, 0).unwrap();

        assert_eq!(f.metrics().counter("net.tenant-3.ops").get(), 2);
        assert_eq!(f.metrics().counter("net.tenant-3.bytes").get(), 100);
        // Clones share the scope.
        let clone = f.clone();
        clone.set_tenant_scope(Some(TenantId::new(7)));
        f.write(&qp, &[0u8; 10], &mr, 0).unwrap();
        assert_eq!(f.metrics().counter("net.tenant-7.bytes").get(), 10);
    }

    #[test]
    fn clones_count_into_one_table() {
        let (_, _, f) = fabric();
        let clone = f.clone();
        let qp_a = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        // Nothing sent yet: the handles exist, the keys do not.
        assert_eq!(
            f.metrics().counter_snapshot(),
            [("net.qp.connected".to_owned(), 1)]
        );
        f.send(&qp_a, vec![0; 8]).unwrap();
        clone.send(&qp_a, vec![0; 8]).unwrap();
        assert_eq!(clone.metrics().counter("net.send.ops").get(), 2);
        assert_eq!(f.metrics().counter("net.send.bytes").get(), 16);
    }

    /// A 200 KiB region on node 1, with a queue pair from node 0.
    fn sparse_region(f: &Fabric) -> (RegionHandle, QpHandle, usize) {
        let len = 200 * 1024 + 100;
        let mr = f.register(NodeId::new(1), ByteSize::from(len)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        (mr, qp, len)
    }

    #[test]
    fn never_written_bytes_read_as_zeros() {
        let (_, _, f) = fabric();
        let (mr, qp, len) = sparse_region(&f);
        assert_eq!(f.read(&qp, &mr, 0, len).unwrap(), vec![0; len]);
        assert_eq!(f.held_bytes(&mr), 0, "reads hold nothing");
        // Two writes far apart, the range between them never touched.
        let far = 150 * 1024;
        f.write(&qp, &[0xAA; 16], &mr, 8).unwrap();
        f.write(&qp, &[0xBB; 16], &mr, far as u64 + 8).unwrap();
        assert_eq!(f.held_bytes(&mr), 32);
        let all = f.read(&qp, &mr, 0, len).unwrap();
        assert_eq!(all.len(), len);
        for (i, &b) in all.iter().enumerate() {
            let want = match i {
                8..24 => 0xAA,
                i if (far + 8..far + 24).contains(&i) => 0xBB,
                _ => 0,
            };
            assert_eq!(b, want, "byte {i}");
        }
    }

    #[test]
    fn write_ending_on_the_last_byte_works() {
        let (_, _, f) = fabric();
        let (mr, qp, len) = sparse_region(&f);
        let at = (len - 150) as u64;
        f.write(&qp, &[7; 150], &mr, at).unwrap();
        assert_eq!(f.read(&qp, &mr, at, 150).unwrap(), vec![7; 150]);
        assert_eq!(f.read(&qp, &mr, (len - 1) as u64, 1).unwrap(), vec![7]);
        assert_eq!(f.read(&qp, &mr, len as u64, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn sparse_region_bounds_and_registration_are_unchanged() {
        let (_, _, f) = fabric();
        let (mr, qp, len) = sparse_region(&f);
        assert_eq!(f.registered_bytes(NodeId::new(1)), ByteSize::from(len));
        for (offset, n) in [(len as u64 - 1, 2), (len as u64, 1), (u64::MAX, 1)] {
            assert_eq!(
                f.write(&qp, &vec![1; n], &mr, offset),
                Err(DmemError::RegionOutOfBounds {
                    offset,
                    len: n as u64,
                    capacity: len as u64,
                })
            );
            assert!(matches!(
                f.read(&qp, &mr, offset, n),
                Err(DmemError::RegionOutOfBounds { .. })
            ));
        }
        // Rejected writes hold nothing; accepted ones leave the
        // registered total where registration put it.
        assert_eq!(f.held_bytes(&mr), 0);
        f.write(&qp, &vec![1; len], &mr, 0).unwrap();
        assert_eq!(f.held_bytes(&mr), len as u64);
        assert_eq!(f.registered_bytes(NodeId::new(1)), ByteSize::from(len));
        f.deregister(&mr).unwrap();
        assert_eq!(f.registered_bytes(NodeId::new(1)), ByteSize::ZERO);
        assert_eq!(f.held_bytes(&mr), 0);
    }

    #[test]
    fn gather_write_is_one_verb_over_shared_buffers() {
        let (clock, _, f) = fabric();
        let a = f.register(NodeId::new(1), ByteSize::from_kib(64)).unwrap();
        let b = f.register(NodeId::new(1), ByteSize::from_kib(64)).unwrap();
        let qp = f.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        let bufs: Vec<Arc<[u8]>> = (1..=3u8).map(|k| Arc::from(vec![k; 1000])).collect();
        let t0 = clock.now();
        f.write_shared(&qp, &bufs, &a, 24).unwrap();
        let gathered = clock.now() - t0;
        let t1 = clock.now();
        f.write(&qp, &[0; 3000], &b, 24).unwrap();
        assert_eq!(gathered, clock.now() - t1, "one transfer of the total");
        assert_eq!(f.metrics().counter("net.write.ops").get(), 2);
        assert_eq!(f.metrics().counter("net.write.bytes").get(), 6000);
        f.write_shared(&qp, &bufs, &b, 24).unwrap();
        // Both regions hold the three buffers themselves: no copies.
        assert!(bufs.iter().all(|buf| Arc::strong_count(buf) == 3));
        assert_eq!(f.buffer_bytes(), 3000);
        let back = f.read(&qp, &b, 24, 3000).unwrap();
        assert_eq!(back, [[1u8; 1000], [2; 1000], [3; 1000]].concat());
    }

    #[test]
    fn discard_forgets_bytes_locally() {
        let (clock, _, f) = fabric();
        let (mr, qp, len) = sparse_region(&f);
        f.write(&qp, &[5; 4096], &mr, 0).unwrap();
        let (now, counters) = (clock.now(), f.metrics().counter_snapshot());
        f.discard(&mr, 1024, 2048);
        assert_eq!(clock.now(), now, "no virtual time");
        assert_eq!(f.metrics().counter_snapshot(), counters, "no metric");
        assert_eq!(f.held_bytes(&mr), 2048);
        let back = f.read(&qp, &mr, 0, 4096).unwrap();
        assert_eq!(back, [[5u8; 1024], [0; 1024], [0; 1024], [5; 1024]].concat());
        // Past the end, or on a region that is gone: nothing to forget.
        f.discard(&mr, len as u64 - 10, u64::MAX);
        f.deregister(&mr).unwrap();
        f.discard(&mr, 0, 4096);
    }

    /// One step of the [`Region`] model check.
    #[derive(Debug, Clone)]
    enum RegionOp {
        /// A gather list of `(length, fill byte)` buffers at an offset.
        Write(usize, Vec<(usize, u8)>),
        Discard(usize, usize),
        Read(usize, usize),
    }

    const MODEL_LEN: usize = 600;

    fn region_op() -> impl proptest::Strategy<Value = RegionOp> {
        use proptest::prelude::*;
        let at = 0..MODEL_LEN;
        let span = 0usize..160;
        let buf = (0usize..90, 1u8..=255);
        prop_oneof![
            (at.clone(), proptest::collection::vec(buf, 0..4))
                .prop_map(|(at, bufs)| RegionOp::Write(at, bufs)),
            (at.clone(), span.clone()).prop_map(|(at, n)| RegionOp::Discard(at, n)),
            (at, span).prop_map(|(at, n)| RegionOp::Read(at, n)),
        ]
    }

    proptest::proptest! {
        /// A region reads like a flat byte array whose freed and
        /// never-written bytes are zeros, and holds exactly the bytes
        /// written and not since discarded, in pieces that never overlap.
        #[test]
        fn prop_region_matches_a_flat_array(
            ops in proptest::collection::vec(region_op(), 1..40),
        ) {
            let mut region = Region::new(NodeId::new(1), 0, MODEL_LEN);
            let mut bytes = vec![0u8; MODEL_LEN];
            let mut held = vec![false; MODEL_LEN];
            for op in ops {
                match op {
                    RegionOp::Write(at, spec) => {
                        let total: usize = spec.iter().map(|&(n, _)| n).sum();
                        let at = at.min(MODEL_LEN - total);
                        let bufs: Vec<Arc<[u8]>> =
                            spec.iter().map(|&(n, fill)| Arc::from(vec![fill; n])).collect();
                        region.write(at, &bufs);
                        let flat: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
                        bytes[at..at + total].copy_from_slice(&flat);
                        held[at..at + total].fill(true);
                    }
                    RegionOp::Discard(at, n) => {
                        let end = (at + n).min(MODEL_LEN);
                        region.forget(at, end);
                        bytes[at..end].fill(0);
                        held[at..end].fill(false);
                    }
                    RegionOp::Read(at, n) => {
                        let n = n.min(MODEL_LEN - at);
                        proptest::prop_assert_eq!(region.read(at, n), bytes[at..at + n].to_vec());
                    }
                }
                proptest::prop_assert_eq!(region.held, held.iter().filter(|&&h| h).count());
                let mut end = 0;
                for (&at, piece) in &region.pieces {
                    proptest::prop_assert!(at >= end && piece.len > 0, "pieces overlap at {at}");
                    end = at + piece.len;
                }
            }
            proptest::prop_assert_eq!(region.read(0, MODEL_LEN), bytes);
        }
    }

    #[test]
    fn registration_accounting() {
        let (_, _, f) = fabric();
        let n = NodeId::new(4);
        let _mr1 = f.register(n, ByteSize::from_mib(1)).unwrap();
        let mr2 = f.register(n, ByteSize::from_mib(2)).unwrap();
        assert_eq!(f.registered_bytes(n), ByteSize::from_mib(3));
        f.deregister(&mr2).unwrap();
        assert_eq!(f.registered_bytes(n), ByteSize::from_mib(1));
        assert_eq!(f.metrics().counter("net.mr.registered").get(), 2);
    }
}
