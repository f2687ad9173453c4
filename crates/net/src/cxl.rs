//! The CXL pooled-memory tier: load/store far memory behind a switch,
//! addressed PGAS-style, placed by consistent hashing.
//!
//! Both surveys in PAPERS.md name CXL memory pooling as the successor to
//! RDMA-based far memory: instead of verbs, queue pairs and retries, a
//! pool node is reached by plain loads and stores a few hundred
//! nanoseconds away. This module models exactly that contrast:
//!
//! * **no verb machinery** — an access is one cost-model charge on the
//!   virtual clock, cacheline-rounded ([`CxlCostModel`]); there is no
//!   retry loop because CXL failures surface as machine checks
//!   (poisoned reads), not timeouts;
//! * **PGAS global addresses** — a [`CxlAddr`] packs `{pool_node,
//!   offset}` into 64 bits, so any host names any byte of the pool
//!   (the memcached-CXL-PGAS global-pointer idiom);
//! * **consistent-hash placement** — a [`CxlRing`] of virtual nodes
//!   maps keys to pool nodes deterministically, balanced, and stable
//!   under pool growth (adding one node remaps ~K/n keys);
//! * **remote atomics** — [`CxlPool::fetch_add`] / [`CxlPool::cas`]
//!   serialize per address in virtual-time order, the way a pool node's
//!   memory controller serializes RMW requests to one line.
//!
//! The tier is constructed only when [`dmem_types::CxlPoolConfig`]
//! enables it; absent a pool, no `cxl.*` metric keys exist and every
//! pre-CXL run is byte-identical.

use dmem_sim::{
    CostModel, DeviceCost, LazyCounter, LazyHistogram, MetricsRegistry, SimClock, SimDuration,
    SimInstant,
};
use dmem_types::{ByteSize, DmemError, DmemResult, IdMap};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// CXL transfer granularity: accesses are rounded up to 64-byte lines.
pub(crate) const CACHELINE: usize = 64;

/// Bits of a [`CxlAddr`] carrying the byte offset within a pool node.
pub(crate) const OFFSET_BITS: u32 = 48;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// A PGAS-style 64-bit global address into the CXL pool: the top 16 bits
/// name the pool node, the low 48 bits the byte offset inside it.
///
/// # Examples
///
/// ```
/// use dmem_net::CxlAddr;
///
/// let addr = CxlAddr::encode(3, 0x1000);
/// assert_eq!(addr.pool_node(), 3);
/// assert_eq!(addr.offset(), 0x1000);
/// assert_eq!(CxlAddr::from_raw(addr.raw()), addr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CxlAddr(u64);

impl CxlAddr {
    /// Packs a pool node and byte offset into one global address.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit the 48-bit offset field.
    pub fn encode(pool_node: u16, offset: u64) -> CxlAddr {
        assert!(
            offset <= OFFSET_MASK,
            "offset {offset:#x} exceeds the {OFFSET_BITS}-bit PGAS offset field"
        );
        CxlAddr((u64::from(pool_node) << OFFSET_BITS) | offset)
    }

    /// The pool node this address lives on.
    pub fn pool_node(self) -> u16 {
        (self.0 >> OFFSET_BITS) as u16
    }

    /// The byte offset within the pool node.
    pub fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// The raw 64-bit representation (what [`dmem_types::EntryLocation`]
    /// stores).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an address from its raw representation.
    pub fn from_raw(raw: u64) -> CxlAddr {
        CxlAddr(raw)
    }
}

impl fmt::Display for CxlAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cxl{{pool-{}+{:#x}}}", self.pool_node(), self.offset())
    }
}

/// `splitmix64` finalizer: the deterministic, platform-independent mixer
/// behind ring-point and key hashing.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring over the pool nodes.
///
/// Each pool node contributes [`CxlRing::DEFAULT_VNODES`] virtual points;
/// a key is placed on the node owning the first point at or after the
/// key's hash (wrapping). Placement is deterministic, balanced within a
/// small factor of ideal, and — the property that matters for pool
/// growth — adding or removing one node remaps only the keys that land
/// on that node's points, ~K/n of them.
///
/// # Examples
///
/// ```
/// use dmem_net::CxlRing;
///
/// let ring = CxlRing::new(4, CxlRing::DEFAULT_VNODES);
/// let node = ring.place(42);
/// assert!(node < 4);
/// assert_eq!(node, CxlRing::new(4, CxlRing::DEFAULT_VNODES).place(42));
/// ```
#[derive(Debug, Clone)]
pub struct CxlRing {
    /// `(point_hash, pool_node)`, sorted by hash.
    points: Vec<(u64, u16)>,
    nodes: u16,
}

impl CxlRing {
    /// Virtual points per pool node: enough that placement stays within
    /// 2x of ideal balance at the pool sizes the figures run.
    pub const DEFAULT_VNODES: usize = 96;

    /// Builds the ring for `nodes` pool nodes with `vnodes` points each.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes or zero vnodes — an empty ring cannot place.
    pub fn new(nodes: u16, vnodes: usize) -> Self {
        assert!(nodes > 0, "ring needs at least one pool node");
        assert!(vnodes > 0, "ring needs at least one virtual point per node");
        let mut points = Vec::with_capacity(nodes as usize * vnodes);
        for node in 0..nodes {
            for v in 0..vnodes {
                // Tag bits keep point hashes disjoint from key hashes.
                let h = mix64((u64::from(node) << 32) | (v as u64) | (1 << 63));
                points.push((h, node));
            }
        }
        points.sort_unstable();
        CxlRing { points, nodes }
    }

    /// The pool node owning `key`.
    pub fn place(&self, key: u64) -> u16 {
        let h = mix64(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[i % self.points.len()];
        node
    }

    /// Number of pool nodes on the ring.
    pub(crate) fn nodes(&self) -> u16 {
        self.nodes
    }
}

/// Load/store cost model of the pool (charged per access, cacheline-
/// rounded). Derived from [`CostModel::cxl`]; no verb, QP or retry
/// machinery applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlCostModel {
    /// A load: request/response through the switch, data on the response.
    pub load: DeviceCost,
    /// A store: posted through the write buffer, cheaper to the first
    /// line than a load (no stall on the response).
    pub store: DeviceCost,
    /// One remote atomic (fetch-add / CAS): a read-modify-write executed
    /// by the pool node's memory controller on a single line.
    pub atomic: SimDuration,
}

impl CxlCostModel {
    /// Derives the tier's costs from the cluster cost model: loads at
    /// [`CostModel::cxl`], stores 20% cheaper to the first line, atomics
    /// at twice the load base (the controller's RMW turnaround).
    pub(crate) fn from_cost_model(m: &CostModel) -> Self {
        CxlCostModel {
            load: m.cxl,
            store: m.cxl.with_base_scaled(0.8),
            atomic: m.cxl.base * 2,
        }
    }
}

/// Rounds an access up to whole cachelines — the granularity CXL.mem
/// actually moves.
fn lines(bytes: usize) -> usize {
    bytes.div_ceil(CACHELINE) * CACHELINE
}

struct Block {
    capacity: usize,
    /// `None` until the first store: a fresh block reads as `capacity`
    /// zero bytes without anyone having written them. A store hands the
    /// block an immutable buffer, which the caller may go on sharing
    /// (the core keeps it as the block's disk shadow) instead of copying.
    data: Option<Arc<Vec<u8>>>,
}

struct PoolNodeState {
    used: u64,
    next_offset: u64,
    down: bool,
}

/// One remote-atomic cell: value plus the serialization point of the
/// pool node's controller for this line.
struct AtomicCell {
    value: u64,
    /// The instant the controller finishes the latest RMW on this line;
    /// later ops at earlier-or-equal instants queue behind it.
    busy_until: SimInstant,
    ops: u64,
}

struct PoolInner {
    nodes: Vec<PoolNodeState>,
    blocks: IdMap<u64, Block>,
    atomics: IdMap<u64, AtomicCell>,
}

/// The `cxl.*` family, resolved on first touch.
struct CxlMetrics {
    alloc_ops: LazyCounter,
    free_ops: LazyCounter,
    store_ops: LazyCounter,
    store_bytes: LazyCounter,
    store_ns: LazyHistogram,
    load_ops: LazyCounter,
    load_bytes: LazyCounter,
    load_ns: LazyHistogram,
    atomic_ops: LazyCounter,
    node_down_events: LazyCounter,
    node_up_events: LazyCounter,
}

impl CxlMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name: &'static str| LazyCounter::new(registry, name);
        let histogram = |name: &'static str| LazyHistogram::new(registry, name);
        CxlMetrics {
            alloc_ops: counter("cxl.alloc.ops"),
            free_ops: counter("cxl.free.ops"),
            store_ops: counter("cxl.store.ops"),
            store_bytes: counter("cxl.store.bytes"),
            store_ns: histogram("cxl.store.ns"),
            load_ops: counter("cxl.load.ops"),
            load_bytes: counter("cxl.load.bytes"),
            load_ns: histogram("cxl.load.ns"),
            atomic_ops: counter("cxl.atomic.ops"),
            node_down_events: counter("cxl.node.down.events"),
            node_up_events: counter("cxl.node.up.events"),
        }
    }
}

/// The simulated CXL memory pool shared by all hosts of a cluster.
///
/// All methods take `&self`; state sits behind one mutex so allocation,
/// accesses and outage transitions interleave deterministically on the
/// shared virtual clock.
///
/// # Examples
///
/// ```
/// use dmem_net::CxlPool;
/// use dmem_sim::{CostModel, MetricsRegistry, SimClock};
/// use dmem_types::ByteSize;
///
/// let clock = SimClock::new();
/// let pool = CxlPool::new(
///     clock.clone(),
///     CostModel::paper_default(),
///     MetricsRegistry::new(),
///     2,
///     ByteSize::from_kib(64),
/// );
/// let addr = pool.alloc(7, 128).unwrap();
/// pool.store(addr, &[0xAB; 128]).unwrap();
/// assert_eq!(pool.load(addr).unwrap(), vec![0xAB; 128]);
/// let counter = pool.alloc_counter(99).unwrap();
/// assert_eq!(pool.fetch_add(counter, 5).unwrap(), 0);
/// assert_eq!(pool.counter_value(counter).unwrap(), 5);
/// ```
pub struct CxlPool {
    clock: SimClock,
    cost: CxlCostModel,
    #[cfg(test)]
    metrics: MetricsRegistry,
    handles: CxlMetrics,
    capacity_per_node: u64,
    ring: CxlRing,
    inner: Mutex<PoolInner>,
}

impl CxlPool {
    /// Creates a pool of `pool_nodes` nodes with `capacity_per_node`
    /// each, costed from `cost.cxl` and counting into `metrics` under
    /// the `cxl.*` family.
    ///
    /// # Panics
    ///
    /// Panics on zero pool nodes (use no pool instead of an empty one).
    pub fn new(
        clock: SimClock,
        cost: CostModel,
        metrics: MetricsRegistry,
        pool_nodes: u16,
        capacity_per_node: ByteSize,
    ) -> Self {
        let ring = CxlRing::new(pool_nodes, CxlRing::DEFAULT_VNODES);
        let nodes = (0..pool_nodes)
            .map(|_| PoolNodeState {
                used: 0,
                next_offset: 0,
                down: false,
            })
            .collect();
        CxlPool {
            clock,
            cost: CxlCostModel::from_cost_model(&cost),
            handles: CxlMetrics::new(&metrics),
            #[cfg(test)]
            metrics,
            capacity_per_node: capacity_per_node.as_u64(),
            ring,
            inner: Mutex::new(PoolInner {
                nodes,
                blocks: IdMap::default(),
                atomics: IdMap::default(),
            }),
        }
    }

    /// Number of pool nodes.
    pub fn pool_nodes(&self) -> u16 {
        self.ring.nodes()
    }

    /// Usable capacity per pool node.
    pub fn capacity_per_node(&self) -> ByteSize {
        ByteSize::new(self.capacity_per_node)
    }

    /// Allocates `len` bytes for `key` on the ring-placed pool node.
    /// Allocation is pool-manager metadata, handled out of band — it
    /// burns no virtual time; the store that follows pays the fabric.
    ///
    /// # Errors
    ///
    /// [`DmemError::CxlPoolNodeDown`] if the owning node is in an outage
    /// window; [`DmemError::CapacityExhausted`] if it lacks `len` free
    /// bytes (the caller spills to the next tier).
    pub fn alloc(&self, key: u64, len: usize) -> DmemResult<CxlAddr> {
        let node = self.ring.place(key);
        let mut inner = self.inner.lock();
        let state = &mut inner.nodes[node as usize];
        if state.down {
            return Err(DmemError::CxlPoolNodeDown { pool_node: node });
        }
        let rounded = lines(len.max(1)) as u64;
        if state.used + rounded > self.capacity_per_node {
            return Err(DmemError::CapacityExhausted {
                pool: format!("cxl pool-{node}"),
            });
        }
        let offset = state.next_offset;
        state.used += rounded;
        state.next_offset += rounded;
        let addr = CxlAddr::encode(node, offset);
        inner.blocks.insert(
            addr.raw(),
            Block {
                capacity: len,
                data: None,
            },
        );
        self.handles.alloc_ops.inc();
        Ok(addr)
    }

    /// Frees the block at `addr`, returning its capacity to the node.
    /// Succeeds even while the node is down (metadata, not an access).
    ///
    /// # Errors
    ///
    /// [`DmemError::RegionNotRegistered`] if `addr` was never allocated
    /// or already freed.
    pub fn free(&self, addr: CxlAddr) -> DmemResult<usize> {
        let mut inner = self.inner.lock();
        let block = inner
            .blocks
            .remove(&addr.raw())
            .ok_or(DmemError::RegionNotRegistered)?;
        let rounded = lines(block.capacity.max(1)) as u64;
        inner.nodes[addr.pool_node() as usize].used -= rounded;
        self.handles.free_ops.inc();
        Ok(block.capacity)
    }

    /// Checks the access path to `addr`'s pool node and looks the block
    /// up, without touching the clock.
    fn check(inner: &PoolInner, addr: CxlAddr) -> DmemResult<()> {
        if inner.nodes[addr.pool_node() as usize].down {
            return Err(DmemError::CxlPoolNodeDown {
                pool_node: addr.pool_node(),
            });
        }
        if !inner.blocks.contains_key(&addr.raw()) {
            return Err(DmemError::RegionNotRegistered);
        }
        Ok(())
    }

    /// Stores `data` at `addr` (a sequence of posted cacheline writes).
    ///
    /// # Errors
    ///
    /// As [`CxlPool::store_shared`].
    pub fn store(&self, addr: CxlAddr, data: &[u8]) -> DmemResult<()> {
        self.store_shared(addr, Arc::new(data.to_vec()))
    }

    /// [`CxlPool::store`] of a buffer the caller keeps a handle on: the
    /// block holds `data` itself, so the caller's other copy of these
    /// bytes and the block's are one allocation.
    ///
    /// # Errors
    ///
    /// [`DmemError::CxlPoolNodeDown`] during an outage window (the
    /// caller fails over); [`DmemError::RegionNotRegistered`] for a
    /// never-allocated address; [`DmemError::RegionOutOfBounds`] when
    /// `data` exceeds the block's capacity.
    pub fn store_shared(&self, addr: CxlAddr, data: Arc<Vec<u8>>) -> DmemResult<()> {
        let len = data.len();
        let span = self.clock.tracer().span("net", "cxl.store");
        span.tag("bytes", len as u64);
        {
            let mut inner = self.inner.lock();
            Self::check(&inner, addr)?;
            let block = inner.blocks.get_mut(&addr.raw()).expect("checked");
            if len > block.capacity {
                return Err(DmemError::RegionOutOfBounds {
                    offset: addr.offset(),
                    len: len as u64,
                    capacity: block.capacity as u64,
                });
            }
            block.data = Some(data);
        }
        let elapsed = self.cost.store.transfer(lines(len.max(1)));
        self.clock.advance(elapsed);
        self.handles.store_ops.inc();
        self.handles.store_bytes.add(len as u64);
        self.handles.store_ns.record(elapsed.as_nanos());
        Ok(())
    }

    /// Loads the block at `addr` (a sequence of cacheline reads).
    ///
    /// # Errors
    ///
    /// [`DmemError::CxlPoolNodeDown`] during an outage window — the
    /// poisoned read surfaces immediately, no transfer budget burns —
    /// and [`DmemError::RegionNotRegistered`] for an unknown address.
    pub fn load(&self, addr: CxlAddr) -> DmemResult<Vec<u8>> {
        let span = self.clock.tracer().span("net", "cxl.load");
        let data = {
            let inner = self.inner.lock();
            Self::check(&inner, addr)?;
            let block = &inner.blocks[&addr.raw()];
            block
                .data
                .as_ref()
                .map_or_else(|| vec![0; block.capacity], |data| data.to_vec())
        };
        span.tag("bytes", data.len() as u64);
        let elapsed = self.cost.load.transfer(lines(data.len().max(1)));
        self.clock.advance(elapsed);
        self.handles.load_ops.inc();
        self.handles.load_bytes.add(data.len() as u64);
        self.handles.load_ns.record(elapsed.as_nanos());
        Ok(data)
    }

    /// Allocates an 8-byte remote-atomic counter cell for `key`,
    /// initialized to zero.
    ///
    /// # Errors
    ///
    /// Same as [`CxlPool::alloc`].
    pub fn alloc_counter(&self, key: u64) -> DmemResult<CxlAddr> {
        let addr = self.alloc(key, 8)?;
        self.inner.lock().atomics.insert(
            addr.raw(),
            AtomicCell {
                value: 0,
                busy_until: SimInstant::EPOCH,
                ops: 0,
            },
        );
        Ok(addr)
    }

    /// One serialized RMW on the cell at `addr`: applies `f` to the
    /// current value, charging the atomic turnaround after any
    /// in-flight RMW on the same line completes (per-address
    /// virtual-time order).
    fn atomic_rmw(
        &self,
        addr: CxlAddr,
        f: impl FnOnce(u64) -> u64,
    ) -> DmemResult<u64> {
        let span = self.clock.tracer().span("net", "cxl.atomic");
        span.tag("pool_node", u64::from(addr.pool_node()));
        let now = self.clock.now();
        let old = {
            let mut inner = self.inner.lock();
            if inner.nodes[addr.pool_node() as usize].down {
                return Err(DmemError::CxlPoolNodeDown {
                    pool_node: addr.pool_node(),
                });
            }
            let cell = inner
                .atomics
                .get_mut(&addr.raw())
                .ok_or(DmemError::RegionNotRegistered)?;
            // Serialize on the line: start after the previous RMW ends.
            let start = if cell.busy_until > now { cell.busy_until } else { now };
            let end = start + self.cost.atomic;
            self.clock.advance(end - now);
            cell.busy_until = end;
            cell.ops += 1;
            let old = cell.value;
            cell.value = f(old);
            old
        };
        self.handles.atomic_ops.inc();
        Ok(old)
    }

    /// Atomic fetch-add on the counter cell at `addr`; returns the value
    /// *before* the add.
    ///
    /// # Errors
    ///
    /// [`DmemError::CxlPoolNodeDown`] during an outage (atomics have no
    /// failover target — the cell's history lives only on its node) and
    /// [`DmemError::RegionNotRegistered`] for a non-counter address.
    pub fn fetch_add(&self, addr: CxlAddr, delta: u64) -> DmemResult<u64> {
        self.atomic_rmw(addr, |v| v.wrapping_add(delta))
    }

    /// Atomic compare-and-swap: installs `new` iff the cell holds
    /// `expected`. Returns the observed value either way (equal to
    /// `expected` exactly when the swap happened).
    ///
    /// # Errors
    ///
    /// Same as [`CxlPool::fetch_add`].
    pub fn cas(&self, addr: CxlAddr, expected: u64, new: u64) -> DmemResult<u64> {
        self.atomic_rmw(addr, |v| if v == expected { new } else { v })
    }

    /// Reads the counter cell at `addr` (one cacheline load).
    ///
    /// # Errors
    ///
    /// Same as [`CxlPool::fetch_add`].
    pub fn counter_value(&self, addr: CxlAddr) -> DmemResult<u64> {
        let value = {
            let inner = self.inner.lock();
            if inner.nodes[addr.pool_node() as usize].down {
                return Err(DmemError::CxlPoolNodeDown {
                    pool_node: addr.pool_node(),
                });
            }
            inner
                .atomics
                .get(&addr.raw())
                .ok_or(DmemError::RegionNotRegistered)?
                .value
        };
        let elapsed = self.cost.load.transfer(CACHELINE);
        self.clock.advance(elapsed);
        self.handles.load_ops.inc();
        self.handles.load_bytes.add(8);
        self.handles.load_ns.record(elapsed.as_nanos());
        Ok(value)
    }

    /// Total RMW ops executed on the cell at `addr` (no clock charge —
    /// controller introspection for invariant checks).
    pub fn counter_ops(&self, addr: CxlAddr) -> u64 {
        self.inner
            .lock()
            .atomics
            .get(&addr.raw())
            .map_or(0, |c| c.ops)
    }

    /// Begins an outage window on `pool_node`: every load, store and
    /// atomic against it fails until [`CxlPool::set_pool_node_up`].
    /// Pool memory survives the window (the loss is reachability, not
    /// data) — but callers cannot know that, which is why writes keep a
    /// shadow copy elsewhere.
    pub fn set_pool_node_down(&self, pool_node: u16) {
        let mut inner = self.inner.lock();
        let state = &mut inner.nodes[pool_node as usize];
        if !state.down {
            state.down = true;
            self.handles.node_down_events.inc();
        }
    }

    /// Ends the outage window on `pool_node`.
    pub fn set_pool_node_up(&self, pool_node: u16) {
        let mut inner = self.inner.lock();
        let state = &mut inner.nodes[pool_node as usize];
        if state.down {
            state.down = false;
            self.handles.node_up_events.inc();
        }
    }

    /// Whether `pool_node` is currently in an outage window.
    pub fn pool_node_down(&self, pool_node: u16) -> bool {
        self.inner.lock().nodes[pool_node as usize].down
    }

    /// Per-node occupancy: `(pool_node, used_bytes, down)` in node order.
    pub fn occupancy(&self) -> Vec<(u16, u64, bool)> {
        self.inner
            .lock()
            .nodes
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u16, s.used, s.down))
            .collect()
    }

    /// Bytes used across all pool nodes.
    pub fn used_total(&self) -> ByteSize {
        ByteSize::new(self.inner.lock().nodes.iter().map(|s| s.used).sum())
    }
}

impl fmt::Debug for CxlPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CxlPool")
            .field("pool_nodes", &inner.nodes.len())
            .field("capacity_per_node", &self.capacity_per_node)
            .field("blocks", &inner.blocks.len())
            .field("atomics", &inner.atomics.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(nodes: u16, cap_kib: u64) -> (SimClock, CxlPool) {
        let clock = SimClock::new();
        let p = CxlPool::new(
            clock.clone(),
            CostModel::paper_default(),
            MetricsRegistry::new(),
            nodes,
            ByteSize::from_kib(cap_kib),
        );
        (clock, p)
    }

    #[test]
    fn addr_codec_round_trips() {
        for (node, offset) in [(0u16, 0u64), (1, 63), (u16::MAX, OFFSET_MASK)] {
            let addr = CxlAddr::encode(node, offset);
            assert_eq!(addr.pool_node(), node);
            assert_eq!(addr.offset(), offset);
            assert_eq!(CxlAddr::from_raw(addr.raw()), addr);
        }
        assert_eq!(
            CxlAddr::encode(2, 0x40).to_string(),
            "cxl{pool-2+0x40}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn addr_offset_overflow_rejected() {
        let _ = CxlAddr::encode(0, OFFSET_MASK + 1);
    }

    #[test]
    fn ring_places_deterministically() {
        let ring = CxlRing::new(8, CxlRing::DEFAULT_VNODES);
        for key in 0..512u64 {
            assert!(ring.place(key) < 8);
            assert_eq!(ring.place(key), ring.place(key));
        }
    }

    #[test]
    fn store_load_round_trip_charges_the_clock() {
        let (clock, pool) = pool(2, 64);
        let addr = pool.alloc(1, 200).unwrap();
        let t0 = clock.now();
        pool.store(addr, &[7u8; 200]).unwrap();
        assert_eq!(pool.load(addr).unwrap(), vec![7u8; 200]);
        let elapsed = clock.now() - t0;
        // Two sub-microsecond accesses: far below one RDMA verb base.
        assert!(elapsed.as_nanos() > 0);
        assert!(elapsed.as_micros_f64() < 1.5, "cost {elapsed}");
        assert_eq!(pool.metrics.counter("cxl.load.ops").get(), 1);
        assert_eq!(pool.metrics.counter("cxl.store.bytes").get(), 200);
    }

    #[test]
    fn fresh_block_loads_as_zeros() {
        let (_, pool) = pool(2, 64);
        let addr = pool.alloc(1, 200).unwrap();
        assert_eq!(pool.load(addr).unwrap(), vec![0u8; 200]);
        assert_eq!(pool.metrics.counter("cxl.load.bytes").get(), 200);
    }

    #[test]
    fn a_shared_store_holds_the_callers_buffer() {
        let (_, pool) = pool(1, 64);
        let addr = pool.alloc(1, 128).unwrap();
        let first = Arc::new(vec![3u8; 100]);
        pool.store_shared(addr, Arc::clone(&first)).unwrap();
        // The block holds the caller's allocation, not a copy of it.
        assert_eq!(Arc::strong_count(&first), 2);
        assert_eq!(pool.load(addr).unwrap(), vec![3u8; 100]);
        // An overwrite lets go of the old buffer; a rejected store
        // keeps the current one.
        let second = Arc::new(vec![4u8; 128]);
        pool.store_shared(addr, Arc::clone(&second)).unwrap();
        assert_eq!(Arc::strong_count(&first), 1);
        let too_big = Arc::new(vec![5u8; 129]);
        assert!(matches!(
            pool.store_shared(addr, Arc::clone(&too_big)),
            Err(DmemError::RegionOutOfBounds { .. })
        ));
        assert_eq!(Arc::strong_count(&too_big), 1);
        assert_eq!(pool.load(addr).unwrap(), vec![4u8; 128]);
        pool.free(addr).unwrap();
        assert_eq!(
            Arc::strong_count(&second),
            1,
            "freeing drops the block's handle"
        );
    }

    #[test]
    fn small_access_beats_rdma_verb_floor() {
        let (clock, p) = pool(1, 64);
        let addr = p.alloc(1, 64).unwrap();
        p.store(addr, &[1u8; 64]).unwrap();
        let t0 = clock.now();
        p.load(addr).unwrap();
        let load_ns = (clock.now() - t0).as_nanos();
        let rdma = CostModel::paper_default().rdma.transfer(64).as_nanos();
        assert!(load_ns * 5 < rdma, "cxl {load_ns} ns vs rdma {rdma} ns");
    }

    #[test]
    fn capacity_exhaustion_spills_with_an_error() {
        let (_, p) = pool(1, 1); // 1 KiB node
        let a = p.alloc(1, 512).unwrap();
        let _b = p.alloc(2, 512).unwrap();
        assert!(matches!(
            p.alloc(3, 64),
            Err(DmemError::CapacityExhausted { .. })
        ));
        // Freeing returns capacity.
        assert_eq!(p.free(a).unwrap(), 512);
        assert!(p.alloc(4, 512).is_ok());
        assert!(matches!(p.free(a), Err(DmemError::RegionNotRegistered)));
    }

    #[test]
    fn outage_fails_access_but_preserves_data() {
        let (_, p) = pool(1, 64);
        let addr = p.alloc(1, 64).unwrap();
        p.store(addr, &[9u8; 64]).unwrap();
        p.set_pool_node_down(0);
        assert!(p.pool_node_down(0));
        assert!(matches!(
            p.load(addr),
            Err(DmemError::CxlPoolNodeDown { pool_node: 0 })
        ));
        assert!(matches!(
            p.store(addr, &[1u8; 64]),
            Err(DmemError::CxlPoolNodeDown { .. })
        ));
        p.set_pool_node_up(0);
        assert_eq!(p.load(addr).unwrap(), vec![9u8; 64]);
        assert_eq!(p.metrics.counter("cxl.node.down.events").get(), 1);
    }

    #[test]
    fn atomics_serialize_per_address_in_time_order() {
        let (clock, p) = pool(1, 64);
        let cell = p.alloc_counter(1).unwrap();
        let atomic = p.cost.atomic;
        let t0 = clock.now();
        assert_eq!(p.fetch_add(cell, 3).unwrap(), 0);
        assert_eq!(p.fetch_add(cell, 4).unwrap(), 3);
        // Two RMWs on one line serialize: exactly two atomic turnarounds.
        assert_eq!(clock.now() - t0, atomic * 2);
        assert_eq!(p.counter_value(cell).unwrap(), 7);
        assert_eq!(p.counter_ops(cell), 2);
    }

    #[test]
    fn cas_installs_only_on_match() {
        let (_, p) = pool(2, 64);
        let cell = p.alloc_counter(5).unwrap();
        assert_eq!(p.cas(cell, 0, 10).unwrap(), 0); // swapped
        assert_eq!(p.cas(cell, 0, 99).unwrap(), 10); // observed 10, no swap
        assert_eq!(p.counter_value(cell).unwrap(), 10);
    }

    #[test]
    fn atomics_fail_during_outage_without_mutation() {
        let (_, p) = pool(1, 64);
        let cell = p.alloc_counter(1).unwrap();
        p.fetch_add(cell, 2).unwrap();
        p.set_pool_node_down(0);
        assert!(p.fetch_add(cell, 100).is_err());
        assert!(p.cas(cell, 2, 0).is_err());
        assert!(p.counter_value(cell).is_err());
        p.set_pool_node_up(0);
        assert_eq!(p.counter_value(cell).unwrap(), 2);
        assert_eq!(p.counter_ops(cell), 1);
    }

    #[test]
    fn occupancy_tracks_rounded_lines() {
        let (_, p) = pool(2, 64);
        let a = p.alloc(1, 10).unwrap(); // rounds to one 64 B line
        assert_eq!(p.used_total(), ByteSize::new(64));
        let occ = p.occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[a.pool_node() as usize].1, 64);
        p.free(a).unwrap();
        assert_eq!(p.used_total(), ByteSize::ZERO);
    }
}
