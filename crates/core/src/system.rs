//! The assembled disaggregated memory system.

use crate::disk::DiskTier;
use crate::memmap::MemoryMap;
use dmem_cluster::{
    ClusterMembership, EvictionOutcome, GroupTable, LeaderElection, Placer, RemoteSlabEvictor,
    RemoteStore, Replicator,
};
use dmem_compress::{CompressMemo, CompressedPage, PageCodec};
use dmem_net::{CxlAddr, CxlPool, Fabric};
use dmem_node::NodeManager;
use dmem_qos::{AdmitDecision, ControlAction, QosEngine, ResidentTier, Victim};
use dmem_sim::{
    CostModel, DetRng, FailureInjector, LazyCounter, LazyHistogram, MetricsRegistry, SimClock,
    SimDuration, TelemetryHub,
};
use dmem_types::{
    checksum, ByteSize, ClusterConfig, DmemError, DmemResult, EntryId, EntryLocation, EntryRecord,
    IdMap, IdSet, NodeId, ServerId, TenantId, PAGE_SIZE,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Where a `put` is allowed to land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPreference {
    /// Tier through shared memory → remote → disk (the paper's design).
    Auto,
    /// Node shared memory only; spills to disk when the pool is full.
    NodeShared,
    /// Local byte-addressable NVM (the §VI extension tier); spills to
    /// disk when the NVM pool is full or absent.
    Nvm,
    /// The CXL pooled-memory tier (load/store far memory behind a
    /// switch); spills to disk when the pool is full, down, or absent.
    Cxl,
    /// Remote cluster memory only (the FS-RDMA configuration of Fig. 8).
    Remote,
    /// Local disk only (the Linux-baseline path).
    Disk,
}

/// A bounded tier a put can stop on. Disk is not a rung: it is where
/// every walk ends when no rung took the entry.
#[derive(Clone, Copy)]
enum Rung {
    Shared,
    Cxl,
    Nvm,
    Remote,
}

impl TierPreference {
    /// The rungs a put with this preference tries, fastest first (the
    /// crate docs give the reason for each step of `Auto`'s order).
    fn rungs(self) -> &'static [Rung] {
        match self {
            TierPreference::Auto => &[Rung::Shared, Rung::Cxl, Rung::Nvm, Rung::Remote],
            TierPreference::NodeShared => &[Rung::Shared],
            TierPreference::Nvm => &[Rung::Nvm],
            TierPreference::Cxl => &[Rung::Cxl],
            TierPreference::Remote => &[Rung::Remote],
            TierPreference::Disk => &[],
        }
    }
}

/// Where [`DisaggregatedMemory::walk`] left an entry.
enum Walk {
    /// A local rung stored it.
    Landed(EntryLocation),
    /// It reached the remote rung, which the entry point runs itself:
    /// one replicated write per `put_pref`, one window per `put_batch`.
    Remote,
    /// Denied by QoS, or no rung took it.
    Disk,
}

/// What [`DisaggregatedMemory::fetch`] did with an entry.
enum Fetch<'a> {
    /// A local rung served it: the verified payload.
    Served(Vec<u8>),
    /// It is on these replica hosts, primary first; the entry point runs
    /// the remote rung: one failover read per `get`, one window per
    /// primary per `get_batch`.
    Remote(&'a [NodeId]),
    /// It is on the owner's disk: one read per `get`, one batch per
    /// `get_batch`.
    Disk,
}

/// Aggregate system statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmStats {
    /// Entries tracked across all memory maps.
    pub entries: usize,
    /// Entries resident in node shared pools.
    pub shared: usize,
    /// Entries in local NVM.
    pub nvm: usize,
    /// Entries in the CXL pooled-memory tier.
    pub cxl: usize,
    /// Entries in remote cluster memory.
    pub remote: usize,
    /// Entries spilled to disk.
    pub disk: usize,
    /// Total shared-pool capacity across nodes.
    pub shared_capacity: ByteSize,
    /// Total advertised free remote pool capacity.
    pub remote_free: ByteSize,
}

/// The `core.*` family and the other keys the put/get paths count into,
/// resolved on first touch.
struct CoreMetrics {
    put_shared: LazyCounter,
    put_cxl: LazyCounter,
    put_nvm: LazyCounter,
    put_remote: LazyCounter,
    put_remote_batched: LazyCounter,
    put_disk: LazyCounter,
    put_ns: LazyHistogram,
    get_ns: LazyHistogram,
    cxl_failover_reads: LazyCounter,
    qos_evict_demotions: LazyCounter,
    suspect_cleared: LazyCounter,
    suspect_evicted: LazyCounter,
}

impl CoreMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name: &'static str| LazyCounter::new(registry, name);
        CoreMetrics {
            put_shared: counter("core.put.shared"),
            put_cxl: counter("core.put.cxl"),
            put_nvm: counter("core.put.nvm"),
            put_remote: counter("core.put.remote"),
            put_remote_batched: counter("core.put.remote_batched"),
            put_disk: counter("core.put.disk"),
            put_ns: LazyHistogram::new(registry, "core.put.ns"),
            get_ns: LazyHistogram::new(registry, "core.get.ns"),
            cxl_failover_reads: counter("cxl.failover.reads"),
            qos_evict_demotions: counter("qos.evict.demotions"),
            suspect_cleared: counter("cluster.suspect.cleared"),
            suspect_evicted: counter("cluster.suspect.evicted"),
        }
    }
}

/// The paper's two-level disaggregated memory system over one simulated
/// cluster. See the crate docs for an overview and example.
pub struct DisaggregatedMemory {
    config: ClusterConfig,
    clock: SimClock,
    cost: CostModel,
    failures: FailureInjector,
    fabric: Fabric,
    membership: ClusterMembership,
    groups: GroupTable,
    election: LeaderElection,
    managers: IdMap<NodeId, Arc<NodeManager>>,
    remote: Arc<RemoteStore>,
    replicator: Replicator,
    disk: DiskTier,
    nvm: DiskTier,
    /// The CXL memory pool, present only when `ClusterConfig::cxl`
    /// enables it — absent, no `cxl.*` metric keys exist and the tiering
    /// order is exactly the pre-CXL one.
    cxl: Option<Arc<CxlPool>>,
    codec: PageCodec,
    /// Byte-guarded compressed-page memo keyed by `(server, key)`. Hits
    /// skip the LZ matcher; the simulated compression cost is charged
    /// either way, so virtual-time results are unchanged.
    compress_memo: Mutex<CompressMemo>,
    maps: Mutex<IdMap<ServerId, MemoryMap>>,
    servers: Vec<ServerId>,
    metrics: MetricsRegistry,
    handles: CoreMetrics,
    /// Optional multi-tenant QoS control plane. `OnceLock` keeps the
    /// no-QoS hot path lock-free: an uninstalled engine is one relaxed
    /// atomic load per operation, so single-tenant runs stay byte- and
    /// cycle-identical to the pre-QoS system.
    qos: OnceLock<Arc<QosEngine>>,
    /// Optional windowed telemetry hub (timeline sampler + alert engine
    /// + flight recorder). Same opt-in contract as `qos`: uninstalled,
    /// nothing samples and nothing is scheduled.
    telemetry: OnceLock<Arc<TelemetryHub>>,
}

impl DisaggregatedMemory {
    /// Builds the full system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] for invalid configurations and
    /// propagates substrate construction failures.
    pub fn new(config: ClusterConfig) -> DmemResult<Self> {
        config.validate()?;
        let clock = SimClock::new();
        let cost = CostModel::paper_default();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), cost, failures.clone());
        let nodes: Vec<NodeId> = (0..config.nodes as u32).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes.clone(), failures.clone());
        let groups = GroupTable::partition(&nodes, config.group_size)?;
        let election = LeaderElection::new(
            membership.clone(),
            clock.clone(),
            SimDuration::from_millis(50),
        );
        let rng = DetRng::new(config.seed);

        let mut managers = IdMap::default();
        let mut servers = Vec::new();
        for &node in &nodes {
            let manager = Arc::new(NodeManager::new(node, config.node.slab_size, clock.clone(), cost));
            for local in 0..config.servers_per_node as u32 {
                let server = ServerId::new(node, local);
                manager.register_server(server, config.server.memory, config.server.donation);
                servers.push(server);
            }
            managers.insert(node, manager);
        }

        let remote = Arc::new(RemoteStore::new(
            fabric.clone(),
            membership.clone(),
            config.node.recv_pool,
        )?);
        let placer = Placer::new(config.placement, membership.clone(), rng.fork("placement"));
        let replicator = Replicator::new(Arc::clone(&remote), placer, config.replication);
        let disk = DiskTier::new(clock.clone(), cost);
        let nvm = DiskTier::with_device_labeled(clock.clone(), cost.nvm, "nvm");
        let codec = PageCodec::new(config.compression);
        let metrics = MetricsRegistry::new();
        let cxl = config.cxl.enabled().then(|| {
            Arc::new(CxlPool::new(
                clock.clone(),
                cost,
                metrics.clone(),
                config.cxl.pool_nodes as u16,
                config.cxl.capacity_per_node,
            ))
        });

        let maps = servers
            .iter()
            .map(|&s| (s, MemoryMap::new()))
            .collect();

        Ok(DisaggregatedMemory {
            config,
            clock,
            cost,
            failures,
            fabric,
            membership,
            groups,
            election,
            managers,
            remote,
            replicator,
            disk,
            nvm,
            cxl,
            codec,
            compress_memo: Mutex::new(CompressMemo::with_default_capacity()),
            maps: Mutex::new(maps),
            servers,
            handles: CoreMetrics::new(&metrics),
            metrics,
            qos: OnceLock::new(),
            telemetry: OnceLock::new(),
        })
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The failure injector (schedule crashes and link failures here).
    pub fn failures(&self) -> &FailureInjector {
        &self.failures
    }

    /// All virtual servers, in configuration order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster membership view.
    pub fn membership(&self) -> &ClusterMembership {
        &self.membership
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The underlying RDMA fabric (for advanced wiring, e.g. batch senders).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Installs the multi-tenant QoS control plane (quota admission,
    /// priority eviction, fabric rate limiting, SLO controller). May be
    /// called at most once; the engine is wired to this system's metrics
    /// registry so `qos.*` counters and per-tenant latency histograms
    /// land next to the core ones.
    ///
    /// # Panics
    ///
    /// Panics if an engine is already installed.
    pub fn install_qos(&self, engine: Arc<QosEngine>) {
        engine.attach_metrics(self.metrics.clone());
        if self.qos.set(engine).is_err() {
            panic!("QoS engine already installed");
        }
    }

    /// The installed QoS engine, if any.
    pub fn qos(&self) -> Option<&Arc<QosEngine>> {
        self.qos.get()
    }

    /// Installs the windowed telemetry hub (time-series sampler, alert
    /// engine, flight recorder) and points it at this system's metrics
    /// registry plus the fabric's. May be called at most once; nothing
    /// installs one by default, so unobserved runs never even schedule
    /// the sampling task.
    ///
    /// # Panics
    ///
    /// Panics if a hub is already installed.
    pub fn install_telemetry(&self, hub: Arc<TelemetryHub>) {
        hub.add_registry(self.metrics.clone());
        hub.add_registry(self.fabric.metrics().clone());
        if self.telemetry.set(hub).is_err() {
            panic!("telemetry hub already installed");
        }
    }

    /// The installed telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.telemetry.get()
    }

    /// One telemetry sampling pass at the current virtual time: captures
    /// a metric window (and evaluates alert rules on it) if a window
    /// boundary has been crossed. Returns the number of windows captured.
    /// No-op without an installed hub.
    pub fn telemetry_tick(&self) -> usize {
        let Some(hub) = self.telemetry.get() else {
            return 0;
        };
        hub.tick(self.clock.now())
    }

    /// A tenant-priority resolver for [`RemoteSlabEvictor::with_priority`],
    /// backed by the installed engine. `None` when QoS is off, so default
    /// eviction order is untouched.
    pub fn qos_priority_resolver(&self) -> Option<dmem_cluster::PriorityResolver> {
        let engine = Arc::clone(self.qos.get()?);
        Some(Arc::new(move |entry: EntryId| {
            engine.tenant_priority(engine.tenant_of(entry.owner()))
        }))
    }

    /// One closed-loop QoS controller pass: reads the latency histograms,
    /// lets the engine decide, and applies every donation recommendation
    /// through the node managers' ballooning path. Returns how many
    /// control actions were applied. No-op without an installed engine.
    pub fn qos_tick(&self) -> usize {
        let Some(engine) = self.qos.get() else {
            return 0;
        };
        let mut applied = 0;
        for action in engine.controller_tick(&self.metrics) {
            let ControlAction::AdjustDonation { server, delta } = action;
            if let Some(manager) = self.managers.get(&server.node()) {
                // Honor local memory pressure first (ballooning advice);
                // only grow the donation when the node is not squeezed.
                let balloon = manager.apply_recommendation(server, delta.abs());
                if !balloon.applied {
                    let _ = manager.adjust_donation(server, delta);
                }
                applied += 1;
            }
        }
        applied
    }

    /// Meters `bytes` of fabric traffic for `tenant` through the QoS
    /// token buckets (waiting out any throttle delay on the virtual
    /// clock), then runs `f` with the fabric's per-tenant verb accounting
    /// scoped to `tenant`. Without an engine this is exactly `f()`.
    fn metered<T>(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(engine) = qos else {
            return f();
        };
        let wait = engine.fabric_acquire(tenant, bytes, self.clock.now());
        if !wait.is_zero() {
            let span = self.clock.tracer().span("qos", "throttle");
            span.tag("bytes", bytes);
            self.clock.advance(wait);
        }
        self.fabric.set_tenant_scope(Some(tenant));
        let out = f();
        self.fabric.set_tenant_scope(None);
        out
    }

    /// Demotes a shared-pool victim to disk so a higher-or-equal-priority
    /// put can take its place. Returns `false` (leaving the victim alone)
    /// if any step fails; residency is credited on success.
    fn demote_victim(&self, engine: &QosEngine, victim: &Victim) -> bool {
        let entry = victim.entry;
        let server = entry.owner();
        let node = server.node();
        let Some(manager) = self.managers.get(&node) else {
            return false;
        };
        let Ok(bytes) = manager.get(entry) else {
            return false;
        };
        if manager.delete(entry).is_err() {
            return false;
        }
        self.disk.store(node, entry, bytes);
        if let Some(map) = self.maps.lock().get_mut(&server) {
            map.set_location(entry.key(), EntryLocation::Disk);
        }
        engine.note_dropped(victim.tenant, entry);
        self.handles.qos_evict_demotions.inc();
        true
    }

    /// Records where a put landed: charges fast-tier residency (disk is
    /// unmetered) and enters the record in the owner's memory map.
    fn commit(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        entry: EntryId,
        mut record: EntryRecord,
        location: EntryLocation,
    ) {
        let node = entry.owner().node();
        let tier = match &location {
            EntryLocation::NodeShared { .. } => Some(ResidentTier::Shared(node)),
            EntryLocation::Nvm => Some(ResidentTier::Nvm(node)),
            EntryLocation::Cxl { .. } => Some(ResidentTier::Cxl),
            EntryLocation::Remote { .. } => Some(ResidentTier::Remote),
            EntryLocation::Disk => None,
        };
        if let (Some(engine), Some(tier)) = (qos, tier) {
            engine.note_fast_resident(tenant, entry, record.stored_len, tier);
        }
        record.location = location;
        self.maps
            .lock()
            .get_mut(&entry.owner())
            .expect("server registered at construction")
            .upsert(entry.key(), record);
    }

    /// The node manager of `node`.
    ///
    /// # Panics
    ///
    /// Panics for nodes outside the configured cluster.
    pub fn node_manager(&self, node: NodeId) -> &Arc<NodeManager> {
        self.managers
            .get(&node)
            .expect("node is part of the configured cluster")
    }

    /// The remote memory store.
    pub fn remote_store(&self) -> &Arc<RemoteStore> {
        &self.remote
    }

    /// The disk tier.
    pub fn disk_tier(&self) -> &DiskTier {
        &self.disk
    }

    /// The NVM tier (empty unless `NodeConfig::nvm_pool` is nonzero).
    pub fn nvm_tier(&self) -> &DiskTier {
        &self.nvm
    }

    /// NVM bytes in use on `node`.
    pub fn nvm_used(&self, node: NodeId) -> ByteSize {
        self.nvm.used(node)
    }

    /// The CXL memory pool, present when `ClusterConfig::cxl` enables it.
    /// Remote atomics ([`CxlPool::fetch_add`], [`CxlPool::cas`]) and
    /// pool-node outage control go through this handle.
    pub fn cxl_pool(&self) -> Option<&Arc<CxlPool>> {
        self.cxl.as_ref()
    }

    /// The leader of `node`'s sharing group (§IV-C election).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::NoLeader`] when the whole group is down.
    pub fn group_leader(&self, node: NodeId) -> DmemResult<NodeId> {
        let gid = self.groups.group_of(node)?;
        self.election.leader(&self.groups, gid)
    }

    /// The alive group peers of `node` — the candidate hosts for its
    /// remote entries (group-based sharing, §IV-C).
    pub fn group_peers(&self, node: NodeId) -> DmemResult<Vec<NodeId>> {
        Ok(self
            .groups
            .peers(node)?
            .into_iter()
            .filter(|&n| self.membership.is_alive(n))
            .collect())
    }

    fn tier_name(location: &EntryLocation) -> &'static str {
        match location {
            EntryLocation::NodeShared { .. } => "shared",
            EntryLocation::Remote { .. } => "remote",
            EntryLocation::Nvm => "nvm",
            EntryLocation::Cxl { .. } => "cxl",
            EntryLocation::Disk => "disk",
        }
    }

    fn memo_key(entry: EntryId) -> (u64, u64) {
        let server = entry.owner();
        let server_key =
            (u64::from(server.node().index()) << 32) | u64::from(server.local_index());
        (server_key, entry.key())
    }

    /// The first half of every put: releases the previous incarnation
    /// (replace semantics), then turns the payload into its stored form
    /// and record. Raw payloads (compression off, or longer than a page)
    /// are checksummed once and moved through untouched; only pages the
    /// codec may shrink go through the compress memo.
    fn begin_put(&self, entry: EntryId, data: Vec<u8>) -> (Vec<u8>, EntryRecord) {
        let mut maps = self.maps.lock();
        let old = maps
            .get_mut(&entry.owner())
            .and_then(|m| m.remove(entry.key()));
        drop(maps);
        if let Some(old) = old {
            self.drop_location(entry, &old.location);
        }
        let mut record = EntryRecord {
            location: EntryLocation::Disk, // placeholder, set by caller
            len: data.len() as u64,
            stored_len: data.len() as u64,
            class: None,
            version: 0,
            checksum: 0,
        };
        if !self.codec.mode().is_enabled() || data.len() > PAGE_SIZE {
            record.checksum = checksum(&data);
            return (data, record);
        }
        let page = self
            .compress_memo
            .lock()
            .get_or_compress(Self::memo_key(entry), &self.codec, &data);
        if page.is_compressed {
            let span = self.clock.tracer().span("compress", "compress");
            span.tag("bytes", page.original_len);
            self.clock.advance(self.cost.compress_page);
            record.class = Some(page.class);
        }
        record.stored_len = page.data.len() as u64;
        record.checksum = page.checksum;
        (page.data, record)
    }

    /// Turns the bytes a tier returned back into the payload, verifying
    /// every byte against the record's checksum.
    fn recover(&self, entry: EntryId, record: &EntryRecord, stored: Vec<u8>) -> DmemResult<Vec<u8>> {
        let Some(class) = record.class else {
            return if checksum(&stored) == record.checksum {
                Ok(stored)
            } else {
                Err(DmemError::Corrupt(entry))
            };
        };
        let span = self.clock.tracer().span("compress", "decompress");
        span.tag("bytes", record.len);
        self.clock.advance(self.cost.decompress_page);
        drop(span);
        let page = CompressedPage {
            data: stored,
            class,
            original_len: record.len as usize,
            is_compressed: true,
            checksum: record.checksum,
        };
        self.compress_memo
            .lock()
            .get_or_decompress(&self.codec, &page)
            // The codec's only error is `Corrupt` under a placeholder id.
            .map_err(|_| DmemError::Corrupt(entry))
    }

    /// Releases everything `location` holds for `entry`.
    fn drop_location(&self, entry: EntryId, location: &EntryLocation) {
        self.release_local(entry, location);
        let node = entry.owner().node();
        match location {
            EntryLocation::NodeShared { .. } => {
                if let Some(m) = self.managers.get(&node) {
                    let _ = m.delete(entry);
                }
            }
            EntryLocation::Remote { replicas } => {
                self.replicator.delete_replicated(node, entry, replicas);
            }
            _ => {}
        }
    }

    /// Releases what only the memory map keeps track of: `entry`'s QoS
    /// residency and whatever `location` holds on the devices attached to
    /// the owner's node. Whoever drops a map record comes through here;
    /// the shared pool and remote hosts index their own copies.
    fn release_local(&self, entry: EntryId, location: &EntryLocation) {
        if let Some(engine) = self.qos.get() {
            engine.note_dropped(engine.tenant_of(entry.owner()), entry);
        }
        let node = entry.owner().node();
        match location {
            EntryLocation::Nvm => {
                let _ = self.nvm.delete(node, entry);
            }
            EntryLocation::Cxl { addr } => {
                if let Some(pool) = &self.cxl {
                    let _ = pool.free(CxlAddr::from_raw(*addr));
                }
                // The write-behind shadow goes with it.
                let _ = self.disk.delete(node, entry);
            }
            EntryLocation::Disk => {
                let _ = self.disk.delete(node, entry);
            }
            EntryLocation::NodeShared { .. } | EntryLocation::Remote { .. } => {}
        }
    }

    /// Walks `pref`'s rungs for one prepared entry, stopping on the first
    /// local rung that stores it. This is the only place that knows which
    /// tiers a preference may use and in which order.
    fn walk(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        pref: TierPreference,
        entry: EntryId,
        stored: &[u8],
        record: &EntryRecord,
    ) -> Walk {
        let rungs = pref.rungs();
        // QoS admission: over-quota and shed tenants degrade to disk
        // instead of taking fast-tier space (graceful degradation, never
        // a hard failure). A put with no rungs skips the check — the disk
        // tier is unmetered.
        if let (Some(engine), false) = (qos, rungs.is_empty()) {
            let decision = engine.admit_fast(tenant, stored.len() as u64);
            if !matches!(decision, AdmitDecision::Admit) {
                return Walk::Disk;
            }
        }
        let node = entry.owner().node();
        for rung in rungs {
            // Any error sends the entry down: a full pool, an entry too
            // large for the shared pool's page-sized blocks, a tier that
            // is not configured, a CXL pool node that is down.
            let placed = match rung {
                Rung::Shared => self.try_shared(qos, tenant, node, entry, stored, record),
                Rung::Cxl => self.try_cxl(qos, tenant, node, entry, stored),
                Rung::Nvm => self.try_nvm(node, entry, stored),
                Rung::Remote => return Walk::Remote,
            };
            if let Ok(location) = placed {
                return Walk::Landed(location);
            }
        }
        Walk::Disk
    }

    /// Stores `data` under `(server, key)`, tiering automatically.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] if the owner is down.
    pub fn put(&self, server: ServerId, key: u64, data: Vec<u8>) -> DmemResult<()> {
        self.put_pref(server, key, data, TierPreference::Auto)
    }

    /// Stores `data` with an explicit tier preference (used by the swap
    /// backends to realize the Fig. 8 distribution-ratio sweep).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] if the owner is down.
    /// Placement cannot fail: every preference ends on the owner's disk,
    /// the paper's last resort.
    pub fn put_pref(
        &self,
        server: ServerId,
        key: u64,
        data: Vec<u8>,
        pref: TierPreference,
    ) -> DmemResult<()> {
        if !self.failures.is_server_up(server) {
            return Err(DmemError::ServerUnavailable(server));
        }
        let span = self.clock.tracer().span("core", "put");
        let t0 = self.clock.now();
        let entry = EntryId::new(server, key);
        let (stored, record) = self.begin_put(entry, data);
        let node = server.node();
        let qos = self.qos.get();
        let tenant = qos.map_or(TenantId::SYSTEM, |q| q.tenant_of(server));
        let placed = match self.walk(qos, tenant, pref, entry, &stored, &record) {
            Walk::Landed(location) => Some(location),
            Walk::Remote => self
                .metered(qos, tenant, stored.len() as u64, || {
                    self.try_remote(node, entry, &stored)
                })
                .ok(),
            Walk::Disk => None,
        };
        // Every tier above copied what it kept, so the last resort takes
        // the buffer itself.
        let location = placed.unwrap_or_else(|| {
            self.disk.store(node, entry, stored);
            self.handles.put_disk.inc();
            EntryLocation::Disk
        });
        span.tag("tier", Self::tier_name(&location));
        self.handles.put_ns.record((self.clock.now() - t0).as_nanos());
        self.commit(qos, tenant, entry, record, location);
        Ok(())
    }

    /// Places `entry` in the owner node's shared pool. With a QoS engine,
    /// a full pool gets one more chance: when the engine can name a
    /// victim of lower priority than `tenant`, the victim is demoted to
    /// disk and the put retried once.
    fn try_shared(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        node: NodeId,
        entry: EntryId,
        stored: &[u8],
        record: &EntryRecord,
    ) -> DmemResult<EntryLocation> {
        let class = record
            .class
            .or_else(|| dmem_types::SizeClass::fitting(stored.len()))
            .ok_or_else(|| DmemError::Unsupported {
                op: "multi-page entries in the node shared pool".into(),
            })?;
        let manager = self
            .managers
            .get(&node)
            .ok_or(DmemError::NodeUnavailable(node))?;
        let mut placed = manager.put(entry, stored, class);
        if let (Some(engine), Err(DmemError::CapacityExhausted { .. })) = (qos, &placed) {
            if let Some(victim) = engine.pick_victim(tenant, node, entry) {
                if self.demote_victim(engine, &victim) {
                    engine.note_eviction(tenant, &victim);
                    placed = manager.put(entry, stored, class).or(placed);
                }
            }
        }
        let block = placed?;
        self.handles.put_shared.inc();
        Ok(EntryLocation::NodeShared {
            slab: block.slab,
            offset: block.offset,
        })
    }

    fn try_nvm(&self, node: NodeId, entry: EntryId, stored: &[u8]) -> DmemResult<EntryLocation> {
        self.nvm
            .try_store(node, entry, stored, self.config.node.nvm_pool)?;
        self.handles.put_nvm.inc();
        Ok(EntryLocation::Nvm)
    }

    /// Deterministic placement key of `entry` on the CXL ring: mixes the
    /// owning server into the entry key so tenants spread across pool
    /// nodes instead of clustering by key range.
    fn cxl_key(entry: EntryId) -> u64 {
        let (server_key, key) = Self::memo_key(entry);
        server_key
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key)
    }

    /// Places `entry` in the CXL pool: ring placement, allocation, one
    /// cacheline-granular store, and a write-behind shadow copy on the
    /// owner's disk so pool-node loss degrades to disk instead of losing
    /// the entry. Fabric bytes are metered against the tenant's QoS
    /// token bucket, same as remote traffic.
    fn try_cxl(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        node: NodeId,
        entry: EntryId,
        stored: &[u8],
    ) -> DmemResult<EntryLocation> {
        let Some(pool) = &self.cxl else {
            return Err(DmemError::Unsupported {
                op: "cxl tier not configured".into(),
            });
        };
        let addr = self.metered(qos, tenant, stored.len() as u64, || {
            let addr = pool.alloc(Self::cxl_key(entry), stored.len())?;
            if let Err(e) = pool.store(addr, stored) {
                let _ = pool.free(addr);
                return Err(e);
            }
            Ok(addr)
        })?;
        self.disk.store_behind(node, entry, stored.to_vec());
        self.handles.put_cxl.inc();
        Ok(EntryLocation::Cxl { addr: addr.raw() })
    }

    fn try_remote(&self, node: NodeId, entry: EntryId, stored: &[u8]) -> DmemResult<EntryLocation> {
        let peers = self.group_peers(node)?;
        if let Some(m) = self.managers.get(&node) {
            m.record_remote_escalation();
        }
        let replicas = self
            .replicator
            .store_replicated(node, entry, stored, Some(&peers))?;
        self.handles.put_remote.inc();
        Ok(EntryLocation::Remote { replicas })
    }

    /// Reads the entry back, wherever it lives, verifying integrity.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] for unknown keys,
    /// [`DmemError::Corrupt`] on checksum mismatch, and path errors when
    /// every replica of a remote entry is unreachable.
    pub fn get(&self, server: ServerId, key: u64) -> DmemResult<Vec<u8>> {
        let entry = EntryId::new(server, key);
        let record = self
            .record(server, key)
            .ok_or(DmemError::EntryNotFound(entry))?;
        self.read_entry(entry, &record)
    }

    /// The body of [`DisaggregatedMemory::get`] past the map lookup: what
    /// `fetch` hands back is read here one entry at a time — a failover
    /// read across the replicas, or one disk read.
    fn read_entry(&self, entry: EntryId, record: &EntryRecord) -> DmemResult<Vec<u8>> {
        let node = entry.owner().node();
        let qos = self.qos.get();
        let tenant = qos.map_or(TenantId::SYSTEM, |q| q.tenant_of(entry.owner()));
        match self.fetch(qos, tenant, entry, record)? {
            Fetch::Served(payload) => Ok(payload),
            Fetch::Remote(replicas) => self.timed_get(qos, tenant, entry, record, || {
                self.metered(qos, tenant, record.stored_len, || {
                    self.replicator.load_replicated(node, entry, replicas)
                })
            }),
            Fetch::Disk => {
                self.timed_get(qos, tenant, entry, record, || self.disk.load(node, entry))
            }
        }
    }

    /// One timed single-entry read: the `core.get` span, `load` for the
    /// stored bytes, verification, and the latency in `core.get.ns` and
    /// the tenant's histogram. A failed load records no latency.
    ///
    /// Inlined with `fetch` so each entry point compiles to one body, as
    /// `read_entry` was before the split: left to the compiler, `tier_read`
    /// read 3.7 % slower than the parent on 5 of 5 pairs.
    #[inline(always)]
    fn timed_get(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        entry: EntryId,
        record: &EntryRecord,
        load: impl FnOnce() -> DmemResult<Vec<u8>>,
    ) -> DmemResult<Vec<u8>> {
        let span = self.clock.tracer().span("core", "get");
        span.tag("tier", Self::tier_name(&record.location));
        let t0 = self.clock.now();
        let stored = load()?;
        let out = self.recover(entry, record, stored);
        let elapsed = (self.clock.now() - t0).as_nanos();
        self.handles.get_ns.record(elapsed);
        if let Some(engine) = qos {
            engine.record_get(tenant, elapsed);
        }
        out
    }

    /// The read side of the ladder: the only place that turns an
    /// [`EntryLocation`] into bytes. A local rung — shared pool, CXL, NVM —
    /// serves the entry here as one timed read; the remote rung and the
    /// disk go back to the entry point, which reads them per entry
    /// (`get`) or per window (`get_batch`).
    #[inline(always)]
    fn fetch<'a>(
        &self,
        qos: Option<&Arc<QosEngine>>,
        tenant: TenantId,
        entry: EntryId,
        record: &'a EntryRecord,
    ) -> DmemResult<Fetch<'a>> {
        let node = entry.owner().node();
        let served = match &record.location {
            EntryLocation::Remote { replicas } => return Ok(Fetch::Remote(replicas)),
            EntryLocation::Disk => return Ok(Fetch::Disk),
            EntryLocation::NodeShared { .. } => self.timed_get(qos, tenant, entry, record, || {
                let manager = self
                    .managers
                    .get(&node)
                    .ok_or(DmemError::NodeUnavailable(node))?;
                manager.get(entry)
            }),
            EntryLocation::Nvm => {
                self.timed_get(qos, tenant, entry, record, || self.nvm.load(node, entry))
            }
            EntryLocation::Cxl { addr } => self.timed_get(qos, tenant, entry, record, || {
                let pool = self.cxl.as_ref().ok_or(DmemError::Unsupported {
                    op: "cxl tier not configured".into(),
                })?;
                let loaded = self.metered(qos, tenant, record.stored_len, || {
                    pool.load(CxlAddr::from_raw(*addr))
                });
                match loaded {
                    Err(DmemError::CxlPoolNodeDown { .. }) => {
                        // Pool-node outage: degrade to the write-behind
                        // shadow on the owner's disk, paying the full
                        // device cost. `recover` still checksums the
                        // payload, so the failover path can never serve
                        // wrong or stale bytes.
                        self.handles.cxl_failover_reads.inc();
                        self.disk.load(node, entry)
                    }
                    loaded => loaded,
                }
            }),
        };
        served.map(Fetch::Served)
    }

    /// Reads several entries, batching remote and disk fetches per
    /// location (this is the data path behind proactive batch swap-in).
    ///
    /// Results are returned in `keys` order.
    ///
    /// # Errors
    ///
    /// Fails on the first unreadable entry, with no partial results.
    pub fn get_batch(&self, server: ServerId, keys: &[u64]) -> DmemResult<Vec<Vec<u8>>> {
        let span = self.clock.tracer().span("core", "get_batch");
        span.tag("entries", keys.len());
        let mut records = Vec::with_capacity(keys.len());
        {
            let maps = self.maps.lock();
            let map = maps
                .get(&server)
                .ok_or(DmemError::ServerUnavailable(server))?;
            for &key in keys {
                let record = map
                    .get(key)
                    .cloned()
                    .ok_or(DmemError::EntryNotFound(EntryId::new(server, key)))?;
                records.push(record);
            }
        }
        let node = server.node();
        let qos = self.qos.get();
        let tenant = qos.map_or(TenantId::SYSTEM, |q| q.tenant_of(server));
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        let id = |i: usize| EntryId::new(server, keys[i]);

        // Local rungs are served in key order as `fetch` meets them; what
        // it hands back is held by position for one window per primary
        // replica and one disk batch. BTreeMap so hosts are read in node
        // order: virtual totals are order-independent, but span
        // boundaries (and thus trace exports) must not vary run-to-run.
        let mut by_primary: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut disk_idx: Vec<usize> = Vec::new();
        for (i, record) in records.iter().enumerate() {
            match self.fetch(qos, tenant, id(i), record)? {
                Fetch::Served(payload) => out[i] = Some(payload),
                Fetch::Remote(replicas) => {
                    let primary = *replicas.first().ok_or(DmemError::EntryNotFound(id(i)))?;
                    by_primary.entry(primary).or_default().push(i);
                }
                Fetch::Disk => disk_idx.push(i),
            }
        }
        for (primary, indices) in by_primary {
            let ids: Vec<EntryId> = indices.iter().map(|&i| id(i)).collect();
            let batch_bytes: u64 = indices.iter().map(|&i| records[i].stored_len).sum();
            match self.metered(qos, tenant, batch_bytes, || {
                self.remote.load_batch(node, primary, &ids)
            }) {
                Ok(blobs) => {
                    for (&i, blob) in indices.iter().zip(blobs) {
                        out[i] = Some(self.recover(id(i), &records[i], blob)?);
                    }
                }
                Err(_) => {
                    // Primary unreachable: fall back to per-entry failover.
                    for &i in &indices {
                        out[i] = Some(self.read_entry(id(i), &records[i])?);
                    }
                }
            }
        }
        if !disk_idx.is_empty() {
            let ids: Vec<EntryId> = disk_idx.iter().map(|&i| id(i)).collect();
            let blobs = self.disk.load_batch(node, &ids)?;
            for (&i, blob) in disk_idx.iter().zip(blobs) {
                out[i] = Some(self.recover(id(i), &records[i], blob)?);
            }
        }
        Ok(out.into_iter().map(|o| o.expect("all slots filled")).collect())
    }

    /// Stores a batch of entries with one remote replica-set per batch and
    /// windowed transfers (FastSwap's batched swap-out, §IV-H). Entries
    /// that fit the shared pool go there first under `Auto`.
    ///
    /// # Errors
    ///
    /// Fails if the final disk fallback fails (it does not), or propagates
    /// server-unavailability.
    pub fn put_batch(
        &self,
        server: ServerId,
        batch: Vec<(u64, Vec<u8>)>,
        pref: TierPreference,
    ) -> DmemResult<()> {
        if !self.failures.is_server_up(server) {
            return Err(DmemError::ServerUnavailable(server));
        }
        let span = self.clock.tracer().span("core", "put_batch");
        span.tag("entries", batch.len());
        let node = server.node();
        let qos = self.qos.get();
        let tenant = qos.map_or(TenantId::SYSTEM, |q| q.tenant_of(server));
        // Entries that reached the remote rung, held for one shared window.
        let mut window: Vec<(EntryId, Vec<u8>, EntryRecord)> = Vec::new();
        for (key, data) in batch {
            let entry = EntryId::new(server, key);
            let (stored, record) = self.begin_put(entry, data);
            match self.walk(qos, tenant, pref, entry, &stored, &record) {
                Walk::Landed(location) => self.commit(qos, tenant, entry, record, location),
                Walk::Remote => {
                    // Reserve residency now: later entries in this batch
                    // are admitted against a quota that already includes
                    // this one.
                    if let Some(engine) = qos {
                        let len = record.stored_len;
                        engine.note_fast_resident(tenant, entry, len, ResidentTier::Remote);
                    }
                    window.push((entry, stored, record));
                }
                Walk::Disk => {
                    self.disk.store(node, entry, stored);
                    self.commit(qos, tenant, entry, record, EntryLocation::Disk);
                }
            }
        }
        if window.is_empty() {
            return Ok(());
        }
        // One replica set for the whole window; one batched RDMA write per
        // replica. Falls back to disk when the group cannot host it.
        let peers = self.group_peers(node)?;
        if let Some(m) = self.managers.get(&node) {
            m.record_remote_escalation();
        }
        let id_batch: Vec<(EntryId, &[u8])> =
            window.iter().map(|(e, d, _)| (*e, d.as_slice())).collect();
        let batch_bytes: u64 = window.iter().map(|(_, d, _)| d.len() as u64).sum();
        let picked = self.metered(qos, tenant, batch_bytes, || {
            self.replicator
                .store_batch_replicated(node, &id_batch, &peers)
        });
        match picked {
            Ok(set) => {
                for (entry, _, record) in window {
                    let location = EntryLocation::Remote {
                        replicas: set.clone(),
                    };
                    self.commit(qos, tenant, entry, record, location);
                }
                self.handles.put_remote_batched.add(set.len() as u64);
            }
            Err(_) => {
                let (items, records): (Vec<_>, Vec<_>) = window
                    .into_iter()
                    .map(|(entry, stored, record)| ((entry, stored), (entry, record)))
                    .unzip();
                self.disk.store_batch(node, items);
                for (entry, record) in records {
                    // Credit the residency reserved at admission: the
                    // window fell through to disk, an unmetered tier.
                    if let Some(engine) = qos {
                        engine.note_dropped(tenant, entry);
                    }
                    self.commit(qos, tenant, entry, record, EntryLocation::Disk);
                }
            }
        }
        Ok(())
    }

    /// Deletes `(server, key)` from its current tier and the memory map.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] for unknown keys.
    pub fn delete(&self, server: ServerId, key: u64) -> DmemResult<()> {
        let entry = EntryId::new(server, key);
        let record = self
            .maps
            .lock()
            .get_mut(&server)
            .and_then(|m| m.remove(key))
            .ok_or(DmemError::EntryNotFound(entry))?;
        self.drop_location(entry, &record.location);
        Ok(())
    }

    /// The memory-map record of `(server, key)`, if tracked.
    pub fn record(&self, server: ServerId, key: u64) -> Option<EntryRecord> {
        self.maps.lock().get(&server).and_then(|m| m.get(key).cloned())
    }

    /// The replication manager, exposed so invariant checkers can probe
    /// live replica degree without re-deriving cluster state.
    pub fn replicator(&self) -> &Replicator {
        &self.replicator
    }

    /// A point-in-time copy of every tracked entry across all memory
    /// maps, as `(owner, key, record)` triples sorted by owner and key.
    ///
    /// This is the invariant-probe API: external checkers (the chaos
    /// harness, debugging tools) sweep the whole map without holding the
    /// map lock across their own per-entry work.
    pub fn entries_snapshot(&self) -> Vec<(ServerId, u64, EntryRecord)> {
        let maps = self.maps.lock();
        let mut out: Vec<(ServerId, u64, EntryRecord)> = maps
            .iter()
            .flat_map(|(server, map)| {
                map.iter().map(move |(key, record)| (*server, key, record.clone()))
            })
            .collect();
        out.sort_by_key(|(server, key, _)| (*server, *key));
        out
    }

    /// Runs one eviction scan (§IV-F) and applies the resulting moves to
    /// every affected memory map.
    ///
    /// # Errors
    ///
    /// Propagates evictor-level failures.
    pub fn run_eviction(&self, evictor: &RemoteSlabEvictor, placer: &Placer) -> DmemResult<EvictionOutcome> {
        let span = self.clock.tracer().span("cluster", "evict_scan");
        let outcome = evictor.scan(&self.remote, placer)?;
        span.tag("moves", outcome.moves.len());
        let mut maps = self.maps.lock();
        for (entry, from, to) in &outcome.moves {
            if let Some(map) = maps.get_mut(&entry.owner()) {
                map.relocate_replica(entry.key(), *from, *to);
            }
        }
        Ok(outcome)
    }

    /// Repairs every degraded remote replica set (after node failures),
    /// returning how many entries were re-replicated.
    pub fn repair_replicas(&self) -> usize {
        let span = self.clock.tracer().span("cluster", "repair");
        let mut repaired = 0;
        // The snapshot's (server, key) order matters: repair order feeds
        // the placement RNG and every host's allocator, so the maps' own
        // iteration order — an accident of insertion history — must never
        // reach placement or the per-seed metrics digest.
        for (server, key, record) in self.entries_snapshot() {
            let EntryLocation::Remote { replicas } = record.location else {
                continue;
            };
            let entry = EntryId::new(server, key);
            if self.replicator.live_degree(entry, &replicas) < self.replicator.factor().get() {
                if let Ok(replicas) = self.replicator.re_replicate(server.node(), entry, &replicas) {
                    if let Some(map) = self.maps.lock().get_mut(&server) {
                        if map.set_location(key, EntryLocation::Remote { replicas }) {
                            repaired += 1;
                        }
                    }
                }
            }
        }
        span.tag("repaired", repaired);
        self.resolve_suspects();
        repaired
    }

    /// Resolves read-failover suspicions at the end of a repair scan:
    /// an alive suspect reachable from every alive peer is probed
    /// healthy and cleared; a dead suspect no longer referenced by any
    /// replica set has been fully repaired around and is evicted from
    /// the suspect list. Anything else stays suspect for the next scan.
    ///
    /// Suspects exist only under fault injection ([`Fabric::faults_installed`]),
    /// so fault-free runs take the empty early-return and create no
    /// metric keys.
    pub(crate) fn resolve_suspects(&self) {
        let suspects = self.membership.suspects();
        if suspects.is_empty() {
            return;
        }
        let referenced: IdSet<NodeId> = self
            .entries_snapshot()
            .into_iter()
            .filter_map(|(_, _, record)| match record.location {
                EntryLocation::Remote { replicas } => Some(replicas),
                _ => None,
            })
            .flatten()
            .collect();
        let alive = self.membership.alive_nodes();
        for node in suspects {
            if self.membership.is_alive(node) {
                let reachable = alive
                    .iter()
                    .all(|&peer| peer == node || self.fabric.is_path_up(peer, node));
                if reachable && self.membership.clear_suspect(node) {
                    self.handles.suspect_cleared.inc();
                }
            } else if !referenced.contains(&node) && self.membership.clear_suspect(node) {
                self.handles.suspect_evicted.inc();
            }
        }
    }

    /// Handles a crashed-and-restarted node: hosted remote entries are
    /// lost, the receive pool is re-registered, local servers' maps and
    /// shared-pool contents are purged (same failure semantics as losing
    /// OS swap, §IV-D). Returns `(lost_remote_entries, purged_local_entries)`.
    ///
    /// # Errors
    ///
    /// Propagates region re-registration failures if the node is still down.
    pub fn handle_node_restart(&self, node: NodeId) -> DmemResult<(usize, usize)> {
        let lost_remote = self.remote.reset_node(node)?;
        let mut purged = 0;
        let mut maps = self.maps.lock();
        for (&server, map) in maps.iter_mut() {
            if server.node() == node {
                purged += map.len();
                // The map is cleared wholesale below, so release what
                // only it tracks entry by entry first: leaked quota, NVM
                // bytes or CXL blocks would eat capacity forever. The
                // shared pool goes with `deregister_server`; replicas on
                // peer hosts stay (ROADMAP `[bugs]` B1).
                for (key, record) in map.iter() {
                    self.release_local(EntryId::new(server, key), &record.location);
                }
                *map = MemoryMap::new();
                if let Some(m) = self.managers.get(&node) {
                    m.deregister_server(server);
                    m.register_server(server, self.config.server.memory, self.config.server.donation);
                }
            }
        }
        Ok((lost_remote, purged))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DmStats {
        let maps = self.maps.lock();
        let mut stats = DmStats::default();
        for map in maps.values() {
            let (s, n, r, c, d) = map.tier_census();
            stats.entries += map.len();
            stats.shared += s;
            stats.nvm += n;
            stats.remote += r;
            stats.cxl += c;
            stats.disk += d;
        }
        for manager in self.managers.values() {
            stats.shared_capacity += manager.capacity();
        }
        for &node in self.membership.nodes() {
            stats.remote_free += self.membership.free_of(node);
        }
        stats
    }
}

impl fmt::Debug for DisaggregatedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DisaggregatedMemory")
            .field("nodes", &self.config.nodes)
            .field("servers", &self.servers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::FailureEvent;
    use dmem_types::{CompressionMode, PlacementStrategy};

    fn system() -> DisaggregatedMemory {
        DisaggregatedMemory::new(ClusterConfig::small()).unwrap()
    }

    #[test]
    fn config_is_validated() {
        let mut bad = ClusterConfig::small();
        bad.nodes = 0;
        assert!(DisaggregatedMemory::new(bad).is_err());
    }

    #[test]
    fn put_lands_in_shared_pool_first() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![7u8; 4096]).unwrap();
        let record = dm.record(server, 1).unwrap();
        assert!(record.location.is_node_local());
        assert_eq!(dm.get(server, 1).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn compression_is_transparent() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![0u8; 4096]).unwrap(); // highly compressible
        let record = dm.record(server, 1).unwrap();
        assert!(record.class.is_some());
        assert!(record.stored_len < 4096);
        assert!(record.compression_ratio() > 2.0);
        assert_eq!(dm.get(server, 1).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn overflow_tiers_to_remote_then_disk() {
        let mut config = ClusterConfig::small();
        // Tiny donations so the shared pool fills immediately, and no
        // compression so each page really occupies 4 KiB remotely.
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        config.node.recv_pool = ByteSize::from_kib(64);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        // Shared pool has zero capacity: entries go remote.
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        let record = dm.record(server, 1).unwrap();
        assert!(record.location.is_remote(), "got {:?}", record.location);
        assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 4096]);

        // Exhaust remote pools too: spills to disk. Incompressible pages
        // of 4 KiB × enough keys to overrun 3 × 64 KiB of replicas.
        for k in 2..60 {
            dm.put(server, k, vec![k as u8; 4096]).unwrap();
        }
        let stats = dm.stats();
        assert!(stats.disk > 0, "disk tier must absorb the overflow");
        // Everything still readable.
        for k in 2..60 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 4096]);
        }
    }

    #[test]
    fn explicit_tier_preferences() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 512], TierPreference::Disk)
            .unwrap();
        assert!(dm.record(server, 1).unwrap().location.is_disk());
        dm.put_pref(server, 2, vec![2u8; 512], TierPreference::Remote)
            .unwrap();
        assert!(dm.record(server, 2).unwrap().location.is_remote());
        dm.put_pref(server, 3, vec![3u8; 512], TierPreference::NodeShared)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_node_local());
        for k in 1..=3 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 512]);
        }
    }

    #[test]
    fn replace_updates_version_and_frees_old_tier() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 256], TierPreference::Disk)
            .unwrap();
        dm.put_pref(server, 1, vec![2u8; 256], TierPreference::Remote)
            .unwrap();
        let record = dm.record(server, 1).unwrap();
        assert_eq!(record.version, 1, "fresh key after remove: version restarts");
        assert!(record.location.is_remote());
        assert!(!dm.disk_tier().contains(server.node(), EntryId::new(server, 1)));
        assert_eq!(dm.get(server, 1).unwrap(), vec![2u8; 256]);
    }

    #[test]
    fn delete_removes_everywhere() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 128]).unwrap();
        dm.delete(server, 1).unwrap();
        assert!(dm.record(server, 1).is_none());
        assert!(matches!(
            dm.get(server, 1),
            Err(DmemError::EntryNotFound(_))
        ));
        assert!(matches!(dm.delete(server, 1), Err(DmemError::EntryNotFound(_))));
    }

    #[test]
    fn remote_read_survives_replica_failures() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![9u8; 2048]).unwrap();
        let record = dm.record(server, 1).unwrap();
        let replicas = match &record.location {
            EntryLocation::Remote { replicas } => replicas.clone(),
            other => panic!("expected remote, got {other:?}"),
        };
        assert_eq!(replicas.len(), 3);
        // Two of three replicas die; read still succeeds.
        dm.failures()
            .inject_now(FailureEvent::NodeDown(replicas[0]));
        dm.failures()
            .inject_now(FailureEvent::NodeDown(replicas[1]));
        assert_eq!(dm.get(server, 1).unwrap(), vec![9u8; 2048]);
    }

    #[test]
    fn repair_restores_replication_degree() {
        let mut config = ClusterConfig::small();
        config.nodes = 6;
        config.group_size = 6;
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![3u8; 1024]).unwrap();
        let replicas = match dm.record(server, 1).unwrap().location {
            EntryLocation::Remote { replicas } => replicas,
            other => panic!("expected remote, got {other:?}"),
        };
        let victim = replicas[0];
        dm.failures().inject_now(FailureEvent::NodeDown(victim));
        dm.failures().inject_now(FailureEvent::NodeUp(victim));
        dm.handle_node_restart(victim).unwrap();

        let repaired = dm.repair_replicas();
        assert_eq!(repaired, 1);
        let new_replicas = match dm.record(server, 1).unwrap().location {
            EntryLocation::Remote { replicas } => replicas,
            other => panic!("expected remote, got {other:?}"),
        };
        assert_eq!(new_replicas.len(), 3);
        assert_eq!(dm.get(server, 1).unwrap(), vec![3u8; 1024]);
    }

    #[test]
    fn node_restart_loses_local_maps() {
        let dm = system();
        let server = dm.servers()[0]; // on node 0
        dm.put(server, 1, vec![1u8; 64]).unwrap();
        let (_, purged) = dm.handle_node_restart(server.node()).unwrap();
        assert_eq!(purged, 1);
        assert!(dm.record(server, 1).is_none(), "map gone with the node");
    }

    #[test]
    fn batch_roundtrip_and_batching_speedup() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        let batch: Vec<(u64, Vec<u8>)> =
            (0..16).map(|k| (k, vec![k as u8; 4096])).collect();
        let t0 = dm.clock().now();
        dm.put_batch(server, batch, TierPreference::Remote).unwrap();
        let batched_cost = dm.clock().now() - t0;

        let keys: Vec<u64> = (0..16).collect();
        let loaded = dm.get_batch(server, &keys).unwrap();
        for (k, data) in loaded.iter().enumerate() {
            assert_eq!(data, &vec![k as u8; 4096]);
        }

        // Singleton puts of the same volume cost strictly more.
        let t1 = dm.clock().now();
        for k in 16..32u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Remote)
                .unwrap();
        }
        let single_cost = dm.clock().now() - t1;
        assert!(
            batched_cost < single_cost,
            "batched {batched_cost} >= single {single_cost}"
        );
    }

    #[test]
    fn large_entries_bypass_shared_pool() {
        let dm = system();
        let server = dm.servers()[0];
        let big = vec![5u8; 64 * 1024];
        dm.put(server, 1, big.clone()).unwrap();
        let record = dm.record(server, 1).unwrap();
        assert!(!record.location.is_node_local());
        assert_eq!(dm.get(server, 1).unwrap(), big);
    }

    #[test]
    fn group_leadership_is_exposed() {
        let dm = system();
        let leader = dm.group_leader(NodeId::new(0)).unwrap();
        assert!(dm.membership().is_alive(leader));
        let peers = dm.group_peers(NodeId::new(0)).unwrap();
        assert!(!peers.contains(&NodeId::new(0)));
    }

    #[test]
    fn dead_server_cannot_put() {
        let dm = system();
        let server = dm.servers()[0];
        dm.failures().inject_now(FailureEvent::ServerDown(server));
        assert!(matches!(
            dm.put(server, 1, vec![1]),
            Err(DmemError::ServerUnavailable(_))
        ));
    }

    #[test]
    fn stats_track_census() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 64], TierPreference::NodeShared)
            .unwrap();
        dm.put_pref(server, 2, vec![2u8; 64], TierPreference::Remote)
            .unwrap();
        dm.put_pref(server, 3, vec![3u8; 64], TierPreference::Disk)
            .unwrap();
        let stats = dm.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!((stats.shared, stats.remote, stats.disk), (1, 1, 1));
        assert!(stats.shared_capacity > ByteSize::ZERO);
        assert_eq!(dm.metrics().counter("core.put.shared").get(), 1);
    }

    #[test]
    fn placement_strategies_all_construct() {
        for placement in [
            PlacementStrategy::Random,
            PlacementStrategy::RoundRobin,
            PlacementStrategy::WeightedRoundRobin,
            PlacementStrategy::PowerOfTwoChoices,
        ] {
            let mut config = ClusterConfig::small();
            config.placement = placement;
            let dm = DisaggregatedMemory::new(config).unwrap();
            let server = dm.servers()[0];
            dm.put_pref(server, 1, vec![1u8; 64], TierPreference::Remote)
                .unwrap();
            assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 64]);
        }
    }

    #[test]
    fn nvm_tier_disabled_by_default() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 512], TierPreference::Nvm)
            .unwrap();
        // Without an NVM pool the preference spills to disk.
        assert!(dm.record(server, 1).unwrap().location.is_disk());
    }

    #[test]
    fn nvm_tier_roundtrip_and_capacity() {
        let mut config = ClusterConfig::small();
        config.node.nvm_pool = ByteSize::from_kib(8);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 4096], TierPreference::Nvm)
            .unwrap();
        dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Nvm)
            .unwrap();
        assert!(dm.record(server, 1).unwrap().location.is_nvm());
        assert_eq!(dm.nvm_used(server.node()), ByteSize::from_kib(8));
        // Pool full: the third entry spills to disk.
        dm.put_pref(server, 3, vec![3u8; 4096], TierPreference::Nvm)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_disk());
        // Reads are tier-transparent; deleting releases capacity.
        assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 4096]);
        dm.delete(server, 1).unwrap();
        assert_eq!(dm.nvm_used(server.node()), ByteSize::from_kib(4));
        let stats = dm.stats();
        assert_eq!(stats.nvm, 1);
        assert_eq!(stats.disk, 1);
    }

    fn cxl_system(pool_nodes: usize, cap: ByteSize) -> DisaggregatedMemory {
        let mut config = ClusterConfig::small();
        config.cxl = dmem_types::CxlPoolConfig::new(pool_nodes, cap);
        config.compression = CompressionMode::Off;
        DisaggregatedMemory::new(config).unwrap()
    }

    #[test]
    fn cxl_tier_roundtrip_capacity_and_stats() {
        // One pool node so capacity arithmetic is placement-independent.
        let dm = cxl_system(1, ByteSize::from_kib(16));
        let server = dm.servers()[0];
        for k in 1..=4u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Cxl)
                .unwrap();
            assert!(dm.record(server, k).unwrap().location.is_cxl());
        }
        let pool = dm.cxl_pool().expect("configured");
        assert_eq!(pool.used_total(), ByteSize::from_kib(16));
        // Pool full (16 KiB): the fifth entry spills to disk.
        dm.put_pref(server, 5, vec![5u8; 4096], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 5).unwrap().location.is_disk());
        // Reads are tier-transparent; deleting releases pool capacity
        // and drops the write-behind shadow.
        for k in 1..=5u64 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 4096]);
        }
        dm.delete(server, 1).unwrap();
        assert_eq!(pool.used_total(), ByteSize::from_kib(12));
        assert!(!dm.disk_tier().contains(server.node(), EntryId::new(server, 1)));
        let stats = dm.stats();
        assert_eq!(stats.cxl, 3, "stats {stats:?}");
        assert_eq!(stats.disk, 1);
        assert!(dm.metrics().counter("cxl.store.ops").get() >= 4);
    }

    #[test]
    fn cxl_outage_fails_over_to_the_disk_shadow() {
        let dm = cxl_system(1, ByteSize::from_kib(64));
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![6u8; 4096], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 1).unwrap().location.is_cxl());
        let pool = Arc::clone(dm.cxl_pool().unwrap());
        pool.set_pool_node_down(0);
        // The pool is unreachable, but the read degrades to the shadow
        // copy — correct bytes, checksum-verified, at disk cost.
        let t0 = dm.clock().now();
        assert_eq!(dm.get(server, 1).unwrap(), vec![6u8; 4096]);
        assert!((dm.clock().now() - t0).as_millis_f64() > 3.0, "paid disk");
        assert_eq!(dm.metrics().counter("cxl.failover.reads").get(), 1);
        pool.set_pool_node_up(0);
        let t1 = dm.clock().now();
        assert_eq!(dm.get(server, 1).unwrap(), vec![6u8; 4096]);
        assert!(
            (dm.clock().now() - t1).as_micros_f64() < 100.0,
            "recovered reads go back to the pool"
        );
        // New puts during an outage of the only pool node spill to disk.
        pool.set_pool_node_down(0);
        dm.put_pref(server, 2, vec![7u8; 4096], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 2).unwrap().location.is_disk());
    }

    #[test]
    fn auto_prefers_cxl_before_nvm_and_remote() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0); // no shared pool
        config.node.nvm_pool = ByteSize::from_mib(1);
        config.cxl = dmem_types::CxlPoolConfig::new(2, ByteSize::from_kib(64));
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        let t0 = dm.clock().now();
        dm.put(server, 1, vec![7u8; 4096]).unwrap();
        let put_cost = dm.clock().now() - t0;
        assert!(
            dm.record(server, 1).unwrap().location.is_cxl(),
            "cxl outranks nvm and remote in the Auto hierarchy"
        );
        assert!(put_cost.as_micros_f64() < 10.0, "cxl put cost {put_cost}");
        assert_eq!(dm.get(server, 1).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn cxl_remote_atomics_through_the_pool_handle() {
        let dm = cxl_system(2, ByteSize::from_kib(8));
        let pool = dm.cxl_pool().unwrap();
        let cell = pool.alloc_counter(42).unwrap();
        assert_eq!(pool.fetch_add(cell, 5).unwrap(), 0);
        assert_eq!(pool.cas(cell, 5, 11).unwrap(), 5);
        assert_eq!(pool.counter_value(cell).unwrap(), 11);
        assert_eq!(pool.counter_ops(cell), 2);
        assert!(dm.metrics().counter("cxl.atomic.ops").get() == 2);
    }

    #[test]
    fn no_cxl_metrics_without_a_pool() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Remote)
            .unwrap();
        dm.get(server, 1).unwrap();
        assert!(dm.cxl_pool().is_none());
        // An explicit Cxl preference without a pool degrades to disk.
        dm.put_pref(server, 3, vec![3u8; 512], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_disk());
        let dump = dm.metrics().to_string();
        assert!(!dump.contains("cxl."), "cxl keys leaked: {dump}");
    }

    #[test]
    fn auto_prefers_nvm_over_remote_when_configured() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0); // no shared pool
        config.node.nvm_pool = ByteSize::from_mib(1);
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        let t0 = dm.clock().now();
        dm.put(server, 1, vec![7u8; 4096]).unwrap();
        let put_cost = dm.clock().now() - t0;
        assert!(dm.record(server, 1).unwrap().location.is_nvm());
        // NVM absorbs the overflow more cheaply than a triple-replicated
        // remote write would.
        assert!(put_cost.as_micros_f64() < 15.0, "nvm put cost {put_cost}");
        assert_eq!(dm.get(server, 1).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn no_qos_metrics_without_engine() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Remote)
            .unwrap();
        dm.get(server, 1).unwrap();
        dm.get(server, 2).unwrap();
        assert_eq!(dm.qos_tick(), 0);
        assert!(dm.qos().is_none());
        assert!(dm.qos_priority_resolver().is_none());
        let dump = dm.metrics().to_string();
        assert!(!dump.contains("qos."), "qos keys leaked: {dump}");
        assert!(!dump.contains("net.tenant-"), "tenant keys leaked: {dump}");
    }

    #[test]
    fn qos_quota_denial_degrades_to_disk() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let mut config = ClusterConfig::small();
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let server = dm.servers()[0];
        let capped = engine.register_tenant(TenantSpec::new(
            "capped",
            50,
            ByteSize::from_kib(4),
        ));
        engine.assign_server(server, capped);
        for k in 0..4u64 {
            dm.put(server, k, vec![k as u8; 4096]).unwrap();
        }
        // One page fits the 4 KiB quota; the rest degrade to disk — no
        // hard failure, every entry still readable.
        let stats = dm.stats();
        assert_eq!(stats.disk, 3, "stats {stats:?}");
        for k in 0..4u64 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 4096]);
        }
        assert!(dm.metrics().counter("qos.capped.rejected.bytes").get() > 0);
        assert!(dm.metrics().counter("qos.capped.admitted.bytes").get() > 0);
        // Deleting the resident entry frees the quota again.
        dm.delete(server, 0).unwrap();
        dm.put(server, 9, vec![9u8; 4096]).unwrap();
        assert!(!dm.record(server, 9).unwrap().location.is_disk());
    }

    #[test]
    fn qos_priority_eviction_reclaims_low_priority_pages() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let mut config = ClusterConfig::small();
        // One 8 KiB slab of donation per node: room for exactly two pages.
        config.node.slab_size = ByteSize::from_kib(8);
        config.server.donation = dmem_types::DonationPolicy::fixed(0.000244140625);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let low_server = dm.servers()[0];
        let high_server = dm.servers()[1]; // same node
        assert_eq!(low_server.node(), high_server.node());
        let low = engine.register_tenant(TenantSpec::new("batch", 10, ByteSize::from_mib(4)));
        let high = engine.register_tenant(TenantSpec::new("kv", 200, ByteSize::from_mib(4)));
        engine.assign_server(low_server, low);
        engine.assign_server(high_server, high);
        // The low-priority tenant fills the node's two-page shared pool.
        for k in 1..=2u64 {
            dm.put_pref(low_server, k, vec![k as u8; 4096], TierPreference::NodeShared)
                .unwrap();
            assert!(dm.record(low_server, k).unwrap().location.is_node_local());
        }
        // A high-priority put reclaims one of those pages instead of
        // spilling to a slower tier.
        dm.put_pref(high_server, 7, vec![7u8; 4096], TierPreference::NodeShared)
            .unwrap();
        assert!(dm.record(high_server, 7).unwrap().location.is_node_local());
        let evictions = engine.evictions();
        assert_eq!(evictions.len(), 1);
        assert!(evictions[0].victim_priority <= evictions[0].beneficiary_priority);
        // Exactly one victim was demoted to disk — and not lost.
        let demoted = (1..=2u64)
            .filter(|&k| dm.record(low_server, k).unwrap().location.is_disk())
            .count();
        assert_eq!(demoted, 1);
        for k in 1..=2u64 {
            assert_eq!(dm.get(low_server, k).unwrap(), vec![k as u8; 4096]);
        }
        // The reverse direction must not hold: the low-priority tenant
        // cannot evict the high-priority page.
        dm.put_pref(low_server, 3, vec![3u8; 4096], TierPreference::NodeShared)
            .unwrap();
        assert!(dm.record(high_server, 7).unwrap().location.is_node_local());
    }

    #[test]
    fn qos_fabric_rate_limit_throttles_remote_traffic() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        config.compression = CompressionMode::Off;

        let baseline = DisaggregatedMemory::new(config.clone()).unwrap();
        let s = baseline.servers()[0];
        let t0 = baseline.clock().now();
        for k in 0..8u64 {
            baseline
                .put_pref(s, k, vec![k as u8; 4096], TierPreference::Remote)
                .unwrap();
        }
        let base_cost = baseline.clock().now() - t0;

        let dm = DisaggregatedMemory::new(config).unwrap();
        let engine = Arc::new(QosEngine::new(QosConfig {
            burst: ByteSize::from_kib(4),
            ..QosConfig::default()
        }));
        dm.install_qos(Arc::clone(&engine));
        let server = dm.servers()[0];
        let slow = engine.register_tenant(
            TenantSpec::new("slow", 10, ByteSize::from_mib(16)).with_fabric_rate(1_000_000),
        );
        engine.assign_server(server, slow);
        let t1 = dm.clock().now();
        for k in 0..8u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Remote)
                .unwrap();
        }
        let limited_cost = dm.clock().now() - t1;
        assert!(
            limited_cost > base_cost,
            "rate limit must slow the tenant: {limited_cost} <= {base_cost}"
        );
        assert!(
            dm.metrics().counter("qos.slow.tokens_waited.ns").get() > 0,
            "waits must be accounted"
        );
        let raw = slow.index();
        let net = dm.fabric().metrics();
        assert!(net.counter(&format!("net.tenant-{raw}.ops")).get() > 0);
        assert!(net.counter(&format!("net.tenant-{raw}.bytes")).get() > 0);
        // Scope never leaks past the metered section.
        assert!(dm.fabric().tenant_scope().is_none());
    }

    #[test]
    fn qos_node_restart_credits_residency() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let dm = system();
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let server = dm.servers()[0];
        let tenant = engine.register_tenant(TenantSpec::new("t", 50, ByteSize::from_mib(1)));
        engine.assign_server(server, tenant);
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        let resident_before = engine
            .tenants_snapshot()
            .iter()
            .find(|t| t.id == tenant)
            .unwrap()
            .resident;
        assert!(resident_before > 0);
        dm.handle_node_restart(server.node()).unwrap();
        let resident_after = engine
            .tenants_snapshot()
            .iter()
            .find(|t| t.id == tenant)
            .unwrap()
            .resident;
        assert_eq!(resident_after, 0, "crash must credit the quota");
    }

    #[test]
    fn raw_round_trips_stay_out_of_the_memo() {
        // Compression off: a page-sized and a multi-page value, through
        // put/get and put_batch/get_batch.
        let mut config = ClusterConfig::small();
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        dm.put_batch(
            server,
            vec![(2, vec![2u8; 4096]), (3, vec![3u8; 3 * 4096])],
            TierPreference::Remote,
        )
        .unwrap();
        assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 4096]);
        assert_eq!(
            dm.get_batch(server, &[2, 3]).unwrap(),
            vec![vec![2u8; 4096], vec![3u8; 3 * 4096]]
        );
        assert_eq!(dm.compress_memo.lock().stats(), Default::default());
        assert!(dm.compress_memo.lock().is_empty());

        // Compression on: a multi-page value is raw and bypasses the
        // memo; an incompressible page is offered to the codec once and
        // read back by checksum, not through the decode memo.
        let dm = system();
        let server = dm.servers()[0];
        let mut rng = DetRng::new(7);
        let noise: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
        dm.put(server, 1, vec![9u8; 2 * 4096]).unwrap();
        dm.put(server, 2, noise.clone()).unwrap();
        assert!(dm.record(server, 2).unwrap().class.is_none());
        assert_eq!(dm.get(server, 1).unwrap(), vec![9u8; 2 * 4096]);
        assert_eq!(dm.get(server, 2).unwrap(), noise);
        let stats = dm.compress_memo.lock().stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.decompress_hits + stats.decompress_misses, 0);
    }
}
