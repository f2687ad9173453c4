//! The QoS engine: tenant registry, admission control, priority-aware
//! victim selection, fabric rate limiting and the closed-loop controller.
//!
//! The engine is *pure policy*: it decides, the caller (usually
//! `dmem-core`) acts. That keeps every decision unit-testable without a
//! cluster, and keeps the dependency arrow pointing the right way —
//! `dmem-core` depends on `dmem-qos`, never the reverse.
//!
//! Every decision is appended to a deterministic log (and folded into a
//! running FNV-1a digest), which is how the chaos harness proves that the
//! same seed yields byte-identical QoS behaviour across runs and across
//! parallel execution.

use crate::bucket::TokenBucket;
use crate::tenant::TenantSpec;
use dmem_sim::{
    AlertRule, Histogram, Lazy, LazyCounter, LazyHistogram, Metric, MetricsRegistry, SimDuration,
    SimInstant,
};
use dmem_types::{
    fnv1a64_fold, ByteSize, EntryId, IdMap, NodeId, ServerId, TenantId, FNV1A64_OFFSET,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Donation fraction step the controller requests per violated tick.
const DONATION_STEP: f64 = 0.05;
/// Throttle levels cap. Each level halves a tenant's effective fabric
/// rate (the bucket charge doubles), so level 6 = 1/64 bandwidth.
const MAX_THROTTLE: u8 = 6;
/// At or above this throttle level a tenant's new puts are *shed*:
/// admitted straight to disk instead of competing for fast tiers.
const SHED_LEVEL: u8 = 4;

/// Tuning knobs for the engine and its controller.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// Burst allowance for every token bucket.
    pub burst: ByteSize,
    /// Minimum windowed get samples before the controller judges an SLO.
    pub min_slo_samples: u64,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            burst: ByteSize::from_kib(256),
            min_slo_samples: 8,
        }
    }
}

/// Verdict of [`QosEngine::admit_fast`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The bytes may land in a fast tier (quota headroom exists).
    Admit,
    /// Over quota — degrade this put to disk (never a hard failure).
    RejectQuota,
    /// The tenant is being shed by the controller — route to disk.
    Shed,
}

/// A fast-tier victim candidate chosen by [`QosEngine::pick_victim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The entry to demote.
    pub entry: EntryId,
    /// Its owning tenant.
    pub tenant: TenantId,
    /// That tenant's priority at selection time.
    pub priority: u8,
    /// Stored bytes the demotion will free.
    pub bytes: u64,
}

/// One applied-or-requested eviction, kept for the chaos priority
/// invariant: a victim may never out-rank its beneficiary while the
/// beneficiary is under quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionRecord {
    /// Tenant whose put triggered the eviction.
    pub beneficiary: TenantId,
    /// Beneficiary priority at decision time.
    pub beneficiary_priority: u8,
    /// Whether the beneficiary was under its quota (it always should be —
    /// over-quota puts are rejected before reaching eviction).
    pub beneficiary_under_quota: bool,
    /// Tenant whose page was demoted.
    pub victim: TenantId,
    /// Victim priority at decision time.
    pub victim_priority: u8,
    /// The demoted entry.
    pub entry: EntryId,
}

/// Controller output the caller applies to the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Grow (or shrink, negative) a server's donation fraction.
    AdjustDonation {
        /// Server whose donation should move.
        server: ServerId,
        /// Signed fraction delta (clamped by the donation policy).
        delta: f64,
    },
}

/// Point-in-time view of one tenant for reports and invariant checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub id: TenantId,
    /// Tenant name.
    pub name: String,
    /// Priority.
    pub priority: u8,
    /// Fast-tier quota in bytes.
    pub quota: u64,
    /// Fast-tier resident bytes right now.
    pub resident: u64,
    /// Current throttle level.
    pub throttle: u8,
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    bytes: u64,
    tier: ResidentTier,
}

/// One tenant's `qos.<name>.*` metrics, resolved on first touch.
#[derive(Debug)]
struct TenantCounters {
    admitted_bytes: LazyCounter,
    rejected_bytes: LazyCounter,
    shed_bytes: LazyCounter,
    throttled_bytes: LazyCounter,
    tokens_waited_ns: LazyCounter,
    get_ns: LazyHistogram,
}

impl TenantCounters {
    /// Handles into `registry` under `qos.<tenant>.`; without a registry
    /// they count nothing.
    fn bind(registry: Option<&MetricsRegistry>, tenant: &str) -> Self {
        fn handle<M: Metric>(
            registry: Option<&MetricsRegistry>,
            tenant: &str,
            suffix: &str,
        ) -> Lazy<M> {
            match registry {
                Some(registry) => Lazy::new(registry, format!("qos.{tenant}.{suffix}")),
                None => Lazy::unbound(),
            }
        }
        TenantCounters {
            admitted_bytes: handle(registry, tenant, "admitted.bytes"),
            rejected_bytes: handle(registry, tenant, "rejected.bytes"),
            shed_bytes: handle(registry, tenant, "shed.bytes"),
            throttled_bytes: handle(registry, tenant, "throttled.bytes"),
            tokens_waited_ns: handle(registry, tenant, "tokens_waited.ns"),
            get_ns: handle(registry, tenant, "get.ns"),
        }
    }
}

/// Adds `by` to `counter`; a zero `by` does not even create the key.
fn bump(counter: &LazyCounter, by: u64) {
    if by != 0 {
        counter.add(by);
    }
}

#[derive(Debug)]
struct TenantState {
    spec: TenantSpec,
    resident: u64,
    entries: BTreeMap<EntryId, Resident>,
    bucket: Option<TokenBucket>,
    throttle: u8,
    slo_prev: [u64; 65],
    counters: TenantCounters,
}

impl TenantState {
    fn new(spec: TenantSpec, burst: u64, registry: Option<&MetricsRegistry>) -> Self {
        let bucket = spec
            .fabric_rate
            .map(|rate| TokenBucket::new(rate, burst));
        TenantState {
            counters: TenantCounters::bind(registry, &spec.name),
            spec,
            resident: 0,
            entries: BTreeMap::new(),
            bucket,
            throttle: 0,
            slo_prev: [0; 65],
        }
    }

    fn under_quota(&self, extra: u64) -> bool {
        self.resident.saturating_add(extra) <= self.spec.quota.as_u64()
    }
}

struct Inner {
    tenants: Vec<TenantState>,
    owners: IdMap<ServerId, TenantId>,
    log: DecisionLog,
    evictions: Vec<EvictionRecord>,
    /// Where `qos.*` counters go; `None` until `attach_metrics`.
    registry: Option<MetricsRegistry>,
}

/// Every decision, folded into a running FNV-1a digest of its text
/// line; the text itself is never built.
struct DecisionLog {
    count: u64,
    hash: u64,
}

/// Folds formatted text into an FNV-1a hash as it is written. FNV-1a
/// takes one byte at a time, so folding the pieces equals folding the
/// whole line: no text needs to be built for the digest.
struct FnvWriter<'a>(&'a mut u64);

impl fmt::Write for FnvWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        *self.0 = fnv1a64_fold(*self.0, s.as_bytes());
        Ok(())
    }
}

impl DecisionLog {
    fn push(&mut self, line: fmt::Arguments<'_>) {
        FnvWriter(&mut self.hash)
            .write_fmt(line)
            .expect("folding into a hash cannot fail");
        self.hash = fnv1a64_fold(self.hash, b"\n");
        self.count += 1;
    }
}

/// The multi-tenant QoS control plane (paper §IV-F, policies 1 & 2).
///
/// Thread-safe and shareable; all methods take `&self`. Install one per
/// cluster, register tenants, assign servers, then let `dmem-core`
/// consult it on every put/get and each maintenance tick.
///
/// # Examples
///
/// ```
/// use dmem_qos::{AdmitDecision, QosConfig, QosEngine, TenantSpec};
/// use dmem_types::{ByteSize, NodeId, ServerId, TenantId};
///
/// let qos = QosEngine::new(QosConfig::default());
/// let tenant = qos.register_tenant(TenantSpec::new("kv", 200, ByteSize::from_kib(8)));
/// let server = ServerId::new(NodeId::new(0), 0);
/// qos.assign_server(server, tenant);
/// assert_eq!(qos.tenant_of(server), tenant);
///
/// // 8 KiB quota: two 4 KiB pages fit, the third degrades to disk.
/// assert_eq!(qos.admit_fast(tenant, 4096), AdmitDecision::Admit);
/// # let e = |k| dmem_types::EntryId::new(server, k);
/// # qos.note_fast_resident(tenant, e(0), 4096, dmem_qos::ResidentTier::Shared(NodeId::new(0)));
/// # qos.note_fast_resident(tenant, e(1), 4096, dmem_qos::ResidentTier::Shared(NodeId::new(0)));
/// assert_eq!(qos.admit_fast(tenant, 4096), AdmitDecision::RejectQuota);
/// ```
pub struct QosEngine {
    config: QosConfig,
    inner: Mutex<Inner>,
}

/// Which fast tier holds a charged entry, for victim filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidentTier {
    /// Node shared-memory pool on `NodeId`.
    Shared(NodeId),
    /// NVM tier on `NodeId`.
    Nvm(NodeId),
    /// The cluster-shared CXL memory pool (no per-node owner: any host
    /// reaches any pool node through the switch).
    Cxl,
    /// Cluster remote memory (replicated).
    Remote,
}

impl QosEngine {
    /// Creates an engine whose only tenant is the implicit system tenant
    /// (id 0, unlimited quota, top priority).
    pub fn new(config: QosConfig) -> Self {
        let burst = config.burst.as_u64();
        let log = DecisionLog {
            count: 0,
            hash: FNV1A64_OFFSET,
        };
        QosEngine {
            config,
            inner: Mutex::new(Inner {
                tenants: vec![TenantState::new(TenantSpec::system(), burst, None)],
                owners: IdMap::default(),
                log,
                evictions: Vec::new(),
                registry: None,
            }),
        }
    }

    /// Binds the cluster's metrics registry so the engine can publish
    /// `qos.*` counters: every tenant's counters, registered already or
    /// later, count into it from here on. Called by `dmem-core` on
    /// install.
    pub fn attach_metrics(&self, registry: MetricsRegistry) {
        let mut inner = self.inner.lock();
        for t in &mut inner.tenants {
            t.counters = TenantCounters::bind(Some(&registry), &t.spec.name);
        }
        inner.registry = Some(registry);
    }

    /// Registers a tenant and returns its id. Names must be unique.
    ///
    /// # Panics
    ///
    /// Panics if `spec.name` duplicates an existing tenant's name, since
    /// metric keys are derived from names.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        let mut inner = self.inner.lock();
        assert!(
            inner.tenants.iter().all(|t| t.spec.name != spec.name),
            "duplicate tenant name {:?}",
            spec.name
        );
        let id = TenantId::new(inner.tenants.len() as u32);
        let burst = self.config.burst.as_u64();
        let state = TenantState::new(spec, burst, inner.registry.as_ref());
        inner.tenants.push(state);
        id
    }

    /// Assigns a server to a tenant. Unassigned servers belong to
    /// [`TenantId::SYSTEM`].
    pub fn assign_server(&self, server: ServerId, tenant: TenantId) {
        let mut inner = self.inner.lock();
        assert!(
            (tenant.index() as usize) < inner.tenants.len(),
            "unknown tenant {tenant}"
        );
        inner.owners.insert(server, tenant);
    }

    /// The tenant owning `server` (the system tenant when unassigned).
    pub fn tenant_of(&self, server: ServerId) -> TenantId {
        self.inner
            .lock()
            .owners
            .get(&server)
            .copied()
            .unwrap_or(TenantId::SYSTEM)
    }

    /// Tenant name, for metric keys.
    pub fn tenant_name(&self, tenant: TenantId) -> String {
        self.inner.lock().tenants[tenant.index() as usize]
            .spec
            .name
            .clone()
    }

    /// Tenant priority (higher = more important), for eviction ordering.
    pub fn tenant_priority(&self, tenant: TenantId) -> u8 {
        self.inner.lock().tenants[tenant.index() as usize]
            .spec
            .priority
    }

    /// May `bytes` of `tenant`'s data land in a fast tier right now?
    ///
    /// Never fails hard: a denial means "degrade to disk". The decision is
    /// logged and counted.
    pub fn admit_fast(&self, tenant: TenantId, bytes: u64) -> AdmitDecision {
        let mut inner = self.inner.lock();
        let Inner { tenants, log, .. } = &mut *inner;
        let t = &tenants[tenant.index() as usize];
        let name = &t.spec.name;
        let decision = if t.throttle >= SHED_LEVEL && !tenant.is_system() {
            AdmitDecision::Shed
        } else if t.under_quota(bytes) {
            AdmitDecision::Admit
        } else {
            AdmitDecision::RejectQuota
        };
        match decision {
            AdmitDecision::Admit => {
                log.push(format_args!("admit {name} bytes={bytes}"));
                bump(&t.counters.admitted_bytes, bytes);
            }
            AdmitDecision::RejectQuota => {
                log.push(format_args!(
                    "reject {name} bytes={bytes} resident={} quota={}",
                    t.resident,
                    t.spec.quota.as_u64()
                ));
                bump(&t.counters.rejected_bytes, bytes);
            }
            AdmitDecision::Shed => {
                log.push(format_args!("shed {name} bytes={bytes} level={}", t.throttle));
                bump(&t.counters.shed_bytes, bytes);
            }
        }
        decision
    }

    /// Charges `bytes` of fast-tier residency to `tenant` for `entry`.
    /// Call after the bytes actually landed.
    pub fn note_fast_resident(
        &self,
        tenant: TenantId,
        entry: EntryId,
        bytes: u64,
        tier: ResidentTier,
    ) {
        let mut inner = self.inner.lock();
        let t = &mut inner.tenants[tenant.index() as usize];
        let prev = t.entries.insert(entry, Resident { bytes, tier });
        if let Some(prev) = prev {
            t.resident = t.resident.saturating_sub(prev.bytes);
        }
        t.resident = t.resident.saturating_add(bytes);
    }

    /// Credits residency when `entry` leaves its fast tier (delete,
    /// demotion, node restart). Unknown entries (disk-only) are ignored.
    pub fn note_dropped(&self, tenant: TenantId, entry: EntryId) {
        let mut inner = self.inner.lock();
        let t = &mut inner.tenants[tenant.index() as usize];
        if let Some(r) = t.entries.remove(&entry) {
            t.resident = t.resident.saturating_sub(r.bytes);
        }
    }

    /// Picks a shared-pool victim on `node` for an under-quota put by
    /// `beneficiary`. Scans tenants from lowest priority upward and only
    /// returns entries whose tenant the beneficiary strictly out-ranks —
    /// the priority-eviction invariant, enforced structurally, and
    /// strictly: equal-priority tenants (including the beneficiary
    /// itself) are never demoted, so a single-tenant cluster behaves
    /// exactly as it did before the control plane existed. `incoming` is
    /// excluded so a replace-put cannot evict itself.
    ///
    /// The scan is deterministic: tenants ordered by (priority, id),
    /// entries by `EntryId` within a tenant.
    pub fn pick_victim(
        &self,
        beneficiary: TenantId,
        node: NodeId,
        incoming: EntryId,
    ) -> Option<Victim> {
        let inner = self.inner.lock();
        let bpri = inner.tenants[beneficiary.index() as usize].spec.priority;
        let mut order: Vec<usize> = (0..inner.tenants.len()).collect();
        order.sort_by_key(|&i| (inner.tenants[i].spec.priority, i));
        for i in order {
            let t = &inner.tenants[i];
            if t.spec.priority >= bpri {
                break;
            }
            for (&entry, r) in &t.entries {
                if entry == incoming {
                    continue;
                }
                if r.tier == ResidentTier::Shared(node) {
                    return Some(Victim {
                        entry,
                        tenant: TenantId::new(i as u32),
                        priority: t.spec.priority,
                        bytes: r.bytes,
                    });
                }
            }
        }
        None
    }

    /// Records a completed demotion for the chaos priority invariant and
    /// the decision log. Residency is credited separately by
    /// [`QosEngine::note_dropped`] when the entry leaves its tier.
    pub fn note_eviction(&self, beneficiary: TenantId, victim: &Victim) {
        let mut inner = self.inner.lock();
        let b = &inner.tenants[beneficiary.index() as usize];
        let record = EvictionRecord {
            beneficiary,
            beneficiary_priority: b.spec.priority,
            beneficiary_under_quota: b.under_quota(0),
            victim: victim.tenant,
            victim_priority: victim.priority,
            entry: victim.entry,
        };
        inner.log.push(format_args!(
            "evict benef={}(p{}) victim={}(p{}) entry={} bytes={}",
            record.beneficiary,
            record.beneficiary_priority,
            record.victim,
            record.victim_priority,
            victim.entry,
            victim.bytes
        ));
        inner.evictions.push(record);
    }

    /// Meters `bytes` of fabric traffic for `tenant` at virtual time
    /// `now`; returns how long the caller must advance the clock before
    /// issuing the verbs. Zero for tenants without a configured rate.
    ///
    /// Throttling doubles the charge per level, halving effective
    /// bandwidth.
    pub fn fabric_acquire(&self, tenant: TenantId, bytes: u64, now: SimInstant) -> SimDuration {
        let mut inner = self.inner.lock();
        let idx = tenant.index() as usize;
        let level = inner.tenants[idx].throttle.min(MAX_THROTTLE);
        let charged = bytes << u64::from(level).min(32);
        let wait = match inner.tenants[idx].bucket.as_mut() {
            Some(bucket) => bucket.acquire(charged, now),
            None => SimDuration::ZERO,
        };
        if !wait.is_zero() {
            let Inner { tenants, log, .. } = &mut *inner;
            let t = &tenants[idx];
            log.push(format_args!(
                "throttle {} bytes={bytes} level={level} wait_ns={}",
                t.spec.name,
                wait.as_nanos()
            ));
            bump(&t.counters.throttled_bytes, bytes);
            bump(&t.counters.tokens_waited_ns, wait.as_nanos());
        }
        wait
    }

    /// Records one get latency into `tenant`'s `qos.<name>.get.ns`
    /// histogram (the signal [`QosEngine::controller_tick`] reads). The
    /// key appears in the attached registry on the tenant's first get.
    pub fn record_get(&self, tenant: TenantId, ns: u64) {
        self.inner.lock().tenants[tenant.index() as usize]
            .counters
            .get_ns
            .record(ns);
    }

    /// One closed-loop controller tick (paper §IV-F feedback loop).
    ///
    /// Reads each SLO-bearing tenant's *windowed* p99 get latency from
    /// `metrics` (`qos.<name>.get.ns` histogram bucket diffs since the
    /// previous tick). When a tenant's SLO is violated:
    ///
    /// * every strictly-lower-priority tenant's throttle level rises one
    ///   step (graceful degradation — shedding starts at level 4);
    /// * an [`ControlAction::AdjustDonation`] of `+0.05` is
    ///   emitted for each of the suffering tenant's servers, growing the
    ///   node shared pools it lives on.
    ///
    /// When *no* SLO is violated, all throttle levels decay one step.
    pub fn controller_tick(&self, metrics: &MetricsRegistry) -> Vec<ControlAction> {
        let mut inner = self.inner.lock();
        let Inner {
            tenants,
            owners,
            log,
            ..
        } = &mut *inner;
        let mut violated: Vec<usize> = Vec::new();
        for (i, t) in tenants.iter_mut().enumerate() {
            let Some(target) = t.spec.slo_p99 else {
                continue;
            };
            let name = &t.spec.name;
            let counts = metrics.histogram(&format!("qos.{name}.get.ns")).bucket_counts();
            let mut window = [0u64; 65];
            for b in 0..65 {
                window[b] = counts[b].saturating_sub(t.slo_prev[b]);
            }
            t.slo_prev = counts;
            let samples: u64 = window.iter().sum();
            if samples < self.config.min_slo_samples {
                continue;
            }
            let p99 = Histogram::quantile_of_counts(&window, 0.99);
            if SimDuration::from_nanos(p99) > target {
                log.push(format_args!(
                    "slo-violation {name} p99_ns={p99} target_ns={} samples={samples}",
                    target.as_nanos()
                ));
                violated.push(i);
            }
        }

        let mut actions = Vec::new();
        if violated.is_empty() {
            for t in tenants.iter_mut().filter(|t| t.throttle > 0) {
                t.throttle -= 1;
                log.push(format_args!("level {} {}", t.spec.name, t.throttle));
            }
            return actions;
        }

        for &v in &violated {
            let vpri = tenants[v].spec.priority;
            for t in tenants.iter_mut() {
                if t.spec.priority < vpri && t.throttle < MAX_THROTTLE {
                    t.throttle += 1;
                    log.push(format_args!("level {} {}", t.spec.name, t.throttle));
                }
            }
            // Grow donations on the nodes hosting the suffering tenant.
            let tenant = TenantId::new(v as u32);
            let mut servers: Vec<ServerId> = owners
                .iter()
                .filter(|&(_, &t)| t == tenant)
                .map(|(&s, _)| s)
                .collect();
            servers.sort();
            for server in servers {
                log.push(format_args!(
                    "donate server={server} delta={DONATION_STEP:+.2}"
                ));
                actions.push(ControlAction::AdjustDonation {
                    server,
                    delta: DONATION_STEP,
                });
            }
        }
        actions
    }

    /// Current throttle level of `tenant`.
    #[cfg(test)]
    pub(crate) fn throttle_level(&self, tenant: TenantId) -> u8 {
        self.inner.lock().tenants[tenant.index() as usize].throttle
    }

    /// Builds one multi-window burn-rate [`AlertRule`] per SLO-bearing
    /// tenant, watching the same `qos.<name>.get.ns` histograms the
    /// closed-loop controller reads — the telemetry hub's bridge from
    /// tenant SLOs to the alert log. Rules come back in tenant-id order.
    ///
    /// `fast_windows`/`slow_windows` span the burn measurement;
    /// `fast_burn_bp`/`slow_burn_bp` are firing thresholds in basis
    /// points of over-SLO observations.
    pub fn burn_rate_rules(
        &self,
        fast_windows: usize,
        slow_windows: usize,
        fast_burn_bp: u64,
        slow_burn_bp: u64,
    ) -> Vec<AlertRule> {
        let inner = self.inner.lock();
        inner
            .tenants
            .iter()
            .filter_map(|t| {
                let slo = t.spec.slo_p99?;
                Some(AlertRule::BurnRate {
                    name: format!("slo-burn:{}", t.spec.name),
                    histogram: format!("qos.{}.get.ns", t.spec.name),
                    slo_ns: slo.as_nanos(),
                    fast_windows,
                    slow_windows,
                    fast_burn_bp,
                    slow_burn_bp,
                })
            })
            .collect()
    }

    /// Snapshot of every tenant, ordered by id.
    pub fn tenants_snapshot(&self) -> Vec<TenantSnapshot> {
        let inner = self.inner.lock();
        inner
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSnapshot {
                id: TenantId::new(i as u32),
                name: t.spec.name.clone(),
                priority: t.spec.priority,
                quota: t.spec.quota.as_u64(),
                resident: t.resident,
                throttle: t.throttle,
            })
            .collect()
    }

    /// All recorded evictions, in decision order.
    pub fn evictions(&self) -> Vec<EvictionRecord> {
        self.inner.lock().evictions.clone()
    }

    /// Digest over *every* decision ever made: `n=<count> fnv=<hash>`.
    /// Byte-identical across runs of the same seed — the chaos harness
    /// compares these across processes and across `--jobs` threads.
    pub fn decision_digest(&self) -> String {
        let inner = self.inner.lock();
        format!("n={} fnv={:#018x}", inner.log.count, inner.log.hash)
    }

    /// Renders per-tenant rows for `dmem_top`-style reports: name,
    /// priority, resident/quota, throttle level. Deterministic.
    pub fn report(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<12} {:>4} {:>14} {:>14} {:>6}",
            "tenant", "prio", "resident", "quota", "level"
        )
        .unwrap();
        for t in self.tenants_snapshot() {
            let quota = if t.quota == u64::MAX {
                "unlimited".to_owned()
            } else {
                t.quota.to_string()
            };
            writeln!(
                out,
                "{:<12} {:>4} {:>14} {:>14} {:>6}",
                t.name, t.priority, t.resident, quota, t.throttle
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(node: u32, local: u32) -> ServerId {
        ServerId::new(NodeId::new(node), local)
    }

    fn entry(s: ServerId, key: u64) -> EntryId {
        EntryId::new(s, key)
    }

    fn engine_two_tenants() -> (QosEngine, TenantId, TenantId) {
        let qos = QosEngine::new(QosConfig::default());
        let hi = qos.register_tenant(TenantSpec::new("hi", 200, ByteSize::from_kib(64)));
        let lo = qos.register_tenant(TenantSpec::new("lo", 10, ByteSize::from_kib(64)));
        qos.assign_server(server(0, 0), hi);
        qos.assign_server(server(0, 1), lo);
        (qos, hi, lo)
    }

    #[test]
    fn unassigned_servers_belong_to_system() {
        let qos = QosEngine::new(QosConfig::default());
        assert_eq!(qos.tenant_of(server(3, 1)), TenantId::SYSTEM);
        assert_eq!(qos.tenant_name(TenantId::SYSTEM), "system");
    }

    #[test]
    fn quota_rejects_only_past_the_line() {
        let (qos, hi, _) = engine_two_tenants();
        let s = server(0, 0);
        for key in 0..16 {
            assert_eq!(qos.admit_fast(hi, 4096), AdmitDecision::Admit);
            qos.note_fast_resident(hi, entry(s, key), 4096, ResidentTier::Shared(NodeId::new(0)));
        }
        // 64 KiB quota exactly consumed by 16 pages.
        assert_eq!(qos.admit_fast(hi, 4096), AdmitDecision::RejectQuota);
        qos.note_dropped(hi, entry(s, 0));
        assert_eq!(qos.admit_fast(hi, 4096), AdmitDecision::Admit);
    }

    #[test]
    fn replace_put_does_not_double_charge() {
        let (qos, hi, _) = engine_two_tenants();
        let s = server(0, 0);
        for _ in 0..3 {
            qos.note_fast_resident(hi, entry(s, 7), 4096, ResidentTier::Remote);
        }
        assert_eq!(qos.tenants_snapshot()[hi.index() as usize].resident, 4096);
    }

    #[test]
    fn system_tenant_is_never_rejected_or_shed() {
        let qos = QosEngine::new(QosConfig::default());
        assert_eq!(
            qos.admit_fast(TenantId::SYSTEM, u64::MAX / 2),
            AdmitDecision::Admit
        );
    }

    #[test]
    fn victim_scan_prefers_lowest_priority_and_respects_rank() {
        let (qos, hi, lo) = engine_two_tenants();
        let node = NodeId::new(0);
        qos.note_fast_resident(hi, entry(server(0, 0), 1), 4096, ResidentTier::Shared(node));
        qos.note_fast_resident(lo, entry(server(0, 1), 1), 4096, ResidentTier::Shared(node));

        // hi's put takes lo's page first.
        let v = qos.pick_victim(hi, node, entry(server(0, 0), 99)).unwrap();
        assert_eq!(v.tenant, lo);

        // lo's put never cannibalises lo itself (equal priority) and
        // never touches hi: the scan is strictly-lower-priority only.
        assert!(
            qos.pick_victim(lo, node, entry(server(0, 1), 99)).is_none(),
            "lo out-ranks nobody, so it has no victims"
        );
        qos.note_dropped(lo, entry(server(0, 1), 1));
        assert!(
            qos.pick_victim(hi, node, entry(server(0, 0), 99)).is_none(),
            "hi must not evict its own equal-priority pages"
        );
    }

    #[test]
    fn victim_scan_is_node_local_and_shared_only() {
        let (qos, hi, lo) = engine_two_tenants();
        qos.note_fast_resident(lo, entry(server(0, 1), 1), 4096, ResidentTier::Remote);
        qos.note_fast_resident(lo, entry(server(0, 1), 2), 4096, ResidentTier::Shared(NodeId::new(1)));
        assert!(qos.pick_victim(hi, NodeId::new(0), entry(server(0, 0), 9)).is_none());
        assert!(qos.pick_victim(hi, NodeId::new(1), entry(server(0, 0), 9)).is_some());
    }

    #[test]
    fn eviction_records_feed_the_invariant() {
        let (qos, hi, lo) = engine_two_tenants();
        let node = NodeId::new(0);
        qos.note_fast_resident(lo, entry(server(0, 1), 1), 4096, ResidentTier::Shared(node));
        let v = qos.pick_victim(hi, node, entry(server(0, 0), 5)).unwrap();
        qos.note_eviction(hi, &v);
        let recs = qos.evictions();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].beneficiary_under_quota);
        assert!(recs[0].victim_priority <= recs[0].beneficiary_priority);
    }

    #[test]
    fn fabric_waits_are_deterministic_and_logged() {
        let run = || {
            let qos = QosEngine::new(QosConfig::default());
            let t = qos.register_tenant(
                TenantSpec::new("metered", 50, ByteSize::from_mib(1))
                    .with_fabric_rate(1_000_000),
            );
            let mut waits = Vec::new();
            for i in 0..50u64 {
                let now = SimInstant::from_nanos(i * 10_000);
                waits.push(qos.fabric_acquire(t, 60_000, now).as_nanos());
            }
            (waits, qos.decision_digest())
        };
        let (w1, d1) = run();
        let (w2, d2) = run();
        assert_eq!(w1, w2);
        assert_eq!(d1, d2);
        assert!(w1.iter().any(|&w| w > 0), "rate must actually bite");
    }

    #[test]
    fn throttle_levels_halve_effective_bandwidth() {
        let qos = QosEngine::new(QosConfig::default());
        let hi = qos.register_tenant(
            TenantSpec::new("hi", 200, ByteSize::from_mib(1))
                .with_slo_p99(SimDuration::from_nanos(1)),
        );
        let lo = qos.register_tenant(
            TenantSpec::new("lo", 10, ByteSize::from_mib(1)).with_fabric_rate(1_000_000),
        );
        let _ = hi;
        // Drain the burst, then measure the steady-state wait per 1000 B.
        let w0 = {
            let _ = qos.fabric_acquire(lo, qos.config.burst.as_u64(), SimInstant::from_nanos(0));
            qos.fabric_acquire(lo, 1000, SimInstant::from_nanos(0))
        };
        // Force a violation: record slow samples for hi, then tick.
        let metrics = MetricsRegistry::new();
        let h = metrics.histogram("qos.hi.get.ns");
        for _ in 0..32 {
            h.record(1_000_000);
        }
        qos.controller_tick(&metrics);
        assert_eq!(qos.throttle_level(lo), 1);
        assert_eq!(qos.throttle_level(hi), 0, "violated tenant keeps its rate");
        let w1 = qos.fabric_acquire(lo, 1000, SimInstant::from_nanos(0));
        assert_eq!(w1.as_nanos(), w0.as_nanos() * 2, "level 1 doubles the charge");
    }

    #[test]
    fn controller_decays_when_healthy_and_emits_donations() {
        let qos = QosEngine::new(QosConfig::default());
        let hi = qos.register_tenant(
            TenantSpec::new("hi", 200, ByteSize::from_mib(1))
                .with_slo_p99(SimDuration::from_micros(10)),
        );
        let lo = qos.register_tenant(TenantSpec::new("lo", 10, ByteSize::from_mib(1)));
        qos.assign_server(server(0, 0), hi);
        let metrics = MetricsRegistry::new();
        let h = metrics.histogram("qos.hi.get.ns");
        for _ in 0..32 {
            h.record(1_000_000); // 1 ms >> 10 µs target
        }
        let actions = qos.controller_tick(&metrics);
        assert_eq!(
            actions,
            vec![ControlAction::AdjustDonation {
                server: server(0, 0),
                delta: DONATION_STEP,
            }]
        );
        assert_eq!(qos.throttle_level(lo), 1);

        // A healthy window (fast samples) decays the level.
        for _ in 0..32 {
            h.record(10);
        }
        let actions = qos.controller_tick(&metrics);
        assert!(actions.is_empty());
        assert_eq!(qos.throttle_level(lo), 0);
    }

    #[test]
    fn shedding_kicks_in_at_the_configured_level() {
        let qos = QosEngine::new(QosConfig::default());
        let hi = qos.register_tenant(
            TenantSpec::new("hi", 200, ByteSize::from_mib(1))
                .with_slo_p99(SimDuration::from_nanos(1)),
        );
        let _ = hi;
        let lo = qos.register_tenant(TenantSpec::new("lo", 10, ByteSize::from_mib(1)));
        let metrics = MetricsRegistry::new();
        let h = metrics.histogram("qos.hi.get.ns");
        for tick in 0..SHED_LEVEL {
            for _ in 0..32 {
                h.record(1_000_000);
            }
            qos.controller_tick(&metrics);
            let expect_shed = tick + 1 >= SHED_LEVEL;
            assert_eq!(
                qos.admit_fast(lo, 4096) == AdmitDecision::Shed,
                expect_shed,
                "tick {tick}"
            );
        }
    }

    #[test]
    fn counters_follow_the_attached_registry() {
        let (qos, hi, _) = engine_two_tenants();
        // Unattached: decisions are made and logged, nothing is counted.
        assert_eq!(qos.admit_fast(hi, 4096), AdmitDecision::Admit);
        qos.record_get(hi, 500);
        let metrics = MetricsRegistry::new();
        qos.attach_metrics(metrics.clone());
        assert!(metrics.counter_snapshot().is_empty());
        // A zero-byte decision creates no key; tenants registered before
        // and after the attach both count into the registry.
        assert_eq!(qos.admit_fast(hi, 0), AdmitDecision::Admit);
        assert!(metrics.counter_snapshot().is_empty());
        let late = qos.register_tenant(TenantSpec::new("late", 50, ByteSize::from_kib(4)));
        assert_eq!(qos.admit_fast(hi, 100), AdmitDecision::Admit);
        assert_eq!(qos.admit_fast(late, 8192), AdmitDecision::RejectQuota);
        assert_eq!(
            metrics.counter_snapshot(),
            [
                ("qos.hi.admitted.bytes".to_owned(), 100),
                ("qos.late.rejected.bytes".to_owned(), 8192),
            ]
        );
        // A tenant's latency histogram appears on its first get.
        assert!(metrics.histogram_snapshot().is_empty());
        qos.record_get(late, 700);
        let histograms = metrics.histogram_snapshot();
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].0, "qos.late.get.ns");
        assert_eq!(histograms[0].1.count, 1);
        // The digest folds exactly these decision lines, each ended by
        // a newline, and counts every one of them.
        let hash = [
            "admit hi bytes=4096",
            "admit hi bytes=0",
            "admit hi bytes=100",
            "reject late bytes=8192 resident=0 quota=4096",
        ]
        .iter()
        .fold(FNV1A64_OFFSET, |h, line| {
            fnv1a64_fold(fnv1a64_fold(h, line.as_bytes()), b"\n")
        });
        assert_eq!(qos.decision_digest(), format!("n=4 fnv={hash:#018x}"));
    }

    #[test]
    fn report_lists_every_tenant() {
        let (qos, _, _) = engine_two_tenants();
        let report = qos.report();
        assert!(report.contains("system"));
        assert!(report.contains("hi"));
        assert!(report.contains("lo"));
        assert!(report.contains("unlimited"));
    }
}
