//! Deterministic chaos-testing harness with cluster invariant checkers.
//!
//! The harness executes a seeded [`ChaosSchedule`] (generated by
//! [`dmem_sim::chaos`]) against a freshly assembled
//! [`DisaggregatedMemory`], mirroring every acked operation into an
//! in-memory reference model, and checks cluster invariants after every
//! step:
//!
//! 1. **Durability** — an acked `put` stays readable (with its exact
//!    bytes) for as long as at least one replica is live and reachable
//!    from the owner.
//! 2. **Convergence** — after failures recover, background maintenance
//!    restores every remote entry to the configured replication factor
//!    within one maintenance window.
//! 3. **Map liveness** — the disaggregated memory map never references a
//!    dead node, a duplicate replica, or an entry the owner deleted.
//! 4. **Isolation** — a `get` never returns bytes belonging to a
//!    different key (payloads are per-key deterministic, so any
//!    cross-key or torn read is detected by comparison).
//! 5. **No panics** — a schedule runs to completion without panicking
//!    or deadlocking (everything runs on the virtual clock, so a hang
//!    would be a logic bug, not a timing artifact).
//!
//! Everything is a pure function of the seed: a violation is reported as
//! a [`ChaosReport`] carrying the seed, the violated invariant, and a
//! *minimal* failing event prefix obtained by greedy schedule shrinking —
//! re-running candidate schedules with single steps removed until no step
//! can be dropped without losing the failure.
//!
//! ```
//! use memory_disaggregation::chaos::run_seed;
//! use memory_disaggregation::sim::ChaosConfig;
//!
//! let stats = run_seed(7, &ChaosConfig::default()).expect("seed 7 holds all invariants");
//! assert!(stats.acked_puts > 0);
//! ```

use dmem_cluster::{Placer, RemoteSlabEvictor};
use dmem_core::{DisaggregatedMemory, Maintenance};
use dmem_net::{CxlAddr, FabricFaults, FaultProfile};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::chaos::{ChaosConfig, ChaosSchedule, ChaosStep, CXL_ATOMIC_SLOTS, CXL_POOL_NODES};
use dmem_sim::{AlertRule, DetRng, FailureEvent, FlightRecorder, SimDuration, TelemetryHub};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DmemError, DonationPolicy, EntryId,
    EntryLocation, NodeId, ServerId, TenantId,
};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Keys re-verified after every non-maintenance step, in addition to the
/// key the step touched. Full sweeps happen at every maintenance window
/// and at the end of the run.
const SPOT_CHECKS: usize = 4;

/// The deterministic multi-tenant profile QoS chaos runs use: three
/// priority classes with a tight middle/low quota (so admission control
/// actually fires) and a rate-limited bottom class. Servers are assigned
/// round-robin in configuration order.
fn install_chaos_qos(dm: &DisaggregatedMemory) -> Arc<QosEngine> {
    let engine = Arc::new(QosEngine::new(QosConfig::default()));
    dm.install_qos(Arc::clone(&engine));
    let gold = engine.register_tenant(
        TenantSpec::new("gold", 200, ByteSize::from_mib(8))
            .with_slo_p99(SimDuration::from_micros(500)),
    );
    let silver = engine.register_tenant(TenantSpec::new("silver", 100, ByteSize::from_kib(256)));
    let bronze = engine.register_tenant(
        TenantSpec::new("bronze", 10, ByteSize::from_kib(64)).with_fabric_rate(50_000_000),
    );
    for (i, &server) in dm.servers().iter().enumerate() {
        let tenant = match i % 3 {
            0 => gold,
            1 => silver,
            _ => bronze,
        };
        engine.assign_server(server, tenant);
    }
    engine
}

/// The cluster configuration a chaos run executes against.
///
/// Sized so the generated value palette genuinely spans tiers: a small
/// fixed donation funds a node shared pool that fills up, a deliberately
/// small receive pool pushes overflow through remote memory into disk.
pub(crate) fn chaos_cluster(config: &ChaosConfig, seed: u64) -> ClusterConfig {
    let mut cluster = ClusterConfig::small();
    cluster.nodes = config.nodes;
    cluster.servers_per_node = config.servers_per_node;
    cluster.group_size = config.nodes;
    cluster.replication = config.replication;
    // Compression off keeps debug-mode runs fast and payload sizes exact.
    cluster.compression = CompressionMode::Off;
    cluster.server.donation = DonationPolicy::fixed(0.02);
    cluster.node.slab_size = ByteSize::from_kib(256);
    cluster.node.recv_pool = ByteSize::from_kib(512);
    // Small pool nodes so the generated workload both lands in the CXL
    // tier and overflows it — outage windows then hit live data.
    if config.cxl {
        cluster.cxl = CxlPoolConfig::new(CXL_POOL_NODES as usize, ByteSize::from_kib(256));
    }
    cluster.seed = seed;
    cluster
}

/// Which chaos invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Acked put unreadable (or vanished from the map) while reachable.
    Durability,
    /// Replication degree not restored after recovery.
    Convergence,
    /// Memory map references a dead or duplicate replica node.
    MapLiveness,
    /// Get returned bytes that don't belong to the key.
    Isolation,
    /// The run panicked.
    NoPanic,
    /// A tenant's fast-tier resident bytes exceed its quota, or the QoS
    /// engine's residency accounting drifted from the memory maps.
    TenantQuota,
    /// An eviction victim out-ranked its beneficiary while the
    /// beneficiary was under quota.
    PriorityEviction,
    /// Under injected fabric faults a get returned bytes that are stale,
    /// foreign, or torn — retries and failover may slow a read down but
    /// must never change what it returns.
    FaultRead,
    /// A read-failover suspect was neither probed healthy nor repaired
    /// around and evicted once the cluster quiesced.
    SuspectResolution,
    /// During a CXL pool-node outage a read of an entry on that node
    /// returned bytes that are wrong, stale, or torn — the write-behind
    /// disk shadow must serve exactly the acked payload.
    CxlShadowRead,
    /// A remote atomic was lost, doubled, or applied during its pool
    /// node's outage window, or a counter's settled value drifted from
    /// the model's exact sum.
    CxlAtomicExact,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::Durability => "durability (acked put readable while a replica is live)",
            InvariantKind::Convergence => "convergence (replication degree restored after recovery)",
            InvariantKind::MapLiveness => "map-liveness (memory map references only live replicas)",
            InvariantKind::Isolation => "isolation (get returns exactly the acked bytes)",
            InvariantKind::NoPanic => "no-panic (schedule runs to completion)",
            InvariantKind::TenantQuota => {
                "tenant-quota (fast-tier residency within quota, accounting exact)"
            }
            InvariantKind::PriorityEviction => {
                "priority-eviction (victims never out-rank under-quota beneficiaries)"
            }
            InvariantKind::FaultRead => {
                "fault-read (reads under injected faults return exactly the acked bytes)"
            }
            InvariantKind::SuspectResolution => {
                "suspect-resolution (suspect primaries repaired or evicted at quiescence)"
            }
            InvariantKind::CxlShadowRead => {
                "cxl-shadow-read (reads during a pool-node outage return exactly the acked bytes)"
            }
            InvariantKind::CxlAtomicExact => {
                "cxl-atomic (remote atomics exactly-once, counters sum-exact at quiescence)"
            }
        };
        f.write_str(name)
    }
}

/// A single invariant violation, pinned to the step that exposed it.
#[derive(Debug, Clone)]
pub struct ChaosViolation {
    /// The invariant that failed.
    pub invariant: InvariantKind,
    /// Index of the schedule step after which the check failed.
    pub step: usize,
    /// Human-readable specifics.
    pub detail: String,
    /// Flight-recorder dump captured when the violation surfaced: the
    /// recent schedule steps, injected faults, and (in faults mode) the
    /// last captured metric windows. Deliberately absent from `Display`
    /// so verdict lines stay compact; the chaos binary prints it after
    /// the report.
    pub flight_dump: Option<String>,
}

impl fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {} — {}", self.step, self.invariant, self.detail)
    }
}

/// Counters from a clean chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosStats {
    /// Schedule steps executed.
    pub steps: usize,
    /// Puts the system acknowledged.
    pub acked_puts: usize,
    /// Reads verified byte-for-byte against the model.
    pub verified_reads: usize,
    /// Failure/recovery events injected.
    pub injected_events: usize,
    /// Maintenance windows run.
    pub maintenance_windows: usize,
    /// Deterministic digest of the cluster's nonzero metric counters at
    /// the end of the run (empty until the run completes cleanly).
    pub metrics_digest: String,
    /// Deterministic digest of the QoS decision log (`n=<count>
    /// fnv=<hash>`; empty when QoS is off or the run failed).
    pub qos_digest: String,
    /// Verb retries the fabric's backoff policy performed (faults mode).
    pub fault_retries: u64,
    /// Reads that failed over past an unreachable primary (faults mode).
    pub failover_reads: u64,
    /// Distinct suspect markings failover recorded (faults mode).
    pub suspects_marked: u64,
    /// Whether the run executed with the fault layer installed; gates the
    /// extra `Display` fields so fault-free verdict lines stay
    /// byte-identical to older builds.
    pub faults_mode: bool,
    /// Metric windows the fault-mode telemetry hub captured (zero when
    /// faults are off — no hub is installed then).
    pub telemetry_windows: u64,
    /// Deterministic digest of the alert-event log (`n=<edges>
    /// fnv=<hash>`; empty unless the fault-mode telemetry hub ran).
    pub alert_digest: String,
    /// Rendered alert firing/resolved edges in evaluation order (faults
    /// mode only; empty otherwise).
    pub alert_log: Vec<String>,
    /// Virtual-time instants (ns) at which the schedule injected a fault
    /// — failure events, partitions, heals, QP breaks. Absent from
    /// `Display`; the alert-overlap acceptance test reads it directly.
    pub fault_instants: Vec<u64>,
    /// Whether the run executed with the CXL tier configured; gates the
    /// extra `Display` fields so non-CXL verdict lines stay
    /// byte-identical to older builds.
    pub cxl_mode: bool,
    /// Pool-node outage windows the schedule opened (CXL mode).
    pub cxl_outages: u64,
    /// Remote atomic ops the harness verified exactly-once (CXL mode).
    pub cxl_atomics: u64,
    /// Reads served by the write-behind disk shadow while a pool node
    /// was down (CXL mode).
    pub cxl_failover_reads: u64,
}

impl fmt::Display for ChaosStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps, {} acked puts, {} verified reads, {} injected events, {} maintenance windows",
            self.steps, self.acked_puts, self.verified_reads, self.injected_events,
            self.maintenance_windows
        )?;
        if self.faults_mode {
            write!(
                f,
                ", {} retries, {} failovers, {} suspects",
                self.fault_retries, self.failover_reads, self.suspects_marked
            )?;
        }
        if self.cxl_mode {
            write!(
                f,
                ", {} pool outages, {} atomics, {} shadow reads",
                self.cxl_outages, self.cxl_atomics, self.cxl_failover_reads
            )?;
        }
        Ok(())
    }
}

/// A reproducible failure: seed, invariant, and minimal failing prefix.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed whose schedule exposed the violation.
    pub seed: u64,
    /// The violation observed when running the minimal prefix.
    pub violation: ChaosViolation,
    /// Length of the full generated schedule.
    pub schedule_len: usize,
    /// Minimal failing event prefix (greedy single-step shrinking).
    pub minimal: Vec<ChaosStep>,
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos invariant violation")?;
        writeln!(f, "  seed: {:#x}", self.seed)?;
        writeln!(f, "  violated: {}", self.violation.invariant)?;
        writeln!(f, "  detail: {}", self.violation.detail)?;
        writeln!(
            f,
            "  minimal failing prefix ({} of {} scheduled steps):",
            self.minimal.len(),
            self.schedule_len
        )?;
        for (i, step) in self.minimal.iter().enumerate() {
            writeln!(f, "    {i:3}. {step}")?;
        }
        write!(f, "  reproduce: cargo run --bin chaos -- --seed {:#x}", self.seed)
    }
}

struct Harness {
    dm: Arc<DisaggregatedMemory>,
    maintenance: Maintenance,
    /// Reference model of every acked entry's exact bytes.
    model: BTreeMap<(ServerId, u64), Vec<u8>>,
    /// The installed fault layer, when [`ChaosConfig::fabric_faults`] is on.
    faults: Option<Arc<FabricFaults>>,
    /// Bounded ring of recent steps/injections/violations, shared with
    /// [`run_schedule`] so even a panicking run can be dumped.
    flight: Arc<Mutex<FlightRecorder>>,
    /// The fault-mode telemetry hub (windowed sampling + alert rules),
    /// shared with [`run_schedule`] for the same reason. `None` outside
    /// faults mode, keeping fault-free runs hub-free and byte-identical.
    telemetry: Option<Arc<TelemetryHub>>,
    /// Shared remote-atomic counter cells: slot -> (address, modelled
    /// exact sum, modelled op count). Allocated eagerly at construction
    /// (the pool is empty then, so allocation cannot fail) and verified
    /// against the pool on every atomic step and at quiescence.
    atomic_cells: BTreeMap<usize, (CxlAddr, u64, u64)>,
    stats: ChaosStats,
}

/// Placement salt for the shared atomic counter cells, far from any
/// entry-derived key.
const CXL_ATOMIC_SALT: u64 = 0xA70_31C5_0000_0001;

/// The fault-mode telemetry profile: 50 ms virtual-time windows with
/// three alert rules over the fabric's fault counters.
///
/// * `retry-backoff-burn` — multi-window SLO burn over
///   `faults.retry.wait.ns`, the per-op backoff wait the retry loop
///   records. Any real backoff wait (≥ one jittered base delay, ~µs)
///   burns against the 4096 ns bound, so the rule reads "a sustained
///   fraction of fabric ops are stuck retrying": ≥ 50% of ops in the
///   last window *and* ≥ 5% across the last four.
/// * `retry-storm` — ≥ 4 verb retries inside one window.
/// * `suspect-churn` — ≥ 2 fresh failover suspicions across two windows.
fn chaos_telemetry_hub() -> Arc<TelemetryHub> {
    let hub = Arc::new(TelemetryHub::new(SimDuration::from_millis(50)));
    hub.set_rules(vec![
        AlertRule::BurnRate {
            name: "retry-backoff-burn".to_string(),
            histogram: "faults.retry.wait.ns".to_string(),
            slo_ns: 4_096,
            fast_windows: 1,
            slow_windows: 4,
            fast_burn_bp: 5_000,
            slow_burn_bp: 500,
        },
        AlertRule::CounterStorm {
            name: "retry-storm".to_string(),
            counter: "faults.retry.attempts".to_string(),
            span_windows: 1,
            threshold: 4,
        },
        AlertRule::CounterStorm {
            name: "suspect-churn".to_string(),
            counter: "cluster.suspect.marked".to_string(),
            span_windows: 2,
            threshold: 2,
        },
    ]);
    hub
}

/// Which flight-recorder label a schedule step gets.
fn step_kind(step: &ChaosStep) -> &'static str {
    match step {
        ChaosStep::Put { .. } => "put",
        ChaosStep::Get { .. } => "get",
        ChaosStep::Delete { .. } => "delete",
        ChaosStep::Inject(_) => "inject",
        ChaosStep::PartitionPair { .. } => "partition",
        ChaosStep::HealPair { .. } => "heal",
        ChaosStep::BreakQps { .. } => "qp-break",
        ChaosStep::Maintain { .. } => "maintain",
        ChaosStep::Record { .. } => "record",
        ChaosStep::CxlPoolDown { .. } => "cxl-down",
        ChaosStep::CxlPoolUp { .. } => "cxl-up",
        ChaosStep::CxlAtomic { .. } => "cxl-atomic",
    }
}

/// Deterministic per-key payload: any byte of another key's payload (or a
/// stale overwrite) differs, so equality doubles as an isolation check.
fn payload(server: ServerId, key: u64, len: usize, nonce: u64) -> Vec<u8> {
    let mut state = ((server.node().index() as u64) << 48)
        ^ ((server.local_index() as u64) << 40)
        ^ (key << 8)
        ^ nonce;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

impl Harness {
    /// Compact, deterministic digest of the cluster's nonzero counters,
    /// attached to each seed's verdict line. Counter snapshots are
    /// name-sorted, so two runs of the same seed produce identical text.
    fn metrics_digest(&self) -> String {
        let mut counters = self.dm.metrics().counter_snapshot();
        if self.faults.is_some() {
            // Verb traffic, injected faults, retries, and failover marks
            // live in the fabric's own registry; fold them in so the
            // determinism gate covers fault noise too. Fault-free digests
            // never consult the fabric registry and stay byte-identical.
            counters.extend(self.dm.fabric().metrics().counter_snapshot());
            counters.sort();
        }
        let mut out = String::new();
        for (name, value) in counters {
            if value == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&name);
            out.push('=');
            out.push_str(&value.to_string());
        }
        out
    }

    fn new(
        seed: u64,
        config: &ChaosConfig,
        flight: Arc<Mutex<FlightRecorder>>,
        telemetry: Option<Arc<TelemetryHub>>,
    ) -> Self {
        let cluster = chaos_cluster(config, seed);
        let placement = cluster.placement;
        let dm = Arc::new(
            DisaggregatedMemory::new(cluster).expect("chaos cluster config must validate"),
        );
        if config.qos {
            install_chaos_qos(&dm);
        }
        if let Some(hub) = &telemetry {
            // Before `Maintenance::new`, so the telemetry tick gets onto
            // the maintenance schedule (the hub samples both the cluster
            // and fabric registries — fault counters live in the latter).
            dm.install_telemetry(Arc::clone(hub));
        }
        let faults = config.fabric_faults.then(|| {
            // Verb outcomes and retry jitter draw from their own fork of
            // the run seed, so fault noise is reproducible and
            // independent of the schedule's streams.
            let layer = Arc::new(FabricFaults::new(
                DetRng::new(seed).fork("chaos.fabricfaults"),
                FaultProfile::chaos_default(),
            ));
            dm.fabric().install_faults(Arc::clone(&layer));
            layer
        });
        let mut evictor = RemoteSlabEvictor::new(ByteSize::from_kib(256), 8);
        if let Some(resolver) = dm.qos_priority_resolver() {
            evictor = evictor.with_priority(resolver);
        }
        let placer = Placer::new(placement, DetRng::new(seed).fork("chaos.maintenance"));
        let maintenance = Maintenance::new(Arc::clone(&dm), evictor, placer);
        let stats = ChaosStats {
            faults_mode: config.fabric_faults,
            cxl_mode: config.cxl,
            ..ChaosStats::default()
        };
        // The shared atomic counter cells, allocated while the pool is
        // empty and fully up so placement is deterministic and the
        // allocation cannot fail.
        let mut atomic_cells = BTreeMap::new();
        if let Some(pool) = dm.cxl_pool() {
            for slot in 0..CXL_ATOMIC_SLOTS {
                let addr = pool
                    .alloc_counter(CXL_ATOMIC_SALT ^ slot as u64)
                    .expect("counter allocation in an empty pool");
                atomic_cells.insert(slot, (addr, 0u64, 0u64));
            }
        }
        Harness {
            dm,
            maintenance,
            model: BTreeMap::new(),
            faults,
            flight,
            telemetry,
            atomic_cells,
            stats,
        }
    }

    fn violation(
        &self,
        invariant: InvariantKind,
        step: usize,
        detail: String,
    ) -> ChaosViolation {
        self.flight_note("violation", format!("step {step}: {invariant} — {detail}"));
        ChaosViolation {
            invariant,
            step,
            detail,
            flight_dump: None,
        }
    }

    /// Appends one note to the shared flight recorder at the current
    /// virtual time.
    fn flight_note(&self, kind: &'static str, detail: String) {
        let at_ns = self.dm.clock().now().nanos();
        self.flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .note(at_ns, kind, detail);
    }

    fn execute(&mut self, index: usize, step: &ChaosStep) -> Result<(), ChaosViolation> {
        self.stats.steps += 1;
        self.flight_note(step_kind(step), format!("#{index} {step}"));
        if matches!(
            step,
            ChaosStep::Inject(_)
                | ChaosStep::PartitionPair { .. }
                | ChaosStep::HealPair { .. }
                | ChaosStep::BreakQps { .. }
                | ChaosStep::CxlPoolDown { .. }
                | ChaosStep::CxlPoolUp { .. }
        ) {
            self.stats
                .fault_instants
                .push(self.dm.clock().now().nanos());
        }
        match step {
            ChaosStep::Put { server, key, len } => {
                let value = payload(*server, *key, *len, index as u64);
                match self.dm.put(*server, *key, value.clone()) {
                    Ok(()) => {
                        self.model.insert((*server, *key), value);
                        self.stats.acked_puts += 1;
                    }
                    Err(_) if !self.dm.failures().is_server_up(*server) => {
                        // Un-acked: the owner is down; the model keeps
                        // whatever value (if any) was acked before.
                    }
                    Err(e) => {
                        return Err(self.violation(
                            InvariantKind::Durability,
                            index,
                            format!("put {server} key={key} failed on a live server: {e}"),
                        ))
                    }
                }
            }
            ChaosStep::Get { server, key } => {
                if let Some(expected) = self.model.get(&(*server, *key)).cloned() {
                    self.check_entry(index, *server, *key, &expected)?;
                } else if let Ok(bytes) = self.dm.get(*server, *key) {
                    return Err(self.violation(
                        self.read_invariant(),
                        index,
                        format!(
                            "get {server} key={key} returned {} bytes for a key that was \
                             never acked (or was deleted)",
                            bytes.len()
                        ),
                    ));
                }
            }
            ChaosStep::Record { server, key } => {
                let tracked = self.dm.record(*server, *key).is_some();
                let modeled = self.model.contains_key(&(*server, *key));
                if tracked != modeled {
                    return Err(self.violation(
                        InvariantKind::MapLiveness,
                        index,
                        format!(
                            "memory map diverged for {server} key={key}: tracked={tracked}, \
                             acked={modeled}"
                        ),
                    ));
                }
            }
            ChaosStep::Delete { server, key } => {
                let had = self.model.remove(&(*server, *key)).is_some();
                match self.dm.delete(*server, *key) {
                    Ok(()) if had => {}
                    Err(DmemError::EntryNotFound(_)) if !had => {}
                    Ok(()) => {
                        return Err(self.violation(
                            InvariantKind::MapLiveness,
                            index,
                            format!("delete {server} key={key} succeeded for an un-acked key"),
                        ))
                    }
                    Err(e) => {
                        return Err(self.violation(
                            InvariantKind::Durability,
                            index,
                            format!("delete {server} key={key} of an acked entry failed: {e}"),
                        ))
                    }
                }
            }
            ChaosStep::Inject(event) => {
                self.stats.injected_events += 1;
                let failures = self.dm.failures();
                // A restart only follows an actual crash; NodeUp on a live
                // node is a no-op (matters to shrinking, which may drop the
                // NodeDown but keep the NodeUp).
                let restart = match *event {
                    FailureEvent::NodeUp(node) if !failures.is_node_up(node) => Some(node),
                    _ => None,
                };
                failures.inject_now(*event);
                if let Some(node) = restart {
                    if let Err(e) = self.dm.handle_node_restart(node) {
                        return Err(self.violation(
                            InvariantKind::NoPanic,
                            index,
                            format!("restart of {node} failed: {e}"),
                        ));
                    }
                    // The node came back empty: everything its servers
                    // owned is gone by design.
                    self.model.retain(|(server, _), _| server.node() != node);
                }
            }
            ChaosStep::PartitionPair { a, b } => {
                self.stats.injected_events += 1;
                self.dm.failures().inject_now(FailureEvent::LinkDown(*a, *b));
            }
            ChaosStep::HealPair { a, b } => {
                self.stats.injected_events += 1;
                self.dm.failures().inject_now(FailureEvent::LinkUp(*a, *b));
            }
            ChaosStep::BreakQps { a, b } => {
                self.stats.injected_events += 1;
                if self.faults.is_some() {
                    self.dm.fabric().break_qps(*a, *b);
                }
            }
            ChaosStep::Maintain { horizon } => {
                self.stats.maintenance_windows += 1;
                let until = self.dm.clock().now() + *horizon;
                // Under chaos an eviction scan may hit a dead node; that
                // aborts the window, not the run — repair retries next time.
                let _ = self.maintenance.run_until(until);
                self.check_all(index)?;
                self.check_convergence(index)?;
                self.check_qos(index)?;
                self.check_suspects(index)?;
                self.check_cxl_atomics(index)?;
            }
            ChaosStep::CxlPoolDown { pool_node } => {
                self.stats.injected_events += 1;
                self.stats.cxl_outages += 1;
                if let Some(pool) = self.dm.cxl_pool() {
                    pool.set_pool_node_down(*pool_node);
                }
            }
            ChaosStep::CxlPoolUp { pool_node } => {
                self.stats.injected_events += 1;
                if let Some(pool) = self.dm.cxl_pool() {
                    pool.set_pool_node_up(*pool_node);
                }
            }
            ChaosStep::CxlAtomic { slot, delta } => {
                self.cxl_atomic(index, *slot, *delta)?;
            }
        }
        Ok(())
    }

    /// One remote atomic against a shared counter cell, verified
    /// exactly-once against the model: the observed old value must equal
    /// the modelled sum (no lost or doubled update), and during the
    /// cell's pool-node outage the op must fail without mutating.
    fn cxl_atomic(&mut self, index: usize, slot: usize, delta: u64) -> Result<(), ChaosViolation> {
        let Some(pool) = self.dm.cxl_pool().cloned() else {
            return Ok(());
        };
        let Some(&(addr, sum, ops)) = self.atomic_cells.get(&slot) else {
            return Ok(());
        };
        let node_down = pool.pool_node_down(addr.pool_node());
        match pool.fetch_add(addr, delta) {
            Ok(old) if node_down => Err(self.violation(
                InvariantKind::CxlAtomicExact,
                index,
                format!(
                    "slot {slot} fetch_add returned {old} while pool node {} is in an \
                     outage window",
                    addr.pool_node()
                ),
            )),
            Ok(old) if old != sum => Err(self.violation(
                InvariantKind::CxlAtomicExact,
                index,
                format!(
                    "slot {slot} fetch_add observed {old}, model says {sum} — an update \
                     was lost or doubled"
                ),
            )),
            Ok(_) => {
                self.stats.cxl_atomics += 1;
                self.atomic_cells.insert(slot, (addr, sum + delta, ops + 1));
                Ok(())
            }
            Err(DmemError::CxlPoolNodeDown { .. }) if node_down => Ok(()),
            Err(e) => Err(self.violation(
                InvariantKind::CxlAtomicExact,
                index,
                format!("slot {slot} fetch_add failed with its pool node up: {e}"),
            )),
        }
    }

    /// Settled-counter check: every shared cell on an up pool node must
    /// hold exactly the model's sum and have served exactly the model's
    /// op count — atomics are exactly-once, never lost, doubled, or
    /// applied during an outage.
    fn check_cxl_atomics(&self, index: usize) -> Result<(), ChaosViolation> {
        let Some(pool) = self.dm.cxl_pool().cloned() else {
            return Ok(());
        };
        for (&slot, &(addr, sum, ops)) in &self.atomic_cells {
            if pool.pool_node_down(addr.pool_node()) {
                continue;
            }
            match pool.counter_value(addr) {
                Ok(value) if value == sum => {}
                Ok(value) => {
                    return Err(self.violation(
                        InvariantKind::CxlAtomicExact,
                        index,
                        format!("slot {slot} settled at {value}, model sum is {sum}"),
                    ))
                }
                Err(e) => {
                    return Err(self.violation(
                        InvariantKind::CxlAtomicExact,
                        index,
                        format!("slot {slot} unreadable with its pool node up: {e}"),
                    ))
                }
            }
            let observed_ops = pool.counter_ops(addr);
            if observed_ops != ops {
                return Err(self.violation(
                    InvariantKind::CxlAtomicExact,
                    index,
                    format!(
                        "slot {slot} served {observed_ops} atomics, model counted {ops} — \
                         an op was applied during an outage or double-applied"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Durability + isolation for one acked entry, conditioned on
    /// reachability: local tiers need the owner node up, remote needs at
    /// least one replica that is alive, hosting, and linked to the owner.
    fn check_entry(
        &mut self,
        index: usize,
        server: ServerId,
        key: u64,
        expected: &[u8],
    ) -> Result<(), ChaosViolation> {
        let entry = EntryId::new(server, key);
        let Some(record) = self.dm.record(server, key) else {
            return Err(self.violation(
                InvariantKind::Durability,
                index,
                format!("acked entry {server} key={key} vanished from the memory map"),
            ));
        };
        let owner_up = self.dm.failures().is_node_up(server.node());
        let reachable = match &record.location {
            // A CXL entry is readable whenever its owner is up: the pool
            // node may be in an outage window, but the write-behind
            // shadow on the owner's disk serves the failover read.
            EntryLocation::NodeShared { .. }
            | EntryLocation::Nvm
            | EntryLocation::Cxl { .. }
            | EntryLocation::Disk => owner_up,
            EntryLocation::Remote { replicas } => {
                owner_up
                    && replicas.iter().any(|&r| {
                        self.dm.failures().is_node_up(r)
                            && self.dm.fabric().is_path_up(server.node(), r)
                            && self.dm.remote_store().hosts_entry(r, entry)
                    })
            }
        };
        if !reachable {
            return Ok(());
        }
        match self.dm.get(server, key) {
            Ok(bytes) if bytes == expected => {
                self.stats.verified_reads += 1;
                Ok(())
            }
            Ok(bytes) => Err(self.violation(
                self.read_invariant_for(&record.location),
                index,
                format!(
                    "get {server} key={key} returned {} bytes that do not match the acked \
                     payload ({} bytes)",
                    bytes.len(),
                    expected.len()
                ),
            )),
            Err(e) => Err(self.violation(
                InvariantKind::Durability,
                index,
                format!(
                    "acked entry {server} key={key} unreadable while a replica is \
                     reachable (at {}): {e}",
                    record.location
                ),
            )),
        }
    }

    /// Re-verifies the step's key plus a deterministic rotating window of
    /// other acked keys, so corruption surfaces within a few steps.
    fn spot_check(&mut self, index: usize, touched: Option<(ServerId, u64)>) -> Result<(), ChaosViolation> {
        let mut targets: Vec<(ServerId, u64)> = Vec::with_capacity(SPOT_CHECKS + 1);
        if let Some(t) = touched {
            if self.model.contains_key(&t) {
                targets.push(t);
            }
        }
        let keys: Vec<(ServerId, u64)> = self.model.keys().copied().collect();
        if !keys.is_empty() {
            for j in 0..SPOT_CHECKS {
                targets.push(keys[(index * SPOT_CHECKS + j) % keys.len()]);
            }
        }
        targets.dedup();
        for (server, key) in targets {
            if let Some(expected) = self.model.get(&(server, key)).cloned() {
                self.check_entry(index, server, key, &expected)?;
            }
        }
        Ok(())
    }

    /// Full durability sweep over every acked entry.
    fn check_all(&mut self, index: usize) -> Result<(), ChaosViolation> {
        let keys: Vec<(ServerId, u64)> = self.model.keys().copied().collect();
        for (server, key) in keys {
            if let Some(expected) = self.model.get(&(server, key)).cloned() {
                self.check_entry(index, server, key, &expected)?;
            }
        }
        Ok(())
    }

    /// QoS invariants, checked against both the engine's own books and a
    /// from-scratch recomputation over the memory maps:
    ///
    /// a. **Tenant quota** — no tenant's fast-tier resident bytes exceed
    ///    its quota, and the engine's residency counter matches the sum
    ///    of `stored_len` over the tenant's non-disk entries exactly.
    /// b. **Priority eviction** — no recorded eviction has a victim of
    ///    strictly higher priority than its beneficiary while the
    ///    beneficiary was under quota.
    fn check_qos(&self, index: usize) -> Result<(), ChaosViolation> {
        let Some(engine) = self.dm.qos() else {
            return Ok(());
        };
        let mut recomputed: BTreeMap<TenantId, u64> = BTreeMap::new();
        for (server, _key, record) in self.dm.entries_snapshot() {
            if !matches!(record.location, EntryLocation::Disk) {
                *recomputed.entry(engine.tenant_of(server)).or_insert(0) += record.stored_len;
            }
        }
        for tenant in engine.tenants_snapshot() {
            if tenant.resident > tenant.quota {
                return Err(self.violation(
                    InvariantKind::TenantQuota,
                    index,
                    format!(
                        "tenant {} resident {} bytes exceeds quota {} bytes",
                        tenant.name, tenant.resident, tenant.quota
                    ),
                ));
            }
            let actual = recomputed.get(&tenant.id).copied().unwrap_or(0);
            if actual != tenant.resident {
                return Err(self.violation(
                    InvariantKind::TenantQuota,
                    index,
                    format!(
                        "tenant {} accounting drifted: engine says {} resident bytes, \
                         memory maps say {}",
                        tenant.name, tenant.resident, actual
                    ),
                ));
            }
        }
        for eviction in engine.evictions() {
            if eviction.victim_priority > eviction.beneficiary_priority
                && eviction.beneficiary_under_quota
            {
                return Err(self.violation(
                    InvariantKind::PriorityEviction,
                    index,
                    format!(
                        "eviction of {} (priority {}) benefited {} (priority {}) while \
                         the beneficiary was under quota",
                        eviction.victim,
                        eviction.victim_priority,
                        eviction.beneficiary,
                        eviction.beneficiary_priority
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Whether repair could actually have restored this entry's degree:
    /// some candidate node (alive, not the owner, not already a live
    /// replica) must have enough free remote capacity for a new copy.
    /// Eviction legitimately shrinks donated pools over time, so a
    /// degraded entry with nowhere to put a fresh replica is pressure,
    /// not a convergence violation.
    fn repair_feasible(
        &self,
        owner: ServerId,
        replicas: &[NodeId],
        entry: EntryId,
        stored_len: u64,
    ) -> bool {
        let survivors: Vec<NodeId> = replicas
            .iter()
            .copied()
            .filter(|&n| {
                self.dm.membership().is_alive(n) && self.dm.remote_store().hosts_entry(n, entry)
            })
            .collect();
        self.dm
            .membership()
            .candidates(owner.node())
            .into_iter()
            .filter(|n| !survivors.contains(n))
            .any(|n| {
                self.dm
                    .remote_store()
                    .stats(n)
                    .is_some_and(|stats| stats.free.as_u64() >= stored_len)
            })
    }

    /// Convergence + map-liveness, checked when the cluster is quiescent
    /// (no failed nodes or links) and repair is feasible (enough live
    /// peers to host `factor` replicas): after a maintenance window every
    /// remote entry owned by a live node must be back at full, distinct,
    /// all-live replication degree.
    fn check_convergence(&mut self, index: usize) -> Result<(), ChaosViolation> {
        if !self.quiescent() {
            return Ok(());
        }
        let factor = self.dm.replicator().factor().get();
        let alive = self.dm.membership().alive_nodes().len();
        if alive.saturating_sub(1) < factor {
            return Ok(());
        }
        for (server, key, record) in self.dm.entries_snapshot() {
            let EntryLocation::Remote { replicas } = record.location else {
                continue;
            };
            let entry = EntryId::new(server, key);
            let mut seen = HashSet::new();
            for &replica in &replicas {
                if !self.dm.membership().is_alive(replica) {
                    return Err(self.violation(
                        InvariantKind::MapLiveness,
                        index,
                        format!(
                            "entry {server} key={key} references dead node {replica} after a \
                             maintenance window with the whole cluster up"
                        ),
                    ));
                }
                if !seen.insert(replica) {
                    return Err(self.violation(
                        InvariantKind::MapLiveness,
                        index,
                        format!("entry {server} key={key} lists duplicate replica {replica}"),
                    ));
                }
            }
            let degree = self.dm.replicator().live_degree(entry, &replicas);
            if degree < factor && self.repair_feasible(server, &replicas, entry, record.stored_len)
            {
                return Err(self.violation(
                    InvariantKind::Convergence,
                    index,
                    format!(
                        "entry {server} key={key} at live degree {degree} < factor {factor} \
                         after a maintenance window with the whole cluster up and free \
                         capacity available"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Which invariant a wrong-bytes read trips: the fault-read invariant
    /// when the injector is live (reads must return exactly the acked
    /// bytes even under drops/delays/partitions), plain isolation
    /// otherwise.
    fn read_invariant(&self) -> InvariantKind {
        if self.faults.is_some() {
            InvariantKind::FaultRead
        } else {
            InvariantKind::Isolation
        }
    }

    /// Like [`Harness::read_invariant`], but pins wrong bytes from a CXL
    /// entry whose pool node is mid-outage on the shadow-read invariant:
    /// that read went through the write-behind disk shadow, which must be
    /// exact.
    fn read_invariant_for(&self, location: &EntryLocation) -> InvariantKind {
        if let EntryLocation::Cxl { addr } = location {
            let pool_node = CxlAddr::from_raw(*addr).pool_node();
            if self.dm.cxl_pool().is_some_and(|pool| pool.pool_node_down(pool_node)) {
                return InvariantKind::CxlShadowRead;
            }
        }
        self.read_invariant()
    }

    /// No node down and no link cut: the one record of what is down is
    /// the failure injector, which counts partitions and `LinkDown`s
    /// alike.
    fn quiescent(&self) -> bool {
        let failures = self.dm.failures();
        failures.down_node_count() == 0 && failures.cut_link_count() == 0
    }

    /// Suspect resolution: at quiescence (no failed nodes, links, or
    /// partitions) the maintenance windows run so far must have cleared or
    /// evicted every primary that failover marked suspect.
    fn check_suspects(&mut self, index: usize) -> Result<(), ChaosViolation> {
        if self.faults.is_none() {
            return Ok(());
        }
        if !self.quiescent() {
            return Ok(());
        }
        let suspects = self.dm.replicator().suspects();
        if suspects.is_empty() {
            return Ok(());
        }
        let listed: Vec<String> = suspects.iter().map(|n| n.to_string()).collect();
        Err(self.violation(
            InvariantKind::SuspectResolution,
            index,
            format!(
                "suspect primaries [{}] still unresolved after a maintenance window with \
                 the whole cluster up",
                listed.join(", ")
            ),
        ))
    }
}

/// Runs one explicit schedule, returning stats or the first violation.
///
/// Panics inside the run are caught and reported as
/// [`InvariantKind::NoPanic`] violations, so a crashing schedule still
/// yields a seed-addressable report.
pub fn run_schedule(
    schedule: &ChaosSchedule,
    config: &ChaosConfig,
) -> Result<ChaosStats, ChaosViolation> {
    // The flight recorder and (fault-mode) telemetry hub live outside the
    // unwind boundary: a panicking schedule still dumps what it recorded.
    let flight = Arc::new(Mutex::new(FlightRecorder::new()));
    let telemetry = config.fabric_faults.then(chaos_telemetry_hub);
    let at_step = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut harness = Harness::new(
            schedule.seed,
            config,
            Arc::clone(&flight),
            telemetry.clone(),
        );
        for (index, step) in schedule.steps.iter().enumerate() {
            at_step.store(index, Ordering::Relaxed);
            harness.execute(index, step)?;
            if !matches!(step, ChaosStep::Maintain { .. }) {
                let touched = match step {
                    ChaosStep::Put { server, key, .. } | ChaosStep::Get { server, key } => {
                        Some((*server, *key))
                    }
                    _ => None,
                };
                harness.spot_check(index, touched)?;
            }
        }
        // Shrunk prefixes may not end in a maintenance window; sweep once
        // more so truncation never hides a durability violation.
        let last = schedule.steps.len().saturating_sub(1);
        if harness.faults.is_some() {
            // Suspect resolution only runs inside maintenance windows, so
            // give the repair path its closing scan before judging it —
            // a truncated schedule may end right after the failover that
            // marked the suspect. (`run_until(now)` runs exactly the
            // closing repair scan.) Fault-free sweeps skip this to stay
            // byte-identical with pre-fault builds.
            let now = harness.dm.clock().now();
            let _ = harness.maintenance.run_until(now);
        }
        harness.check_all(last)?;
        harness.check_qos(last)?;
        harness.check_suspects(last)?;
        harness.check_cxl_atomics(last)?;
        let mut stats = harness.stats.clone();
        if stats.cxl_mode {
            // The shadow-read counter lives in the core registry; lift it
            // before the digest so the verdict line and the digest agree.
            stats.cxl_failover_reads = harness.dm.metrics().counter("cxl.failover.reads").get();
        }
        stats.metrics_digest = harness.metrics_digest();
        if harness.faults.is_some() {
            // Retry and failover counters live in the fabric's registry
            // (the layers that bump them only hold a fabric handle).
            let counter = |name: &str| harness.dm.fabric().metrics().counter(name).get();
            stats.fault_retries = counter("faults.retry.attempts");
            stats.failover_reads = counter("cluster.failover.reads");
            stats.suspects_marked = counter("cluster.suspect.marked");
        }
        if let Some(engine) = harness.dm.qos() {
            stats.qos_digest = engine.decision_digest();
        }
        if let Some(hub) = &harness.telemetry {
            // Close the final (partial) window so the run's last events
            // are on the timeline, then lift the alert log into the stats.
            hub.flush(harness.dm.clock().now());
            stats.telemetry_windows = hub.timeline().windows.len() as u64;
            stats.alert_log = hub.alert_log();
            stats.alert_digest = hub.alert_digest();
        }
        Ok::<ChaosStats, ChaosViolation>(stats)
    }));
    match outcome {
        Ok(Ok(stats)) => Ok(stats),
        Ok(Err(mut violation)) => {
            let reason = format!("chaos invariant: {}", violation.invariant);
            violation.flight_dump = Some(render_flight_dump(&flight, telemetry.as_deref(), &reason));
            Err(violation)
        }
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            let flight_dump = Some(render_flight_dump(&flight, telemetry.as_deref(), "panic"));
            Err(ChaosViolation {
                invariant: InvariantKind::NoPanic,
                step: at_step.load(Ordering::Relaxed),
                detail,
                flight_dump,
            })
        }
    }
}

/// Renders the harness's flight recorder, folding in the hub's captured
/// metric windows (faults mode) so the dump shows the recent steps *and*
/// the telemetry they produced.
fn render_flight_dump(
    flight: &Mutex<FlightRecorder>,
    hub: Option<&TelemetryHub>,
    reason: &str,
) -> String {
    let mut recorder = flight.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hub) = hub {
        for window in &hub.timeline().windows {
            recorder.push_window(window);
        }
    }
    recorder.dump(reason)
}

/// Generates the schedule for `seed`, runs it, and on violation shrinks
/// the schedule to a minimal failing prefix before reporting.
pub fn run_seed(seed: u64, config: &ChaosConfig) -> Result<ChaosStats, ChaosReport> {
    let schedule = ChaosSchedule::generate(seed, config);
    match run_schedule(&schedule, config) {
        Ok(stats) => Ok(stats),
        Err(violation) => Err(shrink(&schedule, violation, config)),
    }
}

/// Greedy schedule shrinking: truncate to the failing prefix, then drop
/// one step at a time (back to front), keeping any removal that still
/// fails. Deterministic re-execution makes every candidate exact.
pub fn shrink(
    schedule: &ChaosSchedule,
    violation: ChaosViolation,
    config: &ChaosConfig,
) -> ChaosReport {
    let end = violation.step.saturating_add(1).min(schedule.steps.len());
    let mut prefix: Vec<ChaosStep> = schedule.steps[..end].to_vec();
    let mut last = violation;
    let rerun = |steps: &[ChaosStep]| {
        run_schedule(
            &ChaosSchedule {
                seed: schedule.seed,
                steps: steps.to_vec(),
            },
            config,
        )
    };
    // Truncation itself must still fail (it does: a prefix's execution is
    // unaffected by the steps after it); re-verify to keep the report honest.
    match rerun(&prefix) {
        Err(v) => last = v,
        Ok(_) => {
            prefix = schedule.steps.to_vec();
        }
    }
    // Repeat backward passes until a fixpoint: removing one step can make
    // another removable (a NodeUp whose NodeDown was just dropped becomes
    // a no-op), so one pass is not minimal.
    loop {
        let before = prefix.len();
        let mut index = prefix.len();
        while index > 0 {
            index -= 1;
            if prefix.len() <= 1 {
                break;
            }
            let mut candidate = prefix.clone();
            candidate.remove(index);
            if let Err(v) = rerun(&candidate) {
                prefix = candidate;
                last = v;
            }
        }
        if prefix.len() == before {
            break;
        }
    }
    ChaosReport {
        seed: schedule.seed,
        violation: last,
        schedule_len: schedule.steps.len(),
        minimal: prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::SimDuration;
    use dmem_types::ReplicationFactor;

    fn tiny_config() -> ChaosConfig {
        ChaosConfig {
            nodes: 5,
            servers_per_node: 1,
            steps: 40,
            keys: 8,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn clean_seed_reports_stats() {
        let stats = run_seed(1, &tiny_config()).unwrap_or_else(|r| {
            panic!("seed 1 should hold all invariants:\n{r}");
        });
        assert!(stats.acked_puts > 0);
        assert!(stats.verified_reads > 0);
        assert!(stats.maintenance_windows > 0, "schedule always ends with maintenance");
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = tiny_config();
        let a = run_seed(2, &cfg).expect("clean");
        let b = run_seed(2, &cfg).expect("clean");
        assert_eq!(a.acked_puts, b.acked_puts);
        assert_eq!(a.verified_reads, b.verified_reads);
        assert_eq!(a.injected_events, b.injected_events);
        assert!(!a.metrics_digest.is_empty(), "clean runs carry a digest");
        assert_eq!(a.metrics_digest, b.metrics_digest);
    }

    #[test]
    fn payloads_are_key_unique() {
        let s0 = ServerId::new(NodeId::new(0), 0);
        let s1 = ServerId::new(NodeId::new(1), 0);
        assert_ne!(payload(s0, 1, 64, 0), payload(s0, 2, 64, 0));
        assert_ne!(payload(s0, 1, 64, 0), payload(s1, 1, 64, 0));
        assert_ne!(payload(s0, 1, 64, 0), payload(s0, 1, 64, 9));
        assert_eq!(payload(s0, 1, 64, 0), payload(s0, 1, 64, 0));
        assert_eq!(payload(s0, 1, 100, 0).len(), 100);
    }

    #[test]
    fn cxl_runs_hold_invariants_and_exercise_the_tier() {
        let config = ChaosConfig {
            cxl: true,
            ..tiny_config()
        };
        let mut atomics = 0u64;
        let mut outages = 0u64;
        let mut shadow_reads = 0u64;
        let mut saw_cxl_digest = false;
        for seed in 0..16 {
            let stats = run_seed(seed, &config).unwrap_or_else(|r| {
                panic!("cxl seed {seed} should hold all invariants:\n{r}");
            });
            assert!(stats.cxl_mode);
            atomics += stats.cxl_atomics;
            outages += stats.cxl_outages;
            shadow_reads += stats.cxl_failover_reads;
            saw_cxl_digest |= stats.metrics_digest.contains("cxl.");
        }
        // Non-vacuity: the sweep must actually drive the tier — atomics
        // verified, outage windows opened, and at least one read served
        // by the write-behind shadow while its pool node was down.
        assert!(atomics > 0, "no remote atomics executed across 16 seeds");
        assert!(outages > 0, "no pool-node outage windows across 16 seeds");
        assert!(shadow_reads > 0, "no shadow failover reads across 16 seeds");
        assert!(saw_cxl_digest, "cxl counters never reached the digest");
    }

    #[test]
    fn cxl_runs_are_deterministic_and_leave_plain_runs_untouched() {
        let cxl_config = ChaosConfig {
            cxl: true,
            ..tiny_config()
        };
        let a = run_seed(3, &cxl_config).expect("clean");
        let b = run_seed(3, &cxl_config).expect("clean");
        assert_eq!(a.metrics_digest, b.metrics_digest);
        assert_eq!(a.cxl_atomics, b.cxl_atomics);
        assert_eq!(a.cxl_failover_reads, b.cxl_failover_reads);
        // And with the tier off nothing leaks: no cxl metric keys, no
        // gated stats, the same verdict text older builds printed.
        let plain = run_seed(3, &tiny_config()).expect("clean");
        assert!(!plain.cxl_mode);
        assert_eq!(plain.cxl_atomics, 0);
        assert!(!plain.metrics_digest.contains("cxl."), "{}", plain.metrics_digest);
        assert!(!plain.to_string().contains("pool outages"), "{plain}");
    }

    #[test]
    fn single_replication_with_node_loss_violates_convergence() {
        let cfg = ChaosConfig {
            replication: ReplicationFactor::SINGLE,
            ..tiny_config()
        };
        let s0 = ServerId::new(NodeId::new(0), 0);
        let mut steps = Vec::new();
        for key in 0..8 {
            steps.push(ChaosStep::Put {
                server: s0,
                key,
                len: 16 * 1024,
            });
        }
        for node in [NodeId::new(1), NodeId::new(2)] {
            steps.push(ChaosStep::Inject(FailureEvent::NodeDown(node)));
        }
        for node in [NodeId::new(1), NodeId::new(2)] {
            steps.push(ChaosStep::Inject(FailureEvent::NodeUp(node)));
        }
        steps.push(ChaosStep::Maintain {
            horizon: SimDuration::from_millis(250),
        });
        let schedule = ChaosSchedule {
            seed: 0xBAD_5EED,
            steps,
        };
        let violation = run_schedule(&schedule, &cfg)
            .expect_err("factor-1 data on crashed nodes cannot re-converge");
        assert_eq!(violation.invariant, InvariantKind::Convergence, "{violation}");
        let dump = violation
            .flight_dump
            .as_deref()
            .expect("violations carry a flight recorder dump");
        assert!(dump.starts_with("=== flight recorder dump: chaos invariant:"), "{dump}");
        assert!(dump.contains("inject"), "injections should be on the tape: {dump}");
        assert!(dump.contains("violation"), "the tripped invariant ends the tape: {dump}");

        let report = shrink(&schedule, violation, &cfg);
        assert_eq!(report.seed, 0xBAD_5EED);
        assert!(
            report.minimal.len() < schedule.steps.len(),
            "shrinking must drop redundant steps: {report}"
        );
        // Minimality is relative to single-step removal: dropping one put
        // shifts the placement RNG for every later put, so a small core of
        // puts can be mutually irreducible. A handful of steps is expected.
        assert!(
            report.minimal.len() <= 8,
            "minimal prefix should be a handful of steps: {report}"
        );
        // The minimal prefix must itself still reproduce the violation.
        let replay = run_schedule(
            &ChaosSchedule {
                seed: report.seed,
                steps: report.minimal.clone(),
            },
            &cfg,
        );
        assert!(replay.is_err(), "minimal prefix must still fail");
    }
}
