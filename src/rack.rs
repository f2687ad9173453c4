//! Rack-scale disaggregated-memory simulation on the sharded engine.
//!
//! The paper's headline scenarios — whole racks serving far memory to
//! whole clusters — need simulations two orders of magnitude past the
//! tens-of-hosts figures. This model runs them: hundreds to thousands of
//! hosts, each with a bounded local frame cache faulting 4 KiB pages
//! from replicated remote memory over the fabric, with host outages,
//! read failover and suspect probing, executed by
//! [`ShardedEngine`] so the work spreads across cores
//! while every output byte stays independent of the worker count.
//!
//! Page *contents* are never materialized: both sides compute a
//! deterministic checksum from `(page, version)`
//! ([`page_checksum`]), so a 4 TiB logical address space costs no
//! memory, every read is verified end-to-end (a wrong or torn read
//! panics), and the checksum work itself is the per-shard compute that
//! parallelises.
//!
//! Consistency model: remote writes (dirty-page writebacks) bump the
//! page version and fan out to every replica; the *expectation* a
//! reader holds is raised only after **all** replicas acknowledged, so
//! a version older than expected can never be observed — the no-stale-
//! read invariant, checked on every fault. Outages model *reachability*
//! loss (reads and probes fail, failover engages), not data loss:
//! replica memory keeps applying writes while unreachable, as a
//! suspected-but-live memory server would.

use dmem_cluster::spread_replicas_into;
use dmem_sim::shard::{EngineReport, EpochCtx, LaneProfile, ShardWorker, ShardedEngine};
use dmem_sim::{
    digest, splitmix64, CostModel, DetRng, EventQueue, FlightRecorder, LazyCounter, LazyHistogram,
    MetricWindow, MetricsRegistry, MetricsSnapshot, ShardEventLog, ShardId, ShardMap,
    SimDuration, SimInstant, Timeline, WindowSampler,
};
use dmem_types::{IdMap, Lru};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Replica copies per page.
const REPLICAS: usize = 2;
/// Fraction of accesses that dirty the page (trigger writeback on
/// eviction).
const WRITE_FRACTION: f64 = 0.3;
/// Fraction of each host's pages forming its hot set.
const HOT_FRACTION: f64 = 0.02;
/// Probability an access lands in the hot set.
const HOT_WEIGHT: f64 = 0.8;
/// Fraction of hosts that suffer one outage window (failover and probes
/// engage).
const OUTAGE_FRACTION: f64 = 0.05;
/// Telemetry sampling window: each shard captures its metric deltas on
/// this virtual-time grid, merged post-run into [`RackReport::timeline`]
/// in `(window, shard)` order — so the timeline is byte-identical at
/// every worker count.
pub const TIMELINE_WINDOW: SimDuration = SimDuration::from_micros(10);

/// Configuration of one rack-scale run. All fields shape the *scenario*;
/// the worker count is a separate argument to [`run_rack`] and never
/// changes the output.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Hosts in the rack.
    pub hosts: usize,
    /// Logical far-memory pages per host (never materialized).
    pub pages_per_host: u64,
    /// Local cache frames per host.
    pub frames_per_host: usize,
    /// Accesses each host issues (closed loop, one outstanding fault).
    pub accesses_per_host: u64,
    /// Hosts per shard (the logical partition; fixed by the scenario).
    pub hosts_per_shard: usize,
    /// Keep one trace event in this many (0 disables the trace).
    pub trace_sample: u64,
    /// Root seed; everything derives from it.
    pub seed: u64,
}

impl RackConfig {
    /// The `fig4_rack` sweep shape: replicated, faulted, traced.
    pub fn rack_default(hosts: usize) -> Self {
        RackConfig {
            hosts,
            pages_per_host: 4096,
            frames_per_host: 64,
            accesses_per_host: 200,
            hosts_per_shard: 32,
            trace_sample: 4096,
            seed: 0x00d1_5a66,
        }
    }

    /// A small, fast shape for tests and the CI smoke.
    pub fn smoke() -> Self {
        RackConfig {
            hosts: 64,
            pages_per_host: 256,
            frames_per_host: 8,
            accesses_per_host: 60,
            hosts_per_shard: 8,
            trace_sample: 64,
            ..RackConfig::rack_default(64)
        }
    }

    /// The logical shard partition this configuration fixes.
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::grouped(self.hosts, self.hosts.div_ceil(self.hosts_per_shard.max(1)))
    }

    /// The outage horizon estimate: long enough that every outage ends
    /// while traffic still flows, short enough that faults overlap the
    /// measured window.
    fn outage_horizon(&self) -> SimDuration {
        // Roughly half the expected virtual run length.
        SimDuration::from_micros(self.accesses_per_host.max(1))
    }
}

/// Deterministic checksum of the synthetic content of `(page, version)`.
///
/// Stands in for hashing a real 4 KiB page: 512 word-mixing rounds, so
/// serving and verifying a page costs real CPU on the owning shard and
/// the faulting shard — the per-shard compute that makes worker scaling
/// measurable. Any disagreement between the serving replica and the
/// reader means a wrong/torn read and panics the run.
pub fn page_checksum(page: u64, version: u32) -> u64 {
    let seed = splitmix64(page.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(version) << 40));
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for word in 0..512u64 {
        acc = (acc ^ splitmix64(seed ^ word)).wrapping_mul(0x1000_0000_01b3);
    }
    acc
}

/// Cross-shard messages of the rack model. Every variant is a fabric
/// verb class: one-sided-read RPCs, replication writes, failover probes.
#[derive(Debug, Clone, Copy)]
enum RackMsg {
    /// Remote page fault: `requester` asks replica `replica_idx` of
    /// `page` for its content.
    ReadReq {
        page: u64,
        requester: usize,
        target: usize,
        replica_idx: usize,
    },
    /// Successful read: version + content checksum.
    ReadResp {
        page: u64,
        requester: usize,
        version: u32,
        checksum: u64,
    },
    /// The target was unreachable; the requester fails over.
    ReadNack {
        page: u64,
        requester: usize,
        target: usize,
        replica_idx: usize,
    },
    /// Replication write of a dirty page (writeback), new `version`.
    WriteReq {
        page: u64,
        target: usize,
        requester: usize,
        version: u32,
    },
    /// Replica acknowledged the write.
    WriteAck {
        page: u64,
        requester: usize,
        version: u32,
    },
    /// Failover probe: is `target` reachable again?
    ProbeReq { target: usize, requester: usize },
    /// Probe answer.
    ProbeAck {
        target: usize,
        requester: usize,
        up: bool,
    },
}

/// A page fault in flight: what was asked for, when, and the version
/// floor any answer must satisfy.
#[derive(Debug, Clone, Copy)]
struct InflightFault {
    page: u64,
    /// The triggering access wants the page dirty once it lands.
    dirty: bool,
    started: SimInstant,
    /// `expected[page]` when the *current* read left: every writeback
    /// fully acknowledged before then must be visible at whichever
    /// replica answers — the no-stale-read invariant. (A writeback still
    /// in flight at issue time may legitimately be missed.)
    floor: u32,
}

/// One host outage window: `host` stops answering at `from` and answers
/// again at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostOutage {
    host: usize,
    from: SimInstant,
    until: SimInstant,
}

/// The outage windows of `hosts`, in host order: each host independently
/// suffers at most one outage with probability `fraction`, starting
/// uniformly inside the first half of `horizon` and lasting a uniform
/// 5-20 % of it (clamped to end before `horizon`, so every host is back
/// up and suspects can resolve before the run ends).
///
/// Each host draws from its own stream forked off `seed`, so a shard
/// computes exactly its own hosts' windows up front: no stream is shared
/// across shards, and host h's window is the same whatever the host
/// count, the partition or the worker count.
fn outages(seed: u64, hosts: Range<usize>, horizon: SimDuration, fraction: f64) -> Vec<HostOutage> {
    let root = DetRng::new(seed);
    let h = horizon.as_nanos();
    hosts
        .filter_map(|host| {
            let mut rng = root.fork_indexed("rack.outage", host as u64);
            if !rng.chance(fraction) {
                return None;
            }
            let from = rng.below((h / 2).max(1) as usize) as u64;
            let len = h / 20 + rng.below((h * 3 / 20).max(1) as usize) as u64;
            let until = (from + len).min(h.saturating_sub(1));
            (from < until).then(|| HostOutage {
                host,
                from: SimInstant::from_nanos(from),
                until: SimInstant::from_nanos(until),
            })
        })
        .collect()
}

/// One cached frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    version: u32,
    dirty: bool,
}

/// Per-host state, owned by the host's shard.
struct HostState {
    rng: DetRng,
    /// Resident pages (global ids) with their version + dirty bit, in
    /// install order: a hit reads its frame with `get_mut`, which leaves
    /// the order alone, so `pop_lru` evicts first in, first out.
    frames: Lru<u64, Frame>,
    /// Lower bound a read of each page must satisfy (raised only after
    /// all replicas acked the writeback).
    expected: IdMap<u64, u32>,
    /// Writebacks awaiting replica acks: (page, version) → acks left.
    pending_writes: IdMap<(u64, u32), usize>,
    /// Replica hosts currently suspected unreachable.
    suspects: Vec<usize>,
    /// The fault currently in flight (one outstanding per host).
    inflight: Option<InflightFault>,
    /// Accesses that ended, as a hit or as a remote read. A stalled
    /// access ends only when its retry does, so it counts once.
    completed: u64,
    done: bool,
}

/// A shard's handles into its private registry. Each resolves on first
/// touch, so a key exists exactly when the run incremented it.
struct RackMetrics {
    access_total: LazyCounter,
    access_hit: LazyCounter,
    read_served: LazyCounter,
    read_remote: LazyCounter,
    read_nacked: LazyCounter,
    read_failover: LazyCounter,
    read_stalled: LazyCounter,
    write_applied: LazyCounter,
    writeback_pages: LazyCounter,
    writeback_acked: LazyCounter,
    probe_sent: LazyCounter,
    probe_cleared: LazyCounter,
    fault_ns: LazyHistogram,
}

impl RackMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let counter = |name| LazyCounter::new(registry, name);
        RackMetrics {
            access_total: counter("rack.access.total"),
            access_hit: counter("rack.access.hit"),
            read_served: counter("rack.read.served"),
            read_remote: counter("rack.read.remote"),
            read_nacked: counter("rack.read.nacked"),
            read_failover: counter("rack.read.failover"),
            read_stalled: counter("rack.read.stalled"),
            write_applied: counter("rack.write.applied"),
            writeback_pages: counter("rack.writeback.pages"),
            writeback_acked: counter("rack.writeback.acked"),
            probe_sent: counter("rack.probe.sent"),
            probe_cleared: counter("rack.probe.cleared"),
            fault_ns: LazyHistogram::new(registry, "rack.fault.ns"),
        }
    }
}

/// One shard of the rack: its hosts, replica store, outage windows.
struct RackShard {
    shard: ShardId,
    cfg: RackConfig,
    map: ShardMap,
    /// Small fixed-size control message latency.
    msg_lat: SimDuration,
    /// 4 KiB payload latency.
    page_lat: SimDuration,
    /// Reading or writing one 4 KiB page of local DRAM.
    dram_lat: SimDuration,
    /// The hosts' next accesses, each queued as its host id. Deliveries
    /// never enter it: `run_epoch` merges them in from the inbox.
    queue: EventQueue<usize>,
    /// The first host this shard owns; it owns a contiguous range.
    base: usize,
    /// State of host `base + i` at index `i`.
    hosts: Vec<HostState>,
    /// Replica memory hosted here: (host, page) → version.
    store: IdMap<(usize, u64), u32>,
    /// The replica set of the page being faulted or written back, and
    /// the scratch `spread_replicas_into` fills beside it.
    replicas: Vec<usize>,
    used_shards: Vec<ShardId>,
    /// Outage windows of this shard's hosts.
    outages: Vec<HostOutage>,
    /// Private to the shard: totals are summed in shard order after the
    /// run, so they are independent of the worker count.
    registry: MetricsRegistry,
    metrics: RackMetrics,
    log: ShardEventLog,
    sampler: WindowSampler,
    /// Captured windows that saw any increment.
    windows: Vec<MetricWindow>,
}

impl RackShard {
    fn new(shard: ShardId, cfg: &RackConfig, map: &ShardMap, cost: &CostModel) -> Self {
        let registry = MetricsRegistry::new();
        let mut sampler = WindowSampler::new(TIMELINE_WINDOW);
        sampler.add_registry(registry.clone());
        let owned = map.hosts_of(shard);
        let mut rack = RackShard {
            shard,
            cfg: cfg.clone(),
            map: map.clone(),
            msg_lat: cost.rdma.transfer(64),
            page_lat: cost.rdma.transfer(4096 + 64),
            dram_lat: cost.dram.transfer(4096),
            queue: EventQueue::new(),
            base: owned.start,
            hosts: Vec::with_capacity(owned.len()),
            store: IdMap::default(),
            replicas: Vec::new(),
            used_shards: Vec::new(),
            outages: outages(
                cfg.seed ^ 0xfa,
                owned.clone(),
                cfg.outage_horizon(),
                OUTAGE_FRACTION,
            ),
            metrics: RackMetrics::new(&registry),
            registry,
            log: ShardEventLog::new(shard.0, cfg.trace_sample),
            sampler,
            windows: Vec::new(),
        };
        // The shard owns its hosts' streams: all derive from the shard's
        // own (root_seed, shard_id)-split stream, never from a shared one.
        let stream = DetRng::for_shard(cfg.seed, shard.0);
        // A cache holds one frame over its capacity while it evicts.
        let frames = cfg.frames_per_host + 1;
        for host in owned {
            let mut rng = stream.fork_indexed("rack.host", host as u64);
            let kickoff = SimInstant::from_nanos(rng.below(2_000) as u64);
            rack.hosts.push(HostState {
                rng,
                frames: Lru::with_capacity(frames),
                expected: IdMap::default(),
                pending_writes: IdMap::default(),
                suspects: Vec::new(),
                inflight: None,
                completed: 0,
                done: false,
            });
            rack.queue.schedule(kickoff, host);
        }
        rack
    }

    /// The state of `host`, which this shard must own.
    fn host(&mut self, host: usize) -> &mut HostState {
        &mut self.hosts[host - self.base]
    }

    /// Keeps a captured window unless nothing happened inside it.
    fn keep(&mut self, captured: Option<MetricWindow>) {
        self.windows.extend(captured.filter(|w| !w.is_empty()));
    }

    /// Offers the sampler the time of the event about to be handled:
    /// whatever the event increments is attributed to the window
    /// containing `t`. Event times are worker-count independent, so
    /// capture points are too.
    fn sample(&mut self, t: SimInstant) {
        let captured = self.sampler.tick(t.nanos());
        self.keep(captured);
    }

    /// Whether `host` (owned by this shard) is inside an outage window.
    fn host_down(&self, host: usize, now: SimInstant) -> bool {
        self.outages
            .iter()
            .any(|o| o.host == host && o.from <= now && now < o.until)
    }

    /// Fills `self.replicas` with the replica set of `page` for `owner`
    /// (pure, shard-local).
    fn place(&mut self, page: u64, owner: usize) {
        spread_replicas_into(
            page,
            owner,
            self.cfg.hosts,
            REPLICAS,
            &self.map,
            &mut self.replicas,
            &mut self.used_shards,
        );
    }

    fn send(&self, ctx: &mut EpochCtx<RackMsg>, now: SimInstant, to_host: usize, lat: SimDuration, msg: RackMsg) {
        let dest = self.map.shard_of(to_host);
        ctx.send(dest, now, now + lat, msg);
    }

    /// Issues the read of `page` for `host` to replica `replica_idx`,
    /// failing over past suspects. Returns `false` when every replica is
    /// suspect (the caller stalls and retries).
    fn issue_read(
        &mut self,
        ctx: &mut EpochCtx<RackMsg>,
        now: SimInstant,
        host: usize,
        page: u64,
        from_idx: usize,
    ) -> bool {
        self.place(page, host);
        let chosen = {
            let replicas = &self.replicas;
            let state = &mut self.hosts[host - self.base];
            let idx =
                (from_idx..replicas.len()).find(|&i| !state.suspects.contains(&replicas[i]));
            if idx.is_some() {
                // Snapshot the stale-read floor at issue time: every
                // writeback fully acked *before now* must be visible to
                // this read, wherever it lands.
                let floor = state.expected.get(&page).copied().unwrap_or(0);
                if let Some(fault) = state.inflight.as_mut() {
                    fault.floor = floor;
                }
            }
            idx
        };
        let Some(idx) = chosen else { return false };
        let target = self.replicas[idx];
        let lat = self.msg_lat;
        self.send(
            ctx,
            now,
            target,
            lat,
            RackMsg::ReadReq {
                page,
                requester: host,
                target,
                replica_idx: idx,
            },
        );
        true
    }

    /// One access of `host`'s workload loop. No fault of `host` is in
    /// flight here: the next access is queued only once this one ends.
    fn access(&mut self, ctx: &mut EpochCtx<RackMsg>, now: SimInstant, host: usize) {
        let cfg_pages = self.cfg.pages_per_host;
        let hit_cost = self.dram_lat;
        let state = &mut self.hosts[host - self.base];
        if state.completed >= self.cfg.accesses_per_host {
            state.done = true;
            return;
        }
        // Hot-set skew: a small set of pages absorbs most accesses.
        let hot_pages = ((cfg_pages as f64 * HOT_FRACTION) as u64).max(1);
        let local = if state.rng.chance(HOT_WEIGHT) {
            state.rng.below(hot_pages as usize) as u64
        } else {
            state.rng.below(cfg_pages as usize) as u64
        };
        let page = host as u64 * cfg_pages + local;
        let dirty = state.rng.chance(WRITE_FRACTION);
        let think = SimDuration::from_nanos(200 + state.rng.below(200) as u64);
        let hit = match state.frames.get_mut(&page) {
            Some(frame) => {
                frame.dirty |= dirty;
                state.completed += 1;
                true
            }
            None => {
                // One outstanding fault per host; the dirty intent lands
                // with the frame when the response arrives. The floor is
                // stamped by `issue_read` when the read actually leaves.
                state.inflight = Some(InflightFault {
                    page,
                    dirty,
                    started: now,
                    floor: 0,
                });
                false
            }
        };
        if hit {
            self.metrics.access_total.inc();
            self.metrics.access_hit.inc();
            self.queue.schedule(now + hit_cost + think, host);
            return;
        }
        // Miss: remote fault.
        self.log.push(now.nanos(), "fault", host as u64, page);
        if !self.issue_read(ctx, now, host, page, 0) {
            self.stall(now, host);
        }
    }

    /// Every replica of `host`'s fault is suspect: drops the fault and
    /// retries the whole access after [`STALL_RETRY`].
    fn stall(&mut self, now: SimInstant, host: usize) {
        self.metrics.read_stalled.inc();
        self.host(host).inflight = None;
        self.queue.schedule(now + STALL_RETRY, host);
    }

    /// Installs a faulted-in page, evicting (and writing back) if full.
    fn install_frame(
        &mut self,
        ctx: &mut EpochCtx<RackMsg>,
        now: SimInstant,
        host: usize,
        page: u64,
        version: u32,
        dirty: bool,
    ) {
        let frames_cap = self.cfg.frames_per_host;
        let victim = {
            let state = self.host(host);
            state.frames.insert(page, Frame { version, dirty });
            if state.frames.len() > frames_cap {
                state.frames.pop_lru()
            } else {
                None
            }
        };
        if let Some((vpage, vframe)) = victim {
            if vframe.dirty {
                self.writeback(ctx, now, host, vpage, vframe.version + 1);
            }
        }
    }

    /// Replicated writeback of a dirty page at `version`.
    fn writeback(
        &mut self,
        ctx: &mut EpochCtx<RackMsg>,
        now: SimInstant,
        host: usize,
        page: u64,
        version: u32,
    ) {
        self.place(page, host);
        self.metrics.writeback_pages.inc();
        self.log.push(now.nanos(), "writeback", host as u64, page);
        *self.hosts[host - self.base]
            .pending_writes
            .entry((page, version))
            .or_insert(0) += self.replicas.len();
        for &target in &self.replicas {
            self.send(
                ctx,
                now,
                target,
                self.page_lat,
                RackMsg::WriteReq {
                    page,
                    target,
                    requester: host,
                    version,
                },
            );
        }
    }

    fn deliver(&mut self, ctx: &mut EpochCtx<RackMsg>, now: SimInstant, msg: RackMsg) {
        match msg {
            RackMsg::ReadReq {
                page,
                requester,
                target,
                replica_idx,
            } => {
                if self.host_down(target, now) {
                    // The requester learns after the RC retransmit budget
                    // burns: a penalty on top of the message flight.
                    self.metrics.read_nacked.inc();
                    let lat = self.msg_lat * 4;
                    self.send(
                        ctx,
                        now,
                        requester,
                        lat,
                        RackMsg::ReadNack {
                            page,
                            requester,
                            target,
                            replica_idx,
                        },
                    );
                    return;
                }
                let version = self
                    .store
                    .get(&(target, page))
                    .copied()
                    .unwrap_or(0);
                // Serving reads the replica memory and hashes the page:
                // the owning shard's share of the per-fault compute.
                let checksum = page_checksum(page, version);
                self.metrics.read_served.inc();
                let lat = self.dram_lat + self.page_lat;
                self.send(
                    ctx,
                    now,
                    requester,
                    lat,
                    RackMsg::ReadResp {
                        page,
                        requester,
                        version,
                        checksum,
                    },
                );
            }
            RackMsg::ReadResp {
                page,
                requester,
                version,
                checksum,
            } => {
                // End-to-end verification: recompute the content hash.
                assert_eq!(
                    checksum,
                    page_checksum(page, version),
                    "host {requester} page {page}: wrong read (content mismatch at v{version})"
                );
                let state = self.host(requester);
                let fault = state.inflight.take().expect("fault in flight");
                assert_eq!(fault.page, page, "response matches the in-flight fault");
                assert!(
                    version >= fault.floor,
                    "host {requester} page {page}: stale read (v{version} < acked floor v{})",
                    fault.floor
                );
                state.completed += 1;
                self.metrics.access_total.inc();
                self.metrics.read_remote.inc();
                self.metrics
                    .fault_ns
                    .record((now - fault.started).as_nanos());
                self.install_frame(ctx, now, requester, page, version, fault.dirty);
                let think =
                    SimDuration::from_nanos(200 + self.host(requester).rng.below(200) as u64);
                self.queue.schedule(now + think, requester);
            }
            RackMsg::ReadNack {
                page,
                requester,
                target,
                replica_idx,
            } => {
                self.metrics.read_failover.inc();
                self.log.push(now.nanos(), "failover", requester as u64, target as u64);
                let suspects = &mut self.host(requester).suspects;
                if !suspects.contains(&target) {
                    suspects.push(target);
                }
                // Arm the probe loop for the suspect.
                self.metrics.probe_sent.inc();
                self.send(
                    ctx,
                    now,
                    target,
                    PROBE_INTERVAL,
                    RackMsg::ProbeReq { target, requester },
                );
                // Fail the read over to the next replica.
                if !self.issue_read(ctx, now, requester, page, replica_idx + 1) {
                    self.stall(now, requester);
                }
            }
            RackMsg::WriteReq {
                page,
                target,
                requester,
                version,
            } => {
                // Replica memory applies writes even while unreachable:
                // outages model reachability, not data loss.
                let slot = self.store.entry((target, page)).or_insert(0);
                *slot = (*slot).max(version);
                self.metrics.write_applied.inc();
                let lat = self.dram_lat + self.msg_lat;
                self.send(
                    ctx,
                    now,
                    requester,
                    lat,
                    RackMsg::WriteAck {
                        page,
                        requester,
                        version,
                    },
                );
            }
            RackMsg::WriteAck {
                page,
                requester,
                version,
            } => {
                let state = &mut self.hosts[requester - self.base];
                let left = state
                    .pending_writes
                    .get_mut(&(page, version))
                    .expect("ack matches a pending writeback");
                *left -= 1;
                if *left == 0 {
                    state.pending_writes.remove(&(page, version));
                    // All replicas hold `version`: raise the floor.
                    let slot = state.expected.entry(page).or_insert(0);
                    *slot = (*slot).max(version);
                    self.metrics.writeback_acked.inc();
                }
            }
            RackMsg::ProbeReq { target, requester } => {
                let up = !self.host_down(target, now);
                self.send(
                    ctx,
                    now,
                    requester,
                    self.msg_lat,
                    RackMsg::ProbeAck {
                        target,
                        requester,
                        up,
                    },
                );
            }
            RackMsg::ProbeAck {
                target,
                requester,
                up,
            } => {
                if up {
                    self.metrics.probe_cleared.inc();
                    self.log.push(now.nanos(), "suspect.cleared", requester as u64, target as u64);
                    self.host(requester).suspects.retain(|&s| s != target);
                } else {
                    // Still down: keep probing.
                    self.metrics.probe_sent.inc();
                    self.send(
                        ctx,
                        now,
                        target,
                        PROBE_INTERVAL,
                        RackMsg::ProbeReq { target, requester },
                    );
                }
            }
        }
    }
}

/// Backoff before retrying an access whose replicas are all suspect.
const STALL_RETRY: SimDuration = SimDuration::from_micros(20);
/// Delay between failover probes of a suspect host.
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(50);

impl ShardWorker for RackShard {
    type Msg = RackMsg;

    fn run_epoch(&mut self, ctx: &mut EpochCtx<RackMsg>) {
        debug_assert_eq!(ctx.shard(), self.shard, "worker bound to its shard");
        // Two time-ordered sources, accesses and due envelopes, merged.
        // At one instant the order is: accesses queued before this epoch
        // began, then envelopes in mailbox order, then accesses queued
        // since — what queueing the whole inbox up front would give,
        // without a second heap for every message to cross.
        let queued_before = self.queue.scheduled();
        loop {
            let access = self
                .queue
                .next_key()
                .filter(|&(at, _)| at < ctx.epoch_end());
            let deliver = match (access, ctx.due_at()) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some((at, rank)), Some(due)) => due < at || (due == at && rank >= queued_before),
            };
            if deliver {
                let env = ctx.pop_due().expect("an envelope is due");
                self.sample(env.deliver_at);
                self.deliver(ctx, env.deliver_at, env.msg);
            } else {
                let (t, host) = self
                    .queue
                    .pop_before(ctx.epoch_end())
                    .expect("an access is due");
                self.sample(t);
                self.access(ctx, t, host);
            }
        }
    }

    fn next_local_at(&self) -> Option<SimInstant> {
        self.queue.next_at()
    }
}

/// Aggregate result of one rack run. Every field is a function of the
/// [`RackConfig`] only — reruns and different worker counts reproduce it
/// byte for byte.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// Hosts simulated.
    pub hosts: usize,
    /// Logical shards (host-groups).
    pub shards: u32,
    /// Accesses completed, each counted once, where it ends: as a hit or
    /// as a remote read.
    pub accesses: u64,
    /// Frame-cache hits.
    pub hits: u64,
    /// Remote faults completed.
    pub remote_reads: u64,
    /// Dirty pages written back (replicated).
    pub writebacks: u64,
    /// Reads failed over to another replica.
    pub failovers: u64,
    /// Failover probes sent.
    pub probes: u64,
    /// Envelopes exchanged between distinct shards.
    pub cross_messages: u64,
    /// Envelopes that stayed within one shard.
    pub local_messages: u64,
    /// Epochs the engine executed.
    pub epochs: u64,
    /// Virtual end of the run.
    pub horizon: SimInstant,
    /// Median fault latency (ns, histogram bucket bound).
    pub fault_p50_ns: u64,
    /// Tail fault latency (ns, histogram bucket bound).
    pub fault_p99_ns: u64,
    /// FNV digest of the full merged counter snapshot.
    pub digest: String,
    /// Merged, canonically ordered trace export (JSONL).
    pub trace_jsonl: String,
    /// Name-sorted `key=value` pairs of all counters the run touched.
    pub metrics_line: String,
    /// Per-window counter/histogram timeline, merged from the per-shard
    /// samplers in `(window, shard)` order.
    pub timeline: Timeline,
}

impl RackReport {
    /// CSV header matching [`RackReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "hosts,shards,accesses,hits,remote_reads,writebacks,failovers,probes,\
         cross_msgs,local_msgs,epochs,fault_p50_ns,fault_p99_ns,digest"
    }

    /// One CSV row of this report (virtual metrics only — never
    /// wall-clock, so the file is byte-identical at every worker count).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.hosts,
            self.shards,
            self.accesses,
            self.hits,
            self.remote_reads,
            self.writebacks,
            self.failovers,
            self.probes,
            self.cross_messages,
            self.local_messages,
            self.epochs,
            self.fault_p50_ns,
            self.fault_p99_ns,
            self.digest,
        )
    }
}

/// Where the wall time of one [`run_rack_profiled`] call went: the two
/// serial ends on the calling thread and, between them, each worker
/// thread's engine phases. For every worker, `setup` + its lane's four
/// shares + `report` is the call's wall time.
#[derive(Debug, Clone)]
pub struct RackProfile {
    /// Building the shards and their hosts' outage windows.
    pub setup: Duration,
    /// One entry per worker thread the engine used.
    pub lanes: Vec<LaneProfile>,
    /// Checking quiescence and merging the shards into the report.
    pub report: Duration,
}

/// Runs one rack scenario with `workers` OS threads.
///
/// The scenario — including its logical shard partition — is fixed by
/// `config`; `workers` only fans the shards across threads. Output is
/// byte-identical for every worker count.
///
/// # Panics
///
/// Panics if an invariant breaks mid-run (wrong read, stale read,
/// mailbox misorder) or the run ends unquiesced (unfinished hosts,
/// unacked writebacks, unresolved suspects). The unquiesced hosts are
/// listed in host order, in the message and in the flight-recorder dump
/// that precedes it, so one broken seed fails with the same bytes on
/// every run: nothing in this module iterates a hash map into output.
pub fn run_rack(config: &RackConfig, workers: usize) -> RackReport {
    let (shards, epoch) = build_shards(config);
    let (shards, engine) = ShardedEngine::run(workers, shards, epoch, epoch);
    merge_shards(config, shards, engine)
}

/// [`run_rack`], also timing where the call spent its wall time.
pub fn run_rack_profiled(config: &RackConfig, workers: usize) -> (RackReport, RackProfile) {
    let started = Instant::now();
    let (shards, epoch) = build_shards(config);
    let setup = started.elapsed();
    let (shards, engine, lanes) = ShardedEngine::run_profiled(workers, shards, epoch, epoch);
    let merging = Instant::now();
    let report = merge_shards(config, shards, engine);
    let profile = RackProfile {
        setup,
        lanes,
        report: merging.elapsed(),
    };
    (report, profile)
}

/// The shards of `config`, ready to run, and the epoch length.
fn build_shards(config: &RackConfig) -> (Vec<RackShard>, SimDuration) {
    let map = config.shard_map();
    let cost = CostModel::paper_default();
    let shards = (0..map.shards())
        .map(|s| RackShard::new(ShardId(s), config, &map, &cost))
        .collect();
    // Conservative lookahead: every rack message rides the RDMA fabric,
    // so the minimum cross-shard latency is one small-message transfer,
    // and the epoch is as long as that allows.
    (shards, cost.rdma.transfer(64))
}

/// Deterministic post-run: checks quiescence and merges shard-local
/// state in shard order.
fn merge_shards(
    config: &RackConfig,
    mut shards: Vec<RackShard>,
    engine: EngineReport,
) -> RackReport {
    let mut logs = Vec::with_capacity(shards.len());
    let mut shard_windows = Vec::new();
    let mut quiescence_failures: Vec<String> = Vec::new();
    for shard in shards.iter_mut() {
        logs.push(shard.log.clone());
        let tail = shard.sampler.finish(engine.horizon.nanos());
        shard.keep(tail);
        shard_windows.append(&mut shard.windows);
        // Quiescence invariants, per host. Failures are collected instead
        // of asserted inline so a broken run can dump the flight recorder
        // (recent trace events + metric windows) before panicking.
        for (host, state) in (shard.base..).zip(&shard.hosts) {
            if !(state.done && state.completed == config.accesses_per_host) {
                quiescence_failures.push(format!(
                    "host {host} finished {}/{} accesses",
                    state.completed, config.accesses_per_host
                ));
            }
            if !state.pending_writes.is_empty() {
                quiescence_failures.push(format!("host {host} ended with unacked writebacks"));
            }
            if !state.suspects.is_empty() {
                quiescence_failures.push(format!(
                    "host {host} ended with unresolved suspects {:?}",
                    state.suspects
                ));
            }
            if state.inflight.is_some() {
                quiescence_failures.push(format!("host {host} ended mid-fault"));
            }
        }
    }
    let registries: Vec<_> = shards.iter().map(|s| s.registry.clone()).collect();
    let merged = MetricsSnapshot::of(&registries);
    let accesses = merged.counter("rack.access.total");
    let hits = merged.counter("rack.access.hit");
    let remote_reads = merged.counter("rack.read.remote");
    let planned = config.hosts as u64 * config.accesses_per_host;
    if !(accesses == planned && hits + remote_reads == accesses) {
        quiescence_failures.push(format!(
            "{accesses} accesses counted for {planned} planned, \
             {hits} hits + {remote_reads} remote reads"
        ));
    }
    let timeline = Timeline::merge_shards(TIMELINE_WINDOW.as_nanos(), shard_windows);
    if !quiescence_failures.is_empty() {
        // Recent merged trace events in canonical (at_ns, shard, seq)
        // order, plus the last metric windows — same dump format the
        // chaos harness emits on invariant violations.
        let mut events: Vec<_> = shards
            .iter()
            .flat_map(|s| s.log.events().iter().map(|e| (e.at_ns, s.shard.0, e)))
            .collect();
        events.sort_by_key(|(at, shard, e)| (*at, *shard, e.seq));
        let mut recorder = FlightRecorder::new();
        for (at, shard, event) in events {
            recorder.note(
                at,
                event.kind,
                format!("shard={shard} host={} detail={}", event.host, event.detail),
            );
        }
        for window in &timeline.windows {
            recorder.push_window(window);
        }
        eprintln!("{}", recorder.dump("rack quiescence assert"));
        panic!(
            "rack run ended unquiesced ({} failures): {}",
            quiescence_failures.len(),
            quiescence_failures.join("; ")
        );
    }

    let metrics_line = merged
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    let digest = format!("{:016x}", digest::fold(digest::OFFSET, metrics_line.as_bytes()));

    RackReport {
        hosts: config.hosts,
        shards: shards.len() as u32,
        accesses,
        hits,
        remote_reads,
        writebacks: merged.counter("rack.writeback.pages"),
        failovers: merged.counter("rack.read.failover"),
        probes: merged.counter("rack.probe.sent"),
        cross_messages: engine.cross_messages,
        local_messages: engine.local_messages,
        epochs: engine.epochs,
        horizon: engine.horizon,
        fault_p50_ns: merged.quantile("rack.fault.ns", 0.5),
        fault_p99_ns: merged.quantile("rack.fault.ns", 0.99),
        digest,
        trace_jsonl: ShardEventLog::merge_to_jsonl(&logs),
        metrics_line,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RackConfig {
        RackConfig {
            hosts: 16,
            pages_per_host: 64,
            frames_per_host: 16,
            accesses_per_host: 20,
            hosts_per_shard: 4,
            trace_sample: 16,
            ..RackConfig::rack_default(16)
        }
    }

    #[test]
    fn rack_is_worker_count_independent() {
        let cfg = tiny();
        let base = run_rack(&cfg, 1);
        assert!(base.cross_messages > 0, "vacuous: no cross-shard traffic");
        assert!(base.remote_reads > 0, "vacuous: no remote faults");
        assert!(!base.timeline.windows.is_empty(), "vacuous: no timeline");
        for workers in [2, 4] {
            let other = run_rack(&cfg, workers);
            assert_eq!(base.csv_row(), other.csv_row(), "workers={workers}");
            assert_eq!(base.metrics_line, other.metrics_line, "workers={workers}");
            assert_eq!(base.trace_jsonl, other.trace_jsonl, "workers={workers}");
            assert_eq!(
                base.timeline.to_csv(),
                other.timeline.to_csv(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn rack_faults_engage_failover() {
        // 64 hosts: the 5 % outage fraction takes at least one down.
        let report = run_rack(&RackConfig::smoke(), 2);
        assert!(report.failovers > 0, "outages must force failovers");
        assert!(report.probes > 0, "failovers must arm probes");
        // run_rack asserted quiescence: suspects resolved, writes acked.
    }

    #[test]
    fn outage_schedule_repeats_for_a_seed() {
        let horizon = SimDuration::from_millis(1);
        assert_eq!(
            outages(7, 0..64, horizon, 0.25),
            outages(7, 0..64, horizon, 0.25)
        );
    }

    #[test]
    fn outage_schedule_is_deterministic_and_bounded() {
        let horizon = SimDuration::from_millis(2);
        let s = outages(11, 0..100, horizon, 0.3);
        assert_eq!(s, outages(11, 0..100, horizon, 0.3));
        assert!(!s.is_empty(), "30% of 100 hosts should fault");
        assert!(s.len() < 60, "should stay near the configured fraction");
        let end = SimInstant::from_nanos(horizon.as_nanos());
        for o in &s {
            assert!(o.from < o.until, "window must be non-empty");
            assert!(
                o.until < end,
                "every host must be back up before the horizon"
            );
        }
        // Host order, one outage per host.
        for w in s.windows(2) {
            assert!(w[0].host < w[1].host);
        }
    }

    #[test]
    fn outage_schedule_deals_by_host_group() {
        let horizon = SimDuration::from_millis(1);
        let whole = outages(3, 0..64, horizon, 0.5);
        let mut dealt = Vec::new();
        for group in [0..16, 16..32, 32..48, 48..64] {
            let part = outages(3, group.clone(), horizon, 0.5);
            assert!(part.iter().all(|o| group.contains(&o.host)));
            dealt.extend(part);
        }
        assert_eq!(dealt, whole, "the groups' windows partition the rack's");
    }

    #[test]
    fn outage_schedule_independent_of_host_count_prefix() {
        // Per-host forked streams: host h's outage is the same whether
        // the rack has 32 or 64 hosts — growth doesn't reshuffle faults.
        let horizon = SimDuration::from_millis(1);
        let small = outages(9, 0..32, horizon, 0.4);
        let large = outages(9, 0..64, horizon, 0.4);
        assert!(!small.is_empty(), "vacuous: no outage among 32 hosts");
        assert_eq!(small, large[..small.len()]);
        assert!(large[small.len()..].iter().all(|o| o.host >= 32));
    }

    #[test]
    fn page_checksum_distinguishes_versions() {
        assert_ne!(page_checksum(7, 0), page_checksum(7, 1));
        assert_ne!(page_checksum(7, 0), page_checksum(8, 0));
        assert_eq!(page_checksum(7, 3), page_checksum(7, 3));
    }
}
