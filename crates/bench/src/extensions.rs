//! The paper's research opportunities as [`Figure`](crate::figures::Figure)
//! runs beside its evaluation: key-value caching and LLM KV-cache serving
//! (§III's killer apps), QoS isolation (§IV-F), Clio's object-granularity
//! argument, the RDMA / CXL / NVM crossover (§VI) and a DRackSim-scale
//! rack. Their claims sit in [`claims`](crate::claims) with the figures'.
//! The `perf` binary times the runs made `pub` here, and the `fig4_rack`
//! binary runs the rack's smoke at a chosen worker count.

use crate::{bench_jobs, par_map, Table};
use dmem_alloc::{Granularity, HeapConfig, ObjectHeap};
use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_kv::{KvCache, LlmCostModel, SpillPolicy, TieredKvConfig, TieredKvEngine};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{DetRng, SimDuration, SimInstant, TelemetryHub};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DonationPolicy, NodeConfig,
    ServerConfig,
};
use dmem_workloads::conversation::MAX_TURNS;
use dmem_workloads::{ConversationConfig, ConversationStream, ZipfSampler};
use memory_disaggregation::rack::{run_rack, RackConfig, RackReport};
use std::sync::Arc;

/// A deliberately memory-tight cluster: 6 small nodes whose fast tiers
/// hold a few antagonists, or a dozen hot conversations, but not the
/// whole load — so the QoS sweep crosses from "fits" to "overcommitted"
/// and every serving engine must spill continuously.
fn tight_cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: 6,
        servers_per_node: 3,
        node: NodeConfig {
            dram: ByteSize::from_mib(8),
            slab_size: ByteSize::from_kib(64),
            send_pool: ByteSize::from_kib(512),
            recv_pool: ByteSize::from_mib(1),
            nvm_pool: ByteSize::ZERO,
        },
        server: ServerConfig::new(ByteSize::from_mib(2)),
        ..ClusterConfig::small()
    }
}

/// Donation zero and compression off: nothing is absorbed into the node
/// shared pool or shrunk in flight, so the tier under test is the only
/// thing a put or get touches and the fabric byte counters measure
/// exactly the transfer granularity.
fn exact_cluster() -> ClusterConfig {
    ClusterConfig {
        node: NodeConfig {
            slab_size: ByteSize::from_kib(64),
            send_pool: ByteSize::from_kib(512),
            recv_pool: ByteSize::from_mib(24),
            ..NodeConfig::default()
        },
        server: ServerConfig {
            memory: ByteSize::from_mib(2),
            donation: DonationPolicy::fixed(0.0),
        },
        compression: CompressionMode::Off,
        ..ClusterConfig::small()
    }
}

/// Deterministic incompressible payload (defeats the LZ codec so the
/// stored size equals the logical size).
fn noisy(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// Antagonist counts of the QoS sweep; the alert passes run the last.
const ANTAGONISTS: [usize; 5] = [1, 2, 4, 8, 16];
/// Rounds per QoS pass.
const QOS_ROUNDS: usize = 400;
/// KV tenant working set: small pages it keeps refreshing and reading.
const KV_KEYS: usize = 96;
/// Antagonist key space.
const ANT_KEYS: u64 = 96;
/// KV and antagonist payloads: page-sized and incompressible, so they
/// compete in *both* fast tiers (the node shared pool takes only single
/// pages; larger values would bypass it) and none of the bytes compress
/// away.
const QOS_VALUE: usize = 4 * 1024;
/// Sampling grid for the alert passes: wide enough that each window
/// holds several KV gets, fine enough that the burn shows up as a
/// multi-window run rather than one blob.
const ALERT_WINDOW: SimDuration = SimDuration::from_millis(20);

/// QoS wiring for one pass.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No engine at all — the uncontrolled baseline rows.
    Off,
    /// Quotas + priority + fabric rate limits — the QoS rows.
    Controlled,
    /// Engine installed for attribution only: equal priorities, ample
    /// quotas, no rate limits. The cluster crowds exactly like an
    /// ungoverned one, but the `qos.kv.get.ns` histogram still feeds the
    /// hub's burn-rate rule — how you watch a fleet you haven't gated yet.
    ObserveOnly,
}

/// One cluster, one KV tenant, `antagonists` greedy tenants. Returns the
/// KV tenant's (p50, p99) get latency over the measured rounds. When
/// `hub` is given it is installed before the workload and ticked on the
/// round cadence, turning the pass into an alert run.
fn qos_pass(
    antagonists: usize,
    mode: Mode,
    hub: Option<&Arc<TelemetryHub>>,
) -> (SimDuration, SimDuration) {
    let dm = Arc::new(DisaggregatedMemory::new(tight_cluster()).unwrap());
    let servers = dm.servers();
    let kv_server = servers[0];
    let ant_servers = &servers[1..=antagonists];

    if mode != Mode::Off {
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        let kv = engine.register_tenant(
            TenantSpec::new("kv", 200, ByteSize::from_mib(16))
                .with_slo_p99(SimDuration::from_micros(500)),
        );
        engine.assign_server(kv_server, kv);
        for (i, server) in ant_servers.iter().enumerate() {
            let spec = if mode == Mode::Controlled {
                TenantSpec::new(format!("antag-{i:02}"), 10, ByteSize::from_kib(64))
                    .with_fabric_rate(ByteSize::from_mib(16).as_u64())
            } else {
                // Observe-only: same priority and ample quota, no rate
                // limit — the engine attributes but never intervenes.
                TenantSpec::new(format!("antag-{i:02}"), 200, ByteSize::from_mib(16))
            };
            engine.assign_server(*server, engine.register_tenant(spec));
        }
        if let Some(hub) = hub {
            hub.set_rules(engine.burn_rate_rules(1, 4, 5000, 500));
            dm.install_telemetry(Arc::clone(hub));
        }
        dm.install_qos(engine);
    }

    let clock = dm.clock().clone();
    let mut payload_rng = DetRng::new(0x0e07_9051);
    let zipf = ZipfSampler::new(KV_KEYS, 0.99);
    let mut zipf_rng = DetRng::new(7);

    // KV tenant loads its working set into an otherwise idle cluster.
    for key in 0..KV_KEYS {
        dm.put(kv_server, key as u64, noisy(&mut payload_rng, QOS_VALUE)).unwrap();
    }

    let mut latencies: Vec<SimDuration> = Vec::with_capacity(QOS_ROUNDS);
    for round in 0..QOS_ROUNDS {
        // The KV working set slides one key per round, the way a cache
        // churns: the coldest object is dropped, a new one will be
        // admitted below. The capacity the delete frees is up for grabs —
        // in a real cluster the antagonists race for it concurrently, so
        // the schedule lets them move between the drop and the insert.
        dm.delete(kv_server, round as u64).unwrap();
        // Antagonists rotate over their key spaces, continuously
        // re-putting incompressible pages — exactly the greedy neighbour
        // §IV-F worries about.
        for (i, server) in ant_servers.iter().enumerate() {
            let key = (round as u64 + i as u64) % ANT_KEYS;
            dm.put(*server, key, noisy(&mut payload_rng, QOS_VALUE)).unwrap();
        }
        // The KV tenant admits the newest object — the placement decision
        // where crowding bites — and serves one zipf-skewed read over the
        // live window, newest keys hottest.
        let newest = KV_KEYS as u64 + round as u64;
        dm.put(kv_server, newest, noisy(&mut payload_rng, QOS_VALUE)).unwrap();
        let key = newest - zipf.sample(&mut zipf_rng) as u64;
        let t0 = clock.now();
        let value = dm.get(kv_server, key).unwrap();
        latencies.push(clock.now() - t0);
        assert_eq!(value.len(), QOS_VALUE, "kv data must survive the antagonists");
        // The closed loop runs off the maintenance tick in production; the
        // bench drives it at the same 16-round cadence in both modes (a
        // no-op without an engine installed).
        if round % 16 == 15 {
            dm.qos_tick();
        }
        // Telemetry sampling rides the round cadence; a no-op without an
        // installed hub, so the table passes are untouched.
        dm.telemetry_tick();
    }
    if let Some(hub) = hub {
        hub.flush(clock.now());
    }

    latencies.sort_unstable();
    let pick = |q: usize| latencies[(latencies.len() * q / 100).min(latencies.len() - 1)];
    (pick(50), pick(99))
}

/// Extension (§IV-F): multi-tenant QoS isolation under antagonists.
///
/// A shared memory fabric lets one tenant's appetite destroy another's
/// tail latency, so the paper asks for per-application quotas (policy 1)
/// and priority between applications (policy 2). A high-priority KV
/// tenant serves a zipf-skewed read/refresh stream while 1→16
/// low-priority antagonists hammer the same cluster's fast tiers.
///
/// Every antagonist added to the uncontrolled cluster pushes more of the
/// KV tenant's pages to disk, so its p99 climbs toward the 4 ms disk
/// read; `dmem-qos`'s quotas, priority eviction and fabric rate limits
/// keep the same pages fast-tier resident and the p99 flat.
///
/// The second table is two alert passes at the top of the sweep: an
/// observe-only cluster, whose KV burn-rate alert must fire, and the
/// governed one, which must stay quieter. Logs and digests are pure
/// virtual-time functions.
pub(crate) fn ext_qos() -> Vec<Table> {
    let mut table = Table::new(
        "Extension — QoS isolation: high-priority KV p99 vs antagonist count (§IV-F policies 1 & 2)",
        &["antagonists", "no-QoS p50", "no-QoS p99", "QoS p50", "QoS p99", "p99 ratio"],
    );
    let results = par_map(ANTAGONISTS.to_vec(), |_, n| {
        (qos_pass(n, Mode::Off, None), qos_pass(n, Mode::Controlled, None))
    });
    let us = |d: SimDuration| format!("{:.1} us", d.as_micros_f64());
    for (n, ((base_p50, base_p99), (q_p50, q_p99))) in ANTAGONISTS.into_iter().zip(results) {
        let ratio = base_p99.as_nanos() as f64 / q_p99.as_nanos().max(1) as f64;
        table.row([
            n.to_string(),
            us(base_p50),
            us(base_p99),
            us(q_p50),
            us(q_p99),
            format!("{ratio:.1}x"),
        ]);
    }

    let worst = ANTAGONISTS[ANTAGONISTS.len() - 1];
    let mut alerts = Table::new(
        &format!("Extension — QoS: the KV burn-rate alert at {worst} antagonists"),
        &["mode", "antagonists", "windows", "FIRING edges", "alert digest"],
    );
    let modes = vec![(Mode::ObserveOnly, "observe-only"), (Mode::Controlled, "qos")];
    for row in par_map(modes, |_, (mode, label)| {
        let hub = Arc::new(TelemetryHub::new(ALERT_WINDOW));
        qos_pass(worst, mode, Some(&hub));
        let firing = hub.alert_log().iter().filter(|line| line.contains("FIRING")).count();
        let windows = hub.timeline().windows.len();
        [label.to_owned(), worst.to_string(), windows.to_string(), firing.to_string(), hub.alert_digest()]
    }) {
        alerts.row(row);
    }
    vec![table, alerts]
}

/// Reads `ops` zipf-skewed keys out of `keys` 1 KiB objects through a
/// [`KvCache`] with a `hot_kib` hot set; returns (ops per virtual second,
/// fraction of reads that paid the backing database). `drop_cold` models
/// a conventional cache that discards evicted entries: any read not
/// served by the hot set pays a database fetch.
fn kv_pass(hot_kib: u64, drop_cold: bool) -> (f64, f64) {
    const KEYS: usize = 2_000;
    const OPS: usize = 10_000;
    let dm = Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap());
    let server = dm.servers()[0];
    let clock = dm.clock().clone();
    let mut cache = KvCache::new(Arc::clone(&dm), server, ByteSize::from_kib(hot_kib));
    for key in 0..KEYS {
        cache.set(&format!("object:{key}"), vec![key as u8; 1024]).unwrap();
    }
    let zipf = ZipfSampler::new(KEYS, 0.99);
    let mut rng = DetRng::new(7);
    let backing_fetch = SimDuration::from_millis(1); // database round trip
    let mut misses = 0u64;
    let t0 = clock.now();
    for _ in 0..OPS {
        let key = format!("object:{}", zipf.sample(&mut rng));
        let hot_hits_before = cache.stats().hot_hits;
        let missed = cache.get(&key).unwrap().is_none()
            || (drop_cold && cache.stats().hot_hits == hot_hits_before);
        if missed {
            clock.advance(backing_fetch);
            misses += 1;
        }
    }
    let elapsed = clock.now() - t0;
    (OPS as f64 / elapsed.as_secs_f64(), misses as f64 / OPS as f64)
}

/// Extension (§III): key-value caching as a killer application.
///
/// A cache that drops cold entries must re-fetch them from the backing
/// database (milliseconds); one that demotes them into disaggregated
/// memory serves them in microseconds. The same zipf-skewed read stream
/// runs against both designs at four hot-set sizes. The smaller the hot
/// set, the more the conventional cache pays the database for cold keys;
/// the disaggregated overflow tier turns those misses into microsecond
/// fetches.
pub(crate) fn ext_kv_cache() -> Vec<Table> {
    const HOT_KIB: [u64; 4] = [64, 128, 256, 512];
    let mut table = Table::new(
        "Extension — KV cache: drop-cold vs disaggregated-memory overflow (zipf reads)",
        &["hot set", "drop-cold ops/s", "drop-cold DB fetches", "disaggregated ops/s", "disaggregated DB fetches", "speedup"],
    );
    let results = par_map(HOT_KIB.to_vec(), |_, kib| (kv_pass(kib, true), kv_pass(kib, false)));
    for (kib, ((drop_tput, drop_miss), (dm_tput, dm_miss))) in HOT_KIB.into_iter().zip(results) {
        table.row([
            ByteSize::from_kib(kib).to_string(),
            format!("{drop_tput:.0}"),
            format!("{:.1}%", drop_miss * 100.0),
            format!("{dm_tput:.0}"),
            format!("{:.1}%", dm_miss * 100.0),
            format!("{:.1}x", dm_tput / drop_tput),
        ]);
    }
    vec![table]
}

/// The LLM serving engine with `spill` as its policy for cold
/// conversations.
fn engine_config(spill: SpillPolicy) -> TieredKvConfig {
    TieredKvConfig {
        // ~12 hot conversations; the stream keeps ~2-3x more live.
        local_capacity: ByteSize::from_kib(1536),
        remote_capacity: ByteSize::from_mib(12),
        // All 8 system prompts fit (512 tokens x 64 B each).
        prefix_cache_capacity: ByteSize::from_kib(320),
        spill,
        // 64 B of KV per token; prefill at 20 us/token makes a
        // recomputed 2k-token history cost ~40 ms of compute — the
        // price the local-only design pays per cold hit.
        cost: LlmCostModel {
            kv_bytes_per_token: 64,
            prefill_per_token: SimDuration::from_micros(20),
        },
    }
}

/// What one [`serve`] pass measured, on the virtual clock.
pub struct ServingResult {
    /// Conversations the engine saw.
    pub sessions: u64,
    /// Median time to first token, queueing included.
    pub ttft_p50: SimDuration,
    /// 99th-percentile time to first token, queueing included.
    pub ttft_p99: SimDuration,
    /// Generated tokens per virtual second.
    pub tokens_per_s: f64,
    /// Share of conversation opens served from the remote prefix cache.
    pub prefix_hit_rate: f64,
}

/// Serves `turns` events of the conversation stream at `lambda` arrivals
/// per second through one engine and measures TTFT (arrival → first
/// generated token) and generated-token throughput.
pub fn serve(lambda: f64, turns: usize, spill: SpillPolicy) -> ServingResult {
    let dm = Arc::new(DisaggregatedMemory::new(tight_cluster()).unwrap());
    let servers = dm.servers();
    let (rookie, veteran) = (servers[0], servers[1]);

    // QoS tenant split (§IV-F): long-running conversations hold a
    // protected quota at high priority; the rookie flood is admission-
    // limited so a flash crowd of new sessions degrades to disk instead
    // of evicting the veterans' KV state.
    let qos = Arc::new(QosEngine::new(QosConfig::default()));
    let veterans = qos.register_tenant(
        TenantSpec::new("veteran-convs", 200, ByteSize::from_mib(16))
            .with_slo_p99(SimDuration::from_micros(500)),
    );
    qos.assign_server(veteran, veterans);
    let rookies = qos.register_tenant(TenantSpec::new("rookie-convs", 10, ByteSize::from_mib(2)));
    qos.assign_server(rookie, rookies);
    dm.install_qos(qos);

    let mut engine = TieredKvEngine::with_servers(dm.clone(), rookie, veteran, engine_config(spill));
    let clock = dm.clock().clone();
    let t_start = clock.now();

    let config = ConversationConfig { lambda_rate: lambda, ..ConversationConfig::default() };
    let stream = ConversationStream::new(config, 11);

    let mut ttfts: Vec<SimDuration> = Vec::with_capacity(turns);
    let mut output_tokens = 0u64;
    for (i, event) in stream.take(turns).enumerate() {
        // Open loop: the request arrives on the stream's schedule; if the
        // server is still busy the difference is queueing delay and it
        // counts against TTFT.
        let arrival: SimInstant = t_start + event.at;
        clock.advance_to(arrival);
        engine
            .begin_turn(event.session, event.turn, event.prefix_id, event.context_tokens, event.prompt_tokens)
            .unwrap();
        clock.advance(engine.cost().decode(1)); // first token out
        ttfts.push(clock.now() - arrival);
        if event.output_tokens > 1 {
            clock.advance(engine.cost().decode(event.output_tokens - 1));
        }
        output_tokens += u64::from(event.output_tokens);
        engine.end_turn(event.session, event.prompt_tokens + event.output_tokens).unwrap();
        if event.turn + 1 >= MAX_TURNS {
            engine.retire(event.session);
        }
        if i % 64 == 63 {
            dm.qos_tick();
        }
    }

    let elapsed = (clock.now() - t_start).as_secs_f64();
    let stats = engine.stats();
    ttfts.sort_unstable();
    let pick = |q: usize| ttfts[(ttfts.len() * q / 100).min(ttfts.len() - 1)];
    ServingResult {
        sessions: stats.conversations,
        ttft_p50: pick(50),
        ttft_p99: pick(99),
        tokens_per_s: output_tokens as f64 / elapsed.max(1e-9),
        prefix_hit_rate: stats.prefix_hit_rate(),
    }
}

/// Extension (§III): LLM KV-cache serving on disaggregated memory.
///
/// Per-conversation KV state outgrows any single host, and what the server
/// does with cold conversations decides the tail. One deterministic
/// open-loop conversation stream ([`ConversationStream`]; arrival rate and
/// stream length grow together, so later rows mean more sessions under
/// more load) runs through three engines that differ only in spill
/// policy:
///
/// * **tiered** — `TieredKvEngine` over disaggregated memory (local →
///   remote → disk, batched fabric verbs, remote prefix cache, a QoS
///   tenant split between rookie and long-running conversations);
/// * **disk-offload** — cold conversations go straight to the ~4 ms disk
///   tier, the conventional swap design;
/// * **local-only** — cold conversations are dropped and their whole
///   history is re-prefilled on the next turn.
///
/// Every engine overflows local memory at these rates; the difference is
/// where cold conversations land. Disk restores back up the whole service
/// queue, dropped conversations re-prefill entire histories, and the
/// tiered engine restores over the fabric in microseconds and serves
/// shared system prompts from its remote prefix cache.
pub(crate) fn ext_llm_serving() -> Vec<Table> {
    const POINTS: [(f64, usize); 4] = [(25.0, 300), (50.0, 600), (100.0, 1200), (200.0, 2400)];
    let mut table = Table::new(
        "Extension — LLM KV-cache serving: TTFT and throughput, tiered vs local-only vs disk-offload (§III)",
        &["lambda/s", "sessions", "tiered p50", "tiered p99", "local-only p99", "disk p99", "tiered tok/s", "disk tok/s", "prefix hits", "p99 vs disk"],
    );
    let results = par_map(POINTS.to_vec(), |_, (lambda, turns)| {
        [SpillPolicy::RemoteThenDisk, SpillPolicy::DropCold, SpillPolicy::DiskOnly]
            .map(|spill| serve(lambda, turns, spill))
    });
    let us = |d: SimDuration| format!("{:.1} us", d.as_micros_f64());
    for ((lambda, _), [tiered, drop, disk]) in POINTS.into_iter().zip(results) {
        let gap = disk.ttft_p99.as_nanos() as f64 / tiered.ttft_p99.as_nanos().max(1) as f64;
        table.row([
            format!("{lambda:.0}"),
            tiered.sessions.to_string(),
            us(tiered.ttft_p50),
            us(tiered.ttft_p99),
            us(drop.ttft_p99),
            us(disk.ttft_p99),
            format!("{:.0}", tiered.tokens_per_s),
            format!("{:.0}", disk.tokens_per_s),
            format!("{:.0}%", tiered.prefix_hit_rate * 100.0),
            format!("{gap:.1}x"),
        ]);
    }
    vec![table]
}

/// Objects allocated up front by an [`alloc_run`], in batched windows.
const ALLOCS: usize = 3000;
/// Steady-state ops an [`alloc_run`] replays after the fill.
const ALLOC_OPS: usize = 9000;

/// One op of the pre-generated schedule, replayed identically on both
/// granularities so transfer granularity is the only variable.
enum Op {
    /// Read the object at live-list position `i % live`.
    Get(usize),
    /// Overwrite it in place with fresh bytes of its current length.
    Update(usize),
    /// Free it and allocate a replacement of `len` bytes.
    Churn(usize, usize),
}

/// Object-size draw for one distribution.
fn draw_len(dist: &str, rng: &mut DetRng, zipf: &ZipfSampler) -> usize {
    match dist {
        // The paper's motivating case: a few dozen to a few hundred
        // bytes per object, dwarfed by a 4 KiB page.
        "uniform-small" => 16 + rng.below(240),
        // Zipf-popular ranks map to small objects, the tail to large
        // ones — a skewed heap like real object stores see.
        "zipf" => {
            const PALETTE: [usize; 9] = [30, 62, 126, 254, 510, 1022, 2046, 4094, 8190];
            PALETTE[zipf.sample(rng)]
        }
        // Mixed: mostly small, some mid classes, occasional multi-page
        // runs to exercise coalescing.
        _ => match rng.below(10) {
            0..=5 => 16 + rng.below(240),
            6..=8 => 256 + rng.below(1792),
            _ => 4096 + rng.below(12_288),
        },
    }
}

/// The deterministic fill and op schedule for one distribution —
/// generated once per run, identical on both granularities.
fn schedule(dist: &str) -> (Vec<Vec<u8>>, Vec<Op>) {
    let mut rng = DetRng::new(0xa110c).fork(dist);
    let zipf = ZipfSampler::new(9, 1.15);
    let fill = (0..ALLOCS)
        .map(|_| {
            let len = draw_len(dist, &mut rng, &zipf);
            (0..len).map(|i| (i as u8).wrapping_mul(31) ^ (rng.below(256) as u8)).collect()
        })
        .collect();
    let ops = (0..ALLOC_OPS)
        .map(|_| {
            let pick = rng.below(1 << 30);
            match rng.below(100) {
                // Read-heavy, like the far-memory workloads the paper
                // surveys.
                0..=54 => Op::Get(pick),
                55..=79 => Op::Update(pick),
                _ => Op::Churn(pick, draw_len(dist, &mut rng, &zipf)),
            }
        })
        .collect();
    (fill, ops)
}

/// What one [`alloc_run`] measured.
pub struct AllocRun {
    /// Bytes the fabric moved: control messages plus one-sided payloads.
    pub fabric_bytes: u64,
    /// Fetched bytes over useful bytes (the `alloc.*` family).
    pub amplification: f64,
    /// Total fragmentation, percent.
    pub frag_pct: f64,
    /// Thousands of ops per virtual second.
    pub kops_per_vs: f64,
}

/// Replays `dist`'s schedule through a fresh cluster and heap at
/// `granularity` and measures real fabric traffic around it.
pub fn alloc_run(dist: &str, granularity: Granularity) -> AllocRun {
    let (fill, ops) = schedule(dist);
    let dm = Arc::new(DisaggregatedMemory::new(exact_cluster()).expect("cluster"));
    let server = dm.servers()[0];
    let config = HeapConfig::new(granularity).with_pref(TierPreference::Remote);
    let mut heap = ObjectHeap::new(Arc::clone(&dm), server, config);
    heap.arm_telemetry(dm.metrics());

    // Everything the fabric moves: two-sided control messages plus the
    // one-sided RDMA READ/WRITE payloads the data path rides on.
    let fabric_bytes = |dm: &DisaggregatedMemory| {
        ["net.send.bytes", "net.recv.bytes", "net.write.bytes", "net.read.bytes"]
            .iter()
            .map(|key| dm.fabric().metrics().counter(key).get())
            .sum::<u64>()
    };
    let fabric_before = fabric_bytes(&dm);
    let t0 = dm.clock().now();

    // Fill in batched windows: object mode shares fabric round-trips
    // via the cluster's batched put verb.
    let mut addrs: Vec<u64> = Vec::with_capacity(fill.len());
    for window in fill.chunks(16) {
        addrs.extend(heap.alloc_many(window).expect("fill alloc"));
    }
    // Steady state: replay the op stream against the live list. The
    // current length of every object is tracked locally so updates stay
    // in-slot without an extra read (identical on both granularities).
    let mut lens: Vec<usize> = fill.iter().map(Vec::len).collect();
    let mut churn_tag = 0u8;
    for op in &ops {
        match op {
            Op::Get(pick) => {
                let bytes = heap.get(addrs[pick % addrs.len()]).expect("get");
                std::hint::black_box(bytes);
            }
            Op::Update(pick) => {
                let i = pick % addrs.len();
                let data = vec![churn_tag; lens[i].max(1)];
                churn_tag = churn_tag.wrapping_add(1);
                heap.update(addrs[i], &data).expect("update");
                lens[i] = data.len();
            }
            Op::Churn(pick, len) => {
                let i = pick % addrs.len();
                heap.free(addrs[i]).expect("free");
                let data = vec![churn_tag; *len];
                churn_tag = churn_tag.wrapping_add(1);
                addrs[i] = heap.alloc(&data).expect("realloc");
                lens[i] = *len;
            }
        }
    }

    let elapsed = dm.clock().now().duration_since(t0);
    let stats = heap.stats();
    AllocRun {
        fabric_bytes: fabric_bytes(&dm) - fabric_before,
        amplification: stats.fetched_bytes as f64 / (stats.useful_bytes as f64).max(1.0),
        frag_pct: stats.total_frag_pct(),
        kops_per_vs: (ALLOCS + ALLOC_OPS) as f64 / (elapsed.as_micros_f64() / 1e6) / 1e3,
    }
}

/// Extension: object vs page granularity — Clio's access-amplification
/// figure.
///
/// Paging-based disaggregation moves a whole 4 KB page over the fabric to
/// touch a few dozen bytes. The *same* deterministic allocation schedule
/// runs through two [`ObjectHeap`]s that share one dlmalloc-style
/// allocator and differ only in backing granularity: one cluster entry
/// per object (a read moves exactly the framed object, an update is a
/// pure write), or one per 4 KiB page image with read-modify-write. Per
/// object-size distribution: real fabric bytes (the fabric's own `net.*`
/// counters), access amplification, fragmentation and virtual-clock
/// throughput.
///
/// The page path drags a 4 KiB image through the fabric for every touch;
/// the object path moves exactly the framed object — the paper's
/// access-amplification gap, as real fabric byte counters.
pub(crate) fn ext_obj_alloc() -> Vec<Table> {
    const DISTRIBUTIONS: [&str; 3] = ["uniform-small", "zipf", "mixed"];
    let mut table = Table::new(
        "Extension — object vs page granularity: fabric bytes, amplification, fragmentation (Clio-style figure)",
        &["distribution", "objects", "ops", "obj fabric KiB", "page fabric KiB", "bytes ratio", "obj amp", "page amp", "obj frag", "page frag", "obj kops/vs", "page kops/vs"],
    );
    let results = par_map(DISTRIBUTIONS.to_vec(), |_, dist| {
        (alloc_run(dist, Granularity::Object), alloc_run(dist, Granularity::Page))
    });
    for (dist, (obj, page)) in DISTRIBUTIONS.into_iter().zip(results) {
        table.row([
            dist.to_owned(),
            ALLOCS.to_string(),
            ALLOC_OPS.to_string(),
            format!("{:.0}", obj.fabric_bytes as f64 / 1024.0),
            format!("{:.0}", page.fabric_bytes as f64 / 1024.0),
            format!("{:.1}x", page.fabric_bytes as f64 / (obj.fabric_bytes as f64).max(1.0)),
            format!("{:.2}x", obj.amplification),
            format!("{:.2}x", page.amplification),
            format!("{:.1}%", obj.frag_pct),
            format!("{:.1}%", page.frag_pct),
            format!("{:.1}", obj.kops_per_vs),
            format!("{:.1}", page.kops_per_vs),
        ]);
    }
    vec![table]
}

/// The crossover's working sets: one that fits every fast tier, and one
/// that overflows the CXL pool and the donated receive buffers but still
/// fits the NVM devices.
pub const WORKING_SETS: [(&str, u64); 2] = [("small", 256 * 1024), ("large", 8 * 1024 * 1024)];

/// The crossover's transports, each a tier preference that spills to
/// disk when its capacity runs out.
pub const BACKENDS: [(&str, TierPreference); 3] = [
    ("cxl", TierPreference::Cxl),
    ("rdma", TierPreference::Remote),
    ("nvm", TierPreference::Nvm),
];

/// Average read latency (virtual ns) of one fill-then-read pass of `ws`
/// bytes in `gran`-byte entries through one tier preference.
pub fn crossover_run(pref: TierPreference, ws: u64, gran: usize) -> u64 {
    // `exact_cluster` with 4 × 512 KiB of CXL pool, 1 MiB of receive
    // buffer per node (remote entries are triple-replicated) and 16 MiB
    // NVM devices that hold the large working set whole.
    let base = exact_cluster();
    let config = ClusterConfig {
        node: NodeConfig {
            recv_pool: ByteSize::from_mib(1),
            nvm_pool: ByteSize::from_mib(16),
            ..base.node
        },
        cxl: CxlPoolConfig::new(4, ByteSize::from_kib(512)),
        ..base
    };
    // Payloads derive from a per-pass salt, so the read pass can verify
    // every byte without storing the fill.
    let salt = DetRng::new(0xc805).fork(&format!("{pref:?}/{ws}/{gran}")).below(1 << 62) as u64;
    let payload = |key: u64| -> Vec<u8> {
        let seed = salt ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (0..gran)
            .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8)
            .collect()
    };
    let entries = (ws / gran as u64).max(1);
    let dm = DisaggregatedMemory::new(config).expect("cluster");
    let server = dm.servers()[0];
    for key in 0..entries {
        dm.put_pref(server, key, payload(key), pref).expect("fill");
    }
    let t0 = dm.clock().now();
    for key in 0..entries {
        let got = dm.get(server, key).expect("read");
        assert_eq!(got, payload(key), "payload integrity at key {key}");
    }
    dm.clock().now().duration_since(t0).as_nanos() / entries
}

/// Extension (§VI): the RDMA / CXL / NVM crossover.
///
/// RDMA pays a microsecond verb floor but streams large transfers at full
/// link bandwidth; a CXL memory pool does cacheline load/stores a few
/// hundred nanoseconds away but its per-line framing drags on bulk moves;
/// local NVM is slower per byte than either yet holds working sets that
/// blow past a pool or a donated receive buffer. The same deterministic
/// fill-then-read schedule runs through three clusters that differ only
/// in tier preference, over working set × access granularity; each cell
/// is average read latency on the virtual clock and names its winner.
///
/// CXL's sub-microsecond line transfers win small-granularity cells,
/// RDMA's bandwidth amortizes its verb floor on bulk 64 KiB moves, and
/// once the working set overflows both the pool and the receive buffers,
/// their reads degrade to the disk spill path while NVM — slower per byte,
/// but big enough — wins on capacity: no transport dominates.
pub(crate) fn ext_crossover() -> Vec<Table> {
    const GRANULARITIES: [usize; 3] = [64, 4096, 65536];
    let mut table = Table::new(
        "Extension — RDMA vs CXL vs NVM crossover: average read latency by working set x granularity (§VI figure)",
        &["working set", "granularity", "entries", "cxl us", "rdma us", "nvm us", "winner"],
    );
    let cells: Vec<((&str, u64), usize)> = WORKING_SETS
        .into_iter()
        .flat_map(|ws| GRANULARITIES.map(|gran| (ws, gran)))
        .collect();
    let results = par_map(cells.clone(), |_, ((_, ws), gran)| {
        BACKENDS.map(|(_, pref)| crossover_run(pref, ws, gran))
    });
    let us = |ns: u64| format!("{:.2}", ns as f64 / 1e3);
    for (((name, ws), gran), lat) in cells.into_iter().zip(results) {
        let winner = (0..3).min_by_key(|&b| lat[b]).expect("three backends");
        table.row([
            format!("{name} ({} KiB)", ws / 1024),
            format!("{gran} B"),
            (ws / gran as u64).max(1).to_string(),
            us(lat[0]),
            us(lat[1]),
            us(lat[2]),
            BACKENDS[winner].0.to_owned(),
        ]);
    }
    vec![table]
}

/// `reports` as a `fig4_rack` table titled `title`, one row each.
pub fn rack_table(title: &str, reports: &[RackReport]) -> Table {
    let mut table = Table::new(
        title,
        &["hosts", "shards", "accesses", "hits", "remote_reads", "writebacks", "failovers", "probes", "cross_msgs", "epochs", "fault_p50_ns", "fault_p99_ns", "digest"],
    );
    for r in reports {
        table.row([
            r.hosts.to_string(),
            r.shards.to_string(),
            r.accesses.to_string(),
            r.hits.to_string(),
            r.remote_reads.to_string(),
            r.writebacks.to_string(),
            r.failovers.to_string(),
            r.probes.to_string(),
            r.cross_messages.to_string(),
            r.epochs.to_string(),
            r.fault_p50_ns.to_string(),
            r.fault_p99_ns.to_string(),
            r.digest.clone(),
        ]);
    }
    table
}

/// Rack-scale remote paging on the sharded engine (the Fig. 4 scenario
/// at DRackSim scale).
///
/// `memory_disaggregation::rack` runs 256, 512 and 1024 hosts — 50-200×
/// the host counts of the chaos and figure harnesses — with bounded
/// frame caches faulting checksummed pages from replicated remote memory,
/// dirty writeback, outage windows, read failover and suspect probing.
/// Every cell is virtual, so the table is byte-identical at every worker
/// count. Cross-shard messages grow linearly with hosts while the epoch
/// count stays flat: the barrier cost is a function of the virtual
/// horizon, not of scale.
pub(crate) fn fig4_rack() -> Vec<Table> {
    let reports = [256, 512, 1024].map(|hosts| run_rack(&RackConfig::rack_default(hosts), bench_jobs()));
    vec![rack_table("fig4_rack — rack-scale remote paging, sharded engine", &reports)]
}
