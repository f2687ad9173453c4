//! `dmem-top`: a text telemetry report for the simulated cluster, in the
//! spirit of `top`/`iostat` for disaggregated memory.
//!
//! Default mode runs the fig4 remote-overflow scenario (LogisticRegression
//! @50%, shared pool full, 3.0x-compressible pages) with the tracer
//! enabled and prints:
//!
//!   * where simulated time went, per component (exclusive self time);
//!   * per-tier latency histograms and operation counters;
//!   * span counts per category.
//!
//! Pinned byte-for-byte by `results/dmem_top.txt`.
//!
//! `--trace-out FILE` / `--metrics-out FILE` additionally export the
//! Chrome-trace JSON (+ `.jsonl` sibling) and the digest text.
//!
//! `--qos` attributes the run to named tenants (the swap traffic becomes
//! the high-priority `paging` tenant) and appends per-tenant rows —
//! residency vs quota, priority, throttle level — plus the QoS decision
//! digest. Without the flag the report is byte-identical to the plain
//! tool.
//!
//! The remaining flags each name one more report section. Any
//! combination may be given; requested sections print in the order
//! below, separated by a blank line, and replace the plain default
//! report (pass `--qos` as well to keep the fig4 section in front).
//!
//! `--kv` reports on the tiered LLM KV-cache engine: it serves
//! a deterministic conversation stream through `TieredKvEngine` and
//! prints per-tier KV occupancy (conversations and bytes in local,
//! remote and disk, plus the prefix cache), serving counters, the
//! prefix-hit rate and the demotion digest. Byte-identical across
//! machines and reruns.
//!
//! `--timeline` prints the rack smoke scenario's merged
//! per-window metric timeline as sparkline rows (one per counter /
//! histogram series) — `top`'s history strip for the virtual rack.
//!
//! `--alerts` replays a chaos `--faults` seed and prints the
//! deterministic alert log: burn-rate / retry-storm / suspect-churn
//! firing and resolved edges with their FNV digest.
//!
//! `--alloc` replays one deterministic object-heap schedule at
//! both backing granularities and prints the allocator's amplification
//! and fragmentation accounting plus the armed `alloc.*` counter
//! family — `top` for the far-memory heap.
//!
//! `--cxl` drives one deterministic schedule through the CXL
//! pooled-memory tier — PGAS puts, remote fetch-add/CAS cells, a
//! pool-node outage window replayed against the disk shadow — and
//! prints per-pool-node occupancy, the atomic cells, and the armed
//! `cxl.*` counter family.
//!
//! `--all` is every flag above at once — qos report, KV report,
//! timeline, alerts, allocator, CXL pool — and is pinned byte-for-byte
//! by `results/dmem_top_all.txt`, which pins each of those flags run on
//! its own as well: its sections are their outputs, joined by a blank
//! line.
//!
//! `--check-trace FILE` instead validates a previously exported
//! Chrome-trace JSON: it must parse, be shaped like the trace-event
//! format, and contain spans from at least four simulation layers. Used
//! by `ci.sh` to gate the default report's `--trace-out` artifact. Exits
//! nonzero on failure.

use dmem_bench::figures::{fig4_engine, fig4_remote_scale};
use dmem_bench::TelemetryArgs;
use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_kv::{LlmCostModel, SpillPolicy, TieredKvConfig, TieredKvEngine};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{jsonlite, sparkline, DetRng, SimDuration};
use memory_disaggregation::chaos::run_seed;
use memory_disaggregation::rack::{run_rack, RackConfig, TIMELINE_WINDOW};
use memory_disaggregation::sim::chaos::ChaosConfig;
use dmem_types::{ByteSize, CompressionMode, CxlPoolConfig};
use dmem_workloads::conversation::MAX_TURNS;
use dmem_workloads::{ConversationConfig, ConversationStream};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Layers a healthy full-stack trace must cover (at least [`MIN_LAYERS`]).
const EXPECTED_CATEGORIES: [&str; 6] = ["cluster", "compress", "core", "net", "rdd", "swap"];
/// Minimum distinct expected categories for `--check-trace` to pass.
const MIN_LAYERS: usize = 4;

fn check_trace(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = jsonlite::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(jsonlite::Value::as_array)
        .ok_or_else(|| format!("{path}: missing traceEvents array"))?;
    if events.is_empty() {
        return Err(format!("{path}: traceEvents is empty"));
    }
    let mut per_category: BTreeMap<String, usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "cat", "ph"] {
            if ev.get(key).and_then(jsonlite::Value::as_str).is_none() {
                return Err(format!("{path}: event {i} lacks string field {key:?}"));
            }
        }
        if ev.get("ts").and_then(jsonlite::Value::as_f64).is_none() {
            return Err(format!("{path}: event {i} lacks numeric ts"));
        }
        let cat = ev.get("cat").and_then(jsonlite::Value::as_str).unwrap();
        *per_category.entry(cat.to_owned()).or_insert(0) += 1;
    }
    let covered: Vec<&str> = EXPECTED_CATEGORIES
        .iter()
        .copied()
        .filter(|c| per_category.contains_key(*c))
        .collect();
    if covered.len() < MIN_LAYERS {
        return Err(format!(
            "{path}: only {}/{} expected layers present ({covered:?}); need {MIN_LAYERS}",
            covered.len(),
            EXPECTED_CATEGORIES.len()
        ));
    }
    let mut report = format!(
        "{path}: OK — {} events, {}/{} expected layers covered\n",
        events.len(),
        covered.len(),
        EXPECTED_CATEGORIES.len()
    );
    for (cat, n) in &per_category {
        writeln!(report, "  {cat:>10}  {n} spans").unwrap();
    }
    Ok(report)
}

fn run_report(telemetry: &TelemetryArgs, qos: bool) -> String {
    // The fig4 (a) scenario at 3.0x: small shared pool that fills
    // immediately, overflow absorbed by a tight remote tier.
    let (mut engine, accesses) = fig4_engine(&fig4_remote_scale(), 3.0);
    // `--qos`: attribute the run to named tenants so the report grows
    // per-tenant rows and `qos.*` metric keys. Off by default, keeping
    // the plain report byte-identical to the pre-QoS tool.
    if qos {
        if let Some(dm) = engine.cluster() {
            let qos_engine = std::sync::Arc::new(QosEngine::new(QosConfig::default()));
            let paging = qos_engine.register_tenant(
                TenantSpec::new("paging", 200, ByteSize::from_mib(8))
                    .with_slo_p99(SimDuration::from_millis(1)),
            );
            let batch = qos_engine
                .register_tenant(TenantSpec::new("batch", 20, ByteSize::from_mib(1)));
            for (i, server) in dm.servers().into_iter().enumerate() {
                qos_engine.assign_server(*server, if i == 0 { paging } else { batch });
            }
            dm.install_qos(qos_engine);
        }
    }
    engine.clock().tracer().enable();
    let (stats, completion) = engine.run(accesses).unwrap();
    engine.clock().tracer().disable();
    let trace = engine.clock().tracer().finish();
    telemetry.write_trace(&trace);

    let mut out = String::new();
    writeln!(out, "dmem-top — {} (virtual time)", engine.system_name()).unwrap();
    writeln!(
        out,
        "run: LogisticRegression @50%, shared pool full, overflow to remote, 3.0x pages"
    )
    .unwrap();
    writeln!(
        out,
        "completion: {:.1} ms   faults: {} major / {} minor   spans: {}",
        completion.as_nanos() as f64 / 1e6,
        stats.major_faults,
        stats.minor_faults,
        trace.spans.len()
    )
    .unwrap();

    writeln!(out, "\n{}", trace.attribution(completion)).unwrap();

    let mut per_category: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &trace.spans {
        *per_category.entry(s.category).or_insert(0) += 1;
    }
    writeln!(out, "spans by layer:").unwrap();
    for (cat, n) in &per_category {
        writeln!(out, "  {cat:>10}  {n}").unwrap();
    }

    if let Some(dm) = engine.cluster() {
        writeln!(out, "\n{}", dm.metrics()).unwrap();
        if let Some(qos_engine) = dm.qos() {
            writeln!(out, "tenants (qos):").unwrap();
            write!(out, "{}", qos_engine.report()).unwrap();
            writeln!(out, "qos decisions: {}", qos_engine.decision_digest()).unwrap();
        }
    }
    out
}

/// The `--kv` report: a fixed tiered-serving scenario, then per-tier
/// occupancy and prefix-reuse telemetry — `top` for conversation KV state.
fn run_kv_report() -> String {
    let config = dmem_types::ClusterConfig::small();
    let dm = std::sync::Arc::new(DisaggregatedMemory::new(config).unwrap());
    let servers = dm.servers();
    let (rookie, veteran) = (servers[0], servers[1]);
    let mut engine = TieredKvEngine::with_servers(
        dm.clone(),
        rookie,
        veteran,
        TieredKvConfig {
            local_capacity: ByteSize::from_kib(512),
            remote_capacity: ByteSize::from_mib(4),
            prefix_cache_capacity: ByteSize::from_kib(320),
            spill: SpillPolicy::RemoteThenDisk,
            cost: LlmCostModel {
                kv_bytes_per_token: 64,
                ..LlmCostModel::default()
            },
        },
    );

    const TURNS: usize = 400;
    let stream = ConversationStream::new(ConversationConfig::default(), 11);
    for event in stream.take(TURNS) {
        engine
            .begin_turn(
                event.session,
                event.turn,
                event.prefix_id,
                event.context_tokens,
                event.prompt_tokens,
            )
            .unwrap();
        engine
            .end_turn(event.session, event.prompt_tokens + event.output_tokens)
            .unwrap();
        if event.turn + 1 >= MAX_TURNS {
            engine.retire(event.session);
        }
    }

    let stats = engine.stats();
    let occ = engine.occupancy();
    let mut out = String::new();
    writeln!(out, "dmem-top — tiered KV serving (virtual time)").unwrap();
    writeln!(
        out,
        "run: conversation stream seed 11, {TURNS} turns, local 512 KiB, remote 4 MiB"
    )
    .unwrap();
    writeln!(
        out,
        "turns: {}   conversations: {}   retired: {}",
        stats.turns,
        stats.conversations,
        stats.conversations as usize
            - (occ.local_convs + occ.remote_convs + occ.disk_convs)
    )
    .unwrap();

    writeln!(out, "
kv tiers (occupancy):").unwrap();
    let row = |out: &mut String, tier: &str, convs: usize, bytes: u64| {
        writeln!(out, "  {tier:>8}  {convs:>5} convs  {:>12}", ByteSize::new(bytes).to_string())
            .unwrap();
    };
    row(&mut out, "local", occ.local_convs, occ.local_bytes);
    row(&mut out, "remote", occ.remote_convs, occ.remote_bytes);
    row(&mut out, "disk", occ.disk_convs, occ.disk_bytes);
    writeln!(
        out,
        "  {:>8}  {:>5} cached {:>12}",
        "prefixes",
        occ.prefix_entries,
        ByteSize::new(occ.prefix_bytes).to_string()
    )
    .unwrap();

    writeln!(out, "
kv serving:").unwrap();
    writeln!(out, "  local hits        {:>6}", stats.local_hits).unwrap();
    writeln!(out, "  remote fetches    {:>6}", stats.remote_fetches).unwrap();
    writeln!(out, "  disk fetches      {:>6}", stats.disk_fetches).unwrap();
    writeln!(out, "  recomputes        {:>6}", stats.recomputes).unwrap();
    writeln!(out, "  demote -> remote  {:>6}", stats.demote_to_remote).unwrap();
    writeln!(out, "  demote -> disk    {:>6}", stats.demote_to_disk).unwrap();
    writeln!(
        out,
        "  prefix hit rate   {:>6}  ({} hits / {} misses, {} evicted)",
        format!("{:.1}%", stats.prefix_hit_rate() * 100.0),
        stats.prefix_hits,
        stats.prefix_misses,
        stats.prefix_evictions
    )
    .unwrap();
    writeln!(out, "kv demotions: {}", engine.demotion_digest()).unwrap();

    writeln!(out, "
{}", dm.metrics()).unwrap();
    out
}

/// The `--timeline` report: runs the rack smoke scenario and renders its
/// merged per-window metric timeline as one sparkline row per series.
/// Worker count never changes the merged timeline, so the output is
/// byte-identical across machines and `bench_jobs` values.
fn run_timeline_report() -> String {
    let report = run_rack(&RackConfig::smoke(), dmem_bench::bench_jobs());
    let timeline = &report.timeline;
    let mut out = String::new();
    writeln!(out, "dmem-top — rack timeline (virtual time)").unwrap();
    writeln!(
        out,
        "run: rack smoke, {} hosts / {} shards, {} windows of {} ns",
        report.hosts,
        report.shards,
        timeline.windows.len(),
        TIMELINE_WINDOW.as_nanos()
    )
    .unwrap();
    for (name, is_histogram) in timeline.series_names() {
        if is_histogram {
            let p99 = timeline.p99_series(&name);
            let total: u64 = timeline.count_series(&name).iter().sum();
            writeln!(
                out,
                "  {name:<26} {} p99<= {} ns, n={total}",
                sparkline(&p99),
                p99.iter().copied().max().unwrap_or(0)
            )
            .unwrap();
        } else {
            let series = timeline.counter_series(&name);
            let total: u64 = series.iter().sum();
            writeln!(out, "  {name:<26} {} total={total}", sparkline(&series)).unwrap();
        }
    }
    out
}

/// The `--alerts` report: replays one chaos `--faults` seed and prints
/// the alert engine's firing/resolved edges with their digest — the
/// exact log `chaos --faults` emits per clean seed.
fn run_alerts_report() -> String {
    let config = ChaosConfig {
        fabric_faults: true,
        ..ChaosConfig::default()
    };
    let mut out = String::new();
    writeln!(out, "dmem-top — chaos alert log (virtual time)").unwrap();
    writeln!(
        out,
        "run: chaos --faults seed 0x0, default schedule, 50 ms windows"
    )
    .unwrap();
    match run_seed(0, &config) {
        Ok(stats) => {
            writeln!(
                out,
                "alerts: {} ({} windows)",
                stats.alert_digest, stats.telemetry_windows
            )
            .unwrap();
            for line in &stats.alert_log {
                writeln!(out, "  {line}").unwrap();
            }
        }
        Err(report) => {
            writeln!(out, "UNEXPECTED VIOLATION:").unwrap();
            writeln!(out, "{report}").unwrap();
        }
    }
    out
}

/// The `--alloc` report: the same DetRng schedule replayed through an
/// [`ObjectHeap`] at object and page backing granularity, reduced to
/// the allocator's amplification / fragmentation accounting plus the
/// armed `alloc.*` counter family — `top` for the far-memory heap.
fn run_alloc_report() -> String {
    use memory_disaggregation::alloc::{Granularity, HeapConfig, ObjectHeap};

    const OPS: usize = 160;
    let run = |granularity: Granularity| {
        let mut config = dmem_types::ClusterConfig::small();
        // Exact byte accounting: stored length equals framed length.
        config.compression = CompressionMode::Off;
        let dm = std::sync::Arc::new(DisaggregatedMemory::new(config).unwrap());
        let server = dm.servers()[0];
        let mut heap = ObjectHeap::new(dm.clone(), server, HeapConfig::new(granularity));
        heap.arm_telemetry(dm.metrics());
        let mut rng = DetRng::new(0xa110c).fork("dmem_top.alloc");
        let mut live: Vec<u64> = Vec::new();
        for op in 0..OPS {
            let roll = rng.unit();
            if live.is_empty() || roll < 0.45 {
                let len = match rng.below(8) {
                    0..=4 => 16 + rng.below(240),
                    5..=6 => 256 + rng.below(1792),
                    _ => 4097 + rng.below(8192),
                };
                let data: Vec<u8> =
                    (0..len).map(|i| (op as u8).wrapping_add(i as u8)).collect();
                live.push(heap.alloc(&data).unwrap());
            } else if roll < 0.60 {
                let idx = rng.below(live.len());
                heap.free(live.swap_remove(idx)).unwrap();
            } else {
                let addr = live[rng.below(live.len())];
                heap.get(addr).unwrap();
            }
        }
        (heap.stats(), dm)
    };

    let (obj_stats, obj_dm) = run(Granularity::Object);
    let (page_stats, _page_dm) = run(Granularity::Page);

    let mut out = String::new();
    writeln!(out, "dmem-top — object allocator (virtual time)").unwrap();
    writeln!(
        out,
        "run: DetRng 0xa110c, {OPS} ops, object vs page backing on one server"
    )
    .unwrap();
    writeln!(out, "
heap accounting:").unwrap();
    writeln!(
        out,
        "  {:<8} {:>12} {:>12} {:>12} {:>8} {:>9} {:>9}",
        "backing", "live", "slot", "reserved", "amp", "int frag", "tot frag"
    )
    .unwrap();
    for stats in [&obj_stats, &page_stats] {
        writeln!(
            out,
            "  {:<8} {:>12} {:>12} {:>12} {:>7.2}x {:>8.1}% {:>8.1}%",
            stats.granularity.label(),
            ByteSize::new(stats.live_bytes).to_string(),
            ByteSize::new(stats.slot_bytes).to_string(),
            ByteSize::new(stats.reserved_bytes).to_string(),
            stats.amplification(),
            stats.internal_frag_pct(),
            stats.total_frag_pct(),
        )
        .unwrap();
    }

    writeln!(out, "
alloc.* counters (object heap, armed registry):").unwrap();
    for (name, value) in obj_dm.metrics().counter_snapshot() {
        if name.starts_with("alloc.") {
            writeln!(out, "  {name:<28} {value:>12}").unwrap();
        }
    }
    for (name, value) in obj_dm.metrics().gauge_snapshot() {
        if name.starts_with("alloc.") {
            writeln!(out, "  {name:<28} {value:>12}").unwrap();
        }
    }
    writeln!(
        out,
        "ops: alloc {} / free {} / get {} / update {}",
        obj_stats.ops.alloc, obj_stats.ops.free, obj_stats.ops.get, obj_stats.ops.update
    )
    .unwrap();
    out
}

/// The `--cxl` report: one DetRng schedule against the CXL pooled
/// tier — PGAS puts through `TierPreference::Cxl`, a handful of remote
/// fetch-add / CAS cells, then a pool-node outage window replayed
/// against the write-behind disk shadow — reduced to per-pool-node
/// occupancy, the atomic cells and the `cxl.*` counter family.
fn run_cxl_report() -> String {
    const PUTS: u64 = 48;
    const SLOTS: usize = 3;
    const OUTAGE_NODE: u16 = 1;

    let mut config = dmem_types::ClusterConfig::small();
    // Exact byte accounting in the occupancy rows: stored length equals
    // framed length, no compression residue.
    config.compression = CompressionMode::Off;
    config.cxl = CxlPoolConfig::new(4, ByteSize::from_kib(256));
    let dm = std::sync::Arc::new(DisaggregatedMemory::new(config).unwrap());
    let server = dm.servers()[0];
    let pool = dm.cxl_pool().expect("cxl tier enabled").clone();

    // Deterministic payloads: the outage replay re-reads every key and
    // verifies the shadow copy byte-for-byte.
    let payload = |key: u64, len: usize| -> Vec<u8> {
        (0..len)
            .map(|i| (key.wrapping_mul(0x9e37).wrapping_add(i as u64) >> 5) as u8)
            .collect()
    };
    let mut rng = DetRng::new(0xc81).fork("dmem_top.cxl");
    let mut lens: Vec<usize> = Vec::new();
    for key in 0..PUTS {
        let len = match rng.below(4) {
            0 => 64 + rng.below(192),
            1..=2 => 512 + rng.below(1536),
            _ => 4096 + rng.below(4096),
        };
        dm.put_pref(server, key, payload(key, len), TierPreference::Cxl)
            .unwrap();
        lens.push(len);
    }

    // Remote atomics: a few counter cells hammered with fetch-adds,
    // then one CAS handoff on slot 0.
    let cells: Vec<_> = (0..SLOTS)
        .map(|slot| pool.alloc_counter(0x510_7000 ^ slot as u64).unwrap())
        .collect();
    for _ in 0..24 {
        let slot = rng.below(SLOTS);
        pool.fetch_add(cells[slot], 1 + rng.below(9) as u64).unwrap();
    }
    let observed = pool.counter_value(cells[0]).unwrap();
    let swapped = pool.cas(cells[0], observed, observed * 2).unwrap() == observed;

    // Outage window: every read still lands (shadow failover), byte-exact.
    pool.set_pool_node_down(OUTAGE_NODE);
    for key in 0..PUTS {
        let got = dm.get(server, key).unwrap();
        assert_eq!(got, payload(key, lens[key as usize]), "shadow read at key {key}");
    }
    let shadow_reads = dm.metrics().counter("cxl.failover.reads").get();
    pool.set_pool_node_up(OUTAGE_NODE);

    let mut out = String::new();
    writeln!(out, "dmem-top — CXL memory pool (virtual time)").unwrap();
    writeln!(
        out,
        "run: DetRng 0xc81, {PUTS} PGAS puts, {SLOTS} atomic cells, pool-{OUTAGE_NODE} outage replay"
    )
    .unwrap();

    writeln!(out, "\ncxl pool (occupancy):").unwrap();
    for (node, used, down) in pool.occupancy() {
        writeln!(
            out,
            "  pool-{node}  {:>12} of {:>12}  {}",
            ByteSize::new(used).to_string(),
            pool.capacity_per_node().to_string(),
            if down { "DOWN" } else { "up" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "  {:>6}  {:>12} of {:>12}",
        "total",
        pool.used_total().to_string(),
        ByteSize::new(pool.capacity_per_node().as_u64() * u64::from(pool.pool_nodes()))
            .to_string()
    )
    .unwrap();

    writeln!(out, "\nremote atomics:").unwrap();
    for (slot, addr) in cells.iter().enumerate() {
        writeln!(
            out,
            "  slot {slot}  pool-{}  value {:>4}  rmw ops {:>3}",
            addr.pool_node(),
            pool.counter_value(*addr).unwrap(),
            pool.counter_ops(*addr)
        )
        .unwrap();
    }
    writeln!(
        out,
        "  cas handoff on slot 0: {}",
        if swapped { "installed" } else { "lost the race" }
    )
    .unwrap();

    writeln!(
        out,
        "\noutage replay: {PUTS} reads during pool-{OUTAGE_NODE} outage, {shadow_reads} served from the disk shadow, all byte-exact"
    )
    .unwrap();

    writeln!(out, "\ncxl.* counters (registry):").unwrap();
    for (name, value) in dm.metrics().counter_snapshot() {
        if name.starts_with("cxl.") {
            writeln!(out, "  {name:<28} {value:>12}").unwrap();
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check-trace") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--check-trace needs a file argument");
            return ExitCode::FAILURE;
        };
        return match check_trace(path) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("check-trace FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // One ordered table of report sections. `--all` is every flag set;
    // with no section flag the report is the plain (tenant-less) base
    // report. Each section is independently deterministic, so any
    // concatenation is too (`--all` is pinned by results/dmem_top_all.txt).
    type Section = fn(&TelemetryArgs) -> String;
    const SECTIONS: [(&str, Section); 6] = [
        ("--qos", |telemetry| run_report(telemetry, true)),
        ("--kv", |_| run_kv_report()),
        ("--timeline", |_| run_timeline_report()),
        ("--alerts", |_| run_alerts_report()),
        ("--alloc", |_| run_alloc_report()),
        ("--cxl", |_| run_cxl_report()),
    ];
    let requested = |flag: &str| args.iter().any(|a| a == flag || a == "--all");
    let telemetry = TelemetryArgs::parse(args.iter().cloned());
    let mut sections: Vec<String> = SECTIONS
        .iter()
        .filter(|(flag, _)| requested(flag))
        .map(|(_, section)| section(&telemetry))
        .collect();
    if sections.is_empty() {
        sections.push(run_report(&telemetry, false));
    }
    let report = sections.join("\n");
    print!("{report}");
    telemetry.write_metrics(&report);
    ExitCode::SUCCESS
}
