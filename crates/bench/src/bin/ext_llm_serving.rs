//! Extension (§III): LLM KV-cache serving on disaggregated memory.
//!
//! The paper's killer-app argument — memory capacity is the binding
//! resource and a fast fabric turns "doesn't fit" into "fits, at
//! microsecond cost" — maps directly onto LLM serving: per-conversation
//! KV-cache state outgrows any single host, and what the server does
//! with cold conversations decides the tail. This experiment drives the
//! same deterministic open-loop conversation stream
//! ([`ConversationStream`]) through three engines that differ only in
//! their spill policy:
//!
//! * **tiered** — `TieredKvEngine` over disaggregated memory (local →
//!   remote → disk, batched fabric verbs, remote prefix cache, QoS
//!   tenant split between rookie and long-running conversations);
//! * **disk-offload** — cold conversations go straight to the ~4 ms
//!   disk tier, the conventional swap design;
//! * **local-only** — cold conversations are dropped and their whole
//!   history is re-prefilled on the next turn.
//!
//! Reported per arrival rate: p50/p99 time-to-first-token (arrival →
//! first generated token, queueing included — an overloaded restore
//! path backs up the whole server) and generated tokens per virtual
//! second.
//!
//! Modes:
//!
//! * default — full sweep, writes `results/ext_llm_serving.csv`;
//! * `--smoke` — reduced CI-sized sweep, writes
//!   `results/ext_llm_serving_smoke.csv`; both modes self-assert the
//!   acceptance bound (tiered p99 TTFT ≥ 5x better than disk-offload at
//!   the largest session count) and exit nonzero on failure;
//! * `--perf [--check]` — wall-clock of the three engines at a fixed
//!   scale, recorded as `results/BENCH_llm.json`; with `--check`, fail
//!   on a > 3x regression against that committed ledger instead.
//!
//! Run with: `cargo run --release -p dmem-bench --bin ext_llm_serving`

use dmem_bench::perf::{record_or_check, timed, Row};
use dmem_bench::{par_map, Table};
use dmem_core::DisaggregatedMemory;
use dmem_kv::{LlmCostModel, SpillPolicy, TieredKvConfig, TieredKvEngine};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{SimDuration, SimInstant};
use dmem_types::{ByteSize, ClusterConfig, NodeConfig, ServerConfig};
use dmem_workloads::{ConversationConfig, ConversationStream};
use std::process::ExitCode;
use std::sync::Arc;

/// Sweep dimensions; `--smoke` shrinks them for the CI golden check.
struct Scale {
    /// `(lambda, turns)` pairs: arrival rate and stream length grow
    /// together, so later rows mean more sessions under more load.
    points: &'static [(f64, usize)],
    csv_name: &'static str,
}

const FULL: Scale = Scale {
    points: &[(25.0, 300), (50.0, 600), (100.0, 1200), (200.0, 2400)],
    csv_name: "ext_llm_serving",
};

const SMOKE: Scale = Scale {
    points: &[(50.0, 300), (200.0, 600)],
    csv_name: "ext_llm_serving_smoke",
};

const WORKLOAD_SEED: u64 = 11;

/// A serving host whose fast tiers are deliberately small against the
/// stream's live KV state, so every policy must spill continuously —
/// the regime where the three designs separate.
fn serving_cluster() -> ClusterConfig {
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

fn engine_config(spill: SpillPolicy) -> TieredKvConfig {
    TieredKvConfig {
        // ~12 hot conversations; the stream keeps ~2-3x more live.
        local_capacity: ByteSize::from_kib(1536),
        remote_capacity: ByteSize::from_mib(12),
        // All 8 system prompts fit (512 tokens x 64 B each).
        prefix_cache_capacity: ByteSize::from_kib(320),
        spill,
        long_running_turns: 3,
        // 64 B of KV per token; prefill at 20 us/token makes a
        // recomputed 2k-token history cost ~40 ms of compute — the
        // price the local-only design pays per cold hit.
        cost: LlmCostModel {
            kv_bytes_per_token: 64,
            prefill_per_token: SimDuration::from_micros(20),
            ..LlmCostModel::default()
        },
    }
}

struct ServingResult {
    sessions: u64,
    ttft_p50: SimDuration,
    ttft_p99: SimDuration,
    tokens_per_s: f64,
    prefix_hit_rate: f64,
}

/// Serves `turns` events of the conversation stream at `lambda` through
/// one engine and measures TTFT (arrival → first generated token) and
/// generated-token throughput, all on the virtual clock.
fn serve(lambda: f64, turns: usize, spill: SpillPolicy) -> ServingResult {
    let dm = Arc::new(DisaggregatedMemory::new(serving_cluster()).unwrap());
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
    let rookies =
        qos.register_tenant(TenantSpec::new("rookie-convs", 10, ByteSize::from_mib(2)));
    qos.assign_server(rookie, rookies);
    dm.install_qos(qos);

    let mut engine = TieredKvEngine::with_servers(dm.clone(), rookie, veteran, engine_config(spill));
    let clock = dm.clock().clone();
    let t_start = clock.now();

    let config = ConversationConfig {
        lambda_rate: lambda,
        ..ConversationConfig::default()
    };
    let max_turns = config.max_turns;
    let stream = ConversationStream::new(config, WORKLOAD_SEED);

    let mut ttfts: Vec<SimDuration> = Vec::with_capacity(turns);
    let mut output_tokens = 0u64;
    for (i, event) in stream.take(turns).enumerate() {
        // Open loop: the request arrives on the stream's schedule; if the
        // server is still busy the difference is queueing delay and it
        // counts against TTFT.
        let arrival: SimInstant = t_start + event.at;
        clock.advance_to(arrival);
        engine
            .begin_turn(
                event.session,
                event.turn,
                event.prefix_id,
                event.context_tokens,
                event.prompt_tokens,
            )
            .unwrap();
        clock.advance(engine.cost().decode(1)); // first token out
        ttfts.push(clock.now() - arrival);
        if event.output_tokens > 1 {
            clock.advance(engine.cost().decode(event.output_tokens - 1));
        }
        output_tokens += u64::from(event.output_tokens);
        engine
            .end_turn(event.session, event.prompt_tokens + event.output_tokens)
            .unwrap();
        if event.turn + 1 >= max_turns {
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

fn sweep(scale: &Scale) -> ExitCode {
    let mut table = Table::new(
        "Extension — LLM KV-cache serving: TTFT and throughput, tiered vs local-only vs disk-offload (§III)",
        &[
            "lambda/s",
            "sessions",
            "tiered p50",
            "tiered p99",
            "local-only p99",
            "disk p99",
            "tiered tok/s",
            "disk tok/s",
            "prefix hits",
            "p99 vs disk",
        ],
    );
    let results = par_map(scale.points.to_vec(), |_, (lambda, turns)| {
        (
            serve(lambda, turns, SpillPolicy::RemoteThenDisk),
            serve(lambda, turns, SpillPolicy::DropCold),
            serve(lambda, turns, SpillPolicy::DiskOnly),
        )
    });
    let us = |d: SimDuration| format!("{:.1} us", d.as_micros_f64());
    let mut last_gap = 0.0f64;
    for ((lambda, _), (tiered, drop, disk)) in scale.points.iter().zip(&results) {
        let gap = disk.ttft_p99.as_nanos() as f64 / tiered.ttft_p99.as_nanos().max(1) as f64;
        last_gap = gap;
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
    table.emit(scale.csv_name);

    println!("\nReading: every engine overflows local memory at these rates; the difference");
    println!("is where cold conversations land. Disk restores cost ~4 ms and back up the");
    println!("whole service queue; dropped conversations re-prefill entire histories; the");
    println!("tiered engine restores over the fabric in microseconds with batched verbs");
    println!("and serves shared system prompts from its remote prefix cache.");

    // Acceptance (ISSUE 7): at the largest session count the tiered
    // engine's p99 TTFT must beat the disk-offload baseline >= 5x.
    if last_gap >= 5.0 {
        println!("llm serving: PASS (p99 TTFT {last_gap:.1}x better than disk-offload)");
        ExitCode::SUCCESS
    } else {
        println!("llm serving: FAIL (p99 TTFT only {last_gap:.1}x better than disk-offload, need >= 5x)");
        ExitCode::FAILURE
    }
}

/// Wall-clock mode: real elapsed time of the three engines at a fixed
/// scale, recorded in (or checked against) `results/BENCH_llm.json`.
fn perf_mode(check: bool) -> ExitCode {
    let rows = [
        ("llm_tiered", SpillPolicy::RemoteThenDisk),
        ("llm_local_only", SpillPolicy::DropCold),
        ("llm_disk_offload", SpillPolicy::DiskOnly),
    ]
    .map(|(scenario, spill)| {
        let (result, wall_ms) = timed(|| serve(100.0, 600, spill));
        Row {
            scenario: scenario.into(),
            wall_ms,
            metric: ("tokens_per_s", result.tokens_per_s),
            extra: Vec::new(),
        }
    });
    record_or_check("llm", &rows, check)
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut perf = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--perf" => perf = true,
            "--check" => check = true,
            other => panic!(
                "unknown argument {other} (usage: ext_llm_serving [--smoke] [--perf] [--check])"
            ),
        }
    }
    if perf {
        perf_mode(check)
    } else {
        sweep(if smoke { &SMOKE } else { &FULL })
    }
}
