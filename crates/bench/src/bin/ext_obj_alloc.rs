//! Extension: object vs page granularity — the
//! Clio-style access-amplification figure.
//!
//! The paper charges paging-based disaggregation with moving a whole
//! 4 KB page over the fabric to touch a few dozen bytes. This
//! experiment drives the *same* deterministic allocation schedule
//! through two [`ObjectHeap`]s that share the identical dlmalloc-style
//! allocator and differ only in backing granularity:
//!
//! * **object** — one cluster entry per object; a read moves exactly
//!   the framed object, an update is a pure write;
//! * **page** — one entry per 4 KiB page image with read-modify-write,
//!   the paging baseline.
//!
//! Reported per object-size distribution (uniform-small, zipf, mixed):
//! real fabric bytes (the fabric's own `net.*` counters), access
//! amplification (fetched/useful from the `alloc.*` family),
//! fragmentation %, and virtual-clock throughput.
//!
//! Modes:
//!
//! * default — full sweep, writes `results/ext_obj_alloc.csv`;
//! * `--smoke` — reduced CI-sized sweep, writes
//!   `results/ext_obj_alloc_smoke.csv`; both modes self-assert the
//!   acceptance bound (object path moves ≥ 10x fewer fabric bytes than
//!   the page path on uniform-small) and exit nonzero on failure;
//! * `--perf [--check]` — wall-clock of both granularities, recorded
//!   as `results/BENCH_alloc.json`; with `--check`, fail on a > 3x
//!   regression against that committed ledger instead.
//!
//! Run with: `cargo run --release -p dmem-bench --bin ext_obj_alloc`

use dmem_alloc::{Granularity, HeapConfig, ObjectHeap};
use dmem_bench::perf::{record_or_check, timed, Row};
use dmem_bench::{par_map, Table};
use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_sim::DetRng;
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, DonationPolicy, NodeConfig, ServerConfig,
};
use dmem_workloads::ZipfSampler;
use std::process::ExitCode;
use std::sync::Arc;

/// Sweep dimensions; `--smoke` shrinks them for the CI golden check.
struct Scale {
    /// Objects allocated up front (in batched windows).
    allocs: usize,
    /// Steady-state ops replayed after the fill.
    ops: usize,
    csv_name: &'static str,
}

const FULL: Scale = Scale {
    allocs: 3000,
    ops: 9000,
    csv_name: "ext_obj_alloc",
};

const SMOKE: Scale = Scale {
    allocs: 300,
    ops: 900,
    csv_name: "ext_obj_alloc_smoke",
};

const DISTRIBUTIONS: [&str; 3] = ["uniform-small", "zipf", "mixed"];

/// All donation to zero and compression off: nothing is absorbed into
/// the node shared pool or shrunk in flight, so the fabric byte
/// counters measure exactly the transfer granularity under test.
fn alloc_cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        servers_per_node: 2,
        node: NodeConfig {
            dram: ByteSize::from_mib(64),
            slab_size: ByteSize::from_kib(64),
            send_pool: ByteSize::from_kib(512),
            recv_pool: ByteSize::from_mib(24),
            nvm_pool: ByteSize::ZERO,
        },
        server: ServerConfig {
            memory: ByteSize::from_mib(2),
            donation: DonationPolicy::fixed(0.0),
        },
        compression: CompressionMode::Off,
        ..ClusterConfig::small()
    }
}

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

struct Schedule {
    fill: Vec<Vec<u8>>,
    ops: Vec<Op>,
}

fn payload(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ (rng.below(256) as u8)).collect()
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

/// The deterministic schedule for one distribution — generated once,
/// replayed on both granularities.
fn schedule(dist: &str, scale: &Scale) -> Schedule {
    let mut rng = DetRng::new(0xa110c).fork(dist);
    let zipf = ZipfSampler::new(9, 1.15);
    let fill = (0..scale.allocs)
        .map(|_| {
            let len = draw_len(dist, &mut rng, &zipf);
            payload(&mut rng, len)
        })
        .collect();
    let ops = (0..scale.ops)
        .map(|_| {
            let pick = rng.below(1 << 30);
            match rng.below(100) {
                // Read-heavy, like the far-memory workloads the paper
                // surveys.
                0..=54 => Op::Get(pick),
                55..=79 => Op::Update(pick),
                _ => {
                    let len = draw_len(dist, &mut rng, &zipf);
                    Op::Churn(pick, len)
                }
            }
        })
        .collect();
    Schedule { fill, ops }
}

struct RunResult {
    fabric_bytes: u64,
    fetched_bytes: u64,
    useful_bytes: u64,
    frag_pct: f64,
    kops_per_vs: f64,
}

/// Replays one schedule through a fresh cluster + heap at the given
/// granularity and measures real fabric traffic around it.
fn run(dist: &str, granularity: Granularity, scale: &Scale) -> RunResult {
    let sched = schedule(dist, scale);
    let dm = Arc::new(DisaggregatedMemory::new(alloc_cluster()).expect("cluster"));
    let server = dm.servers()[0];
    let config =
        HeapConfig::new(granularity).with_pref(TierPreference::Remote);
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
    let mut addrs: Vec<u64> = Vec::with_capacity(sched.fill.len());
    for window in sched.fill.chunks(16) {
        addrs.extend(heap.alloc_many(window).expect("fill alloc"));
    }
    // Steady state: replay the op stream against the live list. The
    // current length of every object is tracked locally so updates stay
    // in-slot without an extra read (identical on both granularities).
    let mut lens: Vec<usize> = sched.fill.iter().map(Vec::len).collect();
    let mut churn_tag = 0u8;
    for op in &sched.ops {
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
    let total_ops = (scale.allocs + scale.ops) as f64;
    RunResult {
        fabric_bytes: fabric_bytes(&dm) - fabric_before,
        fetched_bytes: stats.fetched_bytes,
        useful_bytes: stats.useful_bytes,
        frag_pct: stats.total_frag_pct(),
        kops_per_vs: total_ops / (elapsed.as_micros_f64() / 1e6) / 1e3,
    }
}

fn amp(r: &RunResult) -> f64 {
    r.fetched_bytes as f64 / (r.useful_bytes as f64).max(1.0)
}

fn sweep(scale: &Scale) -> ExitCode {
    let mut table = Table::new(
        "Extension — object vs page granularity: fabric bytes, amplification, fragmentation (Clio-style figure)",
        &[
            "distribution",
            "objects",
            "ops",
            "obj fabric KiB",
            "page fabric KiB",
            "bytes ratio",
            "obj amp",
            "page amp",
            "obj frag",
            "page frag",
            "obj kops/vs",
            "page kops/vs",
        ],
    );
    let results = par_map(DISTRIBUTIONS.to_vec(), |_, dist| {
        (
            run(dist, Granularity::Object, scale),
            run(dist, Granularity::Page, scale),
        )
    });
    let mut uniform_ratio = 0.0f64;
    for (dist, (obj, page)) in DISTRIBUTIONS.iter().zip(&results) {
        let ratio = page.fabric_bytes as f64 / (obj.fabric_bytes as f64).max(1.0);
        if *dist == "uniform-small" {
            uniform_ratio = ratio;
        }
        table.row([
            (*dist).to_string(),
            scale.allocs.to_string(),
            scale.ops.to_string(),
            format!("{:.0}", obj.fabric_bytes as f64 / 1024.0),
            format!("{:.0}", page.fabric_bytes as f64 / 1024.0),
            format!("{ratio:.1}x"),
            format!("{:.2}x", amp(obj)),
            format!("{:.2}x", amp(page)),
            format!("{:.1}%", obj.frag_pct),
            format!("{:.1}%", page.frag_pct),
            format!("{:.1}", obj.kops_per_vs),
            format!("{:.1}", page.kops_per_vs),
        ]);
    }
    table.emit(scale.csv_name);

    println!("\nReading: both heaps run the identical size-class allocator over the same");
    println!("schedule; only the backing entry granularity differs. The page path drags a");
    println!("4 KiB image through the fabric (read-modify-write on writes) for every touch,");
    println!("the object path moves exactly the framed object — the paper's access-");
    println!("amplification gap, reproduced as real fabric byte counters.");

    // Acceptance (ISSUE 9): on uniform-small the object path must move
    // >= 10x fewer fabric bytes than the page path.
    if uniform_ratio >= 10.0 {
        println!("obj alloc: PASS (page path moves {uniform_ratio:.1}x the fabric bytes on uniform-small)");
        ExitCode::SUCCESS
    } else {
        println!("obj alloc: FAIL (page/object fabric ratio only {uniform_ratio:.1}x on uniform-small, need >= 10x)");
        ExitCode::FAILURE
    }
}

/// Wall-clock mode: real elapsed time of both granularities on the
/// mixed distribution, recorded in (or checked against)
/// `results/BENCH_alloc.json`.
fn perf_mode(check: bool) -> ExitCode {
    let rows = [
        ("alloc_object", Granularity::Object),
        ("alloc_page", Granularity::Page),
    ]
    .map(|(scenario, granularity)| {
        let (result, wall_ms) = timed(|| run("mixed", granularity, &FULL));
        Row {
            scenario: scenario.into(),
            wall_ms,
            metric: ("kops_per_vs", result.kops_per_vs),
            extra: Vec::new(),
        }
    });
    record_or_check("alloc", &rows, check)
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
                "unknown argument {other} (usage: ext_obj_alloc [--smoke] [--perf] [--check])"
            ),
        }
    }
    if perf {
        perf_mode(check)
    } else {
        sweep(if smoke { &SMOKE } else { &FULL })
    }
}
