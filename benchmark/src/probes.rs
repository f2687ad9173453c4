//! Layer probes: one layer's public API driven directly with inputs shaped
//! like the rounds', to give each layer a host cost of its own. They do
//! not depend on the workload, so every traced run reports them all and a
//! layer's probe can be read beside any workload's end-to-end numbers.

use crate::harness::Layers;
use crate::stats;
use dmem_compress::PageCodec;
use dmem_net::{CxlPool, Fabric};
use dmem_sim::{
    CostModel, DetRng, EpochCtx, FailureInjector, MetricsRegistry, ShardId, ShardWorker,
    ShardedEngine, SimClock, SimDuration, SimInstant,
};
use dmem_swap::PageSource;
use dmem_types::{ByteSize, CompressionMode, NodeId, PAGE_SIZE};
use dmem_workloads::{catalog, TraceConfig, ZipfSampler};
use memory_disaggregation::rack::page_checksum;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches a probe is split into; its result is their fast decile, for
/// the reason the round times use one.
const BATCHES: usize = 20;

/// Host nanoseconds per item of `batch`, which processes `items` items a
/// call: the fast decile over `BATCHES` calls, after one warm-up call.
/// `budget` bounds the probe: fewer batches run if the first ones show
/// it would be exceeded.
fn ns_per_item(budget: Duration, items: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let start = Instant::now();
    let mut times = Vec::with_capacity(BATCHES);
    while times.len() < BATCHES && (times.len() < 3 || start.elapsed() < budget) {
        let t = Instant::now();
        batch();
        times.push(t.elapsed().as_nanos() as f64 / items as f64);
    }
    stats::quantile(&stats::sorted(&times), 0.1)
}

fn compress(layers: &mut Layers, budget: Duration, seed: u64) {
    const PAGES: u64 = 64;
    let source = PageSource::new(2.0, 0.4, seed);
    let pages: Vec<Vec<u8>> = (0..PAGES).map(|pfn| source.page(pfn)).collect();
    let codec = PageCodec::new(CompressionMode::FourGranularity);
    layers.insert(
        "compress.compress_ns_per_page",
        ns_per_item(budget, PAGES, || {
            for page in &pages {
                black_box(codec.compress(black_box(page)));
            }
        }),
    );
    let stored: Vec<_> = pages.iter().map(|p| codec.compress(p)).collect();
    layers.insert(
        "compress.decompress_ns_per_page",
        ns_per_item(budget, PAGES, || {
            for page in &stored {
                black_box(
                    codec
                        .decompress(black_box(page))
                        .expect("a page this codec compressed"),
                );
            }
        }),
    );
    layers.insert(
        "compress.ratio",
        codec.aggregate_ratio(pages.iter().map(Vec::as_slice)),
    );
}

fn net(layers: &mut Layers, budget: Duration) {
    const CALLS: u64 = 2048;
    let clock = SimClock::new();
    let cost = CostModel::paper_default();
    let fabric = Fabric::new(clock.clone(), cost, FailureInjector::new(clock.clone()));
    let region = fabric
        .register(NodeId::new(1), ByteSize::from_mib(4))
        .expect("node 1 is up");
    let qp = fabric
        .connect(NodeId::new(0), NodeId::new(1))
        .expect("both nodes are up");
    let page = vec![0xa5u8; PAGE_SIZE];
    layers.insert(
        "net.write_4k_ns",
        ns_per_item(budget, CALLS, || {
            for _ in 0..CALLS {
                fabric
                    .write(&qp, black_box(&page), &region, 0)
                    .expect("the path is up");
            }
        }),
    );
    layers.insert(
        "net.read_4k_ns",
        ns_per_item(budget, CALLS, || {
            for _ in 0..CALLS {
                black_box(
                    fabric
                        .read(&qp, &region, 0, PAGE_SIZE)
                        .expect("the path is up"),
                );
            }
        }),
    );

    let pool = CxlPool::new(
        clock,
        cost,
        MetricsRegistry::new(),
        4,
        ByteSize::from_mib(1),
    );
    let line = [0x5au8; 64];
    let addrs: Vec<_> = (0..CALLS)
        .map(|key| pool.alloc(key, line.len()).expect("the pool has room"))
        .collect();
    layers.insert(
        "net.cxl_store_64b_ns",
        ns_per_item(budget, CALLS, || {
            for &addr in &addrs {
                pool.store(addr, black_box(&line))
                    .expect("the block is allocated");
            }
        }),
    );
    layers.insert(
        "net.cxl_load_64b_ns",
        ns_per_item(budget, CALLS, || {
            for &addr in &addrs {
                black_box(pool.load(addr).expect("the block was stored"));
            }
        }),
    );
}

fn registry(layers: &mut Layers, budget: Duration) {
    const CALLS: u64 = 8192;
    // As many names as a tier cluster registers, so the lookup walks a
    // map of the size the hot path sees.
    let registry = MetricsRegistry::new();
    for i in 0..32 {
        registry.counter(&format!("core.filler.{i}")).inc();
    }
    layers.insert(
        "sim.counter_lookup_ns",
        ns_per_item(budget, CALLS, || {
            for _ in 0..CALLS {
                registry.counter(black_box("core.put.shared")).inc();
            }
        }),
    );
    layers.insert(
        "sim.histogram_record_ns",
        ns_per_item(budget, CALLS, || {
            for v in 0..CALLS {
                registry.histogram(black_box("core.get.ns")).record(v);
            }
        }),
    );
}

/// A shard that does nothing but pass messages round a ring: each epoch
/// it drops what it received and sends `per_epoch` messages to the next
/// shard, for `epochs_left` epochs.
struct Ping {
    shard: ShardId,
    shards: u32,
    per_epoch: u64,
    epochs_left: u64,
    next_at: Option<SimInstant>,
}

const PING_LATENCY: SimDuration = SimDuration::from_nanos(100);

impl ShardWorker for Ping {
    type Msg = u64;

    fn run_epoch(&mut self, ctx: &mut EpochCtx<u64>) {
        black_box(ctx.take_inbox());
        let Some(at) = self.next_at else {
            return;
        };
        if at >= ctx.epoch_end() {
            return;
        }
        let to = ShardId((self.shard.0 + 1) % self.shards);
        for n in 0..self.per_epoch {
            ctx.send(to, at, at + PING_LATENCY, n);
        }
        self.epochs_left -= 1;
        self.next_at = (self.epochs_left > 0).then(|| at + PING_LATENCY);
    }

    fn next_local_at(&self) -> Option<SimInstant> {
        self.next_at
    }
}

/// Host nanoseconds per message and per epoch of the bare engine.
fn shard_engine(layers: &mut Layers, budget: Duration) {
    const SHARDS: u32 = 8;
    let run = |workers: usize, per_epoch: u64, epochs: u64| {
        let ring: Vec<Ping> = (0..SHARDS)
            .map(|s| Ping {
                shard: ShardId(s),
                shards: SHARDS,
                per_epoch,
                epochs_left: epochs,
                next_at: Some(SimInstant::EPOCH),
            })
            .collect();
        black_box(ShardedEngine::run(
            workers,
            ring,
            PING_LATENCY,
            PING_LATENCY,
        ));
    };
    for (workers, msg_name, epoch_name) in [
        (1, "sim.shard.ns_per_msg_w1", "sim.shard.ns_per_epoch_w1"),
        (2, "sim.shard.ns_per_msg_w2", "sim.shard.ns_per_epoch_w2"),
    ] {
        // Message-heavy: 256 messages per shard and epoch, so routing and
        // merging dominate. Message-light: one, so the barrier does.
        let (epochs, per_epoch) = (20, 256);
        layers.insert(
            msg_name,
            ns_per_item(budget, epochs * per_epoch * u64::from(SHARDS), || {
                run(workers, per_epoch, epochs)
            }),
        );
        let epochs = 500;
        layers.insert(
            epoch_name,
            ns_per_item(budget, epochs, || run(workers, 1, epochs)),
        );
    }
}

fn generators(layers: &mut Layers, budget: Duration, seed: u64) {
    layers.insert(
        "rack.checksum_ns",
        ns_per_item(budget, 256, || {
            for page in 0..256u64 {
                black_box(page_checksum(black_box(page), 1));
            }
        }),
    );
    let profile = catalog::by_name("LogisticRegression").expect("a Table 3 workload");
    let config = TraceConfig::scaled_from(profile, 2048);
    layers.insert(
        "workloads.trace_gen_ns_per_access",
        ns_per_item(budget, config.total_accesses(), || {
            black_box(config.generate(seed).count());
        }),
    );
    let zipf = ZipfSampler::new(16384, 0.99);
    let mut rng = DetRng::new(seed);
    layers.insert(
        "workloads.zipf_sample_ns",
        ns_per_item(budget, 8192, || {
            for _ in 0..8192 {
                black_box(zipf.sample(&mut rng));
            }
        }),
    );
}

/// Runs every probe, spending at most about `budget` in total.
pub fn run_all(layers: &mut Layers, budget: Duration, seed: u64) {
    // Fourteen probes share the budget.
    let each = budget / 14;
    compress(layers, each, seed);
    net(layers, each);
    registry(layers, each);
    shard_engine(layers, each);
    generators(layers, each, seed);
}
