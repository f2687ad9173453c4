//! Criterion microbenchmarks of the building blocks: these measure *real*
//! engine overhead (wall-clock), complementing the virtual-time figure
//! binaries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dmem_compress::{lz, synth, PageCodec};
use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_net::Fabric;
use dmem_sim::{CostModel, DetRng, FailureInjector, SimClock};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, EntryId, NodeId, ServerId, PAGE_SIZE,
};

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    let mut rng = DetRng::new(1);
    let compressible = synth::page_with_ratio(3.0, &mut rng);
    let incompressible = synth::random_page(&mut rng);
    let codec = PageCodec::new(CompressionMode::FourGranularity);

    group.bench_function("lz_compress_3x_page", |b| {
        b.iter(|| lz::compress(std::hint::black_box(&compressible)))
    });
    group.bench_function("lz_compress_random_page", |b| {
        b.iter(|| lz::compress(std::hint::black_box(&incompressible)))
    });
    let stored = codec.compress(&compressible);
    group.bench_function("lz_decompress_3x_page", |b| {
        b.iter(|| codec.decompress(std::hint::black_box(&stored)).unwrap())
    });
    group.bench_function("synth_page_generation", |b| {
        let mut rng = DetRng::new(2);
        b.iter(|| synth::page_with_ratio(3.0, &mut rng))
    });
    group.finish();
}

fn bench_fabric(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric");
    let clock = SimClock::new();
    let failures = FailureInjector::new(clock.clone());
    let fabric = Fabric::new(clock, CostModel::paper_default(), failures);
    let mr = fabric
        .register(NodeId::new(1), ByteSize::from_mib(4))
        .unwrap();
    let qp = fabric.connect(NodeId::new(0), NodeId::new(1)).unwrap();
    let page = vec![7u8; PAGE_SIZE];

    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    group.bench_function("rdma_write_4k", |b| {
        b.iter(|| fabric.write(&qp, std::hint::black_box(&page), &mr, 0).unwrap())
    });
    group.bench_function("rdma_read_4k", |b| {
        b.iter(|| fabric.read(&qp, &mr, 0, PAGE_SIZE).unwrap())
    });
    group.finish();
}

fn bench_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("dm_tiers");
    let dm = DisaggregatedMemory::new(ClusterConfig::small()).unwrap();
    let server = dm.servers()[0];
    let mut rng = DetRng::new(3);
    let page = synth::page_with_ratio(2.5, &mut rng);

    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    let mut key = 0u64;
    group.bench_function("put_shared", |b| {
        b.iter_batched(
            || {
                key += 1;
                (key, page.clone())
            },
            |(k, p)| {
                dm.put_pref(server, k % 256, p, TierPreference::NodeShared)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("put_remote_replicated", |b| {
        b.iter_batched(
            || {
                key += 1;
                (key, page.clone())
            },
            |(k, p)| {
                dm.put_pref(server, 1_000 + k % 64, p, TierPreference::Remote)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    dm.put(server, 9_999, page.clone()).unwrap();
    group.bench_function("get_shared", |b| {
        b.iter(|| dm.get(server, 9_999).unwrap())
    });
    group.finish();
}

fn bench_node_pool(c: &mut Criterion) {
    use dmem_node::NodeManager;
    use dmem_types::{DonationPolicy, SizeClass};
    let mut group = c.benchmark_group("node_pool");
    let node = NodeId::new(0);
    let manager = NodeManager::new(
        node,
        ByteSize::from_kib(256),
        SimClock::new(),
        CostModel::paper_default(),
    );
    let server = ServerId::new(node, 0);
    manager.register_server(server, ByteSize::from_mib(32), DonationPolicy::fixed(0.5));
    let payload = vec![1u8; 2048];

    let mut key = 0u64;
    group.bench_function("slab_put_2k", |b| {
        b.iter(|| {
            key += 1;
            manager
                .put(
                    EntryId::new(server, key % 1024),
                    &payload,
                    SizeClass::C2K,
                )
                .unwrap()
        })
    });
    manager
        .put(EntryId::new(server, u64::MAX), &payload, SizeClass::C2K)
        .unwrap();
    group.bench_function("slab_get_2k", |b| {
        b.iter(|| manager.get(EntryId::new(server, u64::MAX)).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = primitives;
    config = Criterion::default().sample_size(30);
    targets = bench_codec, bench_fabric, bench_tiers, bench_node_pool
}
criterion_main!(primitives);
