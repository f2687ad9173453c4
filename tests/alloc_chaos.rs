//! Allocator chaos sweep (ISSUE 9): 32 seeds mixing alloc / free /
//! update / get through an [`ObjectHeap`] while the fabric fault layer
//! drops, delays and duplicates verbs underneath it.
//!
//! Invariants judged on every seed:
//!
//! - **object integrity** — every live object reads back byte-exactly
//!   against an oracle model, after every schedule phase;
//! - **accounting exactness** — heap live-object/live-byte accounting
//!   equals the model's, and slot/reserved bytes dominate it;
//! - **metadata fault-survival** — a heap rebuilt purely from the
//!   backing store (recovery scan) has the same structural digest and
//!   serves the same bytes;
//! - **determinism** — the same seed replayed yields the same model
//!   digest, the same fetched-byte counters and the same retry counts.
//!
//! The sweep must also demonstrably exercise the fault layer (retries
//! observed somewhere across the 32 seeds), or it would vacuously pass.

use std::collections::BTreeMap;
use std::sync::Arc;

use memory_disaggregation::alloc::{Granularity, HeapConfig, ObjectHeap};
use memory_disaggregation::net::{FabricFaults, FaultProfile};
use memory_disaggregation::prelude::*;
use memory_disaggregation::qos::{QosConfig, QosEngine, TenantSpec};
use memory_disaggregation::sim::{splitmix64, DetRng};

const OPS_PER_SEED: usize = 140;

#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    model_digest: u64,
    metadata_digest: u64,
    fetched_bytes: u64,
    retries: u64,
    live_objects: usize,
}

fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| splitmix64(tag ^ (i as u64 / 8)) as u8)
        .collect()
}

/// One seeded run: build a faulted, QoS-governed cluster, drive a
/// DetRng schedule through an object-granularity heap, check the
/// integrity invariants continuously, and reduce the end state to a
/// digest for the determinism gate.
fn run_seed(seed: u64) -> RunOutcome {
    let mut config = ClusterConfig::small();
    // Exact byte accounting in the invariant checks.
    config.compression = CompressionMode::Off;
    let dm = Arc::new(DisaggregatedMemory::new(config).expect("cluster config validates"));

    // Per-tenant accounting path: the heap's server belongs to a real
    // QoS tenant, so every backing put is admitted and metered.
    let engine = Arc::new(QosEngine::new(QosConfig::default()));
    dm.install_qos(Arc::clone(&engine));
    let gold = engine.register_tenant(TenantSpec::new("gold", 200, ByteSize::from_mib(8)));
    let silver = engine.register_tenant(TenantSpec::new("silver", 100, ByteSize::from_mib(4)));
    for (i, &server) in dm.servers().iter().enumerate() {
        engine.assign_server(server, if i % 2 == 0 { gold } else { silver });
    }

    // The fault layer draws from its own fork of the seed, like the
    // chaos harness, so fault noise is independent of the schedule.
    let faults = Arc::new(FabricFaults::new(
        DetRng::new(seed).fork("alloc.chaos.faults"),
        FaultProfile::chaos_default(),
    ));
    dm.fabric().install_faults(Arc::clone(&faults));

    let server = dm.servers()[0];
    let heap_config = HeapConfig::new(Granularity::Object);
    let mut heap = ObjectHeap::new(Arc::clone(&dm), server, heap_config.clone());
    heap.arm_telemetry(dm.metrics());

    let mut rng = DetRng::new(seed).fork("alloc.chaos.schedule");
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut tag = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);

    for op in 0..OPS_PER_SEED {
        tag = tag.wrapping_add(1);
        let keys: Vec<u64> = model.keys().copied().collect();
        let roll = rng.unit();
        if keys.is_empty() || roll < 0.40 {
            // Size palette spans classes and the occasional multi-page
            // run, like the chaos value palette spans tiers.
            let len = match rng.below(10) {
                0..=5 => 16 + rng.below(240),
                6..=7 => 256 + rng.below(1800),
                8 => 2048 + rng.below(2048),
                _ => 4097 + rng.below(12_000),
            };
            let data = payload(tag, len);
            let addr = heap.alloc(&data).expect("alloc survives faults via retry");
            assert!(
                model.insert(addr, data).is_none(),
                "seed {seed}: allocator handed out a live address {addr}"
            );
        } else if roll < 0.55 {
            let addr = keys[rng.below(keys.len())];
            heap.free(addr).expect("free survives faults via retry");
            model.remove(&addr);
        } else if roll < 0.75 {
            let addr = keys[rng.below(keys.len())];
            let cur = model[&addr].len().max(1);
            let new_len = 1 + rng.below(cur);
            let data = payload(tag ^ 0xcafe, new_len);
            heap.update(addr, &data).expect("update survives faults via retry");
            model.insert(addr, data);
        } else {
            let addr = keys[rng.below(keys.len())];
            let got = heap.get(addr).expect("get survives faults via retry");
            assert_eq!(
                got, model[&addr],
                "seed {seed}: wrong bytes read at {addr} under faults"
            );
        }

        // Continuous accounting-exactness invariant.
        let stats = heap.stats();
        assert_eq!(stats.live_objects, model.len(), "seed {seed} op {op}: object count");
        let model_bytes: u64 = model.values().map(|v| v.len() as u64).sum();
        assert_eq!(stats.live_bytes, model_bytes, "seed {seed} op {op}: live bytes");
        assert!(stats.slot_bytes >= stats.live_bytes, "seed {seed} op {op}: slot slack");
        assert!(
            stats.reserved_bytes >= stats.slot_bytes,
            "seed {seed} op {op}: reserved dominates slots"
        );
        assert_eq!(
            stats.tenant.as_deref(),
            Some("gold"),
            "seed {seed}: heap server must resolve its QoS tenant"
        );
    }

    // Closing object-integrity audit: every live object byte-exact.
    for (addr, data) in &model {
        assert_eq!(
            &heap.get(*addr).expect("closing read"),
            data,
            "seed {seed}: closing audit mismatch at {addr}"
        );
    }

    // Metadata fault-survival: rebuild from the backing store alone.
    let mut rebuilt = ObjectHeap::reconstruct(Arc::clone(&dm), server, heap_config)
        .expect("recovery scan succeeds under a healed fabric");
    assert_eq!(
        rebuilt.metadata_digest(),
        heap.metadata_digest(),
        "seed {seed}: reconstructed metadata diverged"
    );
    for (addr, data) in &model {
        assert_eq!(
            &rebuilt.get(*addr).expect("post-recovery read"),
            data,
            "seed {seed}: post-recovery mismatch at {addr}"
        );
    }

    let mut model_digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (addr, data) in &model {
        model_digest ^= splitmix64(*addr);
        for b in data {
            model_digest = model_digest.wrapping_mul(0x0000_0100_0000_01b3) ^ u64::from(*b);
        }
    }
    RunOutcome {
        model_digest,
        metadata_digest: heap.metadata_digest(),
        fetched_bytes: heap.stats().fetched_bytes,
        retries: dm.fabric().metrics().counter("faults.retry.attempts").get(),
        live_objects: model.len(),
    }
}

/// Acceptance gate: 32 seeds, every invariant held, and the sweep
/// demonstrably exercised the fault layer.
#[test]
fn alloc_chaos_invariants_hold_across_32_seeds() {
    let mut total_retries = 0u64;
    let mut total_live = 0usize;
    for seed in 0..32u64 {
        let outcome = run_seed(seed);
        total_retries += outcome.retries;
        total_live += outcome.live_objects;
    }
    assert!(total_live > 0, "sweep never left a live object to audit");
    assert!(
        total_retries > 0,
        "32 faulted seeds never retried a verb — the fault layer was not exercised"
    );
}

/// Determinism gate: same seed, same digests, same counters.
#[test]
fn alloc_chaos_seeds_are_deterministic() {
    for seed in [0u64, 7, 19] {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert_eq!(a, b, "seed {seed} diverged between identical runs");
    }
}
