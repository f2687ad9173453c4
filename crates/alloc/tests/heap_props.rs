//! Allocator invariant proptests (ISSUE 9 satellite): no overlap
//! between live objects, free-then-alloc reuse determinism, byte-exact
//! round-trips through both backing granularities, and accounting
//! exactness against an oracle model.

use std::collections::BTreeMap;
use std::sync::Arc;

use dmem_alloc::{ArenaMap, Granularity, HeapConfig, ObjectHeap, HEADER_BYTES};
use dmem_core::DisaggregatedMemory;
use dmem_sim::splitmix64;
use dmem_types::{ClusterConfig, CompressionMode, ServerId};
use proptest::prelude::*;

/// Deterministic payload for (tag, len): reproducible without storing.
fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| splitmix64(tag ^ (i as u64 / 8)) as u8)
        .collect()
}

fn cluster() -> (Arc<DisaggregatedMemory>, ServerId) {
    let mut config = ClusterConfig::small();
    // Exact byte accounting: stored length must equal framed length.
    config.compression = CompressionMode::Off;
    let dm = Arc::new(DisaggregatedMemory::new(config).expect("cluster"));
    let server = dm.servers()[0];
    (dm, server)
}

/// The op alphabet: (kind, slot-pick, len). kind 0 = alloc, 1 = free,
/// 2 = update, 3 = get. Lengths cross every size class plus multi-page
/// runs.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u16, usize)>> {
    proptest::collection::vec((0u8..4, 0u16..4096, 1usize..20_000), 1..80)
}

/// Pure-core invariant: live objects never overlap, under any
/// alloc/free interleaving.
#[test]
fn prop_live_objects_never_overlap() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
    runner
        .run(&ops_strategy(), |ops| {
            let mut map = ArenaMap::new();
            let mut addrs: Vec<u64> = Vec::new();
            for (kind, pick, len) in ops {
                if kind == 0 || addrs.is_empty() {
                    let (addr, _) = map.reserve(len + HEADER_BYTES, len as u64);
                    addrs.push(addr);
                } else if kind == 1 {
                    let idx = pick as usize % addrs.len();
                    let addr = addrs.swap_remove(idx);
                    prop_assert!(map.release(addr).is_some());
                }
                // Walk the live set in address order: each object's
                // slot extent must end before the next begins.
                let mut prev_end = 0u64;
                for (addr, obj) in map.live_objects() {
                    prop_assert!(
                        addr >= prev_end,
                        "object at {addr} overlaps previous extent ending {prev_end}"
                    );
                    prev_end = addr + obj.kind.capacity();
                }
            }
            Ok(())
        })
        .unwrap();
}

/// Determinism: replaying the same op sequence on a fresh arena yields
/// identical addresses and an identical structural digest — free lists
/// and the run map have no hidden nondeterminism.
#[test]
fn prop_free_then_alloc_reuse_is_deterministic() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
    runner
        .run(&ops_strategy(), |ops| {
            let run = |ops: &[(u8, u16, usize)]| {
                let mut map = ArenaMap::new();
                let mut addrs: Vec<u64> = Vec::new();
                let mut trace: Vec<u64> = Vec::new();
                for &(kind, pick, len) in ops {
                    if kind == 0 || addrs.is_empty() {
                        let (addr, _) = map.reserve(len + HEADER_BYTES, len as u64);
                        addrs.push(addr);
                        trace.push(addr);
                    } else if kind == 1 {
                        let idx = pick as usize % addrs.len();
                        map.release(addrs.swap_remove(idx));
                    }
                }
                (trace, map.digest())
            };
            let (trace_a, digest_a) = run(&ops);
            let (trace_b, digest_b) = run(&ops);
            prop_assert_eq!(trace_a, trace_b, "address streams diverged");
            prop_assert_eq!(digest_a, digest_b, "structural digests diverged");
            Ok(())
        })
        .unwrap();
}

/// End-to-end byte-exactness and accounting exactness through the
/// cluster, at both granularities, against a model map.
#[test]
fn prop_roundtrips_and_accounting_exact_both_granularities() {
    for granularity in [Granularity::Object, Granularity::Page] {
        let mut runner =
            proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(10));
        runner
            .run(&ops_strategy(), |ops| {
                let (dm, server) = cluster();
                let mut heap =
                    ObjectHeap::new(Arc::clone(&dm), server, HeapConfig::new(granularity));
                let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
                let mut tag = 0u64;
                for (kind, pick, len) in ops {
                    tag += 1;
                    let keys: Vec<u64> = model.keys().copied().collect();
                    match kind {
                        0 => {
                            let data = payload(tag, len);
                            let addr = heap.alloc(&data).unwrap();
                            prop_assert!(
                                model.insert(addr, data).is_none(),
                                "allocator handed out a live address"
                            );
                        }
                        1 if !keys.is_empty() => {
                            let addr = keys[pick as usize % keys.len()];
                            heap.free(addr).unwrap();
                            model.remove(&addr);
                        }
                        2 if !keys.is_empty() => {
                            let addr = keys[pick as usize % keys.len()];
                            // Shrink-or-equal keeps the slot valid.
                            let cur = model[&addr].len().max(1);
                            let new_len = 1 + (len % cur);
                            let data = payload(tag ^ 0xdead, new_len);
                            heap.update(addr, &data).unwrap();
                            model.insert(addr, data);
                        }
                        3 if !keys.is_empty() => {
                            let addr = keys[pick as usize % keys.len()];
                            prop_assert_eq!(&heap.get(addr).unwrap(), &model[&addr]);
                        }
                        _ => {}
                    }
                    // Accounting exactness after every op.
                    let stats = heap.stats();
                    prop_assert_eq!(stats.live_objects, model.len());
                    let model_bytes: u64 = model.values().map(|v| v.len() as u64).sum();
                    prop_assert_eq!(stats.live_bytes, model_bytes);
                    prop_assert!(stats.slot_bytes >= stats.live_bytes);
                    prop_assert!(stats.reserved_bytes >= stats.slot_bytes);
                }
                // Closing audit: every live object reads back byte-exact.
                for (addr, bytes) in &model {
                    prop_assert_eq!(&heap.get(*addr).unwrap(), bytes);
                }
                Ok(())
            })
            .unwrap();
    }
}

/// Fault story: a heap rebuilt purely from the backing store (recovery
/// scan over the cluster's entries) has the same structural metadata
/// digest and serves every object byte-exactly.
#[test]
fn prop_reconstruct_matches_digest_and_bytes() {
    let mut runner =
        proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(10));
    runner
        .run(&ops_strategy(), |ops| {
            let (dm, server) = cluster();
            let config = HeapConfig::new(Granularity::Object);
            let mut heap = ObjectHeap::new(Arc::clone(&dm), server, config.clone());
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let mut tag = 0u64;
            for (kind, pick, len) in ops {
                tag += 1;
                let keys: Vec<u64> = model.keys().copied().collect();
                match kind {
                    0 => {
                        let data = payload(tag, len);
                        let addr = heap.alloc(&data).unwrap();
                        model.insert(addr, data);
                    }
                    1 if !keys.is_empty() => {
                        let addr = keys[pick as usize % keys.len()];
                        heap.free(addr).unwrap();
                        model.remove(&addr);
                    }
                    _ => {}
                }
            }
            let mut rebuilt =
                ObjectHeap::reconstruct(Arc::clone(&dm), server, config.clone()).unwrap();
            prop_assert_eq!(rebuilt.metadata_digest(), heap.metadata_digest());
            for (addr, data) in &model {
                prop_assert_eq!(&rebuilt.get(*addr).unwrap(), data);
            }
            // The rebuilt heap keeps allocating without trampling the
            // survivors.
            let extra = payload(0xfeed, 100);
            let addr = rebuilt.alloc(&extra).unwrap();
            prop_assert!(!model.contains_key(&addr));
            prop_assert_eq!(rebuilt.get(addr).unwrap(), extra);
            Ok(())
        })
        .unwrap();
}
