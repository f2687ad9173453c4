//! Whole-system integration: tiering, compression, batching and accounting
//! across every crate at once.

use memory_disaggregation::prelude::*;

fn cluster() -> DisaggregatedMemory {
    DisaggregatedMemory::new(ClusterConfig::small()).expect("valid config")
}

#[test]
fn tiering_order_matches_latency_hierarchy() {
    let dm = cluster();
    let server = dm.servers()[0];
    let clock = dm.clock().clone();

    // Shared-pool put/get: microsecond scale.
    dm.put_pref(server, 1, vec![1u8; 4096], TierPreference::NodeShared)
        .unwrap();
    let t0 = clock.now();
    dm.get(server, 1).unwrap();
    let shared = clock.now() - t0;

    // Remote put/get: slower than shared, much faster than disk.
    dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Remote)
        .unwrap();
    let t1 = clock.now();
    dm.get(server, 2).unwrap();
    let remote = clock.now() - t1;

    dm.put_pref(server, 3, vec![3u8; 4096], TierPreference::Disk)
        .unwrap();
    let t2 = clock.now();
    dm.get(server, 3).unwrap();
    let disk = clock.now() - t2;

    assert!(shared < remote, "shared {shared} !< remote {remote}");
    assert!(remote < disk, "remote {remote} !< disk {disk}");
    assert!(
        disk.as_nanos() / remote.as_nanos() > 50,
        "disk/remote gap collapsed: {disk} vs {remote}"
    );
}

#[test]
fn every_server_gets_an_isolated_namespace() {
    let dm = cluster();
    for (i, &server) in dm.servers().iter().enumerate() {
        dm.put(server, 7, vec![i as u8; 128]).unwrap();
    }
    for (i, &server) in dm.servers().iter().enumerate() {
        assert_eq!(dm.get(server, 7).unwrap(), vec![i as u8; 128]);
    }
    assert_eq!(dm.stats().entries, dm.servers().len());
}

#[test]
fn compressible_data_is_stored_compressed_everywhere() {
    let dm = cluster();
    let server = dm.servers()[0];
    for (key, pref) in [
        (1, TierPreference::NodeShared),
        (2, TierPreference::Remote),
        (3, TierPreference::Disk),
    ] {
        dm.put_pref(server, key, vec![0u8; 4096], pref).unwrap();
        let record = dm.record(server, key).unwrap();
        assert!(
            record.stored_len < 1024,
            "zero page must compress hard on {pref:?}: stored {}",
            record.stored_len
        );
        assert_eq!(dm.get(server, key).unwrap(), vec![0u8; 4096]);
    }
}

#[test]
fn incompressible_data_roundtrips_uncompressed() {
    let dm = cluster();
    let server = dm.servers()[0];
    let mut rng = dmem_sim::DetRng::new(3);
    let mut page = vec![0u8; 4096];
    rng.fill_bytes(&mut page);
    dm.put(server, 1, page.clone()).unwrap();
    let record = dm.record(server, 1).unwrap();
    assert!(record.class.is_none(), "random page stored raw");
    assert_eq!(dm.get(server, 1).unwrap(), page);
}

#[test]
fn batched_put_get_roundtrip_across_tiers() {
    let dm = cluster();
    let server = dm.servers()[0];
    let batch: Vec<(u64, Vec<u8>)> = (0..32).map(|k| (k, vec![k as u8; 2048])).collect();
    dm.put_batch(server, batch, TierPreference::Remote).unwrap();
    let keys: Vec<u64> = (0..32).collect();
    let loaded = dm.get_batch(server, &keys).unwrap();
    for (k, data) in loaded.iter().enumerate() {
        assert_eq!(data, &vec![k as u8; 2048]);
    }
}

#[test]
fn stats_census_is_consistent_with_records() {
    let dm = cluster();
    let server = dm.servers()[0];
    for key in 0..20u64 {
        let pref = match key % 3 {
            0 => TierPreference::NodeShared,
            1 => TierPreference::Remote,
            _ => TierPreference::Disk,
        };
        dm.put_pref(server, key, vec![9u8; 512], pref).unwrap();
    }
    let stats = dm.stats();
    assert_eq!(stats.entries, 20);
    assert_eq!(stats.shared + stats.remote + stats.disk, 20);
    assert_eq!(stats.shared, 7);
    assert_eq!(stats.remote, 7);
    assert_eq!(stats.disk, 6);
}

#[test]
fn deleting_everything_leaves_no_residue() {
    let dm = cluster();
    let server = dm.servers()[0];
    for key in 0..10 {
        dm.put(server, key, vec![1u8; 1024]).unwrap();
    }
    for key in 0..10 {
        dm.delete(server, key).unwrap();
    }
    let stats = dm.stats();
    assert_eq!(stats.entries, 0);
    // Remote pools fully free again.
    for &node in dm.membership().nodes() {
        let s = dm.remote_store().stats(node).unwrap();
        assert_eq!(s.entries, 0, "{node} still hosts entries");
        assert_eq!(s.free, s.capacity);
    }
}

#[test]
fn group_leadership_and_map_arithmetic() {
    let config = ClusterConfig {
        nodes: 32,
        group_size: 8,
        ..ClusterConfig::small()
    };
    let dm = DisaggregatedMemory::new(config).unwrap();
    // 32 nodes in groups of 8: a node's peers are the rest of its group.
    let peers = dm.group_peers(NodeId::new(9)).unwrap();
    assert_eq!(peers.len(), 7);
    assert!(peers.iter().all(|n| (8..16).contains(&n.index())));
}
