//! Failure-injection integration: §IV-D semantics through the full stack.

use memory_disaggregation::prelude::*;
use memory_disaggregation::sim::FailureEvent;
use memory_disaggregation::types::EntryLocation;

fn remote_only_cluster(nodes: usize) -> DisaggregatedMemory {
    let mut config = ClusterConfig::small();
    config.nodes = nodes;
    config.group_size = nodes;
    config.server.donation = DonationPolicy::fixed(0.0); // force remote tier
    DisaggregatedMemory::new(config).unwrap()
}

fn replicas_of(dm: &DisaggregatedMemory, server: ServerId, key: u64) -> Vec<NodeId> {
    match dm.record(server, key).unwrap().location {
        EntryLocation::Remote { replicas } => replicas,
        other => panic!("expected remote location, got {other:?}"),
    }
}

#[test]
fn triple_replication_survives_two_failures() {
    let dm = remote_only_cluster(6);
    let server = dm.servers()[0];
    dm.put(server, 1, vec![0xAB; 2048]).unwrap();
    let replicas = replicas_of(&dm, server, 1);
    assert_eq!(replicas.len(), 3);
    dm.failures().inject_now(FailureEvent::NodeDown(replicas[0]));
    dm.failures().inject_now(FailureEvent::NodeDown(replicas[1]));
    assert_eq!(dm.get(server, 1).unwrap(), vec![0xAB; 2048]);
}

#[test]
fn link_failure_fails_over_to_other_replicas() {
    let dm = remote_only_cluster(6);
    let server = dm.servers()[0];
    dm.put(server, 1, vec![0xCD; 1024]).unwrap();
    let replicas = replicas_of(&dm, server, 1);
    // Cut the owner's links to the primary replica only.
    dm.failures()
        .inject_now(FailureEvent::LinkDown(server.node(), replicas[0]));
    assert_eq!(dm.get(server, 1).unwrap(), vec![0xCD; 1024]);
    // Heal and read again.
    dm.failures()
        .inject_now(FailureEvent::LinkUp(server.node(), replicas[0]));
    assert_eq!(dm.get(server, 1).unwrap(), vec![0xCD; 1024]);
}

#[test]
fn repair_after_crash_restores_triple_modularity() {
    let dm = remote_only_cluster(6);
    let server = dm.servers()[0];
    for key in 0..8 {
        dm.put(server, key, vec![key as u8; 1024]).unwrap();
    }
    // Crash one node that hosts replicas; its memory contents are lost.
    let victim = replicas_of(&dm, server, 0)[0];
    dm.failures().inject_now(FailureEvent::NodeDown(victim));
    dm.failures().inject_now(FailureEvent::NodeUp(victim));
    dm.handle_node_restart(victim).unwrap();

    let repaired = dm.repair_replicas();
    assert!(repaired > 0, "some entries must need repair");
    for key in 0..8 {
        let replicas = replicas_of(&dm, server, key);
        assert_eq!(replicas.len(), 3, "key {key} degree after repair");
        assert_eq!(dm.get(server, key).unwrap(), vec![key as u8; 1024]);
    }
}

#[test]
fn local_node_crash_has_os_swap_semantics() {
    // §IV-D: if the owner dies, the disaggregated memory system provides
    // the same failure semantics as losing OS swap — entries are gone.
    let dm = remote_only_cluster(4);
    let server = dm.servers()[0];
    dm.put(server, 1, vec![1u8; 512]).unwrap();
    let (_, purged) = dm.handle_node_restart(server.node()).unwrap();
    assert_eq!(purged, 1);
    assert!(dm.record(server, 1).is_none());
    assert!(dm.get(server, 1).is_err());
    // The restarted server can immediately store fresh entries.
    dm.put(server, 2, vec![2u8; 512]).unwrap();
    assert_eq!(dm.get(server, 2).unwrap(), vec![2u8; 512]);
}

#[test]
fn dead_replica_set_reports_unreachable_not_corrupt() {
    let dm = remote_only_cluster(4);
    let server = dm.servers()[0];
    dm.put(server, 1, vec![5u8; 256]).unwrap();
    for node in replicas_of(&dm, server, 1) {
        dm.failures().inject_now(FailureEvent::NodeDown(node));
    }
    let err = dm.get(server, 1).unwrap_err();
    assert!(
        matches!(err, DmemError::NodeUnavailable(_) | DmemError::LinkDown { .. }),
        "unexpected error {err:?}"
    );
}

#[test]
fn eviction_preserves_readability_and_updates_maps() {
    use memory_disaggregation::cluster::{Placer, RemoteSlabEvictor};
    use memory_disaggregation::sim::DetRng;

    let mut config = ClusterConfig::small();
    config.nodes = 6;
    config.group_size = 6;
    config.server.donation = DonationPolicy::fixed(0.0);
    config.node.recv_pool = ByteSize::from_kib(64);
    config.compression = CompressionMode::Off;
    let dm = DisaggregatedMemory::new(config).unwrap();
    let server = dm.servers()[0];
    for key in 0..12 {
        dm.put(server, key, vec![key as u8; 4096]).unwrap();
    }
    let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(40), 16);
    let mut placer = Placer::new(PlacementStrategy::WeightedRoundRobin, DetRng::new(5));
    let outcome = dm.run_eviction(&evictor, &mut placer).unwrap();
    assert!(!outcome.moves.is_empty(), "pressure must trigger migration");
    // Every entry still readable after migration + map rewrite.
    for key in 0..12 {
        assert_eq!(dm.get(server, key).unwrap(), vec![key as u8; 4096]);
    }
}

#[test]
fn server_crash_blocks_writes_but_spares_neighbours() {
    let dm = remote_only_cluster(4);
    let (a, b) = (dm.servers()[0], dm.servers()[1]);
    dm.failures().inject_now(FailureEvent::ServerDown(a));
    assert!(matches!(
        dm.put(a, 1, vec![1]),
        Err(DmemError::ServerUnavailable(_))
    ));
    dm.put(b, 1, vec![2u8; 64]).unwrap();
    assert_eq!(dm.get(b, 1).unwrap(), vec![2u8; 64]);
}
