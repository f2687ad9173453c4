//! Self-healing cluster: the background maintenance driver keeps the
//! §IV-D/F invariants — triple replication and relieved host pressure —
//! without any foreground intervention.
//!
//! Run with: `cargo run --release --example self_healing`

use memory_disaggregation::cluster::{Placer, RemoteSlabEvictor};
use memory_disaggregation::core::Maintenance;
use memory_disaggregation::prelude::*;
use memory_disaggregation::sim::{DetRng, FailureEvent, SimDuration};
use memory_disaggregation::types::EntryLocation;
use std::sync::Arc;

fn main() -> DmemResult<()> {
    let mut config = ClusterConfig::small();
    config.nodes = 6;
    config.group_size = 6;
    config.server.donation = DonationPolicy::fixed(0.0); // remote-only
    let dm = Arc::new(DisaggregatedMemory::new(config)?);
    let server = dm.servers()[0];

    println!("storing 32 triple-replicated entries…");
    for key in 0..32 {
        dm.put(server, key, vec![key as u8; 2048])?;
    }

    // Start the node agent's timer wheel.
    let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(16), 16);
    let placer = Placer::new(
        PlacementStrategy::WeightedRoundRobin,
        dm.membership().clone(),
        DetRng::new(3),
    );
    let mut maintenance = Maintenance::new(Arc::clone(&dm), evictor, placer);

    // Crash a replica host; its DRAM contents are gone on restart.
    let victim = match dm.record(server, 0).expect("tracked").location {
        EntryLocation::Remote { ref replicas } => replicas[0],
        ref other => panic!("expected remote placement, got {other:?}"),
    };
    println!("crashing and restarting {victim}…");
    dm.failures().inject_now(FailureEvent::NodeDown(victim));
    dm.failures().inject_now(FailureEvent::NodeUp(victim));
    let (lost, _) = dm.handle_node_restart(victim)?;
    println!("{lost} hosted replicas lost with the node's DRAM");

    let degraded = (0..32)
        .filter(|&k| match dm.record(server, k).unwrap().location {
            EntryLocation::Remote { ref replicas } => replicas.contains(&victim),
            _ => false,
        })
        .count();
    println!("{degraded} entries reference the wiped node and are degraded");

    // Let the background maintenance run for one virtual second.
    let report = maintenance.run_until(dm.clock().now() + SimDuration::from_secs(1))?;
    println!(
        "\nmaintenance window: {} repair scans, {} entries re-replicated, \
         {} eviction scans, {} advertisement refreshes",
        report.repair_scans,
        report.repaired_entries,
        report.eviction_scans,
        report.advertise_refreshes
    );

    for key in 0..32 {
        if let EntryLocation::Remote { replicas } = &dm.record(server, key).unwrap().location {
            assert_eq!(replicas.len(), 3, "entry {key} not repaired");
        }
        assert_eq!(dm.get(server, key)?, vec![key as u8; 2048]);
    }
    println!("all 32 entries back at replication degree 3 — cluster healed itself");
    Ok(())
}
