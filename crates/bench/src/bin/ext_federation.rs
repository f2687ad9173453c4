//! Extension (§IV-C): two-tier hierarchical grouping with leader-
//! coordinated leases.
//!
//! A group whose disaggregated memory runs dry can either spill to disk
//! (flat grouping) or consult the tier-2 super-group and lease nodes from
//! a sibling group. This experiment fills group 0's pools and measures
//! where the next 64 pages land and what they cost, with and without the
//! federation.
//!
//! Run with: `cargo run --release -p dmem-bench --bin ext_federation`

use dmem_bench::{par_map, Table};
use dmem_cluster::{
    ClusterMembership, Federation, GroupTable, LeaderElection, Placer, RemoteStore, Replicator,
};
use dmem_net::Fabric;
use dmem_sim::{CostModel, DetRng, FailureInjector, SimClock, SimDuration};
use dmem_types::{
    ByteSize, EntryId, NodeId, PlacementStrategy, ReplicationFactor, ServerId,
};
use std::sync::Arc;

const NODES: u32 = 8;
const GROUP: usize = 4;
const PAGES: u64 = 64;

struct World {
    clock: SimClock,
    membership: ClusterMembership,
    store: Arc<RemoteStore>,
    replicator: Replicator,
    federation: Federation,
}

fn world() -> World {
    let clock = SimClock::new();
    let failures = FailureInjector::new(clock.clone());
    let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures.clone());
    let ids: Vec<NodeId> = (0..NODES).map(NodeId::new).collect();
    let membership = ClusterMembership::new(ids.clone(), failures);
    let store =
        Arc::new(RemoteStore::new(fabric, membership.clone(), ByteSize::from_kib(256)).unwrap());
    let placer = Placer::new(
        PlacementStrategy::PowerOfTwoChoices,
        membership.clone(),
        DetRng::new(1),
    );
    let replicator = Replicator::new(Arc::clone(&store), placer, ReplicationFactor::TRIPLE);
    let groups = GroupTable::partition(&ids, GROUP).unwrap();
    let election = LeaderElection::new(
        membership.clone(),
        clock.clone(),
        SimDuration::from_millis(50),
    );
    let federation = Federation::new(
        membership.clone(),
        clock.clone(),
        groups,
        election,
        SimDuration::from_secs(1),
        3,
    );
    World {
        clock,
        membership,
        store,
        replicator,
        federation,
    }
}

fn exhaust_group_zero(w: &World) {
    // Fill nodes 1-3 (node 0's group peers) completely.
    let filler = ServerId::new(NodeId::new(7), 9);
    for n in 1..GROUP as u32 {
        let mut key = 0;
        while w
            .store
            .store(
                NodeId::new(7),
                NodeId::new(n),
                EntryId::new(filler, (n as u64) << 32 | key),
                &[0u8; 4096],
            )
            .is_ok()
        {
            key += 1;
        }
    }
}

fn run(with_federation: bool) -> (u64, u64, f64) {
    let w = world();
    exhaust_group_zero(&w);
    let owner = ServerId::new(NodeId::new(0), 0);
    let node = NodeId::new(0);
    let mut remote = 0u64;
    let mut spilled = 0u64;
    let t0 = w.clock.now();
    for key in 0..PAGES {
        let candidates = if with_federation {
            w.federation
                .check_pressure(
                    w.federation.group_of(node).unwrap(),
                    // Node 0's own (unused) pool still counts toward the
                    // group's free memory, so pressure is judged against
                    // more than one node's worth of capacity.
                    ByteSize::from_kib(512),
                )
                .ok();
            w.federation.candidates_for(node).unwrap()
        } else {
            // Flat grouping: only the (full) group peers.
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]
        };
        match w.replicator.store_replicated(
            node,
            EntryId::new(owner, key),
            &[7u8; 4096],
            Some(&candidates),
        ) {
            Ok(_) => remote += 1,
            Err(_) => {
                // The flat system's fallback: local disk (charged at HDD
                // cost, like the core's tiering would).
                w.clock
                    .advance(CostModel::paper_default().hdd.transfer(4096));
                spilled += 1;
            }
        }
    }
    let elapsed = (w.clock.now() - t0).as_millis_f64();
    let _ = &w.membership;
    (remote, spilled, elapsed)
}

fn main() {
    let mut table = Table::new(
        "Extension — flat grouping vs two-tier federation under group-local exhaustion",
        &["configuration", "pages in remote memory", "pages spilled to disk", "time for 64 pages"],
    );
    let configs = [("flat groups", false), ("two-tier federation", true)];
    let results = par_map(configs.to_vec(), |_, (_, fed)| run(fed));
    for ((label, _), (remote, spilled, ms)) in configs.into_iter().zip(results) {
        table.row([
            label.to_owned(),
            remote.to_string(),
            spilled.to_string(),
            format!("{ms:.2} ms"),
        ]);
    }
    table.emit("ext_federation");
    println!("\nReading: with its own group full, the flat system spills every page to");
    println!("disk; the federation leases sibling-group nodes and keeps the overflow in");
    println!("cluster memory — §IV-C's dynamic re-grouping motivation, quantified.");
}
