//! The four workloads. Each is a closed loop with one client: the next
//! operation is issued when the previous one returns.

pub mod paging;
pub mod rack;
pub mod tier;

use crate::stats::Fnv;
use dmem_core::DisaggregatedMemory;
use dmem_types::NodeId;

/// Workload names with the reason each exists, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paging",
        "FastSwap paging of a LogisticRegression trace at two page compressibilities: the only workload where swap and compress do most of the work",
    ),
    (
        "tier_read",
        "zipf reads of a filled 6-tier cluster: the core get path, net reads, CXL loads and replicated loads dominate; compress, swap and sim::shard idle",
    ),
    (
        "tier_write",
        "puts, overwrites, batches and deletes into a fresh cluster: placement, replication, pool allocation, QoS admission and the disk-fallback ladder",
    ),
    (
        "rack",
        "256-host sharded rack simulation: sim::shard and src/rack.rs do all the work and core, net, swap none; the control workload for every other layer",
    ),
];

/// Counter snapshots of a cluster and of its fabric, concatenated.
pub fn counters(dm: &DisaggregatedMemory) -> Vec<(String, u64)> {
    let mut all = dm.metrics().counter_snapshot();
    all.extend(dm.fabric().metrics().counter_snapshot());
    all
}

/// Mixes a cluster's entry counts per tier and all its counters into a
/// round digest.
pub fn mix_cluster(digest: &mut Fnv, dm: &DisaggregatedMemory, counted: &[(String, u64)]) {
    let s = dm.stats();
    for v in [s.entries, s.shared, s.nvm, s.cxl, s.remote, s.disk] {
        digest.word(v as u64);
    }
    digest.counters(counted);
}

/// Adds the per-layer counts of one `DisaggregatedMemory`: entries per
/// tier and shared-pool puts from its state, fabric verbs and bytes and
/// failover reads from `counted`, the [`counters`] one round added.
/// `disk_by_choice` is how many live entries asked for the disk tier.
pub fn add_cluster_counts(
    dm: &DisaggregatedMemory,
    counted: &[(String, u64)],
    disk_by_choice: u64,
    add: &mut impl FnMut(&'static str, u64),
) {
    let s = dm.stats();
    add("core.entries_shared", s.shared as u64);
    add("core.entries_cxl", s.cxl as u64);
    add("core.entries_nvm", s.nvm as u64);
    add("core.entries_remote", s.remote as u64);
    add("core.entries_disk", s.disk as u64);
    add(
        "core.put_disk_fallbacks",
        (s.disk as u64).saturating_sub(disk_by_choice),
    );
    for node in 0..dm.config().nodes as u32 {
        let stats = dm.node_manager(NodeId::new(node)).stats();
        add("node.put_shared", stats.shared_puts);
        add("node.put_overflow", stats.overflows);
    }
    for (name, value) in counted {
        // CXL loads and stores cross the fabric without verbs of their
        // own; they count as traffic all the same.
        match name.as_str() {
            "net.read.ops" | "net.write.ops" | "net.send.ops" | "cxl.load.ops"
            | "cxl.store.ops" => {
                add("net.verbs", *value);
            }
            "net.read.bytes" | "net.write.bytes" | "net.send.bytes" | "cxl.load.bytes"
            | "cxl.store.bytes" => add("net.bytes", *value),
            "cluster.failover.reads" | "cxl.failover.reads" => {
                add("cluster.failover_reads", *value)
            }
            _ => {}
        }
    }
}
