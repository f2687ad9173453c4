//! One fixed 200-op scenario whose complete metrics dump — the core
//! registry, the fabric's, every node manager's and the QoS decision
//! digest — is pinned to a fixture captured before the op path stopped
//! looking metrics up by name. A lazy handle that loses an increment,
//! adds a key or registers one early shows up here as a diff.

use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{splitmix64, SimDuration};
use dmem_types::{ByteSize, ClusterConfig, CxlPoolConfig, DonationPolicy, NodeId};
use std::fmt::Write as _;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/metrics_dump.txt");

const PREFS: [TierPreference; 6] = [
    TierPreference::Auto,
    TierPreference::NodeShared,
    TierPreference::Nvm,
    TierPreference::Cxl,
    TierPreference::Remote,
    TierPreference::Disk,
];
const SIZES: [usize; 4] = [64, 700, 4096, 9000];
const OPS: u64 = 200;
const KEYS: u64 = 48;

/// Small enough that every bounded tier overflows inside the 200 ops.
fn cluster() -> (DisaggregatedMemory, Arc<QosEngine>) {
    let mut config = ClusterConfig::small();
    config.node.slab_size = ByteSize::from_kib(8);
    config.node.recv_pool = ByteSize::from_kib(96);
    config.node.nvm_pool = ByteSize::from_kib(24);
    config.server.donation = DonationPolicy::fixed(16.0 * 1024.0 / (32.0 * 1024.0 * 1024.0));
    config.cxl = CxlPoolConfig::new(2, ByteSize::from_kib(24));
    let dm = DisaggregatedMemory::new(config).expect("a valid configuration");
    let engine = Arc::new(QosEngine::new(QosConfig {
        burst: ByteSize::from_kib(4),
        min_slo_samples: 1,
        ..QosConfig::default()
    }));
    // One tenant registered before the engine is installed and one after:
    // both orders must bind their counters to the cluster's registry.
    let metered = engine.register_tenant(
        TenantSpec::new("metered", 10, ByteSize::from_kib(256)).with_fabric_rate(50_000_000),
    );
    engine.assign_server(dm.servers()[0], metered);
    dm.install_qos(Arc::clone(&engine));
    // An SLO no get can meet: every controller pass throttles `metered`
    // one level further, until its puts are shed.
    let capped = engine.register_tenant(
        TenantSpec::new("capped", 200, ByteSize::from_kib(16))
            .with_slo_p99(SimDuration::from_micros(1)),
    );
    engine.assign_server(dm.servers()[1], capped);
    (dm, engine)
}

/// Half the values compress, half do not.
fn value(h: u64) -> Vec<u8> {
    let len = SIZES[(h >> 24) as usize % SIZES.len()];
    if h & (1 << 40) == 0 {
        return vec![(h >> 48) as u8; len];
    }
    let mut state = h;
    (0..len)
        .map(|_| {
            state = splitmix64(state);
            (state >> 56) as u8
        })
        .collect()
}

fn run() -> String {
    let (dm, engine) = cluster();
    // Servers 0 and 1 share node 0 and have a tenant each; server 2 sits
    // on node 1 and stays with the system tenant.
    let servers = [dm.servers()[0], dm.servers()[1], dm.servers()[2]];
    for op in 0..OPS {
        let h = splitmix64(op ^ 0x5eed_f1c7);
        let server = servers[(h >> 32) as usize % servers.len()];
        let key = (h >> 16) % KEYS;
        let pref = PREFS[(h >> 8) as usize % PREFS.len()];
        // Results are ignored: missing keys and full tiers are part of
        // the scenario, and what they count is what the fixture pins.
        match h % 10 {
            0..=3 => {
                let _ = dm.put_pref(server, key, value(h), pref);
            }
            4 => {
                let batch = (0..4)
                    .map(|i| ((key + i) % KEYS, value(splitmix64(h + i))))
                    .collect();
                let _ = dm.put_batch(server, batch, pref);
            }
            5 | 6 => {
                let _ = dm.get(server, key);
            }
            7 => {
                let live: Vec<u64> = (0..KEYS)
                    .filter(|&k| dm.record(server, k).is_some())
                    .skip(key as usize % 4)
                    .take(4)
                    .collect();
                let _ = dm.get_batch(server, &live);
            }
            8 => {
                let _ = dm.delete(server, key);
            }
            _ => {
                let _ = dm.get(server, (key + 1) % KEYS);
            }
        }
        match op {
            40 => dm.cxl_pool().expect("configured").set_pool_node_down(0),
            150 => dm.cxl_pool().expect("configured").set_pool_node_up(0),
            _ => {}
        }
        if (op + 1) % 25 == 0 {
            dm.qos_tick();
        }
    }
    let mut dump = String::new();
    write!(
        dump,
        "# core\n{}# fabric\n{}",
        dm.metrics(),
        dm.fabric().metrics()
    )
    .unwrap();
    for node in 0..dm.config().nodes as u32 {
        let manager = dm.node_manager(NodeId::new(node));
        write!(dump, "# node-{node}\n{}", manager.metrics()).unwrap();
    }
    writeln!(dump, "# qos\n{}", engine.decision_digest()).unwrap();
    dump
}

#[test]
fn metrics_dump_matches_the_parent_fixture() {
    let dump = run();
    assert!(
        dump == FIXTURE,
        "metrics dump moved\n--- fixture\n{FIXTURE}\n--- now\n{dump}"
    );
}
