//! The op path does no by-name metric lookup: after every tier has been
//! touched once, a thousand mixed operations resolve a metric by name
//! only where they create a key nobody touched before — the first touch
//! of a lazy handle — and not at all once every key has fired. (The
//! sibling of `alloc_smoke`'s "no heap allocation per access".)

use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{splitmix64, MetricsRegistry};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DonationPolicy, NodeId, ServerId,
};
use std::sync::Arc;

const PREFS: [TierPreference; 6] = [
    TierPreference::Auto,
    TierPreference::NodeShared,
    TierPreference::Nvm,
    TierPreference::Cxl,
    TierPreference::Remote,
    TierPreference::Disk,
];
const SIZES: [usize; 3] = [64, 4096, 3 * 4096];
const KEYS: u64 = 96;
const OPS: u64 = 1000;

/// CXL, NVM and QoS all on; every bounded tier is small enough to
/// overflow, so the fallback rungs run too.
fn cluster() -> (DisaggregatedMemory, [ServerId; 2]) {
    let mut config = ClusterConfig::small();
    config.compression = CompressionMode::Off;
    config.node.slab_size = ByteSize::from_kib(16);
    config.node.recv_pool = ByteSize::from_kib(256);
    config.node.nvm_pool = ByteSize::from_kib(64);
    config.server.donation = DonationPolicy::fixed(1.0 / 512.0);
    config.cxl = CxlPoolConfig::new(2, ByteSize::from_kib(64));
    let dm = DisaggregatedMemory::new(config).expect("a valid configuration");
    // One server with a tenant of its own, one left to the system tenant.
    let servers = [dm.servers()[0], dm.servers()[2]];
    let engine = Arc::new(QosEngine::new(QosConfig::default()));
    let tenant = engine.register_tenant(TenantSpec::new("kv", 100, ByteSize::from_mib(64)));
    engine.assign_server(servers[0], tenant);
    dm.install_qos(engine);
    (dm, servers)
}

fn value(h: u64) -> Vec<u8> {
    vec![(h >> 48) as u8; SIZES[(h >> 24) as usize % SIZES.len()]]
}

/// Every registry an operation can count into: the core's, the fabric's
/// and each node manager's.
fn registries(dm: &DisaggregatedMemory) -> Vec<(String, MetricsRegistry)> {
    let mut all = vec![
        ("core".to_owned(), dm.metrics().clone()),
        ("fabric".to_owned(), dm.fabric().metrics().clone()),
    ];
    for node in 0..dm.config().nodes as u32 {
        let manager = dm.node_manager(NodeId::new(node));
        all.push((format!("node-{node}"), manager.metrics().clone()));
    }
    all
}

/// `(by-name lookups so far, keys registered)` per registry.
fn ledger(registries: &[(String, MetricsRegistry)]) -> Vec<(u64, usize)> {
    registries
        .iter()
        .map(|(_, r)| {
            let keys = r.counter_snapshot().len()
                + r.gauge_snapshot().len()
                + r.histogram_snapshot().len();
            (r.lookups(), keys)
        })
        .collect()
}

fn mixed_pass(dm: &DisaggregatedMemory, servers: &[ServerId; 2], salt: u64) {
    for op in 0..OPS {
        let h = splitmix64(op ^ salt);
        let server = servers[(h >> 32) as usize % servers.len()];
        let key = (h >> 16) % KEYS;
        let pref = PREFS[(h >> 8) as usize % PREFS.len()];
        // Misses and full tiers are part of the mix.
        match h % 8 {
            0..=2 => {
                let _ = dm.put_pref(server, key, value(h), pref);
            }
            3 => {
                let batch = (0..4)
                    .map(|i| ((key + i) % KEYS, value(splitmix64(h + i))))
                    .collect();
                let _ = dm.put_batch(server, batch, pref);
            }
            4 | 5 => {
                let _ = dm.get(server, key);
            }
            6 => {
                let live: Vec<u64> = (key..key + 8)
                    .map(|k| k % KEYS)
                    .filter(|&k| dm.record(server, k).is_some())
                    .collect();
                let _ = dm.get_batch(server, &live);
            }
            _ => {
                let _ = dm.delete(server, key);
            }
        }
    }
}

#[test]
fn op_path_looks_a_metric_up_only_on_its_first_touch() {
    let (dm, servers) = cluster();
    // Warm every tier preference once, on both servers.
    for (i, &pref) in PREFS.iter().enumerate() {
        for &server in &servers {
            let key = KEYS + i as u64;
            dm.put_pref(server, key, vec![7u8; 4096], pref)
                .expect("disk takes anything");
            dm.get(server, key).expect("just stored");
        }
    }
    let registries = registries(&dm);

    let before = ledger(&registries);
    mixed_pass(&dm, &servers, 0x0070_a7b5);
    let after = ledger(&registries);
    let mut fired = 0;
    for (((name, _), (l0, k0)), (l1, k1)) in registries.iter().zip(&before).zip(&after) {
        assert_eq!(
            l1 - l0,
            (k1 - k0) as u64,
            "{name}: {OPS} ops made {} by-name lookups for {} new keys",
            l1 - l0,
            k1 - k0
        );
        fired += k1;
    }
    assert!(
        fired >= 40,
        "the mix should reach every tier, fired {fired} keys"
    );

    // Every key the mix can reach has fired: a second pass of other
    // operations over the same mix looks nothing up.
    mixed_pass(&dm, &servers, 0x5ec0_4d00);
    let again = ledger(&registries);
    for ((name, _), ((l1, k1), (l2, k2))) in registries.iter().zip(after.iter().zip(&again)) {
        assert_eq!((l2 - l1, k2 - k1), (0, 0), "{name}: second pass");
    }
}
