//! Pins for the read side of the tier ladder: `get`, `get_batch` of one
//! and `get_batch` of many must return the same bytes for every entry on
//! every tier, with and without the primary replica reachable, and a
//! scripted sequence must cost exactly what it cost before `fetch`
//! replaced `get_batch`'s own grouping `match`.

use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_net::{FabricFaults, FaultProfile, RetryPolicy};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{DetRng, FailureEvent};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DonationPolicy, EntryLocation,
    NodeId, ServerId, PAGE_SIZE,
};
use std::sync::Arc;

const KEYS: u64 = 32;
const PAGE: u64 = PAGE_SIZE as u64;

const PREFS: [TierPreference; 6] = [
    TierPreference::Auto,
    TierPreference::NodeShared,
    TierPreference::Nvm,
    TierPreference::Cxl,
    TierPreference::Remote,
    TierPreference::Disk,
];

/// One cluster shape, as in `tier_ladder.rs`: shared-pool pages per node,
/// CXL bytes, NVM bytes per node (zero leaves a tier unconfigured), the
/// single tenant's fast-tier quota (`None` installs no engine), payload.
struct Case {
    name: &'static str,
    shared_pages: u64,
    cxl_bytes: u64,
    nvm_bytes: u64,
    quota_bytes: Option<u64>,
    payload: usize,
}

const fn case(
    name: &'static str,
    shared_pages: u64,
    tier_pages: u64,
    quota_pages: Option<u64>,
    payload_pages: usize,
) -> Case {
    Case {
        name,
        shared_pages,
        cxl_bytes: tier_pages * PAGE,
        nvm_bytes: tier_pages * PAGE,
        quota_bytes: match quota_pages {
            Some(pages) => Some(pages * PAGE),
            None => None,
        },
        payload: payload_pages * PAGE_SIZE,
    }
}

const CASES: [Case; 5] = [
    case("fits", 64, 64, None, 1),
    case("shared pool full", 2, 8, Some(1024), 1),
    case("nvm/cxl not configured", 2, 0, None, 1),
    case("qos-denied tenant", 64, 64, Some(2), 1),
    case("payload > PAGE_SIZE", 64, 24, None, 3),
];

fn cluster(case: &Case) -> (DisaggregatedMemory, ServerId) {
    let mut config = ClusterConfig::small();
    config.compression = CompressionMode::Off;
    config.node.slab_size = ByteSize::new(2 * PAGE);
    let per_node = config.server.memory.as_u64() * config.servers_per_node as u64;
    config.server.donation =
        DonationPolicy::fixed((case.shared_pages * PAGE) as f64 / per_node as f64);
    config.node.nvm_pool = ByteSize::new(case.nvm_bytes);
    if case.cxl_bytes > 0 {
        config.cxl = CxlPoolConfig::new(1, ByteSize::new(case.cxl_bytes));
    }
    let dm = DisaggregatedMemory::new(config).unwrap();
    let server = dm.servers()[0];
    if let Some(quota) = case.quota_bytes {
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let tenant = engine.register_tenant(TenantSpec::new("t", 50, ByteSize::new(quota)));
        engine.assign_server(server, tenant);
    }
    (dm, server)
}

fn payload(case: &Case, key: u64) -> Vec<u8> {
    (0..case.payload)
        .map(|i| (key as usize * 31 + i) as u8)
        .collect()
}

/// The primary replica host of the first remote entry among `keys`.
fn first_primary(dm: &DisaggregatedMemory, server: ServerId, keys: &[u64]) -> Option<NodeId> {
    keys.iter()
        .find_map(|&k| match dm.record(server, k)?.location {
            EntryLocation::Remote { replicas } => replicas.first().copied(),
            _ => None,
        })
}

/// Reads every key through all three entry points and checks each byte.
fn read_all_ways(dm: &DisaggregatedMemory, server: ServerId, expect: &[Vec<u8>], ctx: &str) {
    let keys: Vec<u64> = (0..expect.len() as u64).collect();
    for &key in &keys {
        let want = &expect[key as usize];
        assert_eq!(&dm.get(server, key).unwrap(), want, "{ctx}: get {key}");
        assert_eq!(
            dm.get_batch(server, &[key]).unwrap(),
            std::slice::from_ref(want),
            "{ctx}: get_batch of 1, key {key}"
        );
    }
    assert_eq!(
        dm.get_batch(server, &keys).unwrap(),
        expect,
        "{ctx}: get_batch of {}",
        keys.len()
    );
}

#[test]
fn get_and_get_batch_return_the_same_bytes_on_every_tier() {
    let keys: Vec<u64> = (0..KEYS).collect();
    let mut failovers = 0;
    for case in &CASES {
        for pref in PREFS {
            let (dm, server) = cluster(case);
            // Half singly, half as one window, so remote entries come
            // with replica sets of their own and with a shared one.
            for &key in &keys[..16] {
                dm.put_pref(server, key, payload(case, key), pref).unwrap();
            }
            let window = keys[16..].iter().map(|&k| (k, payload(case, k))).collect();
            dm.put_batch(server, window, pref).unwrap();
            let expect: Vec<Vec<u8>> = keys.iter().map(|&k| payload(case, k)).collect();
            let ctx = format!("{} / {pref:?}", case.name);
            read_all_ways(&dm, server, &expect, &ctx);

            // With the primary down `get_batch` cannot window its
            // entries and reads them one by one across the survivors.
            let Some(primary) = first_primary(&dm, server, &keys) else {
                continue;
            };
            dm.failures().inject_now(FailureEvent::NodeDown(primary));
            read_all_ways(&dm, server, &expect, &format!("{ctx} / {primary} down"));
            failovers += 1;
        }
    }
    // The failover half is only a pin if some shapes reach the remote rung.
    assert!(failovers >= 6, "only {failovers} shapes had a remote entry");
}

/// Clock and read-path counts after the scripted sequence below, captured
/// at 37023e4 (the commit before `fetch`).
const SCRIPT_PIN: &str = "\
clock.ns = 223714167
cxl.failover.reads = 24
core.get.ns = count=248 mean=588052.4 p50=4096 p99=4194304 max=4194304
cluster.failover.reads = 12
cluster.suspect.marked = 1
net.read.bytes = 811008
net.read.ops = 159
net.read.ns = count=159 mean=2819.9 p50=4096 p99=16384 max=16384
";

#[test]
fn scripted_reads_cost_what_they_did_at_the_parent() {
    // "shared pool full" under `Auto` stops on every bounded rung; four
    // more keys go straight to disk and eight share one remote window.
    let case = &CASES[1];
    let (dm, server) = cluster(case);
    // A silent fault layer: nothing is injected, but failover reads and
    // suspect marks are counted.
    dm.fabric().install_faults(Arc::new(FabricFaults::new(
        DetRng::new(7),
        FaultProfile::none(),
        RetryPolicy::default(),
    )));
    for key in 0..KEYS {
        dm.put_pref(server, key, payload(case, key), TierPreference::Auto)
            .unwrap();
    }
    for key in KEYS..KEYS + 4 {
        dm.put_pref(server, key, payload(case, key), TierPreference::Disk)
            .unwrap();
    }
    let window = (KEYS + 4..KEYS + 12).map(|k| (k, payload(case, k))).collect();
    dm.put_batch(server, window, TierPreference::Remote).unwrap();
    let stats = dm.stats();
    assert_eq!(
        (stats.shared, stats.cxl, stats.nvm, stats.remote, stats.disk),
        (2, 8, 8, 22, 4)
    );

    let keys: Vec<u64> = (0..KEYS + 12).collect();
    let expect: Vec<Vec<u8>> = keys.iter().map(|&k| payload(case, k)).collect();
    read_all_ways(&dm, server, &expect, "healthy");
    let primary = first_primary(&dm, server, &keys).unwrap();
    dm.failures().inject_now(FailureEvent::NodeDown(primary));
    read_all_ways(&dm, server, &expect, "primary down");
    let pool = dm.cxl_pool().unwrap();
    pool.set_pool_node_down(0);
    read_all_ways(&dm, server, &expect, "primary and cxl pool node down");
    pool.set_pool_node_up(0);
    // A window whose first key is unknown reads nothing.
    assert!(dm.get_batch(server, &[999, 0, 1]).is_err());

    let mut seen = format!("clock.ns = {}\n", dm.clock().now().nanos());
    let dump = format!("{}{}", dm.metrics(), dm.fabric().metrics());
    for line in dump.lines() {
        if ["core.get.ns", "cxl.failover.", "cluster.", "net.read."]
            .iter()
            .any(|prefix| line.starts_with(prefix))
        {
            seen.push_str(line);
            seen.push('\n');
        }
    }
    assert!(
        seen == SCRIPT_PIN,
        "read path moved\n--- pin\n{SCRIPT_PIN}\n--- now\n{seen}"
    );
}
