//! Pins for the tier ladder: `put_pref` and `put_batch` must agree on
//! where every entry lands, and a node restart must release everything
//! the purged maps pointed at.

use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DonationPolicy, EntryId,
    EntryLocation, ServerId, PAGE_SIZE,
};
use std::mem::{discriminant, Discriminant};
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

/// One cluster shape. Capacities are whole multiples of the case's
/// payload, so the rung where each key stops is exact.
struct Case {
    name: &'static str,
    /// Shared-pool room per node, in 4 KiB pages.
    shared_pages: u64,
    /// CXL pool room (one pool node); zero leaves the tier unconfigured.
    cxl_bytes: u64,
    /// NVM room per node; zero leaves the tier unconfigured.
    nvm_bytes: u64,
    /// Fast-tier quota of the single tenant; `None` installs no engine.
    quota_bytes: Option<u64>,
    payload: usize,
}

const CASES: [Case; 5] = [
    Case {
        name: "fits",
        shared_pages: 64,
        cxl_bytes: 64 * PAGE,
        nvm_bytes: 64 * PAGE,
        quota_bytes: None,
        payload: PAGE_SIZE,
    },
    // Every bounded rung overflows inside the 32 keys, so `Auto` stops
    // on all five tiers; the ample quota exercises QoS accounting
    // without ever denying.
    Case {
        name: "shared pool full",
        shared_pages: 2,
        cxl_bytes: 8 * PAGE,
        nvm_bytes: 8 * PAGE,
        quota_bytes: Some(1024 * PAGE),
        payload: PAGE_SIZE,
    },
    Case {
        name: "nvm/cxl not configured",
        shared_pages: 2,
        cxl_bytes: 0,
        nvm_bytes: 0,
        quota_bytes: None,
        payload: PAGE_SIZE,
    },
    // Two pages of quota: the first two keys are admitted, the other
    // thirty degrade to disk.
    Case {
        name: "qos-denied tenant",
        shared_pages: 64,
        cxl_bytes: 64 * PAGE,
        nvm_bytes: 64 * PAGE,
        quota_bytes: Some(2 * PAGE),
        payload: PAGE_SIZE,
    },
    // Too large for the shared pool's page-sized blocks.
    Case {
        name: "payload > PAGE_SIZE",
        shared_pages: 64,
        cxl_bytes: 24 * PAGE,
        nvm_bytes: 24 * PAGE,
        quota_bytes: None,
        payload: 3 * PAGE_SIZE,
    },
];

fn cluster(case: &Case) -> (DisaggregatedMemory, ServerId, Option<Arc<QosEngine>>) {
    let mut config = ClusterConfig::small();
    // Raw pages, so stored length is the payload length.
    config.compression = CompressionMode::Off;
    // 8 KiB slabs: the donation below buys whole two-page slabs.
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
    let engine = case.quota_bytes.map(|quota| {
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let tenant = engine.register_tenant(TenantSpec::new("t", 50, ByteSize::new(quota)));
        engine.assign_server(server, tenant);
        engine
    });
    (dm, server, engine)
}

fn payload(case: &Case, key: u64) -> Vec<u8> {
    (0..case.payload)
        .map(|i| (key as usize * 31 + i) as u8)
        .collect()
}

/// What one way of storing the keys left behind.
#[derive(Debug, PartialEq)]
struct Landed {
    tiers: Vec<Discriminant<EntryLocation>>,
    /// `(entries, shared, cxl, nvm, remote, disk)`.
    census: (usize, usize, usize, usize, usize, usize),
}

/// Stores keys `0..KEYS` in windows of `window` keys (`0` = `put_pref`),
/// checks every read path byte for byte, then deletes everything and
/// checks that nothing stays charged or stored.
fn run(case: &Case, pref: TierPreference, window: usize) -> Landed {
    let (dm, server, engine) = cluster(case);
    let keys: Vec<u64> = (0..KEYS).collect();
    if window == 0 {
        for &key in &keys {
            dm.put_pref(server, key, payload(case, key), pref).unwrap();
        }
    } else {
        for chunk in keys.chunks(window) {
            let batch = chunk.iter().map(|&k| (k, payload(case, k))).collect();
            dm.put_batch(server, batch, pref).unwrap();
        }
    }
    let ctx = format!("{} / {pref:?} / window {window}", case.name);
    let expect: Vec<Vec<u8>> = keys.iter().map(|&k| payload(case, k)).collect();
    for &key in &keys {
        assert_eq!(
            dm.get(server, key).unwrap(),
            expect[key as usize],
            "{ctx}: get {key}"
        );
    }
    assert_eq!(
        dm.get_batch(server, &keys).unwrap(),
        expect,
        "{ctx}: get_batch"
    );
    let stats = dm.stats();
    let landed = Landed {
        tiers: keys
            .iter()
            .map(|&k| discriminant(&dm.record(server, k).unwrap().location))
            .collect(),
        census: (
            stats.entries,
            stats.shared,
            stats.cxl,
            stats.nvm,
            stats.remote,
            stats.disk,
        ),
    };

    for &key in &keys {
        dm.delete(server, key).unwrap();
    }
    let node = server.node();
    assert_eq!(dm.stats().entries, 0, "{ctx}");
    assert_eq!(dm.nvm_used(node), ByteSize::ZERO, "{ctx}: nvm bytes leaked");
    assert_eq!(dm.nvm_tier().len(node), 0, "{ctx}: nvm payloads leaked");
    assert_eq!(dm.disk_tier().len(node), 0, "{ctx}: disk payloads leaked");
    if let Some(pool) = dm.cxl_pool() {
        assert_eq!(
            pool.used_total(),
            ByteSize::ZERO,
            "{ctx}: cxl blocks leaked"
        );
    }
    if let Some(engine) = engine {
        for tenant in engine.tenants_snapshot() {
            assert_eq!(
                tenant.resident, 0,
                "{ctx}: tenant {} still charged",
                tenant.name
            );
        }
    }
    landed
}

#[test]
fn put_pref_and_put_batch_land_every_key_on_the_same_tier() {
    for case in &CASES {
        for pref in PREFS {
            let single = run(case, pref, 0);
            assert_eq!(single.census.0, KEYS as usize);
            assert_eq!(
                run(case, pref, 1),
                single,
                "{} / {pref:?}: batch of 1",
                case.name
            );
            assert_eq!(
                run(case, pref, KEYS as usize),
                single,
                "{} / {pref:?}: batch of {KEYS}",
                case.name
            );
        }
    }
    // The table is only a pin if the cases reach the rungs they claim to.
    let full = run(&CASES[1], TierPreference::Auto, 0);
    assert_eq!(
        full.census,
        (32, 2, 8, 8, 14, 0),
        "auto stops on every bounded rung"
    );
    let denied = run(&CASES[3], TierPreference::Auto, KEYS as usize);
    assert_eq!(
        denied.census,
        (32, 2, 0, 0, 0, 30),
        "quota admits two pages"
    );
    let big = run(&CASES[4], TierPreference::NodeShared, KEYS as usize);
    assert_eq!(
        big.census,
        (32, 0, 0, 0, 0, 32),
        "multi-page entries skip the pool"
    );
}

#[test]
fn node_restart_releases_local_tiers() {
    let mut config = ClusterConfig::small();
    config.compression = CompressionMode::Off;
    config.node.nvm_pool = ByteSize::new(2 * PAGE);
    config.cxl = CxlPoolConfig::new(1, ByteSize::new(2 * PAGE));
    let dm = DisaggregatedMemory::new(config).unwrap();
    let server = dm.servers()[0];
    let node = server.node();
    let page = |k: u64| vec![k as u8; PAGE_SIZE];
    for key in 1..=3 {
        // Two pages fill the NVM pool; the third spills to disk.
        dm.put_pref(server, key, page(key), TierPreference::Nvm)
            .unwrap();
    }
    dm.put_pref(server, 4, page(4), TierPreference::Cxl)
        .unwrap();
    assert!(dm.record(server, 3).unwrap().location.is_disk());
    assert!(dm.record(server, 4).unwrap().location.is_cxl());

    let (_, purged) = dm.handle_node_restart(node).unwrap();
    assert_eq!(purged, 4);
    assert_eq!(dm.stats().entries, 0);
    assert_eq!(dm.nvm_used(node), ByteSize::ZERO, "nvm capacity leaked");
    assert_eq!(dm.nvm_tier().len(node), 0, "nvm payloads orphaned");
    assert_eq!(
        dm.disk_tier().len(node),
        0,
        "disk payloads and cxl shadows orphaned"
    );
    assert_eq!(dm.cxl_pool().unwrap().used_total(), ByteSize::ZERO);
    assert!(!dm.disk_tier().contains(node, EntryId::new(server, 4)));

    dm.put_pref(server, 1, page(1), TierPreference::Nvm)
        .unwrap();
    assert!(
        dm.record(server, 1).unwrap().location.is_nvm(),
        "freed nvm is usable again"
    );
}
