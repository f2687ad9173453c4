//! No verb deadlocks. `DisaggregatedMemory` keeps its maps, compress memo,
//! disk and NVM tiers, node managers and replicator (with the remote
//! store) behind one non-reentrant lock, which each public verb takes
//! once. A verb that took it twice would hang (or panic) instead of
//! returning, and so would a caller that held one of the guards the
//! accessors return across a verb. So this drives every locked entry
//! point once, on a cluster with every optional layer installed, from a
//! spawned thread, and drops each guard at the end of its statement. A
//! watchdog fails the test when the driver has not finished in 10 s.

use dmem_cluster::{Placer, RemoteSlabEvictor};
use dmem_core::{DisaggregatedMemory, Maintenance, TierPreference};
use dmem_net::{CxlAddr, FabricFaults, FaultProfile};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{DetRng, FailureEvent, SimDuration, TelemetryHub};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DonationPolicy, EntryId,
    EntryLocation, NodeId, PlacementStrategy,
};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn page(key: u64) -> Vec<u8> {
    vec![key as u8; 4096]
}

/// Every public verb that takes the cluster lock, once or more, in an
/// order that reaches each tier and each fallback path.
fn drive_every_verb() {
    let mut config = ClusterConfig::small();
    // One 8 KiB slab of donation per node: two pages of shared pool.
    config.node.slab_size = ByteSize::from_kib(8);
    config.server.donation = DonationPolicy::fixed(0.000244140625);
    config.node.nvm_pool = ByteSize::from_mib(1);
    config.cxl = CxlPoolConfig::new(2, ByteSize::from_kib(64));
    config.compression = CompressionMode::Off;
    let dm = Arc::new(DisaggregatedMemory::new(config).unwrap());
    let engine = Arc::new(QosEngine::new(QosConfig::default()));
    dm.install_qos(Arc::clone(&engine));
    dm.install_telemetry(Arc::new(TelemetryHub::new(SimDuration::from_millis(50))));
    let faults = FabricFaults::new(DetRng::new(7), FaultProfile::chaos_default());
    dm.fabric().install_faults(Arc::new(faults));

    let (low, high) = (dm.servers()[0], dm.servers()[1]);
    let node = low.node();
    assert_eq!(high.node(), node);
    let batch_tenant = engine.register_tenant(TenantSpec::new("batch", 10, ByteSize::from_mib(4)));
    let kv_tenant = engine.register_tenant(TenantSpec::new("kv", 200, ByteSize::from_mib(4)));
    engine.assign_server(low, batch_tenant);
    engine.assign_server(high, kv_tenant);

    // put_pref at every preference, one key each, onto five tiers.
    let prefs = [
        TierPreference::Auto,
        TierPreference::NodeShared,
        TierPreference::Nvm,
        TierPreference::Cxl,
        TierPreference::Remote,
        TierPreference::Disk,
    ];
    for (key, pref) in (1..).zip(prefs) {
        dm.put_pref(low, key, page(key), pref).unwrap();
    }
    let landed: Vec<_> = (1..=6)
        .map(|k| dm.record(low, k).unwrap().location)
        .collect();
    assert!(landed[0].is_node_local() && landed[1].is_node_local());
    assert!(landed[2].is_nvm() && landed[3].is_cxl() && landed[4].is_remote());
    assert!(landed[5].is_disk());

    // The pool is full: a higher-priority put demotes one page to disk.
    dm.put_pref(high, 7, page(7), TierPreference::NodeShared)
        .unwrap();
    assert_eq!(dm.metrics().counter("qos.evict.demotions").get(), 1);

    // get and get_batch across all five tiers.
    for key in 1..=6 {
        assert_eq!(dm.get(low, key).unwrap(), page(key), "key {key}");
    }
    assert_eq!(dm.get(high, 7).unwrap(), page(7));
    let all: Vec<u64> = (1..=6).collect();
    assert_eq!(
        dm.get_batch(low, &all).unwrap(),
        all.iter().map(|&k| page(k)).collect::<Vec<_>>()
    );

    // A CXL pool node down: the read degrades to the disk shadow.
    let pool = Arc::clone(dm.cxl_pool().unwrap());
    let EntryLocation::Cxl { addr } = landed[3] else {
        unreachable!()
    };
    let pool_node = CxlAddr::from_raw(addr).pool_node();
    pool.set_pool_node_down(pool_node);
    assert_eq!(dm.get(low, 4).unwrap(), page(4));
    assert_eq!(dm.get_batch(low, &[4]).unwrap(), vec![page(4)]);
    assert_eq!(dm.metrics().counter("cxl.failover.reads").get(), 2);
    pool.set_pool_node_up(pool_node);

    // put_batch at Auto, then at Remote with no group peer up: the
    // window falls to disk.
    dm.put_batch(
        low,
        (10..13).map(|k| (k, page(k))).collect(),
        TierPreference::Auto,
    )
    .unwrap();
    let peers: Vec<NodeId> = dm
        .membership()
        .nodes()
        .iter()
        .copied()
        .filter(|&n| n != node)
        .collect();
    for &peer in &peers {
        dm.failures().inject_now(FailureEvent::NodeDown(peer));
    }
    dm.put_batch(
        low,
        (20..23).map(|k| (k, page(k))).collect(),
        TierPreference::Remote,
    )
    .unwrap();
    assert!((20..23).all(|k| dm.record(low, k).unwrap().location.is_disk()));
    for &peer in &peers {
        dm.failures().inject_now(FailureEvent::NodeUp(peer));
    }

    // A batch whose primary is down falls back to per-entry failover.
    dm.put_batch(
        low,
        (30..33).map(|k| (k, page(k))).collect(),
        TierPreference::Remote,
    )
    .unwrap();
    let EntryLocation::Remote { replicas } = dm.record(low, 30).unwrap().location else {
        panic!("the window is remote")
    };
    let primary = replicas[0];
    dm.failures().inject_now(FailureEvent::NodeDown(primary));
    // A single read fails over too, and marks the primary suspect.
    assert_eq!(dm.get(low, 30).unwrap(), page(30));
    assert_eq!(dm.replicator().suspects(), vec![primary]);
    let keys = [30, 31, 32];
    assert_eq!(
        dm.get_batch(low, &keys).unwrap(),
        keys.iter().map(|&k| page(k)).collect::<Vec<_>>()
    );

    // The primary restarts empty; repair brings its entries back to full
    // degree.
    dm.failures().inject_now(FailureEvent::NodeUp(primary));
    dm.handle_node_restart(primary).unwrap();
    assert!(dm.repair_replicas() >= 3);

    // The read-only verbs, the five guards and delete.
    assert!(dm.nvm_used(node) > ByteSize::ZERO);
    assert_eq!(dm.nvm_tier().len(node), 1);
    assert!(dm.disk_tier().len(node) > 0);
    assert!(dm.node_manager(node).stats().shared_puts > 0);
    dm.node_manager(node).record_remote_escalation();
    assert!(dm.remote_store().stats(primary).is_some());
    let EntryLocation::Remote { replicas } = dm.record(low, 30).unwrap().location else {
        panic!("repair keeps the window remote")
    };
    let factor = dm.replicator().factor().get();
    assert_eq!(dm.replicator().live_degree(EntryId::new(low, 30), &replicas), factor);
    // The membership is no part of the lock: it reads under a live guard.
    {
        let store = dm.remote_store();
        let hosts = dm.membership().nodes();
        assert!(hosts.iter().all(|&n| store.stats(n).is_some()));
    }
    // Repair settled the suspect the failover above marked: the primary
    // is back up and reachable from every peer.
    assert!(dm.replicator().suspects().is_empty());
    let entries = dm.entries_snapshot().len();
    assert_eq!(dm.stats().entries, entries);
    dm.delete(low, 6).unwrap();
    dm.delete(low, 4).unwrap();
    assert!(dm.record(low, 6).is_none());
    assert_eq!(dm.stats().entries, entries - 2);

    // Eviction, the control loops and one maintenance window long enough
    // to run every task: Eviction (every 50 ms), Advertise (10 ms), and
    // Balloon, which shares its 200 ms tick with QosTick.
    let placer = || Placer::new(PlacementStrategy::PowerOfTwoChoices, DetRng::new(3));
    let evictor = || RemoteSlabEvictor::new(ByteSize::from_kib(4), 8);
    let _ = dm.run_eviction(&evictor(), &mut placer());
    dm.qos_tick();
    dm.telemetry_tick();
    let mut maintenance = Maintenance::new(Arc::clone(&dm), evictor(), placer());
    let report = maintenance
        .run_until(dm.clock().now() + SimDuration::from_secs(1))
        .unwrap();
    assert!(report.eviction_scans >= 1 && report.advertise_refreshes >= 1, "{report:?}");
    assert!(report.qos_ticks >= 1, "the balloon tick has passed: {report:?}");
    assert_eq!(dm.get(low, 5).unwrap(), page(5));
}

#[test]
fn no_verb_deadlocks() {
    let (done, finished) = mpsc::channel();
    let driver = thread::spawn(move || {
        drive_every_verb();
        done.send(()).unwrap();
    });
    match finished.recv_timeout(Duration::from_secs(10)) {
        Ok(()) => driver.join().unwrap(),
        // The driver panicked before it finished: surface its panic.
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = driver.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("a verb has not returned after 10 s: some path takes the cluster lock twice")
        }
    }
}
