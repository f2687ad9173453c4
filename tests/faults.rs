//! Fabric fault-injection integration tests (ROADMAP "failure
//! semantics").
//!
//! These drive the chaos harness with the seeded fault layer installed
//! (`--faults` mode): verb drops, delays and duplication, host-pair
//! partitions and QP breaks. Every seed must hold the original cluster
//! invariants plus the two fault-mode invariants (reads never return
//! wrong or stale data; suspect primaries are repaired or evicted), and
//! the whole apparatus must stay byte-for-byte deterministic: same seed,
//! same retries, same digests, run after run and across parallel jobs.
//!
//! The file also pins the retry machinery itself: the backoff sequence,
//! timeout firing on the virtual clock under a 100%-drop profile, and
//! QP error→re-establish through the connection manager.

use memory_disaggregation::chaos::run_seed;
use memory_disaggregation::net::faults::{retry_backoff, RETRY_ATTEMPTS};
use memory_disaggregation::net::{
    ChannelKind, ConnectionManager, Fabric, FabricFaults, FaultProfile,
};
use memory_disaggregation::prelude::*;
use memory_disaggregation::sim::chaos::ChaosConfig;
use memory_disaggregation::sim::{DetRng, FailureEvent, FailureInjector};
use std::sync::Arc;

fn faults_config() -> ChaosConfig {
    ChaosConfig {
        fabric_faults: true,
        ..ChaosConfig::default()
    }
}

/// A fabric with the fault layer installed, plus its clock — the fixture
/// for the verb-level tests below.
fn faulted_fabric(profile: FaultProfile, seed: u64) -> (SimClock, Fabric, Arc<FabricFaults>) {
    let clock = SimClock::new();
    let failures = FailureInjector::new(clock.clone());
    let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures);
    let layer = Arc::new(FabricFaults::new(DetRng::new(seed), profile));
    fabric.install_faults(Arc::clone(&layer));
    (clock, fabric, layer)
}

/// Acceptance gate: 32 distinct seeds under fault injection, every
/// invariant held — including the two fault-mode invariants — and the
/// sweep must demonstrably exercise retry, failover and suspicion (not
/// vacuously pass because no fault ever fired).
#[test]
fn fault_chaos_invariants_hold_across_32_seeds() {
    let config = faults_config();
    let mut acked_puts = 0usize;
    let mut verified_reads = 0usize;
    let mut retries = 0u64;
    let mut failovers = 0u64;
    let mut suspects = 0u64;
    for seed in 0..32u64 {
        match run_seed(seed, &config) {
            Ok(stats) => {
                assert!(stats.faults_mode, "seed {seed} ran without the fault layer");
                acked_puts += stats.acked_puts;
                verified_reads += stats.verified_reads;
                retries += stats.fault_retries;
                failovers += stats.failover_reads;
                suspects += stats.suspects_marked;
            }
            Err(report) => panic!("seed {seed} violated an invariant under faults:\n{report}"),
        }
    }
    assert!(acked_puts > 500, "too few acked puts: {acked_puts}");
    assert!(verified_reads > 2_000, "too few verified reads: {verified_reads}");
    // Observed sweep totals are ~4500/~700/~110; the floors only guard
    // against the fault path silently wiring itself out.
    assert!(retries > 500, "fault layer barely retried: {retries}");
    assert!(failovers > 32, "reads barely failed over: {failovers}");
    assert!(suspects > 0, "failover never marked a primary suspect");
}

/// Same seed, same fault schedule, same recovery decisions: the metrics
/// digest (which folds in the fabric-side fault counters) must be
/// byte-identical across reruns and independent of sibling threads.
#[test]
fn fault_runs_are_seed_deterministic_and_parallel_stable() {
    let config = faults_config();
    let a = run_seed(5, &config).expect("seed 5 holds invariants");
    let b = run_seed(5, &config).expect("seed 5 holds invariants");
    assert_eq!(a.metrics_digest, b.metrics_digest, "same seed, same counters");
    assert_eq!(a.fault_retries, b.fault_retries);
    assert_eq!(a.failover_reads, b.failover_reads);
    assert_eq!(a.suspects_marked, b.suspects_marked);
    assert!(
        a.metrics_digest.contains("faults.retry.attempts"),
        "fault-mode digest must fold in fabric counters: {}",
        a.metrics_digest
    );

    // Mirror `chaos --faults --jobs N`: run sibling seeds on threads and
    // require seed 5's digest to come out unchanged.
    let from_parallel = std::thread::scope(|scope| {
        let handles: Vec<_> = (4..8u64)
            .map(|seed| {
                let config = &config;
                scope.spawn(move || {
                    let stats = run_seed(seed, config)
                        .unwrap_or_else(|report| panic!("seed {seed} failed:\n{report}"));
                    (seed, stats.metrics_digest)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed thread panicked"))
            .find(|(seed, _)| *seed == 5)
            .map(|(_, digest)| digest)
            .expect("seed 5 ran")
    });
    assert_eq!(from_parallel, a.metrics_digest, "digest independent of sibling threads");
}

/// The fault layer is strictly opt-in: a run without it carries no fault
/// or suspicion counters and reports zero fault-mode activity, so
/// fault-free sweeps stay byte-identical to builds predating the layer.
#[test]
fn fault_free_runs_carry_no_fault_state() {
    let stats = run_seed(0, &ChaosConfig::default())
        .expect("fault-free seed 0 holds invariants");
    assert!(!stats.faults_mode);
    assert_eq!(stats.fault_retries, 0);
    assert_eq!(stats.failover_reads, 0);
    assert_eq!(stats.suspects_marked, 0);
    for key in ["faults.", "cluster.failover", "cluster.suspect"] {
        assert!(
            !stats.metrics_digest.contains(key),
            "fault-free digest leaked `{key}`: {}",
            stats.metrics_digest
        );
    }
}

/// The retry policy's deterministic backoff: base 10 µs doubling to the
/// 160 µs cap, and the seeded jitter never leaves the [half, full]
/// envelope.
#[test]
fn backoff_sequence_doubles_to_the_cap_with_bounded_jitter() {
    let micros: Vec<u64> = (0..8).map(|i| retry_backoff(i).as_nanos() / 1_000).collect();
    assert_eq!(micros, vec![10, 20, 40, 80, 160, 160, 160, 160]);

    let (_, _, layer) = faulted_fabric(FaultProfile::chaos_default(), 11);
    for attempt in 0..6 {
        let full = retry_backoff(attempt);
        let j = layer.jittered_backoff(attempt);
        assert!(j.as_nanos() >= full.as_nanos() / 2, "below half-envelope: {j:?}");
        assert!(j <= full, "above the deterministic cap: {j:?}");
    }
}

/// Under a 100%-drop profile every attempt times out: the verb fails
/// with `Timeout` after exactly the policy's attempt budget, the virtual
/// clock advances by the burnt transfers plus the jittered backoffs, and
/// the retry counters account for every attempt.
#[test]
fn always_drop_profile_times_out_after_the_attempt_budget() {
    let profile = FaultProfile {
        drop: 1.0,
        delay: 0.0,
        max_delay: SimDuration::ZERO,
        duplicate: 0.0,
    };
    let (clock, fabric, _) = faulted_fabric(profile, 3);
    let mr = fabric.register(NodeId::new(1), ByteSize::from_kib(8)).unwrap();
    let qp = fabric.connect(NodeId::new(0), NodeId::new(1)).unwrap();

    let t0 = clock.now();
    let err = fabric.write(&qp, &[0u8; 512], &mr, 0).unwrap_err();
    assert!(matches!(err, DmemError::Timeout { .. }), "got {err:?}");

    let attempts = u64::from(RETRY_ATTEMPTS);
    let metrics = fabric.metrics();
    assert_eq!(metrics.counter("faults.inject.drop").get(), attempts);
    assert_eq!(metrics.counter("faults.retry.attempts").get(), attempts - 1);
    assert_eq!(metrics.counter("faults.retry.exhausted").get(), 1);
    assert_eq!(metrics.counter("faults.retry.recovered").get(), 0);

    // Four jittered backoffs (10+20+40+80 µs full) stay inside the
    // [half, full] envelope; the drops additionally burn transfer time.
    let elapsed = clock.now() - t0;
    let full_backoff: u64 = (0..4).map(|i| retry_backoff(i).as_nanos()).sum();
    assert!(
        elapsed.as_nanos() >= full_backoff / 2,
        "clock barely moved: {elapsed:?}"
    );
    assert!(
        elapsed.as_nanos() <= full_backoff + 5_000_000,
        "clock ran away: {elapsed:?}"
    );
}

/// A partition injected at the step severs the pair in both directions
/// (verbs fail `LinkDown` once the retry budget is spent) and the heal
/// restores it — the link cut and heal the chaos harness injects per
/// fault step.
#[test]
fn partition_and_heal_apply_at_the_step() {
    let (_, fabric, _) = faulted_fabric(FaultProfile::none(), 9);
    let failures = fabric.failures();
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let mr = fabric.register(b, ByteSize::from_kib(8)).unwrap();
    let qp = fabric.connect(a, b).unwrap();
    fabric.write(&qp, b"before", &mr, 0).unwrap();

    failures.inject_now(FailureEvent::LinkDown(a, b));
    assert!(!fabric.is_path_up(b, a), "the cut is order-blind");
    let err = fabric.write(&qp, b"cut", &mr, 0).unwrap_err();
    assert_eq!(err, DmemError::LinkDown { from: a, to: b });

    failures.inject_now(FailureEvent::LinkUp(b, a));
    assert!(fabric.is_path_up(a, b));
    fabric.write(&qp, b"healed", &mr, 0).unwrap();
}

/// QP error→re-establish: breaking the queue pairs drives verbs on the
/// cached channel to `LinkDown`, and the connection manager's probe
/// detects it and hands back a fresh, working queue pair.
#[test]
fn broken_qps_are_reestablished_through_the_connection_manager() {
    let clock = SimClock::new();
    let failures = FailureInjector::new(clock.clone());
    let fabric = Fabric::new(clock.clone(), CostModel::paper_default(), failures);
    let mut cm = ConnectionManager::new(NodeId::new(0), fabric.clone());
    let peer = NodeId::new(2);

    let before = cm.channel(peer, ChannelKind::Data).unwrap();
    fabric.send(&before, b"ping".to_vec()).unwrap();

    let broken = fabric.break_qps(NodeId::new(0), peer);
    assert!(broken >= 1, "expected at least the data QP to break");
    assert!(
        matches!(
            fabric.send(&before, b"dead".to_vec()),
            Err(DmemError::LinkDown { .. })
        ),
        "verbs on a broken pair must fail link-down"
    );
    assert_eq!(fabric.metrics().counter("faults.qp.broken").get(), broken as u64);

    let after = cm.channel(peer, ChannelKind::Data).unwrap();
    assert_ne!(before.qp, after.qp, "probe must re-establish a fresh pair");
    fabric.send(&after, b"pong".to_vec()).unwrap();
}

/// PR 3's exact time-attribution identity (rows + untraced = total) must
/// survive fault injection: backoff waits and injected fault latencies
/// are recorded as async timeline events only, never as sync spans, so
/// they land in the `(untraced)` row instead of double-counting.
#[test]
fn attribution_identity_holds_under_fault_injection() {
    let profile = FaultProfile {
        drop: 0.10,
        delay: 0.20,
        max_delay: SimDuration::from_micros(20),
        duplicate: 0.05,
    };
    let (clock, fabric, _) = faulted_fabric(profile, 17);
    let mr = fabric.register(NodeId::new(1), ByteSize::from_kib(64)).unwrap();
    let qp = fabric.connect(NodeId::new(0), NodeId::new(1)).unwrap();

    clock.tracer().enable();
    let t0 = clock.now();
    for i in 0..200u64 {
        let _ = fabric.write(&qp, &[i as u8; 1024], &mr, (i % 32) * 1024);
        let _ = fabric.read(&qp, &mr, (i % 32) * 1024, 1024);
    }
    let trace = clock.tracer().finish();

    let metrics = fabric.metrics();
    let injected = metrics.counter("faults.inject.drop").get()
        + metrics.counter("faults.inject.delay").get()
        + metrics.counter("faults.inject.duplicate").get();
    assert!(injected > 0, "profile fired no faults in 400 verbs");
    assert!(metrics.counter("faults.retry.attempts").get() > 0);

    let attribution = trace.attribution(clock.now() - t0);
    assert_eq!(
        attribution.accounted_ns(),
        attribution.total_ns,
        "rows + untraced must equal total under faults"
    );
    assert_eq!(
        attribution.category_ns("faults"),
        0,
        "fault events are async-only and must not appear as attribution rows"
    );
    assert!(attribution.category_ns("net") > 0, "verb spans still attributed");
}
