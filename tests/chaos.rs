//! Chaos harness integration tests (ROADMAP "failure semantics").
//!
//! These drive the deterministic chaos engine end to end: many distinct
//! seeds must hold every cluster invariant, and a deliberately broken
//! configuration (replication factor 1 under node crashes) must be caught
//! with a seed-addressable, shrunk report.

use memory_disaggregation::chaos::{run_schedule, run_seed, shrink, InvariantKind};
use memory_disaggregation::prelude::*;
use memory_disaggregation::sim::chaos::{ChaosConfig, ChaosSchedule, ChaosStep};
use memory_disaggregation::sim::{FailureEvent, SimDuration};

/// Acceptance gate: at least 32 distinct seeds, all invariants held.
#[test]
fn chaos_invariants_hold_across_32_seeds() {
    let config = ChaosConfig::default();
    let mut total = ChaosStatsRollup::default();
    for seed in 0..32u64 {
        match run_seed(seed, &config) {
            Ok(stats) => total.absorb(seed, stats.acked_puts, stats.verified_reads),
            Err(report) => panic!("seed {seed} violated an invariant:\n{report}"),
        }
    }
    // The sweep must exercise the system for real, not vacuously pass.
    assert!(total.acked_puts > 500, "too few acked puts: {total:?}");
    assert!(total.verified_reads > 2_000, "too few verified reads: {total:?}");
}

#[derive(Debug, Default)]
struct ChaosStatsRollup {
    seeds: usize,
    acked_puts: usize,
    verified_reads: usize,
}

impl ChaosStatsRollup {
    fn absorb(&mut self, _seed: u64, puts: usize, reads: usize) {
        self.seeds += 1;
        self.acked_puts += puts;
        self.verified_reads += reads;
    }
}

/// Acceptance gate for the QoS control plane: the same 32-seed sweep
/// with the multi-tenant engine installed must hold the original five
/// invariants plus tenant-quota and priority-eviction, and admission
/// control must demonstrably fire (not vacuously pass).
#[test]
fn qos_chaos_invariants_hold_across_32_seeds() {
    let config = ChaosConfig {
        qos: true,
        ..ChaosConfig::default()
    };
    let mut decisions = 0usize;
    let mut total = ChaosStatsRollup::default();
    for seed in 0..32u64 {
        match run_seed(seed, &config) {
            Ok(stats) => {
                assert!(
                    !stats.qos_digest.is_empty(),
                    "qos runs must carry a decision digest"
                );
                let n: usize = stats
                    .qos_digest
                    .strip_prefix("n=")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
                    .expect("digest shape is n=<count> fnv=<hash>");
                decisions += n;
                total.absorb(seed, stats.acked_puts, stats.verified_reads);
            }
            Err(report) => panic!("qos seed {seed} violated an invariant:\n{report}"),
        }
    }
    assert!(total.acked_puts > 500, "too few acked puts: {total:?}");
    assert!(decisions > 500, "QoS decisions must actually fire: {decisions}");
}

/// Token-bucket / decision-log determinism: the same seed yields a
/// byte-identical decision log (hence digest) run after run, and the
/// digest is independent of how many other seeds run on sibling threads
/// (each simulation is self-contained).
#[test]
fn qos_decision_log_is_deterministic() {
    let config = ChaosConfig {
        qos: true,
        ..ChaosConfig::default()
    };
    let a = run_seed(5, &config).expect("seed 5 is clean");
    let b = run_seed(5, &config).expect("seed 5 is clean");
    assert_eq!(a.qos_digest, b.qos_digest, "same seed, same decisions");
    assert_eq!(a.metrics_digest, b.metrics_digest);

    // Parallel sweep: run seeds 4..8 concurrently the way `chaos --jobs`
    // does and require seed 5's digest to come out unchanged.
    let parallel: Vec<(u64, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (4..8u64)
            .map(|seed| {
                let config = &config;
                scope.spawn(move || {
                    let stats = run_seed(seed, config).expect("clean");
                    (seed, stats.qos_digest)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let from_parallel = parallel
        .iter()
        .find(|(seed, _)| *seed == 5)
        .map(|(_, digest)| digest.clone())
        .unwrap();
    assert_eq!(from_parallel, a.qos_digest, "digest independent of sibling threads");
}

/// Virtual-time equivalence: with QoS *disabled* the system must behave
/// exactly as it did before the control plane existed — same verified
/// reads, same metric counters, and not a single `qos.*` or
/// `net.tenant-*` key anywhere.
#[test]
fn qos_disabled_runs_match_plain_runs_exactly() {
    let config = ChaosConfig::default();
    let plain = run_seed(9, &config).expect("clean");
    let disabled = run_seed(
        9,
        &ChaosConfig {
            qos: false,
            ..config.clone()
        },
    )
    .expect("clean");
    assert_eq!(plain.acked_puts, disabled.acked_puts);
    assert_eq!(plain.verified_reads, disabled.verified_reads);
    assert_eq!(plain.metrics_digest, disabled.metrics_digest);
    assert!(disabled.qos_digest.is_empty(), "no decision log without QoS");
    assert!(
        !disabled.metrics_digest.contains("qos."),
        "no qos counters without QoS: {}",
        disabled.metrics_digest
    );
}

/// Same seed, same schedule, same outcome — the property every report
/// depends on for reproduction.
#[test]
fn chaos_runs_are_reproducible_from_the_seed() {
    let config = ChaosConfig::default();
    let a = ChaosSchedule::generate(11, &config);
    let b = ChaosSchedule::generate(11, &config);
    assert_eq!(a, b);
    let ra = run_schedule(&a, &config).expect("seed 11 is clean");
    let rb = run_schedule(&b, &config).expect("seed 11 is clean");
    assert_eq!(ra.verified_reads, rb.verified_reads);
    assert_eq!(ra.acked_puts, rb.acked_puts);
}

/// Acceptance gate: a deliberately broken invariant — replication forced
/// to factor 1 with two injected node failures — is demonstrably caught,
/// and the report carries the seed plus a minimal event prefix that still
/// reproduces the violation.
#[test]
fn broken_replication_factor_is_caught_with_minimal_prefix() {
    let config = ChaosConfig {
        nodes: 4,
        servers_per_node: 1,
        keys: 8,
        replication: ReplicationFactor::SINGLE,
        ..ChaosConfig::default()
    };
    let owner = ServerId::new(NodeId::new(0), 0);
    let mut steps = Vec::new();
    for key in 0..8 {
        // 16 KiB payloads bypass the node shared pool, so every entry is
        // a single remote replica somewhere on nodes 1..=3.
        steps.push(ChaosStep::Put {
            server: owner,
            key,
            len: 16 * 1024,
        });
    }
    for node in [NodeId::new(1), NodeId::new(2)] {
        steps.push(ChaosStep::Inject(FailureEvent::NodeDown(node)));
    }
    for node in [NodeId::new(1), NodeId::new(2)] {
        steps.push(ChaosStep::Inject(FailureEvent::NodeUp(node)));
    }
    steps.push(ChaosStep::Maintain {
        horizon: SimDuration::from_millis(250),
    });
    let schedule = ChaosSchedule {
        seed: 0xDEAD_BEEF,
        steps,
    };

    let violation = run_schedule(&schedule, &config)
        .expect_err("single-replica data lost in a crash cannot re-converge");
    assert_eq!(violation.invariant, InvariantKind::Convergence, "{violation}");

    let report = shrink(&schedule, violation, &config);
    assert_eq!(report.seed, 0xDEAD_BEEF, "report must carry the seed");
    assert!(
        report.minimal.len() < schedule.steps.len(),
        "prefix must shrink below the original {} steps:\n{report}",
        schedule.steps.len()
    );
    let replay = run_schedule(
        &ChaosSchedule {
            seed: report.seed,
            steps: report.minimal.clone(),
        },
        &config,
    );
    assert!(replay.is_err(), "minimal prefix must still reproduce:\n{report}");
    let rendered = format!("{report}");
    assert!(rendered.contains("0xdeadbeef"), "report names the seed: {rendered}");
    assert!(rendered.contains("convergence"), "report names the invariant: {rendered}");
}

/// The healthy triple-replicated cluster survives the exact same crash
/// pattern that breaks factor 1 — the invariant checkers are not simply
/// rejecting every schedule with failures in it.
#[test]
fn triple_replication_survives_the_same_crash_pattern() {
    let config = ChaosConfig {
        nodes: 5,
        servers_per_node: 1,
        keys: 8,
        ..ChaosConfig::default()
    };
    let owner = ServerId::new(NodeId::new(0), 0);
    let mut steps = Vec::new();
    for key in 0..8 {
        steps.push(ChaosStep::Put {
            server: owner,
            key,
            len: 16 * 1024,
        });
    }
    steps.push(ChaosStep::Inject(FailureEvent::NodeDown(NodeId::new(1))));
    steps.push(ChaosStep::Inject(FailureEvent::NodeUp(NodeId::new(1))));
    steps.push(ChaosStep::Maintain {
        horizon: SimDuration::from_millis(250),
    });
    let schedule = ChaosSchedule {
        seed: 0xDEAD_BEEF,
        steps,
    };
    let stats = run_schedule(&schedule, &config)
        .unwrap_or_else(|v| panic!("triple replication must survive one crash: {v}"));
    assert_eq!(stats.acked_puts, 8);
}
