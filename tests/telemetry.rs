//! Telemetry integration tests (ISSUE 8, observability).
//!
//! Pins the deterministic time-series pipeline end to end: the rack
//! timeline must be byte-identical across reruns and worker counts, the
//! chaos `--faults` alert log must fire burn-rate and retry-storm
//! alerts whose windows overlap the injected fault schedule on every
//! seed, trace/timeline JSONL exports must survive a round trip through
//! `dmem_sim::jsonlite`, and a forced invariant violation must produce
//! the same flight-recorder dump run after run.

use memory_disaggregation::chaos::{run_schedule, run_seed};
use memory_disaggregation::rack::{run_rack, RackConfig};
use memory_disaggregation::sim::chaos::{ChaosConfig, ChaosSchedule, ChaosStep};
use memory_disaggregation::sim::{jsonlite, FailureEvent, SimDuration};
use memory_disaggregation::types::{NodeId, ReplicationFactor, ServerId};

fn faults_config() -> ChaosConfig {
    ChaosConfig {
        fabric_faults: true,
        ..ChaosConfig::default()
    }
}

/// Parses the `[start..end ns)` window bounds out of an alert log line
/// (`w3 [150..200ns) FIRING name: detail`).
fn window_bounds(line: &str) -> (u64, u64) {
    let open = line.find('[').expect("alert line has window bounds");
    let close = line.find("ns)").expect("alert line has window bounds");
    let (a, b) = line[open + 1..close]
        .split_once("..")
        .expect("bounds are start..end");
    (a.parse().unwrap(), b.parse().unwrap())
}

/// The acceptance gate: on every seed of the CI sweep, the fault-mode
/// alert engine must flag at least one SLO burn-rate alert and one
/// retry-storm alert, and at least one firing window of each kind must
/// overlap the span of virtual instants where faults were injected —
/// the log pinpoints the injected trouble, not random background noise.
#[test]
fn faults_alerts_pinpoint_injected_windows() {
    let config = faults_config();
    for seed in 0..32u64 {
        let stats = run_seed(seed, &config)
            .unwrap_or_else(|r| panic!("seed {seed:#x} violated an invariant:\n{r}"));
        assert!(
            !stats.fault_instants.is_empty(),
            "seed {seed:#x}: faults mode injected no faults"
        );
        let (lo, hi) = (
            *stats.fault_instants.iter().min().unwrap(),
            *stats.fault_instants.iter().max().unwrap(),
        );
        for kind in ["retry-backoff-burn", "retry-storm"] {
            let overlapping = stats
                .alert_log
                .iter()
                .filter(|l| l.contains("FIRING") && l.contains(kind))
                .filter(|l| {
                    let (start, end) = window_bounds(l);
                    start <= hi && end > lo
                })
                .count();
            assert!(
                overlapping >= 1,
                "seed {seed:#x}: no firing {kind} window overlaps injected faults \
                 [{lo}..{hi}]ns; log:\n{}",
                stats.alert_log.join("\n")
            );
        }
    }
}

/// Same seed, same digest: the alert log is a pure function of the
/// schedule, immune to wall-clock and allocation order.
#[test]
fn faults_alert_log_is_reproducible() {
    let config = faults_config();
    let a = run_seed(7, &config).expect("seed 7 is clean");
    let b = run_seed(7, &config).expect("seed 7 is clean");
    assert!(a.telemetry_windows > 0, "faults mode must capture windows");
    assert_eq!(a.alert_digest, b.alert_digest);
    assert_eq!(a.alert_log, b.alert_log);
}

/// The rack timeline is part of the determinism contract: byte-identical
/// CSV and JSONL across reruns and across worker counts 1/2/4/8.
#[test]
fn rack_timeline_identical_across_workers_and_reruns() {
    let config = RackConfig::smoke();
    let base = run_rack(&config, 1);
    assert!(!base.timeline.windows.is_empty(), "vacuous: no windows");
    for workers in [1, 2, 4, 8] {
        let other = run_rack(&config, workers);
        assert_eq!(
            base.timeline.to_csv(),
            other.timeline.to_csv(),
            "timeline CSV diverged at workers={workers}"
        );
        assert_eq!(
            base.timeline.to_jsonl(),
            other.timeline.to_jsonl(),
            "timeline JSONL diverged at workers={workers}"
        );
    }
}

/// fig4_rack's JSONL exports must survive a round trip through the
/// in-tree parser: every trace line parses, the span count matches, the
/// `(at_ns, shard, seq)` mailbox ordering survives, and the timeline's
/// per-window counters re-sum to the report totals.
#[test]
fn fig4_rack_jsonl_round_trips_through_jsonlite() {
    let report = run_rack(&RackConfig::smoke(), 2);

    let lines: Vec<&str> = report.trace_jsonl.lines().collect();
    assert!(!lines.is_empty(), "vacuous: empty trace");
    let mut prev = (0u64, 0f64, 0f64);
    for (i, line) in lines.iter().enumerate() {
        let doc = jsonlite::parse(line)
            .unwrap_or_else(|e| panic!("trace line {i} is not valid JSON: {e}"));
        let field = |k: &str| {
            doc.get(k)
                .and_then(jsonlite::Value::as_f64)
                .unwrap_or_else(|| panic!("trace line {i} lacks numeric {k}"))
        };
        assert!(
            doc.get("kind").and_then(jsonlite::Value::as_str).is_some(),
            "trace line {i} lacks string kind"
        );
        let key = (field("at_ns") as u64, field("shard"), field("seq"));
        assert!(
            (key.0, key.1, key.2) >= prev,
            "trace line {i} breaks (at_ns, shard, seq) order"
        );
        prev = key;
    }

    let mut access_total = 0u64;
    let mut prev_window = -1i64;
    for (i, line) in report.timeline.to_jsonl().lines().enumerate() {
        let doc = jsonlite::parse(line)
            .unwrap_or_else(|e| panic!("timeline line {i} is not valid JSON: {e}"));
        let window = doc
            .get("window")
            .and_then(jsonlite::Value::as_f64)
            .expect("window index") as i64;
        assert!(window > prev_window, "timeline windows out of order");
        prev_window = window;
        if let Some(counters) = doc.get("counters") {
            if let Some(v) = counters
                .get("rack.access.total")
                .and_then(jsonlite::Value::as_f64)
            {
                access_total += v as u64;
            }
        }
    }
    assert_eq!(
        access_total, report.accesses,
        "per-window access deltas must re-sum to the report total"
    );
}

/// A forced convergence violation (factor-1 data on a crashed node)
/// must attach a flight-recorder dump, and the dump must be
/// byte-identical run after run — it is a pure function of the schedule.
#[test]
fn flight_dump_is_deterministic() {
    let config = ChaosConfig {
        nodes: 5,
        servers_per_node: 1,
        steps: 40,
        keys: 8,
        replication: ReplicationFactor::SINGLE,
        ..ChaosConfig::default()
    };
    let s0 = ServerId::new(NodeId::new(0), 0);
    let mut steps = Vec::new();
    for key in 0..8 {
        steps.push(ChaosStep::Put {
            server: s0,
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
    let schedule = ChaosSchedule { seed: 0xF1, steps };

    let dump_of = || {
        let violation = run_schedule(&schedule, &config)
            .expect_err("factor-1 data on a crashed node must violate convergence");
        violation.flight_dump.expect("violation carries a dump")
    };
    let (a, b) = (dump_of(), dump_of());
    assert!(
        a.starts_with("=== flight recorder dump:"),
        "dump has the canonical header; got:\n{a}"
    );
    assert!(a.contains("inject"), "dump shows the injected fault");
    assert!(a.contains("violation"), "dump shows the violation note");
    assert_eq!(a, b, "flight dump must be byte-identical across reruns");
}
