//! The rack model against its committed goldens, inside `cargo test`.
//!
//! `shard_determinism.rs` and `telemetry.rs` compare rack runs with each
//! other (worker counts, reruns), so a change that moves every run the
//! same way passes them. This suite compares with bytes on disk: the
//! `fig4_rack` smoke row, the whole merged timeline, and digests of the
//! metrics line and the trace export.

use memory_disaggregation::rack::{run_rack, RackConfig, RackReport};
use memory_disaggregation::sim::{digest, splitmix64, ShardId};
use std::collections::HashMap;

const SMOKE_CSV: &str = include_str!("../results/fig4_rack_smoke.csv");
const TIMELINE_CSV: &str = include_str!("../results/fig4_rack_timeline.csv");

/// `digest::fold` of `RackReport::metrics_line` and `trace_jsonl` for
/// `RackConfig::smoke()`. The trace digest was captured at a9c2ce6 —
/// while the shards still recorded into string-keyed buffers of their
/// own — before any code changed. The metrics digest was re-recorded
/// when accesses began to count once, where they end.
const METRICS_LINE_FNV: u64 = 0x55aa_471b_89cb_6c0c;
const TRACE_JSONL_FNV: u64 = 0xd2ce_a4a9_29d6_9d51;

fn fnv(text: &str) -> u64 {
    digest::fold(digest::OFFSET, text.as_bytes())
}

/// The report's values under the golden's column names (the bin prints a
/// subset of `csv_row`).
fn row_for(header: &str, report: &RackReport) -> String {
    let row = report.csv_row();
    let by_name: HashMap<&str, &str> = RackReport::csv_header()
        .split(',')
        .zip(row.split(','))
        .collect();
    header
        .split(',')
        .map(|column| by_name[column])
        .collect::<Vec<_>>()
        .join(",")
}

#[test]
fn smoke_run_reproduces_the_committed_goldens() {
    let (header, golden_row) = SMOKE_CSV
        .trim_end()
        .split_once('\n')
        .expect("a header and one data row");
    for workers in [1, 2, 4] {
        let report = run_rack(&RackConfig::smoke(), workers);
        assert_counted_once(&RackConfig::smoke(), &report);
        assert_eq!(row_for(header, &report), golden_row, "workers={workers}");
        assert_eq!(report.timeline.to_csv(), TIMELINE_CSV, "workers={workers}");
        assert_eq!(
            fnv(&report.metrics_line),
            METRICS_LINE_FNV,
            "workers={workers}: {}",
            report.metrics_line
        );
        assert_eq!(
            fnv(&report.trace_jsonl),
            TRACE_JSONL_FNV,
            "workers={workers}: trace export moved"
        );
    }
}

/// Every host issues its accesses, and each ends once, as a hit or as a
/// remote read: an access that stalls and is retried still counts once.
fn assert_counted_once(config: &RackConfig, report: &RackReport) {
    let planned = config.hosts as u64 * config.accesses_per_host;
    assert_eq!(report.accesses, planned, "accesses counted once each");
    assert_eq!(
        report.hits + report.remote_reads,
        planned,
        "each access ends as a hit or a remote read"
    );
}

/// Asserts the counts and the full `csv_row()` of `config` at each
/// worker count.
fn assert_row(config: &RackConfig, worker_counts: [usize; 3], row: &str) {
    for workers in worker_counts {
        let report = run_rack(config, workers);
        assert_counted_once(config, &report);
        assert_eq!(report.csv_row(), row, "workers={workers}");
    }
}

/// The `fig4_rack` sweep's first point, whose stalls the smoke run does
/// not reach.
#[test]
fn rack_default_counts_each_access_once() {
    let config = RackConfig::rack_default(256);
    assert_counted_once(&config, &run_rack(&config, 2));
}

/// The benchmark's round — 256 hosts, 400 accesses each, seed 13 as
/// `benchmark/` derives it — which `smoke()` (64 hosts, 60 accesses) does
/// not reach. Row captured at d2454ec before any code changed; its
/// `accesses` and `digest` re-recorded when accesses began to count once.
#[test]
fn benchmark_shaped_run_reproduces_its_pinned_row() {
    let config = RackConfig {
        accesses_per_host: 400,
        seed: splitmix64(13),
        ..RackConfig::rack_default(256)
    };
    assert_row(
        &config,
        [1, 2, 4],
        "256,8,102400,40093,62307,19835,75,81,204266,0,824,8192,8192,6cf7afc01fbc8c4a",
    );
}

/// A partition that does not divide evenly, so a host's index inside its
/// shard is not its id modulo anything round. Row captured at d2454ec
/// before any code changed; its `digest` re-recorded when accesses began
/// to count once.
#[test]
fn uneven_partition_reproduces_its_pinned_row() {
    let config = RackConfig {
        hosts_per_shard: 32,
        accesses_per_host: 120,
        ..RackConfig::rack_default(70)
    };
    let map = config.shard_map();
    let ranges: Vec<_> = (0..map.shards())
        .map(|s| map.hosts_of(ShardId(s)))
        .collect();
    assert_eq!(ranges, [0..24, 24..47, 47..70]);
    assert_row(
        &config,
        [1, 2, 3],
        "70,3,8400,2665,5735,524,4,4,13582,0,279,8192,8192,8aae866b01abc4ef",
    );
}
