//! Cross-shard determinism harness (ISSUE 6 acceptance gate).
//!
//! The sharded engine's contract is byte-identity: for a fixed scenario,
//! every observable output — rack CSV rows, metrics lines, merged trace
//! exports — must be identical at every worker count and across reruns.
//! These tests run the rack model at worker counts 1/2/4/8, with
//! non-vacuity floors so a regression that silently unplugs the
//! cross-shard path (zero cross traffic ⇒ trivially identical output)
//! fails loudly instead of passing quietly.

use memory_disaggregation::rack::{run_rack, RackConfig};

fn rack_config(seed: u64) -> RackConfig {
    RackConfig {
        hosts: 24,
        pages_per_host: 96,
        frames_per_host: 12,
        accesses_per_host: 30,
        hosts_per_shard: 3,
        trace_sample: 8,
        seed,
        ..RackConfig::rack_default(24)
    }
}

/// The rack model at worker counts 1/2/4/8: CSV row, full metrics line,
/// and the merged trace JSONL must be byte-identical, with enough remote
/// traffic to make the comparison meaningful.
#[test]
fn rack_outputs_are_byte_identical_across_worker_counts() {
    for seed in [0x00d1_5a66u64, 42] {
        let cfg = rack_config(seed);
        let base = run_rack(&cfg, 1);
        assert!(base.cross_messages > 0, "seed {seed:#x}: no cross-shard envelopes");
        assert!(base.remote_reads > 0, "seed {seed:#x}: no remote faults");
        assert!(!base.trace_jsonl.is_empty(), "seed {seed:#x}: empty trace export");
        for workers in [2usize, 4, 8] {
            let other = run_rack(&cfg, workers);
            assert_eq!(base.csv_row(), other.csv_row(), "workers={workers}");
            assert_eq!(base.metrics_line, other.metrics_line, "workers={workers}");
            assert_eq!(base.trace_jsonl, other.trace_jsonl, "workers={workers}");
            assert_eq!(base.digest, other.digest, "workers={workers}");
            assert_eq!(base.epochs, other.epochs, "workers={workers}");
        }
        // Rerun at a parallel level reproduces the sequential bytes.
        let again = run_rack(&cfg, 4);
        assert_eq!(base.csv_row(), again.csv_row(), "rerun diverged");
        assert_eq!(base.trace_jsonl, again.trace_jsonl, "rerun trace diverged");
    }
}

/// The merged trace export is ordered by the mailbox merge key
/// `(at_ns, shard, seq)` — the same total order the engine delivers in —
/// and every line is well-formed JSON with those fields.
#[test]
fn rack_trace_export_is_mailbox_ordered() {
    let report = run_rack(&rack_config(7), 2);
    let mut prev: Option<(u64, u64, u64)> = None;
    let mut lines = 0usize;
    for line in report.trace_jsonl.lines() {
        let field = |name: &str| -> u64 {
            let tag = format!("\"{name}\":");
            let at = line.find(&tag).unwrap_or_else(|| panic!("no {name} in {line}"));
            line[at + tag.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap_or_else(|_| panic!("bad {name} in {line}"))
        };
        let key = (field("at_ns"), field("shard"), field("seq"));
        if let Some(p) = prev {
            assert!(p <= key, "trace out of mailbox order: {p:?} then {key:?}");
        }
        prev = Some(key);
        lines += 1;
    }
    assert!(lines > 0, "trace export is empty");
}
