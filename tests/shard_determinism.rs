//! Cross-shard determinism harness (ISSUE 6 acceptance gate).
//!
//! The sharded engine's contract is byte-identity: for a fixed scenario,
//! every observable output — chaos verdict lines, metrics digests, rack
//! CSV rows, merged trace exports — must be identical at every `--shards`
//! level and across reruns. These tests sweep 32 chaos seeds through
//! shard counts 1/2/4/8 and run the rack model at worker counts 1/2/4/8,
//! with non-vacuity floors so a regression that silently unplugs the
//! cross-shard path (zero cross traffic ⇒ trivially identical output)
//! fails loudly instead of passing quietly.

use memory_disaggregation::chaos::{run_seed, ChaosSettings, ChaosStats};
use memory_disaggregation::rack::{run_rack, RackConfig};
use memory_disaggregation::sim::chaos::ChaosConfig;

/// The full observable verdict of one chaos seed, exactly as the `chaos`
/// binary prints it (stats line + digest lines).
fn verdict(seed: u64, stats: &ChaosStats) -> String {
    let mut out = format!("seed {seed:#x}: ok ({stats})\n");
    if !stats.metrics_digest.is_empty() {
        out.push_str(&format!("  metrics: {}\n", stats.metrics_digest));
    }
    if !stats.qos_digest.is_empty() {
        out.push_str(&format!("  qos: {}\n", stats.qos_digest));
    }
    out
}

fn sweep_config() -> ChaosConfig {
    ChaosConfig {
        nodes: 5,
        servers_per_node: 1,
        steps: 60,
        keys: 8,
        ..ChaosConfig::default()
    }
}

fn settings_with_shards(shards: usize) -> ChaosSettings {
    ChaosSettings {
        shards,
        ..ChaosSettings::default()
    }
}

/// 32 seeds × shard counts 1/2/4/8: the verdict text (stats + digests)
/// must be byte-identical at every level, the run must exchange real
/// cross-shard traffic at every sharded level (non-vacuity), and a rerun
/// at one level must reproduce itself exactly.
#[test]
fn chaos_verdicts_are_byte_identical_across_shard_counts() {
    let config = sweep_config();
    let mut total_cross = 0u64;
    for seed in 0..32u64 {
        let base = run_seed(seed, &config, &settings_with_shards(1))
            .unwrap_or_else(|r| panic!("seed {seed} failed unsharded:\n{r}"));
        let base_verdict = verdict(seed, &base);
        assert_eq!(base.cross_shard_verbs, 0, "no router installed at shards=1");
        for shards in [2usize, 4, 8] {
            let sharded = run_seed(seed, &config, &settings_with_shards(shards))
                .unwrap_or_else(|r| panic!("seed {seed} failed at shards={shards}:\n{r}"));
            assert_eq!(
                verdict(seed, &sharded),
                base_verdict,
                "seed {seed}: verdict text diverged at shards={shards}"
            );
            // Non-vacuity: a 5-node cluster split into ≥2 host-groups
            // must push verbs across a shard boundary on every seed.
            assert!(
                sharded.cross_shard_verbs > 0,
                "seed {seed} at shards={shards}: no cross-shard verbs — the \
                 determinism check is vacuous"
            );
            total_cross += sharded.cross_shard_verbs;
        }
    }
    assert!(total_cross > 10_000, "suspiciously little cross-shard traffic: {total_cross}");

    // Rerun stability at a fixed level: same seed, same bytes.
    for seed in [0u64, 7, 31] {
        let a = run_seed(seed, &config, &settings_with_shards(4)).expect("clean");
        let b = run_seed(seed, &config, &settings_with_shards(4)).expect("clean");
        assert_eq!(verdict(seed, &a), verdict(seed, &b), "seed {seed} rerun diverged");
        assert_eq!(a.cross_shard_verbs, b.cross_shard_verbs);
    }
}

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

/// Fault-mode chaos under sharding: the PR 5 sweep's byte-identity must
/// survive a shard router watching every retried, failed-over, duplicated
/// verb — the adversarial traffic for the mailbox-order invariant.
#[test]
fn faulted_chaos_is_shard_count_independent() {
    let config = ChaosConfig {
        nodes: 5,
        servers_per_node: 1,
        steps: 60,
        keys: 8,
        fabric_faults: true,
        ..ChaosConfig::default()
    };
    for seed in 0..8u64 {
        let base = run_seed(
            seed,
            &config,
            &ChaosSettings::default(),
        )
        .unwrap_or_else(|r| panic!("seed {seed} failed unsharded:\n{r}"));
        let sharded = run_seed(
            seed,
            &config,
            &settings_with_shards(4),
        )
        .unwrap_or_else(|r| panic!("seed {seed} failed at shards=4:\n{r}"));
        assert_eq!(verdict(seed, &sharded), verdict(seed, &base), "seed {seed}");
        assert!(sharded.cross_shard_verbs > 0, "seed {seed}: vacuous fault run");
    }
}
