//! The benchmark's declared metrics, and `BENCHMARK.json` rendered from
//! them, so the file at the repository root cannot drift from what the
//! program prints (a test compares the two).

use crate::workloads::WORKLOADS;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the simulator sees, the same on every workload: how
/// long it takes to get going, how fast it simulates, how much memory it
/// needs, and what the model predicts.
pub const END_TO_END: [EndToEnd; 5] = [
    // Generation + build + fill + one warm-up round, median of five
    // set-ups in the run. Work moved out of the rounds shows here.
    // A set-up is a fraction of a second, so it is the noisiest time here
    // and gets the widest bound.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Simulated operations of a round over the fast-decile round time.
    // Over ten runs it spreads by 2 to 7 % (`results/aa.json`): the box
    // itself changes speed over minutes. The bound is twice the worst.
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
    },
    // `VmHWM` at exit. `rack` peaks below 10 MiB, where a few hundred KiB
    // of allocator slack are already 2 % between runs.
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    // The model's predictions. For one seed they repeat to the last
    // digit, so under a host-only change any move at all is a bug; the
    // bound only has to cover how much they differ between seeds.
    EndToEnd {
        name: "virt_ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "virt_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.05,
    },
];

/// `(name, unit, better)` of every per-layer metric, grouped by layer
/// (crate name). A traced run prints all of them on every workload; a
/// layer the workload never enters reports zero counts, which is the
/// "predicted flat" half of each claim.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    ("harness.gen_ms", "ms", "lower"),
    ("harness.build_ms", "ms", "lower"),
    ("harness.fill_ms", "ms", "lower"),
    ("harness.warmup_ms", "ms", "lower"),
    ("harness.round_ms_p10", "ms", "lower"),
    ("harness.round_ms_p50", "ms", "lower"),
    ("harness.round_ms_p90", "ms", "lower"),
    ("harness.cpu_ns_per_op", "ns", "lower"),
    ("harness.invol_ctx_switches", "count", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.call_span_frac", "ratio", "higher"),
    ("swap.access_ns", "ns", "lower"),
    ("swap.major_faults", "count", "lower"),
    ("swap.swap_outs", "count", "lower"),
    ("swap.swap_ins", "count", "lower"),
    ("swap.clean_evictions", "count", "lower"),
    ("swap.prefetch_hit_frac", "ratio", "higher"),
    ("swap.virt_self_us", "us", "lower"),
    ("compress.compress_ns_per_page", "ns", "lower"),
    ("compress.decompress_ns_per_page", "ns", "lower"),
    ("compress.ratio", "ratio", "higher"),
    ("compress.virt_self_us", "us", "lower"),
    ("core.get_ns", "ns", "lower"),
    ("core.get_batch_ns_per_key", "ns", "lower"),
    ("core.put_ns", "ns", "lower"),
    ("core.put_batch_ns_per_key", "ns", "lower"),
    ("core.delete_ns", "ns", "lower"),
    ("core.entries_shared", "count", "higher"),
    ("core.entries_cxl", "count", "higher"),
    ("core.entries_nvm", "count", "higher"),
    ("core.entries_remote", "count", "higher"),
    ("core.entries_disk", "count", "lower"),
    ("core.put_disk_fallbacks", "count", "lower"),
    ("core.virt_self_us", "us", "lower"),
    ("cluster.store_batches", "count", "lower"),
    ("cluster.load_batches", "count", "lower"),
    ("cluster.failover_reads", "count", "lower"),
    ("cluster.virt_self_us", "us", "lower"),
    ("net.verbs", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("net.verbs_per_op", "ratio", "lower"),
    ("net.virt_self_us", "us", "lower"),
    ("net.write_4k_ns", "ns", "lower"),
    ("net.read_4k_ns", "ns", "lower"),
    ("net.cxl_load_64b_ns", "ns", "lower"),
    ("net.cxl_store_64b_ns", "ns", "lower"),
    ("node.put_shared", "count", "higher"),
    ("node.put_overflow", "count", "lower"),
    ("node.shared_hit_frac", "ratio", "higher"),
    ("qos.tick_ns", "ns", "lower"),
    ("qos.throttle_spans", "count", "lower"),
    ("sim.counter_lookup_ns", "ns", "lower"),
    ("sim.histogram_record_ns", "ns", "lower"),
    ("sim.shard.ns_per_msg_w1", "ns", "lower"),
    ("sim.shard.ns_per_msg_w2", "ns", "lower"),
    ("sim.shard.ns_per_epoch_w1", "ns", "lower"),
    ("sim.shard.ns_per_epoch_w2", "ns", "lower"),
    ("rack.w1_round_ms_p10", "ms", "lower"),
    ("rack.w2_round_ms_p10", "ms", "lower"),
    ("rack.speedup_w2", "ratio", "higher"),
    ("rack.checksum_ns", "ns", "lower"),
    ("rack.epochs", "count", "lower"),
    ("rack.cross_msgs", "count", "lower"),
    ("rack.local_msgs", "count", "lower"),
    ("rack.remote_reads", "count", "lower"),
    ("rack.writebacks", "count", "lower"),
    ("rack.failovers", "count", "lower"),
    ("rack.probes", "count", "lower"),
    ("rack.hit_frac", "ratio", "higher"),
    ("rack.worker_count_mismatches", "count", "lower"),
    ("workloads.trace_gen_ns_per_access", "ns", "lower"),
    ("workloads.zipf_sample_ns", "ns", "lower"),
    ("harness.virt_mismatch_rounds", "count", "lower"),
    ("harness.virt_p50_us", "us", "lower"),
];

/// `s` as a JSON string.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json` as this program defines it.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(name),
                quoted(why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(name),
                quoted(unit),
                quoted(better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// One result line: exactly the keys the driver reads.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quoted(name),
                quoted(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::jsonlite::{parse, Value};
    use std::collections::BTreeSet;

    fn names(list: &Value) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let v = parse(&benchmark_json()).expect("valid JSON");
        let Value::Object(keys) = &v else {
            panic!("an object")
        };
        let expected = [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ];
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            expected
        );

        let workloads = names(v.get("workloads").unwrap());
        assert!((2..=8).contains(&workloads.len()));
        let end_to_end = names(v.get("end_to_end").unwrap());
        assert!(end_to_end.contains(&"setup_s".to_string()));
        let per_layer = names(v.get("per_layer").unwrap());
        assert!((1..=128).contains(&per_layer.len()));

        let mut seen = BTreeSet::new();
        for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for (_, unit, better) in PER_LAYER {
            assert!(unit.len() <= 16 && matches!(better, "lower" | "higher"));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(
            runs * (RUN_SECONDS + 4) + 120 <= 3420,
            "the driver's time cap"
        );
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh manifest`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[("setup_s", "s", 0.8127), ("host_ops_per_s", "1/s", 1.5e6)],
        );
        let v = parse(&line).expect("valid JSON");
        let Value::Object(keys) = &v else {
            panic!("an object")
        };
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
