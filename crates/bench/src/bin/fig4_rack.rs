//! Rack-scale remote-paging sweep on the sharded engine (Fig. 4 class).
//!
//! Scales the paper's remote-memory paging scenario to whole racks —
//! 256 to 1024 hosts, 50–200× the host counts of the chaos and figure
//! harnesses — by running `memory_disaggregation::rack` on the
//! epoch-barrier sharded engine. Every table cell is *virtual* (latency
//! quantiles, fault counts, digests), so the CSV is byte-identical at
//! every `--workers` count and on every machine; wall-clock numbers go
//! only to stderr and to the perf JSON.
//!
//! Modes:
//!
//! * default — host sweep at 256/512/1024, table + `results/fig4_rack.csv`;
//! * `--smoke` — one small scenario, `results/fig4_rack_smoke.csv`; the
//!   stdout of two runs at different `--workers` must byte-match (CI gate);
//! * `--workers N` — worker-thread count (the scenario's logical shard
//!   partition is fixed by its config; this only fans it across threads);
//! * `--perf` — wall-clock scaling measurement at 1 vs 4 workers,
//!   recorded as `results/BENCH_rack.json`; on a 4+ core machine the
//!   4-worker run must be ≥ 2x faster (exit 1 otherwise; skipped with a
//!   note on smaller machines);
//! * `--check` — with `--perf`: instead of recording, fail on a > 3x
//!   wall-clock regression against the committed ledger; writes nothing;
//! * `--trace-out FILE` — write the merged shard trace (JSONL) of the
//!   last run;
//! * `--timeline-out FILE` — write the merged per-window metric timeline
//!   (CSV) of the last run.

use dmem_bench::perf;
use memory_disaggregation::rack::{run_rack, RackConfig, RackReport};
use std::process::ExitCode;
use std::time::Instant;

/// Required parallel speedup at 4 workers on a 4+ core machine.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn usage() -> ! {
    eprintln!(
        "usage: fig4_rack [--smoke] [--workers N] [--perf] [--check] [--trace-out FILE] \
         [--timeline-out FILE]"
    );
    std::process::exit(2);
}

fn report_row(table: &mut dmem_bench::Table, r: &RackReport) {
    table.row([
        r.hosts.to_string(),
        r.shards.to_string(),
        r.accesses.to_string(),
        r.hits.to_string(),
        r.remote_reads.to_string(),
        r.writebacks.to_string(),
        r.failovers.to_string(),
        r.probes.to_string(),
        r.cross_messages.to_string(),
        r.epochs.to_string(),
        r.fault_p50_ns.to_string(),
        r.fault_p99_ns.to_string(),
        r.digest.clone(),
    ]);
}

const HEADER: &[&str] = &[
    "hosts",
    "shards",
    "accesses",
    "hits",
    "remote_reads",
    "writebacks",
    "failovers",
    "probes",
    "cross_msgs",
    "epochs",
    "fault_p50_ns",
    "fault_p99_ns",
    "digest",
];

fn perf_mode(workers_hi: usize, check: bool) -> ExitCode {
    let config = {
        let mut c = RackConfig::rack_default(256);
        c.accesses_per_host = 400;
        c
    };
    let (base, wall1) = perf::timed(|| run_rack(&config, 1));
    let (hi, walln) = perf::timed(|| run_rack(&config, workers_hi));
    assert_eq!(
        base.csv_row(),
        hi.csv_row(),
        "perf runs must stay byte-identical across worker counts"
    );
    let row = |workers: usize, report: &RackReport, wall_ms: f64| perf::Row {
        scenario: format!("rack_fabric_workers{workers}"),
        wall_ms,
        metric: ("pages_per_s", perf::per_second(report.accesses, wall_ms)),
    };
    let ledger = perf::record_or_check(
        "rack",
        &[row(1, &base, wall1), row(workers_hi, &hi, walln)],
        check,
    );

    let ratio = wall1 / walln.max(1e-9);
    let cores = scoped_pool::available_parallelism();
    if cores < 4 || workers_hi < 4 {
        eprintln!(
            "rack perf: {ratio:.2}x at {workers_hi} workers; speedup gate skipped \
             ({cores} cores available, need >= 4)"
        );
    } else if ratio < REQUIRED_SPEEDUP {
        eprintln!(
            "rack perf: SPEEDUP REGRESSION — {ratio:.2}x < required {REQUIRED_SPEEDUP:.1}x \
             at {workers_hi} workers on {cores} cores"
        );
        return ExitCode::FAILURE;
    } else {
        eprintln!("rack perf: speedup gate ok ({ratio:.2}x >= {REQUIRED_SPEEDUP:.1}x)");
    }
    ledger
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut perf = false;
    let mut workers: Option<usize> = None;
    let mut check = false;
    let mut trace_out: Option<String> = None;
    let mut timeline_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--perf" => perf = true,
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--check" => check = true,
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--timeline-out" => timeline_out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    if perf {
        return perf_mode(workers.unwrap_or(4), check);
    }

    let workers = workers.unwrap_or_else(dmem_bench::bench_jobs);
    let mut table = dmem_bench::Table::new(
        if smoke {
            "fig4_rack (smoke) — rack-scale remote paging, sharded engine"
        } else {
            "fig4_rack — rack-scale remote paging, sharded engine"
        },
        HEADER,
    );

    let configs: Vec<RackConfig> = if smoke {
        vec![RackConfig::smoke()]
    } else {
        vec![
            RackConfig::rack_default(256),
            RackConfig::rack_default(512),
            RackConfig::rack_default(1024),
        ]
    };

    let mut last: Option<RackReport> = None;
    for config in &configs {
        let t0 = Instant::now();
        let report = run_rack(config, workers);
        eprintln!(
            "fig4_rack: {} hosts / {} shards done in {:.1} ms (workers={workers})",
            report.hosts,
            report.shards,
            t0.elapsed().as_secs_f64() * 1e3
        );
        report_row(&mut table, &report);
        last = Some(report);
    }
    table.emit(if smoke { "fig4_rack_smoke" } else { "fig4_rack" });

    if let (Some(path), Some(report)) = (trace_out.as_deref(), last.as_ref()) {
        std::fs::write(path, &report.trace_jsonl).expect("write trace jsonl");
        println!("[written {path}]");
    }
    if let (Some(path), Some(report)) = (timeline_out.as_deref(), last.as_ref()) {
        std::fs::write(path, report.timeline.to_csv()).expect("write timeline csv");
        println!("[written {path}]");
    }
    ExitCode::SUCCESS
}
