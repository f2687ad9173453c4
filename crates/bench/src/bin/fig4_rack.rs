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
//! * `--perf` — wall-clock scaling measurement at 1 vs `--workers N`
//!   (default 2) workers, recorded as `results/BENCH_rack.json` with the
//!   core count and, per worker thread, where a round's wall time went
//!   (setup / `run_epoch` / inbox drain / barrier wait / plan / report,
//!   also printed to stderr); on a machine with a core per worker the
//!   N-worker run must be ≥ 1.3x faster (exit 1 otherwise; skipped with
//!   a note on smaller machines);
//! * `--check` — with `--perf`: instead of recording, fail on a > 3x
//!   wall-clock regression against the committed ledger; writes nothing;
//! * `--trace-out FILE` — write the merged shard trace (JSONL) of the
//!   last run;
//! * `--timeline-out FILE` — write the merged per-window metric timeline
//!   (CSV) of the last run.

use dmem_bench::perf;
use memory_disaggregation::rack::{run_rack, run_rack_profiled, RackConfig, RackReport};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Required parallel speedup at two or more workers with a core each:
/// ROADMAP `[par]`'s bar, which the engine cleared at 2 workers on a
/// 2-core box in 10 of 10 benchmark pairs (1.37-1.76x).
const REQUIRED_SPEEDUP: f64 = 1.3;

/// Times the speedup is measured before a shortfall counts. Another
/// tenant on a core for the length of a run only ever lowers the ratio,
/// so the best of a few attempts is the estimate.
const SPEEDUP_ATTEMPTS: usize = 8;

/// How far a worker's timed shares may sum from the wall time of the
/// round they were taken in.
const SPLIT_TOLERANCE: f64 = 0.02;

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

/// Runs one profiled round at `workers` threads, prints where each
/// worker's wall time went and returns the split as ledger columns, or
/// `None` if the shares of some worker miss the round's wall time by more
/// than [`SPLIT_TOLERANCE`]: then a phase is going untimed.
fn split(
    config: &RackConfig,
    workers: usize,
    cores: usize,
    expect: &RackReport,
) -> Option<Vec<(String, f64)>> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let (report, profile) = run_rack_profiled(config, workers);
    let wall_ms = ms(t0.elapsed());
    assert_eq!(
        report.csv_row(),
        expect.csv_row(),
        "a profiled run must reproduce the plain one"
    );
    let (setup, merge) = (ms(profile.setup), ms(profile.report));
    let mut columns = vec![
        ("cores".to_owned(), cores as f64),
        ("split_wall_ms".to_owned(), wall_ms),
        ("setup_ms".to_owned(), setup),
        ("report_ms".to_owned(), merge),
    ];
    eprintln!(
        "rack split: {workers} worker(s) on {cores} cores, one round of {wall_ms:.1} ms, in ms"
    );
    eprintln!("  worker    setup  run_epoch    drain  barrier     plan   report      sum");
    let mut complete = true;
    for (w, lane) in profile.lanes.iter().enumerate() {
        let shares = [
            ("run_epoch_ms", ms(lane.run_epoch)),
            ("drain_ms", ms(lane.drain)),
            ("barrier_ms", ms(lane.barrier)),
            ("plan_ms", ms(lane.plan)),
        ];
        let sum = setup + shares.iter().map(|(_, v)| v).sum::<f64>() + merge;
        eprintln!(
            "  {w:>6} {setup:>8.2} {:>10.2} {:>8.2} {:>8.2} {:>8.2} {merge:>8.2} {sum:>8.2} ({:.1} % of the round)",
            shares[0].1,
            shares[1].1,
            shares[2].1,
            shares[3].1,
            100.0 * sum / wall_ms,
        );
        complete &= (sum - wall_ms).abs() <= SPLIT_TOLERANCE * wall_ms;
        columns.extend(shares.map(|(name, v)| (format!("w{w}.{name}"), v)));
    }
    complete.then_some(columns)
}

fn perf_mode(workers_hi: usize, check: bool) -> ExitCode {
    let config = {
        let mut c = RackConfig::rack_default(256);
        c.accesses_per_host = 400;
        c
    };
    let cores = scoped_pool::available_parallelism();
    let gated = workers_hi >= 2 && cores >= workers_hi;
    let (mut base, mut wall1) = perf::timed(|| run_rack(&config, 1));
    let (mut hi, mut walln) = perf::timed(|| run_rack(&config, workers_hi));
    for _ in 1..SPEEDUP_ATTEMPTS {
        if !gated || wall1 / walln >= REQUIRED_SPEEDUP {
            break;
        }
        let (again1, wall) = perf::timed(|| run_rack(&config, 1));
        (base, wall1) = (again1, wall1.min(wall));
        let (againn, wall) = perf::timed(|| run_rack(&config, workers_hi));
        (hi, walln) = (againn, walln.min(wall));
    }
    assert_eq!(
        base.csv_row(),
        hi.csv_row(),
        "perf runs must stay byte-identical across worker counts"
    );
    let mut rows = Vec::new();
    for (workers, report, wall_ms) in [(1, &base, wall1), (workers_hi, &hi, walln)] {
        let Some(extra) = split(&config, workers, cores, report) else {
            eprintln!(
                "rack perf: SPLIT INCOMPLETE — a worker's shares are more than {:.0} % \
                 off the round they were timed in",
                SPLIT_TOLERANCE * 100.0
            );
            return ExitCode::FAILURE;
        };
        rows.push(perf::Row {
            scenario: format!("rack_fabric_workers{workers}"),
            wall_ms,
            metric: ("pages_per_s", perf::per_second(report.accesses, wall_ms)),
            extra,
        });
    }
    let ledger = perf::record_or_check("rack", &rows, check);

    let ratio = wall1 / walln.max(1e-9);
    if !gated {
        eprintln!(
            "rack perf: {ratio:.2}x at {workers_hi} workers; speedup gate skipped \
             ({cores} cores available, need 2 or more workers with a core each)"
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
        return perf_mode(workers.unwrap_or(2), check);
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
