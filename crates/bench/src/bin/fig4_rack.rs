//! What the rack sweep's `figures` entry cannot express: the worker axis.
//!
//! `fig4_rack [--workers N] [--timeline-out FILE]` runs the 64-host smoke
//! scenario at N worker threads (default `DMEM_BENCH_JOBS`), table +
//! `results/fig4_rack_smoke.csv`, and optionally the merged per-window
//! metric timeline as CSV. The logical shard partition is fixed by the
//! config, so stdout, CSV and timeline must byte-match at every N.
//!
//! The 256/512/1024-host sweep is the `fig4_rack` entry of the `figures`
//! binary; the rack engine's wall time and parallel speedup are the
//! `rack_fabric_*` rows of the `perf` binary.

use dmem_bench::extensions::rack_table;
use memory_disaggregation::rack::{run_rack, RackConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: fig4_rack [--workers N] [--timeline-out FILE]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut workers: Option<usize> = None;
    let mut timeline_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--timeline-out" => timeline_out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    let report = run_rack(&RackConfig::smoke(), workers.unwrap_or_else(dmem_bench::bench_jobs));
    let title = "fig4_rack smoke — 64-host rack-scale remote paging, sharded engine";
    rack_table(title, std::slice::from_ref(&report)).emit("fig4_rack_smoke");
    if let Some(path) = timeline_out {
        std::fs::write(&path, report.timeline.to_csv()).expect("write timeline csv");
        println!("[written {path}]");
    }
    ExitCode::SUCCESS
}
