//! Wall-clock ledger of the object-allocator extension: both backing
//! granularities on the mixed distribution. `--perf` records
//! `results/BENCH_alloc.json`; `--perf --check` fails on a > 3x
//! regression against that committed ledger and writes nothing. The
//! sweep itself is the `ext_obj_alloc` entry of the `figures` binary.
//!
//! Run with: `cargo run --release -p dmem-bench --bin ext_obj_alloc -- --perf`

use dmem_alloc::Granularity;
use dmem_bench::extensions::alloc_run;
use dmem_bench::perf::{perf_args, record_or_check, timed, Row};
use std::process::ExitCode;

fn main() -> ExitCode {
    let check = perf_args("ext_obj_alloc");
    let rows = [("alloc_object", Granularity::Object), ("alloc_page", Granularity::Page)].map(
        |(scenario, granularity)| {
            let (result, wall_ms) = timed(|| alloc_run("mixed", granularity));
            Row {
                scenario: scenario.into(),
                wall_ms,
                metric: ("kops_per_vs", result.kops_per_vs),
                extra: Vec::new(),
            }
        },
    );
    record_or_check("alloc", &rows, check)
}
