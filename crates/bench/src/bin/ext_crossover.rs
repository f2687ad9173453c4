//! Wall-clock ledger of the crossover extension: the 4 KiB column on both
//! working sets through all three transports. `--perf` records
//! `results/BENCH_cxl.json`; `--perf --check` fails on a > 3x regression
//! against that committed ledger and writes nothing. The sweep itself is
//! the `ext_crossover` entry of the `figures` binary.
//!
//! Run with: `cargo run --release -p dmem-bench --bin ext_crossover -- --perf`

use dmem_bench::extensions::{crossover_run, BACKENDS, WORKING_SETS};
use dmem_bench::perf::{perf_args, record_or_check, timed, Row};
use std::process::ExitCode;

fn main() -> ExitCode {
    let check = perf_args("ext_crossover");
    let rows = WORKING_SETS.map(|(name, ws)| {
        let (lat, wall_ms) = timed(|| BACKENDS.map(|(_, pref)| crossover_run(pref, ws, 4096)));
        Row {
            scenario: format!("crossover_{name}_ws"),
            wall_ms,
            metric: ("cxl_read_us", lat[0] as f64 / 1e3),
            extra: Vec::new(),
        }
    });
    record_or_check("cxl", &rows, check)
}
