//! Wall-clock ledger of the LLM serving extension's three engines at a
//! fixed scale (100 arrivals/s, 600 turns): `--perf` records
//! `results/BENCH_llm.json`; `--perf --check` fails on a > 3x regression
//! against that committed ledger and writes nothing. The sweep itself is
//! the `ext_llm_serving` entry of the `figures` binary.
//!
//! Run with: `cargo run --release -p dmem-bench --bin ext_llm_serving -- --perf`

use dmem_bench::extensions::serve;
use dmem_bench::perf::{perf_args, record_or_check, timed, Row};
use dmem_kv::SpillPolicy;
use std::process::ExitCode;

fn main() -> ExitCode {
    let check = perf_args("ext_llm_serving");
    let rows = [
        ("llm_tiered", SpillPolicy::RemoteThenDisk),
        ("llm_local_only", SpillPolicy::DropCold),
        ("llm_disk_offload", SpillPolicy::DiskOnly),
    ]
    .map(|(scenario, spill)| {
        let (result, wall_ms) = timed(|| serve(100.0, 600, spill));
        Row {
            scenario: scenario.into(),
            wall_ms,
            metric: ("tokens_per_s", result.tokens_per_s),
            extra: Vec::new(),
        }
    });
    record_or_check("llm", &rows, check)
}
