//! Wall-clock regression harness for the simulator's hot paths.
//!
//! Unlike the `figures` binary — whose output is *virtual* time and thus
//! independent of host speed — this harness measures real elapsed time
//! for three representative scenarios:
//!
//! * `fig4_paging_sweep` — the Fig. 4 compressibility sweep (paging
//!   engine + FastSwap backend + compression, the fault-loop hot path);
//! * `fig10_rdd` — the Fig. 10 Spark-vs-DAHI job grid (RDD cache,
//!   spill/recompute path);
//! * `chaos_32_seeds` — the chaos harness over 32 seeds (whole-cluster
//!   put/get/failure churn).
//!
//! Modes (see `dmem_bench::perf` for the ledger rules):
//!
//! * default — run the full scenarios and record `results/BENCH_perf.json`;
//! * `--quick` — smaller variants (same code paths) for CI, recorded as
//!   `results/BENCH_perf_quick.json`;
//! * `--check` — instead of recording, compare each scenario's wall time
//!   against the committed ledger of the same mode and fail on a gross
//!   (> 3x) regression; writes nothing.
//!
//! Scenarios always run sequentially (jobs=1) so wall numbers are stable
//! and comparable across machines with different core counts.

use dmem_bench::figures::{fig4_engine, fig4_remote_scale};
use dmem_bench::perf::{per_second, record_or_check, timed, Row};
use dmem_rdd::job::{run_iterative_job, DatasetSize, JobSpec, SpillTier};
use memory_disaggregation::chaos::run_seed;
use memory_disaggregation::sim::ChaosConfig;
use std::process::ExitCode;

fn fig4_paging_sweep(quick: bool) -> Row {
    let ratios: &[f64] = if quick { &[2.0] } else { &[1.3, 2.0, 3.0, 4.5] };
    let mut scale = fig4_remote_scale();
    if quick {
        scale.working_set_pages = 512;
    }

    let (faults, wall_ms) = timed(|| {
        let mut faults = 0u64;
        for &ratio in ratios {
            let (mut engine, trace) = fig4_engine(&scale, ratio);
            let (stats, _) = engine.run(trace).unwrap();
            faults += stats.major_faults;
        }
        faults
    });
    Row {
        scenario: "fig4_paging_sweep".into(),
        wall_ms,
        metric: ("faults_per_s", per_second(faults, wall_ms)),
        extra: Vec::new(),
    }
}

fn fig10_rdd(quick: bool) -> Row {
    let sizes: &[DatasetSize] = if quick {
        &[DatasetSize::Small]
    } else {
        &DatasetSize::ALL
    };
    let (jobs, wall_ms) = timed(|| {
        let mut jobs = 0u64;
        for spec in JobSpec::fig10_suite() {
            for &size in sizes {
                run_iterative_job(&spec, size, SpillTier::VanillaDisk).unwrap();
                run_iterative_job(&spec, size, SpillTier::Dahi).unwrap();
                jobs += 2;
            }
        }
        jobs
    });
    Row {
        scenario: "fig10_rdd".into(),
        wall_ms,
        metric: ("jobs_per_s", per_second(jobs, wall_ms)),
        extra: Vec::new(),
    }
}

fn chaos_sweep(quick: bool) -> Row {
    let seeds: u64 = if quick { 8 } else { 32 };
    let config = ChaosConfig::default();
    let (failures, wall_ms) = timed(|| {
        (0..seeds)
            .filter(|&seed| run_seed(seed, &config).is_err())
            .count()
    });
    assert_eq!(failures, 0, "chaos invariants must hold during perf runs");
    Row {
        scenario: "chaos_32_seeds".into(),
        wall_ms,
        metric: ("seeds_per_s", per_second(seeds, wall_ms)),
        extra: Vec::new(),
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            other => panic!("unknown argument {other} (usage: perf [--quick] [--check])"),
        }
    }

    println!("== perf — wall-clock scenarios{} ==", if quick { " (quick)" } else { "" });
    let rows = [fig4_paging_sweep(quick), fig10_rdd(quick), chaos_sweep(quick)];
    record_or_check(if quick { "perf_quick" } else { "perf" }, &rows, check)
}
