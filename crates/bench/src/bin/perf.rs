//! The one wall-clock gate: twelve scenarios, each timed best-of-two with
//! [`dmem_bench::perf::timed`], against the one ledger
//! `results/BENCH_perf.json`.
//!
//! Unlike the `figures` binary — whose output is *virtual* time and thus
//! independent of host speed — this harness measures real elapsed time:
//!
//! * `fig4_paging_sweep` — Fig. 4 at ratio 2.0 over a 512-page working
//!   set (paging engine + FastSwap backend + compression, the fault-loop
//!   hot path);
//! * `fig10_rdd` — the Fig. 10 Spark-vs-DAHI job grid on the small
//!   dataset (RDD cache, spill/recompute path);
//! * `chaos_8_seeds` — the chaos harness over seeds 0..8 (whole-cluster
//!   put/get/failure churn); a failing seed fails the run by name;
//! * `llm_tiered`, `llm_local_only`, `llm_disk_offload` — the LLM serving
//!   extension's three engines at 100 arrivals/s, 600 turns;
//! * `alloc_object`, `alloc_page` — the object allocator's two backing
//!   granularities on the mixed distribution;
//! * `crossover_small_ws`, `crossover_large_ws` — the crossover
//!   extension's 4 KiB column through all three transports;
//! * `rack_fabric_workers1`, `rack_fabric_workers2` — the 256-host rack
//!   at 1 and 2 worker threads, each row with the core count and, per
//!   worker thread, where one profiled round's wall time went (setup /
//!   `run_epoch` / inbox drain / barrier wait / plan / report, also
//!   printed to stderr).
//!
//! `perf` records the ledger; `perf --check` compares against it, fails
//! on a > 3x regression and writes nothing (see `dmem_bench::perf`). Any
//! other argument prints the usage and exits 2. Beside the ledger, the
//! rack rows carry two gates: a worker's timed shares must sum to its
//! round within 2 %, and on a machine with a core per worker 2 workers
//! must run ≥ 1.3x faster than 1 (skipped with a note on smaller
//! machines). A failing gate exits 1, and plain `perf` then records
//! nothing.
//!
//! All scenarios but the 2-worker rack run on one thread, so their wall
//! numbers are comparable across machines with different core counts.

use dmem_alloc::Granularity;
use dmem_bench::extensions::{alloc_run, crossover_run, serve, BACKENDS, WORKING_SETS};
use dmem_bench::figures::{fig4_engine, fig4_remote_scale};
use dmem_bench::perf::{per_second, record_or_check, timed, Row};
use dmem_kv::SpillPolicy;
use dmem_rdd::job::{run_iterative_job, DatasetSize, JobSpec, SpillTier};
use memory_disaggregation::chaos::run_seed;
use memory_disaggregation::rack::{run_rack, run_rack_profiled, RackConfig, RackReport};
use memory_disaggregation::sim::ChaosConfig;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads the rack's parallel speedup is measured at.
const RACK_WORKERS: usize = 2;

/// Required parallel speedup at [`RACK_WORKERS`] workers with a core
/// each: ROADMAP `[par]`'s bar, which the engine cleared at 2 workers on
/// a 2-core box in 10 of 10 benchmark pairs (1.37-1.76x).
const REQUIRED_SPEEDUP: f64 = 1.3;

/// Times the speedup is measured before a shortfall counts. Another
/// tenant on a core for the length of a run only ever lowers the ratio,
/// so the best of a few attempts is the estimate.
const SPEEDUP_ATTEMPTS: usize = 8;

/// How far a worker's timed shares may sum from the wall time of the
/// round they were taken in.
const SPLIT_TOLERANCE: f64 = 0.02;

fn row(scenario: impl Into<String>, wall_ms: f64, metric: (&'static str, f64)) -> Row {
    Row {
        scenario: scenario.into(),
        wall_ms,
        metric,
        extra: Vec::new(),
    }
}

fn fig4_paging_sweep() -> Row {
    let mut scale = fig4_remote_scale();
    scale.working_set_pages = 512;
    let (faults, wall_ms) = timed(|| {
        let (mut engine, trace) = fig4_engine(&scale, 2.0);
        let (stats, _) = engine.run(trace).expect("the fig4 trace runs");
        stats.major_faults
    });
    row("fig4_paging_sweep", wall_ms, ("faults_per_s", per_second(faults, wall_ms)))
}

fn fig10_rdd() -> Row {
    let (jobs, wall_ms) = timed(|| {
        let mut jobs = 0u64;
        for spec in JobSpec::fig10_suite() {
            for tier in [SpillTier::VanillaDisk, SpillTier::Dahi] {
                run_iterative_job(&spec, DatasetSize::Small, tier).expect("the fig10 job runs");
                jobs += 1;
            }
        }
        jobs
    });
    row("fig10_rdd", wall_ms, ("jobs_per_s", per_second(jobs, wall_ms)))
}

/// The chaos row, or the report of the first seed whose invariants fail.
fn chaos_8_seeds() -> Result<Row, String> {
    const SEEDS: u64 = 8;
    let config = ChaosConfig::default();
    let (failure, wall_ms) = timed(|| {
        (0..SEEDS)
            .map(|seed| run_seed(seed, &config))
            .find_map(Result::err)
    });
    match failure {
        Some(report) => Err(format!("chaos_8_seeds: {report}")),
        None => Ok(row("chaos_8_seeds", wall_ms, ("seeds_per_s", per_second(SEEDS, wall_ms)))),
    }
}

fn llm_serving() -> [Row; 3] {
    [
        ("llm_tiered", SpillPolicy::RemoteThenDisk),
        ("llm_local_only", SpillPolicy::DropCold),
        ("llm_disk_offload", SpillPolicy::DiskOnly),
    ]
    .map(|(scenario, spill)| {
        let (result, wall_ms) = timed(|| serve(100.0, 600, spill));
        row(scenario, wall_ms, ("tokens_per_s", result.tokens_per_s))
    })
}

fn obj_alloc() -> [Row; 2] {
    [("alloc_object", Granularity::Object), ("alloc_page", Granularity::Page)].map(
        |(scenario, granularity)| {
            let (result, wall_ms) = timed(|| alloc_run("mixed", granularity));
            row(scenario, wall_ms, ("kops_per_vs", result.kops_per_vs))
        },
    )
}

fn crossover() -> [Row; 2] {
    WORKING_SETS.map(|(name, ws)| {
        let (lat, wall_ms) = timed(|| BACKENDS.map(|(_, pref)| crossover_run(pref, ws, 4096)));
        row(format!("crossover_{name}_ws"), wall_ms, ("cxl_read_us", lat[0] as f64 / 1e3))
    })
}

/// Runs one profiled round at `workers` threads, prints where each
/// worker's wall time went and returns the split as ledger columns, with
/// whether every worker's shares sum to the round's wall time within
/// [`SPLIT_TOLERANCE`]: if not, a phase is going untimed.
fn split(
    config: &RackConfig,
    workers: usize,
    cores: usize,
    expect: &RackReport,
) -> (Vec<(String, f64)>, bool) {
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
    (columns, complete)
}

/// The two rack rows, and whether the split and speedup gates hold.
fn rack_fabric() -> (Vec<Row>, bool) {
    let config = {
        let mut c = RackConfig::rack_default(256);
        c.accesses_per_host = 400;
        c
    };
    let cores = dmem_sim::par::available_parallelism();
    let gated = cores >= RACK_WORKERS;
    let (mut base, mut wall1) = timed(|| run_rack(&config, 1));
    let (mut hi, mut walln) = timed(|| run_rack(&config, RACK_WORKERS));
    for _ in 1..SPEEDUP_ATTEMPTS {
        if !gated || wall1 / walln >= REQUIRED_SPEEDUP {
            break;
        }
        let (again1, wall) = timed(|| run_rack(&config, 1));
        (base, wall1) = (again1, wall1.min(wall));
        let (againn, wall) = timed(|| run_rack(&config, RACK_WORKERS));
        (hi, walln) = (againn, walln.min(wall));
    }
    assert_eq!(
        base.csv_row(),
        hi.csv_row(),
        "perf runs must stay byte-identical across worker counts"
    );
    let mut holds = true;
    let mut rows = Vec::new();
    for (workers, report, wall_ms) in [(1, &base, wall1), (RACK_WORKERS, &hi, walln)] {
        let (extra, complete) = split(&config, workers, cores, report);
        if !complete {
            eprintln!(
                "rack perf: SPLIT INCOMPLETE — a worker's shares at {workers} worker(s) are \
                 more than {:.0} % off the round they were timed in",
                SPLIT_TOLERANCE * 100.0
            );
            holds = false;
        }
        rows.push(Row {
            extra,
            ..row(
                format!("rack_fabric_workers{workers}"),
                wall_ms,
                ("pages_per_s", per_second(report.accesses, wall_ms)),
            )
        });
    }

    let ratio = wall1 / walln.max(1e-9);
    if !gated {
        eprintln!(
            "rack perf: {ratio:.2}x at {RACK_WORKERS} workers; speedup gate skipped \
             ({cores} cores available, need a core per worker)"
        );
    } else if ratio < REQUIRED_SPEEDUP {
        eprintln!(
            "rack perf: SPEEDUP REGRESSION — {ratio:.2}x < required {REQUIRED_SPEEDUP:.1}x \
             at {RACK_WORKERS} workers on {cores} cores"
        );
        holds = false;
    } else {
        eprintln!("rack perf: speedup gate ok ({ratio:.2}x >= {REQUIRED_SPEEDUP:.1}x)");
    }
    (rows, holds)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => false,
        ["--check"] => true,
        _ => {
            eprintln!("usage: perf [--check]");
            return ExitCode::from(2);
        }
    };

    println!("== perf — wall-clock scenarios ==");
    let mut rows = vec![fig4_paging_sweep(), fig10_rdd()];
    match chaos_8_seeds() {
        Ok(row) => rows.push(row),
        Err(why) => {
            eprintln!("perf: FAILED — {why}");
            return ExitCode::FAILURE;
        }
    }
    rows.extend(llm_serving());
    rows.extend(obj_alloc());
    rows.extend(crossover());
    let (rack, gates_hold) = rack_fabric();
    rows.extend(rack);
    if !gates_hold && !check {
        eprintln!("perf: FAILED — a rack gate failed, so nothing is recorded");
        return ExitCode::FAILURE;
    }
    let ledger = record_or_check(&rows, check);
    if gates_hold {
        ledger
    } else {
        ExitCode::FAILURE
    }
}
