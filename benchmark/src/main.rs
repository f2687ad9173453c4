//! Two-clock benchmark of the memory-disaggregation simulator.
//!
//! The simulator runs on two clocks and a user cares about both: how fast
//! the simulator itself runs on the host, and what the model predicts on
//! the virtual clock. This program measures every layer from outside,
//! through public functions only. See `benchmark/README.md`.

mod aa;
mod harness;
mod manifest;
mod probes;
mod spans;
mod stats;
mod workloads;

use harness::{
    measure, set_up, Budget, Layers, Plain, ProgramTrace, SetupTimes, Traced, Virtual, Workload,
    SETUPS,
};
use manifest::{quoted, result_json, END_TO_END, PER_LAYER, RUN_SECONDS};
use spans::Recorder;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{paging::Paging, rack::Rack, tier::TierRead, tier::TierWrite, WORKLOADS};

const USAGE: &str = "usage: run.sh --workload <paging|tier_read|tier_write|rack> [--seed N] \
[--seconds S] [--trace 0|1] [--quick]\n       run.sh aa [RUNS] [--seconds S]\n       run.sh manifest";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Three rounds per phase and one set-up: checks the output's shape,
    /// measures nothing.
    quick: bool,
}

impl Args {
    fn budget(&self) -> Budget {
        Budget {
            seconds: self.seconds,
            fixed_rounds: self.quick.then_some(3),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => {
                // Any 64-bit integer is a seed; a negative one wraps.
                let text = value("--seed")?;
                out.seed = text
                    .parse::<u64>()
                    .or_else(|_| text.parse::<i64>().map(|v| v as u64))
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--quick" => out.quick = true,
            name if !name.starts_with('-') && out.workload.is_empty() => out.workload = name.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == out.workload) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// What the driver reads, plus a line of context above it.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    context: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An end-to-end run: set-ups, timed rounds for the measured time, then
/// the virtual pass.
fn end_to_end<W: Workload>(args: &Args) -> Report {
    let setups = if args.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept: Option<W> = None;
    for _ in 0..setups {
        // Drop the previous set-up first, or two would be alive at once.
        drop(kept.take());
        let (workload, times) = set_up::<W>(args.seed);
        setup_s.push(times.total().as_secs_f64());
        kept = Some(workload);
    }
    let mut workload = kept.expect("at least one set-up ran");
    let ops = workload.ops_per_round();

    let mut reference = None;
    let timed = measure(args.budget(), ops, &mut reference, |_| {
        workload.round(&mut Plain)
    });
    let mut observer = Virtual::default();
    let pass = measure(Budget::rounds(1), ops, &mut reference, |_| {
        workload.round(&mut observer)
    });
    let reference = reference.expect("measured rounds ran");
    observer.latencies_ns.sort_unstable();
    let (_, p99_ns) = workload.virtual_latency_ns(&observer.latencies_ns);

    let values = [
        stats::quantile(&stats::sorted(&setup_s), 0.5),
        ops as f64 / timed.deciles().0,
        stats::peak_rss_mib(),
        ops as f64 / (reference.virt_ns as f64 / 1e9),
        p99_ns / 1e3,
    ];
    let failed = timed.failed + pass.failed;
    Report {
        correct: failed == 0,
        attempted: ops * (timed.rounds() + 1) as u64,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect(),
        context: format!(
            "\"rounds\": {}, \"ops_per_round\": {ops}, \"digest\": \"{:016x}\", \"latency_samples\": {}, \
             \"digest_mismatches\": {}",
            timed.rounds(),
            reference.digest,
            observer.latencies_ns.len(),
            timed.digest_mismatches + pass.digest_mismatches,
        ),
    }
}

/// Share of the measured time each part of a traced run gets.
const UNTRACED_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.30;
const WORKLOAD_SHARE: f64 = 0.20;
const PROBE_SHARE: f64 = 0.15;

/// Host time per call into each layer, from the spans' self times, and
/// how much of the timed rounds (`timed_ns` in total) those calls fill.
fn span_layers(layers: &mut Layers, recorder: &Recorder, timed_ns: f64) {
    const WINDOW: f64 = workloads::tier::WINDOW as f64;
    let totals = spans::totals_by_name(recorder.spans());
    for (metric, span, keys_per_call) in [
        ("swap.access_ns", "swap.access", 1.0),
        ("core.get_ns", "core.get", 1.0),
        ("core.get_batch_ns_per_key", "core.get_batch", WINDOW),
        ("core.put_ns", "core.put", 1.0),
        ("core.put_batch_ns_per_key", "core.put_batch", WINDOW),
        ("core.delete_ns", "core.delete", 1.0),
        ("qos.tick_ns", "qos.tick", 1.0),
    ] {
        let per_span = totals.get(span).map_or(0.0, |t| t.self_ns_per_span());
        layers.insert(metric, per_span / keys_per_call);
    }
    // Spans named after a crate wrap a call into it; `harness.*` spans are
    // the harness's own structure. The harness is not the thing being
    // measured, so the calls should fill nearly all of a round.
    let in_calls: u64 = totals
        .iter()
        .filter(|(name, _)| !name.starts_with("harness."))
        .map(|(_, t)| t.total_ns)
        .sum();
    layers.insert("harness.call_span_frac", in_calls as f64 / timed_ns);
}

/// Virtual attribution and counts from the round the program's tracer
/// was armed for, which read `keys_read` keys back from far memory.
fn program_layers(layers: &mut Layers, program: &ProgramTrace, keys_read: u64) {
    let self_ns = |c: &str| program.category_self_ns.get(c).copied().unwrap_or(0);
    for (metric, category) in [
        ("swap.virt_self_us", "swap"),
        ("compress.virt_self_us", "compress"),
        ("core.virt_self_us", "core"),
        ("cluster.virt_self_us", "cluster"),
        ("net.virt_self_us", "net"),
    ] {
        // The disk tier is part of the `core` crate but traces under a
        // category of its own.
        let disk = if category == "core" {
            self_ns("disk")
        } else {
            0
        };
        layers.insert(metric, (self_ns(category) + disk) as f64 / 1e3);
    }
    let span_count = |name: &str| program.span_counts.get(name).copied().unwrap_or(0) as f64;
    layers.insert("cluster.store_batches", span_count("cluster.store_batch"));
    layers.insert("cluster.load_batches", span_count("cluster.load_batch"));
    layers.insert("qos.throttle_spans", span_count("qos.throttle"));
    layers.insert(
        "node.shared_hit_frac",
        program.shared_gets as f64 / keys_read.max(1) as f64,
    );
}

/// A traced run: the per-layer metrics. Untraced rounds first (the base
/// of the tracing overhead), then rounds with a host span around every
/// call, then one round with the program's own virtual tracer armed, then
/// what only the workload can measure, a virtual pass, and the layer
/// probes.
fn traced<W: Workload>(args: &Args) -> Report {
    let (mut workload, times): (W, SetupTimes) = set_up(args.seed);
    let ops = workload.ops_per_round();
    let budget = args.budget();
    let mut reference = None;

    let cpu_before = stats::cpu_time_ns();
    let switches_before = stats::involuntary_ctx_switches();
    let untraced = measure(budget.share(UNTRACED_SHARE), ops, &mut reference, |_| {
        workload.round(&mut Plain)
    });
    let cpu_ns = stats::cpu_time_ns() - cpu_before;
    let switches = stats::involuntary_ctx_switches() - switches_before;

    let mut recorder = Recorder::new();
    let with_spans = measure(budget.share(TRACED_SHARE), ops, &mut reference, |round| {
        recorder.set_round(round as u32);
        let id = recorder.enter("harness.round");
        let out = workload.round(&mut Traced {
            recorder: &mut recorder,
            arm_program_tracer: false,
            program: ProgramTrace::default(),
        });
        recorder.exit(id);
        out
    });

    // The program's tracer allocates per span, so the round it is armed
    // for gives virtual attribution and counts, not host times; its spans
    // go to a recorder of their own. Spans never advance the virtual
    // clock, so this round too must land on the untraced rounds' digest.
    let mut scratch = Recorder::new();
    let mut observer = Traced {
        recorder: &mut scratch,
        arm_program_tracer: true,
        program: ProgramTrace::default(),
    };
    let armed = measure(Budget::rounds(1), ops, &mut reference, |_| {
        workload.round(&mut observer)
    });
    let program = observer.program;

    // Read the counts before the virtual pass: its verification reads
    // would be counted as the round's own.
    let mut layers = Layers::new();
    let keys_read = workload.layer_metrics(&mut layers, budget.share(WORKLOAD_SHARE));

    // The median virtual latency. It is a per-layer metric because on
    // `paging` it is the application's own compute time per access, the
    // same under every seed, and cannot move.
    let mut pass_observer = Virtual::default();
    let pass = measure(Budget::rounds(1), ops, &mut reference, |_| {
        workload.round(&mut pass_observer)
    });
    pass_observer.latencies_ns.sort_unstable();
    let (p50_ns, _) = workload.virtual_latency_ns(&pass_observer.latencies_ns);

    if !args.quick {
        probes::run_all(&mut layers, budget.share(PROBE_SHARE).duration(), args.seed);
    }

    let (p10, p50, p90) = untraced.deciles();
    layers.insert("harness.gen_ms", ms(times.generate));
    layers.insert("harness.build_ms", ms(times.build));
    layers.insert("harness.fill_ms", ms(times.fill));
    layers.insert("harness.warmup_ms", ms(times.warmup));
    layers.insert("harness.round_ms_p10", p10 * 1e3);
    layers.insert("harness.round_ms_p50", p50 * 1e3);
    layers.insert("harness.round_ms_p90", p90 * 1e3);
    layers.insert(
        "harness.cpu_ns_per_op",
        cpu_ns as f64 / (ops * untraced.rounds() as u64) as f64,
    );
    layers.insert("harness.invol_ctx_switches", switches as f64);
    layers.insert(
        "harness.trace_overhead_frac",
        (with_spans.deciles().0 - p10) / p10,
    );
    layers.insert(
        "harness.virt_mismatch_rounds",
        (armed.digest_mismatches + pass.digest_mismatches) as f64,
    );
    layers.insert("harness.virt_p50_us", p50_ns / 1e3);
    if let Some(&w2) = layers.get("rack.w2_round_ms_p10") {
        // The measured rounds are the single-worker ones.
        layers.insert("rack.w1_round_ms_p10", p10 * 1e3);
        layers.insert("rack.speedup_w2", p10 * 1e3 / w2);
    }
    span_layers(
        &mut layers,
        &recorder,
        with_spans.round_s.iter().sum::<f64>() * 1e9,
    );
    program_layers(&mut layers, &program, keys_read);
    let verbs = layers.get("net.verbs").copied().unwrap_or(0.0);
    layers.insert("net.verbs_per_op", verbs / ops as f64);

    // One round's spans are enough to read; all of them would be tens of
    // megabytes on the per-operation workloads.
    let first_round: Vec<_> = recorder
        .spans()
        .iter()
        .filter(|s| s.round == 0)
        .copied()
        .collect();
    let path = bench_dir()
        .join("out")
        .join(format!("{}.spans.jsonl", args.workload));
    let written = spans::write_jsonl(&path, &first_round);

    let worker_mismatch = layers
        .get("rack.worker_count_mismatches")
        .is_some_and(|&m| m > 0.0);
    let phases = [&untraced, &with_spans, &armed, &pass];
    let failed =
        phases.iter().map(|p| p.failed).sum::<u64>() + if worker_mismatch { ops } else { 0 };
    Report {
        correct: failed == 0 && written.is_ok(),
        attempted: ops * phases.iter().map(|p| p.rounds()).sum::<usize>() as u64,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit, layers.get(name).copied().unwrap_or(0.0)))
            .collect(),
        context: format!(
            "\"untraced_rounds\": {}, \"traced_rounds\": {}, \"spans_recorded\": {}, \"span_file\": {}, \
             \"span_file_error\": {}",
            untraced.rounds(),
            with_spans.rounds(),
            recorder.spans().len(),
            quoted(&path.display().to_string()),
            written
                .err()
                .map_or("null".into(), |e| quoted(&e.to_string())),
        ),
    }
}

/// The benchmark's own directory: `run.sh` passes it, so the program
/// finds it wherever the checkout sits.
fn bench_dir() -> std::path::PathBuf {
    std::env::var_os("DMEM_BENCH_DIR").map_or_else(
        || env!("CARGO_MANIFEST_DIR").into(),
        std::path::PathBuf::from,
    )
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The checked-out commit, read from the checkout's own `.git` (the
/// driver's checkouts have none; `git` itself would search parent
/// directories outside the checkout).
fn git_rev() -> String {
    let git = bench_dir().join("../.git");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(git.join("HEAD")).and_then(|head| match head.strip_prefix("ref: ") {
        Some(reference) => read(git.join(reference)),
        None => Some(head),
    });
    rev.map_or_else(|| "unknown".into(), |r| r.chars().take(12).collect())
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        traced::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("aa") => return aa::main(&argv[1..]),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let report = match args.workload.as_str() {
        "paging" => run::<Paging>(&args),
        "tier_read" => run::<TierRead>(&args),
        "tier_write" => run::<TierWrite>(&args),
        _ => run::<Rack>(&args),
    };
    if report.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        eprintln!("a metric is not a finite number: {:?}", report.metrics);
        return ExitCode::FAILURE;
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, {}, \
         \"wall_s\": {:.3}, \"nproc\": {threads}, \"rustc\": {}, \"git_rev\": {}}}",
        quoted(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        report.context,
        started.elapsed().as_secs_f64(),
        quoted(&rustc_version()),
        quoted(&git_rev()),
    );
    println!(
        "{}",
        result_json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
