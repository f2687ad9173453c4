//! Seeded chaos runner.
//!
//! Runs the deterministic chaos harness over one seed or a seed range and
//! exits nonzero on the first invariant violation, printing the seed, the
//! violated invariant, and the minimal failing event prefix.
//!
//! Seeds run fanned across cores (`--jobs N`, default: available
//! parallelism) — each seed's simulation is fully deterministic and
//! self-contained, and verdicts print in seed order, so the output is
//! byte-identical to a sequential run. A seeds/second rate goes to
//! stderr.
//!
//! ```text
//! cargo run --bin chaos -- --seeds 0..32
//! cargo run --bin chaos -- --seed 0x2a --steps 200 --jobs 4
//! ```

use memory_disaggregation::chaos::{run_schedule, run_seed, InvariantKind};
use memory_disaggregation::sim::chaos::{ChaosConfig, ChaosSchedule, ChaosStep};
use memory_disaggregation::sim::{FailureEvent, SimDuration};
use memory_disaggregation::types::{NodeId, ReplicationFactor, ServerId};
use std::process::ExitCode;
use std::time::Instant;

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| format!("not a number: {text}"))
}

fn usage() -> String {
    "usage: chaos [--seed N | --seeds A..B] [--steps N] [--keys N] [--nodes N] [--jobs N] \
     [--qos] [--faults] [--cxl] [--flight-fixture]"
        .to_string()
}

/// Forces a known invariant failure (factor-1 data lost to a node crash,
/// judged by the convergence checker) and prints the resulting flight
/// recorder dump. Everything runs on the virtual clock from a pinned
/// seed, so the output is byte-identical across reruns — ci.sh diffs it
/// against a committed golden to smoke-test the dump path end to end.
fn run_flight_fixture() -> bool {
    let config = ChaosConfig {
        nodes: 5,
        servers_per_node: 1,
        steps: 40,
        keys: 8,
        replication: ReplicationFactor::SINGLE,
        ..ChaosConfig::default()
    };
    let s0 = ServerId::new(NodeId::new(0), 0);
    let mut steps = Vec::new();
    for key in 0..8 {
        steps.push(ChaosStep::Put {
            server: s0,
            key,
            len: 16 * 1024,
        });
    }
    for node in [NodeId::new(1), NodeId::new(2)] {
        steps.push(ChaosStep::Inject(FailureEvent::NodeDown(node)));
    }
    for node in [NodeId::new(1), NodeId::new(2)] {
        steps.push(ChaosStep::Inject(FailureEvent::NodeUp(node)));
    }
    steps.push(ChaosStep::Maintain {
        horizon: SimDuration::from_millis(250),
    });
    let schedule = ChaosSchedule {
        seed: 0xBAD_5EED,
        steps,
    };
    match run_schedule(&schedule, &config) {
        Ok(stats) => {
            println!("flight fixture: unexpectedly clean ({stats})");
            false
        }
        Err(violation) => {
            println!("flight fixture: forced violation");
            println!("{violation}");
            print!("{}", violation.flight_dump.as_deref().unwrap_or("(no flight dump)\n"));
            violation.invariant == InvariantKind::Convergence
        }
    }
}

fn run() -> Result<bool, String> {
    let mut config = ChaosConfig::default();
    let mut seeds: Vec<u64> = Vec::new();
    let mut jobs = dmem_sim::par::available_parallelism();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => seeds.push(parse_u64(&value("--seed")?)?),
            "--qos" => config.qos = true,
            // Each switches the schedule generator and the harness on
            // together: fault steps with the fabric fault layer, pool
            // outages and remote atomics with the CXL pool itself.
            "--faults" => config.fabric_faults = true,
            "--cxl" => config.cxl = true,
            "--flight-fixture" => return Ok(run_flight_fixture()),
            "--jobs" => {
                jobs = parse_u64(&value("--jobs")?)?.max(1) as usize;
            }
            "--seeds" => {
                let spec = value("--seeds")?;
                let (a, b) = spec
                    .split_once("..")
                    .ok_or(format!("--seeds wants A..B, got {spec}"))?;
                let (a, b) = (parse_u64(a)?, parse_u64(b)?);
                if a >= b {
                    return Err(format!("empty seed range {spec}"));
                }
                seeds.extend(a..b);
            }
            "--steps" => config.steps = parse_u64(&value("--steps")?)? as usize,
            "--keys" => config.keys = parse_u64(&value("--keys")?)?,
            "--nodes" => config.nodes = parse_u64(&value("--nodes")?)? as usize,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if seeds.is_empty() {
        seeds.extend(0..8);
    }
    let total = seeds.len();
    let wall = Instant::now();
    // Each seed is an independent deterministic sim; fan across cores and
    // print verdicts in seed order so stdout is byte-identical to a
    // sequential run.
    let verdicts = dmem_sim::par::par_map(jobs, seeds.clone(), |_, seed| run_seed(seed, &config));
    let elapsed = wall.elapsed();
    let mut all_clean = true;
    for (seed, verdict) in seeds.into_iter().zip(verdicts) {
        match verdict {
            Ok(stats) => {
                println!("seed {seed:#x}: ok ({stats})");
                if !stats.metrics_digest.is_empty() {
                    println!("  metrics: {}", stats.metrics_digest);
                }
                if !stats.qos_digest.is_empty() {
                    println!("  qos: {}", stats.qos_digest);
                }
                if !stats.alert_digest.is_empty() {
                    println!(
                        "  alerts: {} ({} windows)",
                        stats.alert_digest, stats.telemetry_windows
                    );
                    for line in &stats.alert_log {
                        println!("    {line}");
                    }
                }
            }
            Err(report) => {
                all_clean = false;
                println!("seed {seed:#x}: FAILED");
                println!("{report}");
                if let Some(dump) = &report.violation.flight_dump {
                    print!("{dump}");
                }
            }
        }
    }
    // Rate to stderr: stdout stays reserved for the verdicts.
    eprintln!(
        "[chaos] {total} seeds in {:.2}s ({:.1} seeds/s, jobs={jobs})",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    Ok(all_clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
