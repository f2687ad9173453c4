//! `run.sh aa [RUNS]`: the benchmark against itself. Two interleaved sets
//! of end-to-end runs of every workload on the same build, each run with
//! another seed, judged the way the driver judges a benchmark: for every
//! metric, the interquartile spread of each set against the bound, and
//! how much worse the second set's median is than the first's.

use crate::manifest::{END_TO_END, RUN_SECONDS};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use dmem_sim::jsonlite::{parse, Value};
use std::process::{Command, ExitCode};

const DEFAULT_RUNS: usize = 5;

/// Runs one end-to-end child and returns its metrics by name, or `None`
/// if it failed or reported wrong outputs.
fn child_metrics(workload: &str, seed: usize, seconds: u64) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = parse(stdout.lines().last()?).ok()?;
    (out.status.success() && result.get("correct") == Some(&Value::Bool(true)))
        .then(|| result.get("metrics").cloned())
        .flatten()
}

/// By how much of `first` the value `second` is worse, given which
/// direction is better; negative when it is better.
pub fn worsening(first: f64, second: f64, better: &str) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let mut runs = DEFAULT_RUNS;
    let mut seconds = RUN_SECONDS;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--seconds" => it.next().and_then(|v| v.parse().ok()).map(|v| seconds = v),
            n => n.parse().ok().map(|v| runs = v),
        };
        if parsed.is_none() || runs < 2 {
            eprintln!("usage: run.sh aa [RUNS >= 2] [--seconds S]");
            return ExitCode::from(2);
        }
    }

    // values[set][workload][metric] -> one value per run.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; 2];
    for run in 0..runs {
        for set in 0..2 {
            for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
                eprintln!(
                    "aa: run {}/{runs} set {} {workload}",
                    run + 1,
                    ["A", "B"][set]
                );
                let Some(metrics) = child_metrics(workload, run + 1, seconds) else {
                    eprintln!("aa: {workload} seed {} failed", run + 1);
                    return ExitCode::FAILURE;
                };
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let Some(v) = metrics
                        .get(metric.name)
                        .and_then(|v| v.get("value"))
                        .and_then(Value::as_f64)
                    else {
                        eprintln!("aa: {workload} did not report {}", metric.name);
                        return ExitCode::FAILURE;
                    };
                    values[set][w][m].push(v);
                }
            }
        }
    }

    let mut rows = Vec::new();
    let mut all_within = true;
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let [a, b] = [0, 1].map(|set| quartiles(&values[set][w][m]));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let gap = worsening(a[1], b[1], metric.better);
            // The spread of `setup_s` is reported but not judged.
            let within = gap <= metric.bound
                && (metric.name == "setup_s" || spread(a).max(spread(b)) <= metric.bound);
            all_within &= within;
            rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {}, \
                 \"a_quartiles\": {a:?}, \"b_quartiles\": {b:?}, \"a_spread\": {:.5}, \"b_spread\": {:.5}, \
                 \"b_worse_by\": {gap:.5}, \"within_bound\": {within}, \"a_values\": {:?}, \"b_values\": {:?}}}",
                metric.name,
                metric.unit,
                metric.bound,
                spread(a),
                spread(b),
                values[0][w][m],
                values[1][w][m],
            ));
        }
    }
    println!(
        "{{\n  \"runs_per_set\": {runs},\n  \"seeds\": \"1..={runs}\",\n  \"seconds\": {seconds},\n  \
         \"all_within_bounds\": {all_within},\n  \"rows\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.1).abs() < 1e-12);
    }
}
