//! The one wall-clock ledger, [`LEDGER`], behind the `perf` binary.
//!
//! `perf` measures its scenarios with [`timed`], collects [`Row`]s and
//! hands them to [`record_or_check`]:
//!
//! * `perf` *records* the ledger;
//! * `perf --check` *compares* against that same committed file and
//!   writes nothing, so what is checked is by construction what was
//!   recorded, and a green check leaves the tree clean.
//!
//! The check is a gross-regression gate ([`TOLERANCE`]× the recorded
//! wall time): it absorbs host noise and exists to catch an accidental
//! O(n log n) → O(n²), not percent-level drift. Percent-level and
//! per-layer wall-clock questions belong to `benchmark/run.sh --trace 1`.

use dmem_sim::jsonlite::{self, Value};
use std::process::ExitCode;
use std::time::Instant;

/// The committed ledger, relative to the working directory.
const LEDGER: &str = "results/BENCH_perf.json";

/// A measured scenario may be this many times slower than its ledger row.
pub(crate) const TOLERANCE: f64 = 3.0;

/// The writer's `wall_ms` resolution: a recorded 0.0 means "under this",
/// so the limit is computed from at least this much.
const RESOLUTION_MS: f64 = 0.1;

/// One measured scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Ledger key; must be unique within a ledger.
    pub scenario: String,
    /// Wall-clock milliseconds, as returned by [`timed`].
    pub wall_ms: f64,
    /// One named figure recorded beside the wall time (a rate derived
    /// from it, or the scenario's virtual-clock result). Never checked.
    pub metric: (&'static str, f64),
    /// Further named figures recorded in the same ledger object, such as
    /// the core count or a breakdown of `wall_ms`. Never checked.
    pub extra: Vec<(String, f64)>,
}

/// Runs `run` twice and returns the second result with the faster of the
/// two wall times in milliseconds. Best-of-two absorbs one-off scheduler
/// noise, which matters for the rows that take only a few milliseconds.
pub fn timed<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let mut once = || {
        let t0 = Instant::now();
        let out = run();
        (out, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (_, first) = once();
    let (out, second) = once();
    (out, first.min(second))
}

/// `count` events over `wall_ms`, as a per-second rate for [`Row::metric`].
pub fn per_second(count: u64, wall_ms: f64) -> f64 {
    count as f64 / (wall_ms / 1e3).max(1e-9)
}

/// Renders rows as the ledger JSON: an array, one object per line.
fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut line = format!(
                "  {{\"scenario\": \"{}\", \"wall_ms\": {:.1}, \"{}\": {:.2}",
                row.scenario, row.wall_ms, row.metric.0, row.metric.1
            );
            for (name, value) in &row.extra {
                line.push_str(&format!(", \"{name}\": {value:.2}"));
            }
            line + "}"
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Reads `(scenario, wall_ms)` pairs out of a ledger, whatever its
/// layout or key order.
fn parse(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = jsonlite::parse(text).map_err(|e| e.to_string())?;
    let rows = doc.as_array().ok_or("ledger is not a JSON array")?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let scenario = row.get("scenario").and_then(Value::as_str);
            let wall_ms = row.get("wall_ms").and_then(Value::as_f64);
            match (scenario, wall_ms) {
                (Some(s), Some(ms)) => Ok((s.to_owned(), ms)),
                _ => Err(format!(
                    "row {i} lacks a string \"scenario\" or a numeric \"wall_ms\""
                )),
            }
        })
        .collect()
}

/// Compares every measured row with its ledger row, printing one verdict
/// line each. A row the ledger does not hold fails like a regression:
/// a gate that skips what it cannot find checks nothing. So does a
/// ledger row that no measured row matches, or a deleted or renamed
/// scenario's row would stay in the ledger for good.
fn compare(rows: &[Row], ledger: &str) -> Result<(), String> {
    let baseline = parse(ledger)?;
    let mut failures = Vec::new();
    for row in rows {
        let Some(&(_, base_ms)) = baseline.iter().find(|(name, _)| *name == row.scenario) else {
            failures.push(format!("{}: no ledger row", row.scenario));
            continue;
        };
        let limit_ms = TOLERANCE * base_ms.max(RESOLUTION_MS);
        let regressed = row.wall_ms > limit_ms;
        println!(
            "check {:>22}: {:.1} ms vs recorded {base_ms:.1} ms (limit {limit_ms:.1} ms, {TOLERANCE}x): {}",
            row.scenario,
            row.wall_ms,
            if regressed { "REGRESSION" } else { "ok" }
        );
        if regressed {
            failures.push(format!(
                "{}: {:.1} ms is over {TOLERANCE}x the recorded {base_ms:.1} ms",
                row.scenario, row.wall_ms
            ));
        }
    }
    for (name, _) in &baseline {
        if !rows.iter().any(|row| row.scenario == *name) {
            failures.push(format!("{name}: no scenario measures this ledger row"));
        }
    }
    if failures.is_empty() {
        return Ok(());
    }
    Err(failures.join("; "))
}

/// Prints the rows, then either records them as [`LEDGER`] or — with
/// `check` — compares them against that committed file and writes
/// nothing. Fails (without panicking) on a regression beyond
/// [`TOLERANCE`], a measured scenario the ledger lacks, a ledger row no
/// scenario measures, or a ledger that cannot be read or parsed.
pub fn record_or_check(rows: &[Row], check: bool) -> ExitCode {
    for row in rows {
        println!(
            "{:>22}: {:>9.1} ms wall  ({} {:.2})",
            row.scenario, row.wall_ms, row.metric.0, row.metric.1
        );
    }
    let outcome = if check {
        std::fs::read_to_string(LEDGER)
            .map_err(|e| format!("cannot read it: {e}"))
            .and_then(|text| compare(rows, &text))
    } else {
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(LEDGER, render(rows)))
            .map(|()| println!("[written {LEDGER}]"))
            .map_err(|e| format!("cannot write it: {e}"))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perf ledger {LEDGER}: FAILED — {why}");
            eprintln!("  (to record it afresh: cargo run --release -p dmem-bench --bin perf)");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scenario: &str, wall_ms: f64) -> Row {
        Row {
            scenario: scenario.to_owned(),
            wall_ms,
            metric: ("ops_per_s", 1234.5),
            extra: Vec::new(),
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut rows = [row("a", 12.34), row("b", 0.04)];
        rows[1].extra = vec![("cores".to_owned(), 2.0), ("w0.plan_ms".to_owned(), 0.256)];
        assert!(render(&rows)
            .contains("\"ops_per_s\": 1234.50, \"cores\": 2.00, \"w0.plan_ms\": 0.26}"));
        let parsed = parse(&render(&rows)).unwrap();
        assert_eq!(parsed, [("a".to_owned(), 12.3), ("b".to_owned(), 0.0)]);
    }

    #[test]
    fn tolerance_boundary() {
        let ledger = render(&[row("a", 100.0)]);
        assert!(compare(&[row("a", 290.0)], &ledger).is_ok());
        let err = compare(&[row("a", 310.0)], &ledger).unwrap_err();
        assert!(err.contains("a: 310.0 ms"), "{err}");
    }

    #[test]
    fn missing_row_fails_and_is_named() {
        let ledger = render(&[row("a", 100.0)]);
        let err = compare(&[row("a", 100.0), row("renamed", 1.0)], &ledger).unwrap_err();
        assert_eq!(err, "renamed: no ledger row");
        assert!(compare(&[row("a", 1.0)], "[]").is_err());
    }

    #[test]
    fn unmeasured_row_fails_and_is_named() {
        let ledger = render(&[row("a", 100.0), row("deleted", 1.0)]);
        let err = compare(&[row("a", 100.0)], &ledger).unwrap_err();
        assert_eq!(err, "deleted: no scenario measures this ledger row");
    }

    #[test]
    fn unparsable_ledger_is_an_error_not_a_panic() {
        assert!(compare(&[row("a", 1.0)], "not json").is_err());
        assert!(compare(&[row("a", 1.0)], "{\"scenario\": \"a\"}").is_err());
        assert!(compare(&[row("a", 1.0)], "[{\"scenario\": \"a\"}]").is_err());
    }

    #[test]
    fn pretty_printed_key_reordered_ledger_parses() {
        let ledger = "[\n  {\n    \"wall_ms\": 50,\n    \"extra\": [1, 2],\n    \"scenario\":\n      \"a\"\n  }\n]";
        assert_eq!(parse(ledger).unwrap(), [("a".to_owned(), 50.0)]);
        assert!(compare(&[row("a", 149.0)], ledger).is_ok());
        assert!(compare(&[row("a", 151.0)], ledger).is_err());
    }

    #[test]
    fn zero_baseline_neither_divides_nor_disarms() {
        let ledger = render(&[row("tiny", 0.0)]);
        assert!(compare(&[row("tiny", 0.04)], &ledger).is_ok());
        assert!(compare(&[row("tiny", 5.0)], &ledger).is_err());
    }

    #[test]
    fn timed_returns_the_result_and_a_finite_time() {
        let mut calls = 0;
        let (out, ms) = timed(|| {
            calls += 1;
            calls
        });
        assert_eq!((out, calls), (2, 2));
        assert!(ms.is_finite() && ms >= 0.0);
    }
}
