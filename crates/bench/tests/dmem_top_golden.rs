//! Golden-file tests for the `dmem_top` report sections.
//!
//! Every section runs entirely on the virtual clock, so its output is
//! byte-identical across machines, build profiles, worker counts and
//! reruns. Two fixtures pin every flag: `results/dmem_top.txt` the plain
//! report, and `results/dmem_top_all.txt` the `--all` report — which is
//! the six section flags' outputs joined by a blank line, so each flag
//! also runs on its own and the joined outputs must equal that file. An
//! intentional change to a report must regenerate the fixture:
//!
//! ```sh
//! cargo run --release -q -p dmem-bench --bin dmem_top -- [--all] \
//!     > results/<fixture>
//! ```

use std::path::Path;
use std::process::Command;

/// Markers of the plain report. The markers are structural spot-checks
/// so a fixture cannot silently pin a degenerate report.
const PLAIN_MARKERS: &[&str] = &[
    "run: LogisticRegression @50%, shared pool full, overflow to remote, 3.0x pages",
    "(untraced)",
    "spans by layer:",
    "core.get.ns = count=",
];

/// The section flags in `--all` order, with their markers: every section
/// present, alerts firing, both allocator rows, every pool node listed,
/// atomics non-trivial.
const SECTIONS: [(&str, &[&str]); 6] = [
    ("--qos", &["tenants (qos):", "qos decisions:"]),
    ("--kv", &["kv tiers (occupancy):", "kv demotions:"]),
    ("--timeline", &["dmem-top — rack timeline"]),
    (
        "--alerts",
        &[
            "chaos alert log",
            "FIRING retry-backoff-burn",
            "FIRING retry-storm",
        ],
    ),
    (
        "--alloc",
        &[
            "dmem-top — object allocator",
            "heap accounting:",
            "  object ",
            "  page ",
            "alloc.amplification_bytes",
            "alloc.fragmentation_bp",
        ],
    ),
    (
        "--cxl",
        &[
            "dmem-top — CXL memory pool",
            "cxl pool (occupancy):",
            "  pool-0",
            "  pool-3",
            "remote atomics:",
            "cas handoff on slot 0: installed",
            "cxl.failover.reads",
            "cxl.atomic.ops",
        ],
    ),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `dmem_top args`; `Err` says why it failed.
fn run(args: &[&str]) -> Result<String, String> {
    let output = Command::new(env!("CARGO_BIN_EXE_dmem_top"))
        .args(args)
        .output()
        .map_err(|e| format!("cannot run dmem_top: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "exited with {:?}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8(output.stdout).map_err(|e| format!("not UTF-8: {e}"))
}

/// `Err` names the first line where `actual` leaves `expected` (the
/// first diverging line beats a one-line mismatch of two 40-line
/// reports), or the length difference when one is a prefix of the other.
fn compare(actual: &str, expected: &str, fixture: &str) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if a != e {
            return Err(format!(
                "diverges from {fixture} at line {}:\n  report:  {a}\n  fixture: {e}",
                i + 1
            ));
        }
    }
    Err(format!(
        "report and {fixture} differ in length: {} vs {} bytes \
         (regenerate the fixture if the change is intended)",
        actual.len(),
        expected.len()
    ))
}

fn check_markers(actual: &str, markers: &[&str]) -> Result<(), String> {
    match markers.iter().find(|m| !actual.contains(**m)) {
        Some(marker) => Err(format!("report lacks {marker:?}")),
        None => Ok(()),
    }
}

fn check_plain() -> Result<(), String> {
    let actual = run(&[])?;
    compare(&actual, &fixture("dmem_top.txt"), "results/dmem_top.txt")?;
    check_markers(&actual, PLAIN_MARKERS)
}

#[test]
fn reports_match_committed_fixtures() {
    let mut failures: Vec<String> = Vec::new();
    if let Err(why) = check_plain() {
        failures.push(format!("dmem_top: {why}"));
    }

    let mut sections = Vec::new();
    for (flag, markers) in SECTIONS {
        let checked = run(&[flag]).and_then(|out| {
            check_markers(&out, markers)?;
            Ok(out)
        });
        match checked {
            Ok(out) => sections.push(out),
            Err(why) => failures.push(format!("dmem_top {flag}: {why}")),
        }
    }
    if sections
        .iter()
        .any(|s| s.contains(" 0 served from the disk shadow"))
    {
        failures.push("dmem_top --cxl: outage replay produced no shadow reads".to_owned());
    }
    let all = fixture("dmem_top_all.txt");
    if failures.is_empty() {
        if let Err(why) = compare(&sections.join("\n"), &all, "results/dmem_top_all.txt") {
            failures.push(format!(
                "dmem_top {} (joined): {why}",
                SECTIONS.map(|s| s.0).join(" ")
            ));
        }
    }
    match run(&["--all"]) {
        Ok(out) => {
            if let Err(why) = compare(&out, &all, "results/dmem_top_all.txt") {
                failures.push(format!("dmem_top --all: {why}"));
            }
        }
        Err(why) => failures.push(format!("dmem_top --all: {why}")),
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
