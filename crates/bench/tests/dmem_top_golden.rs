//! Golden-file tests for the `dmem_top` report sections.
//!
//! Every section runs entirely on the virtual clock, so its output is
//! byte-identical across machines, build profiles, worker counts and
//! reruns. Each case pins one invocation against a committed fixture;
//! an intentional change to a report must regenerate it:
//!
//! ```sh
//! cargo run --release -q -p dmem-bench --bin dmem_top -- <args> \
//!     > results/<fixture>
//! ```

use std::path::Path;
use std::process::Command;

/// `(args, fixture under results/, markers)`. The markers are structural
/// spot-checks so a fixture cannot silently pin a degenerate report:
/// every section present, alerts firing, both allocator rows, every pool
/// node listed, atomics non-trivial.
const CASES: [(&[&str], &str, &[&str]); 6] = [
    (
        &[],
        "dmem_top.txt",
        &[
            "run: LogisticRegression @50%, shared pool full, overflow to remote, 3.0x pages",
            "(untraced)",
            "spans by layer:",
            "core.get.ns = count=",
        ],
    ),
    (
        &["--qos"],
        "dmem_top_qos.txt",
        &["tenants (qos):", "qos decisions:"],
    ),
    (
        &["--kv"],
        "dmem_top_kv.txt",
        &["kv tiers (occupancy):", "kv demotions:"],
    ),
    (
        &["--alloc"],
        "dmem_top_alloc.txt",
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
        &["--cxl"],
        "dmem_top_cxl.txt",
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
    (
        &["--all"],
        "dmem_top_all.txt",
        &[
            "dmem-top — ",
            "tenants (qos):",
            "kv tiers (occupancy):",
            "rack timeline",
            "chaos alert log",
            "FIRING retry-backoff-burn",
            "FIRING retry-storm",
            "object allocator",
            "alloc.amplification_bytes",
            "CXL memory pool",
        ],
    ),
];

/// Runs one case; `Err` says what differs.
fn check(args: &[&str], fixture: &str, markers: &[&str]) -> Result<(), String> {
    let fixture_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(fixture);
    let expected = std::fs::read_to_string(&fixture_path)
        .map_err(|e| format!("read {}: {e}", fixture_path.display()))?;

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
    let actual = String::from_utf8(output.stdout).map_err(|e| format!("not UTF-8: {e}"))?;

    if actual != expected {
        // The first diverging line beats a one-line mismatch of two
        // 40-line reports.
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                return Err(format!(
                    "diverges from results/{fixture} at line {}:\n  report:  {a}\n  fixture: {e}",
                    i + 1
                ));
            }
        }
        return Err(format!(
            "report and results/{fixture} differ in length: {} vs {} bytes \
             (regenerate the fixture if the change is intended)",
            actual.len(),
            expected.len()
        ));
    }
    if let Some(marker) = markers.iter().find(|m| !actual.contains(**m)) {
        return Err(format!("report lacks {marker:?}"));
    }
    if actual.contains(" 0 served from the disk shadow") {
        return Err("CXL outage replay produced no shadow reads".to_owned());
    }
    Ok(())
}

#[test]
fn reports_match_committed_fixtures() {
    let failures: Vec<String> = CASES
        .iter()
        .filter_map(|(args, fixture, markers)| {
            let why = check(args, fixture, markers).err()?;
            Some(format!("dmem_top {}: {why}", args.join(" ")))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
