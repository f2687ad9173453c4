//! Shared plumbing for the figure-reproduction binaries.
//!
//! Every `fig*` binary prints a human-readable table to stdout **and**
//! writes the same rows as CSV under `results/` so EXPERIMENTS.md can
//! reference machine-readable output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A rendered experiment table: header plus rows of equal arity.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column header.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                out.push_str(&format!("{cell:>width$}  ", width = w));
            }
            println!("{}", out.trim_end());
        };
        line(&self.header);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes the table as `results/<name>.csv`, creating the directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the bench binaries want loud failures.
    pub fn write_csv(&self, name: &str) {
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        let mut file = fs::File::create(&path).expect("create csv");
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        writeln!(
            file,
            "{}",
            self.header.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        )
        .expect("write header");
        for row in &self.rows {
            writeln!(
                file,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            )
            .expect("write row");
        }
        println!("[written {}]", path.display());
    }

    /// Prints and writes in one call.
    pub fn emit(&self, name: &str) {
        self.print();
        self.write_csv(name);
    }
}

/// Telemetry destinations parsed from `--trace-out FILE` and
/// `--metrics-out FILE` (both also accept `--flag=FILE`).
///
/// When either flag is present the figure binary runs one extra traced
/// pass after its normal table: the regular CSV stays byte-identical
/// (tracing never advances the virtual clock, and the untraced runs never
/// even format a span), and the traced pass exports its spans/metrics to
/// the requested files.
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// Chrome-trace JSON destination; a compact `.jsonl` span log is
    /// written next to it.
    pub trace_out: Option<PathBuf>,
    /// Destination for the metrics digest (histograms + attribution).
    pub metrics_out: Option<PathBuf>,
}

impl TelemetryArgs {
    /// Parses the two flags out of an argument list, ignoring everything
    /// else (figure binaries have no other flags today).
    pub fn parse<I>(args: I) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = TelemetryArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut take = |slot: &mut Option<PathBuf>, flag: &str| {
                if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                    *slot = Some(PathBuf::from(v));
                } else if arg == flag {
                    *slot = args.next().map(PathBuf::from);
                }
            };
            take(&mut out.trace_out, "--trace-out");
            take(&mut out.metrics_out, "--metrics-out");
        }
        out
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        TelemetryArgs::parse(std::env::args().skip(1))
    }

    /// `true` when any telemetry output was requested.
    pub fn requested(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Writes the Chrome-trace JSON (plus the `.jsonl` sibling) if
    /// `--trace-out` was given.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the bench binaries want loud failures.
    pub fn write_trace(&self, trace: &dmem_sim::Trace) {
        if let Some(path) = &self.trace_out {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir).expect("create trace dir");
            }
            fs::write(path, trace.to_chrome_json()).expect("write chrome trace");
            println!("[written {}]", path.display());
            let jsonl = path.with_extension("jsonl");
            fs::write(&jsonl, trace.to_jsonl()).expect("write span log");
            println!("[written {}]", jsonl.display());
        }
    }

    /// Writes the metrics digest if `--metrics-out` was given.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the bench binaries want loud failures.
    pub fn write_metrics(&self, body: &str) {
        if let Some(path) = &self.metrics_out {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir).expect("create metrics dir");
            }
            fs::write(path, body).expect("write metrics digest");
            println!("[written {}]", path.display());
        }
    }
}

/// Formats a speedup like the paper quotes them.
pub fn speedup(baseline_ns: u64, system_ns: u64) -> String {
    format!("{:.1}x", baseline_ns as f64 / system_ns.max(1) as f64)
}

/// Worker count for [`par_map`]: the `DMEM_BENCH_JOBS` environment
/// variable when set (0 or unparsable falls back), otherwise the
/// machine's available parallelism.
pub fn bench_jobs() -> usize {
    std::env::var("DMEM_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(scoped_pool::available_parallelism)
}

/// Fans independent deterministic sims across cores and returns results
/// in input order, so tables built from them are byte-identical to a
/// sequential run. Each sim owns its virtual clock and rng, so
/// interleaving cannot perturb results — only wall-clock time changes.
pub fn par_map<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    scoped_pool::par_map(bench_jobs(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(["1", "2"]).row(["3", "4"]);
        t.print();
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        Table::new("demo", &["a", "b"]).row(["only one"]);
    }

    #[test]
    fn telemetry_args_parse_both_forms() {
        let args = ["--trace-out", "a.json", "--metrics-out=b.txt", "ignored"]
            .iter()
            .map(|s| (*s).to_owned());
        let t = TelemetryArgs::parse(args);
        assert_eq!(t.trace_out.as_deref(), Some(std::path::Path::new("a.json")));
        assert_eq!(t.metrics_out.as_deref(), Some(std::path::Path::new("b.txt")));
        assert!(t.requested());
        assert!(!TelemetryArgs::parse(std::iter::empty()).requested());
    }

    #[test]
    fn speedup_format() {
        assert_eq!(speedup(1000, 100), "10.0x");
        assert_eq!(speedup(1000, 0), "1000.0x");
    }
}
