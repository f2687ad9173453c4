//! Shared plumbing for the benchmark binaries.
//!
//! Every table a binary produces is printed to stdout **and** written as
//! CSV under `results/` so EXPERIMENTS.md can reference machine-readable
//! output. The paper's own table, figures and ablations and its
//! [`extensions`] are one table, [`figures::FIGURES`], whose 23 CSVs the
//! `figures` binary writes and [`claims`] checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod extensions;
pub mod figures;
pub mod perf;

use std::fs;
use std::path::{Path, PathBuf};

/// A rendered experiment table: header plus rows of equal arity.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column header.
    pub fn new<S: AsRef<str>>(title: &str, header: &[S]) -> Self {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
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

    /// Index of the column headed `header`.
    pub fn column(&self, header: &str) -> Option<usize> {
        self.header.iter().position(|h| h == header)
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

    /// The CSV text [`Self::write_csv`] writes: one line per row, header
    /// first, a cell holding `,` or `"` quoted with its `"` doubled.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &String| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.clone()
            }
        };
        let mut out = String::new();
        for line in std::iter::once(&self.header).chain(&self.rows) {
            out.push_str(&line.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Parses [`Self::to_csv`]'s text back into a table titled `title`.
    ///
    /// # Errors
    ///
    /// An empty text, or a row whose arity differs from the header's.
    pub fn from_csv(title: &str, text: &str) -> Result<Self, String> {
        let mut lines = text.lines().map(parse_csv_line);
        let header = lines.next().ok_or_else(|| format!("{title}: no header line"))?;
        let rows: Vec<Vec<String>> = lines.collect();
        match rows.iter().find(|row| row.len() != header.len()) {
            Some(row) => Err(format!("{title}: row arity mismatch in {row:?}")),
            None => Ok(Table { title: title.to_owned(), header, rows }),
        }
    }

    /// Reads a CSV [`Self::write_csv`] wrote, titled with the file's stem
    /// (`results/fig3.csv` → `fig3`).
    ///
    /// # Errors
    ///
    /// An unreadable file, or text [`Self::from_csv`] rejects.
    pub fn read_csv(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let stem = path.file_stem().unwrap_or_default().to_string_lossy();
        Table::from_csv(&stem, &text)
    }

    /// Writes the table as `results/<name>.csv`, creating the directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the bench binaries want loud failures.
    pub fn write_csv(&self, name: &str) {
        write_file(&Path::new("results").join(format!("{name}.csv")), self.to_csv());
    }

    /// Prints and writes in one call.
    pub fn emit(&self, name: &str) {
        self.print();
        self.write_csv(name);
    }
}

/// Writes `body` to `path`, creating its directory, and says so on stdout.
///
/// # Panics
///
/// Panics on I/O errors — the bench binaries want loud failures.
fn write_file(path: &Path, body: impl AsRef<[u8]>) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).expect("create output dir");
    }
    fs::write(path, body).expect("write output file");
    println!("[written {}]", path.display());
}

/// Splits one line [`Table::to_csv`] wrote into its cells, unquoted.
fn parse_csv_line(line: &str) -> Vec<String> {
    let (mut cells, mut cell, mut quoted) = (Vec::new(), String::new(), false);
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            // Inside quotes `""` is one `"`; a lone `"` opens or closes.
            '"' if quoted && chars.next_if_eq(&'"').is_some() => cell.push('"'),
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(std::mem::take(&mut cell)),
            c => cell.push(c),
        }
    }
    cells.push(cell);
    cells
}

/// Telemetry destinations parsed from `--trace-out FILE` and
/// `--metrics-out FILE` (both also accept `--flag=FILE`), for the
/// binary that exports a traced run (`dmem_top`).
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
    /// else.
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

    /// Writes the Chrome-trace JSON (plus the `.jsonl` sibling) if
    /// `--trace-out` was given.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the bench binaries want loud failures.
    pub fn write_trace(&self, trace: &dmem_sim::Trace) {
        if let Some(path) = &self.trace_out {
            write_file(path, trace.to_chrome_json());
            write_file(&path.with_extension("jsonl"), trace.to_jsonl());
        }
    }

    /// Writes the metrics digest if `--metrics-out` was given.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — the bench binaries want loud failures.
    pub fn write_metrics(&self, body: &str) {
        if let Some(path) = &self.metrics_out {
            write_file(path, body);
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
        let none = TelemetryArgs::parse(std::iter::empty());
        assert!(none.trace_out.is_none() && none.metrics_out.is_none());
    }

    #[test]
    fn speedup_format() {
        assert_eq!(speedup(1000, 100), "10.0x");
        assert_eq!(speedup(1000, 0), "1000.0x");
    }
}
