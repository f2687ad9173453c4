//! The paper's sentences as predicates over the figure tables.
//!
//! Each `pub fn` is one [`Figure`](crate::figures::Figure)'s `claims`: it
//! takes the tables that figure's `run` returned, in `csvs` order, and
//! returns `Err` naming the sentence and the first row that breaks it,
//! under the table's title (a committed CSV read back is titled with its
//! name, `fig3`). The `figures` binary calls it on the tables it has just
//! written, `crates/bench/tests/paper_claims.rs` on the committed CSVs.

use crate::Table;

/// The leading number of a cell, times in seconds: `209.543ms` → 0.2095…,
/// `9506.6 ms (1.0x vs 1.3x)` → 9.5066, `2.528s` → 2.528, `12.1x` → 12.1,
/// `81x / 103x` → 81, `1668` → 1668.
fn number(cell: &str) -> Result<f64, String> {
    let end = cell.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(cell.len());
    let value: f64 = cell[..end].parse().map_err(|_| format!("no leading number in {cell:?}"))?;
    Ok(if cell[end..].trim_start().starts_with("ms") { value / 1e3 } else { value })
}

/// `Err(why())` unless `ok`.
fn check(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok { Ok(()) } else { Err(why()) }
}

/// Prefixes a failure with the sentence it breaks.
fn claim(sentence: &str, result: Result<(), String>) -> Result<(), String> {
    result.map_err(|why| format!("\"{sentence}\" fails: {why}"))
}

/// `tables` as an array of the `N` a figure returns.
fn tables<const N: usize>(tables: &[Table]) -> Result<&[Table; N], String> {
    tables.try_into().map_err(|_| format!("{} tables, expected {N}", tables.len()))
}

impl Table {
    /// The cells of one column, row by row.
    fn cells(&self, header: &str) -> Result<Vec<&str>, String> {
        let at = self.column(header).ok_or_else(|| format!("{}: no column {header:?}", self.title))?;
        Ok(self.rows.iter().map(|row| row[at].as_str()).collect())
    }

    /// The numbers of one column, row by row.
    fn col(&self, header: &str) -> Result<Vec<f64>, String> {
        let number = |cell| number(cell).map_err(|e| format!("{}: {header}: {e}", self.title));
        self.cells(header)?.into_iter().map(number).collect()
    }

    fn label(&self, i: usize) -> String {
        format!("{} row {:?}", self.title, self.rows[i][0])
    }

    /// The number in column `header` of the row whose first cell is `row`.
    fn at(&self, row: &str, header: &str) -> Result<f64, String> {
        let i = self.rows.iter().position(|r| r[0] == row);
        let i = i.ok_or_else(|| format!("{}: no row {row:?}", self.title))?;
        Ok(self.col(header)?[i])
    }

    /// The number in column `header` of row `row` is at least `bound`.
    fn least(&self, row: &str, header: &str, bound: f64) -> Result<(), String> {
        let x = self.at(row, header)?;
        check(x >= bound, || format!("{} row {row:?}: {header} {x} < {bound}", self.title))
    }

    /// `max ≤ (1 + tolerance) × min` over `xs`, named `what`.
    fn flat(&self, what: &str, xs: &[f64], tolerance: f64) -> Result<(), String> {
        let (lo, hi) = xs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        check(hi <= (1.0 + tolerance) * lo, || format!("{}: {what} {xs:?}", self.title))
    }

    /// `ok(x)` for every number `x` of column `header`.
    fn every(&self, header: &str, ok: impl Fn(f64) -> bool) -> Result<(), String> {
        let xs = self.col(header)?;
        let bad = (0..xs.len()).find(|&i| !ok(xs[i]));
        bad.map_or(Ok(()), |i| Err(format!("{}: {header} {}", self.label(i), xs[i])))
    }

    /// `ok(x, y)` on every row, `x` from column `a` and `y` from `b`.
    fn pairs(&self, a: &str, b: &str, ok: impl Fn(f64, f64) -> bool) -> Result<(), String> {
        let (xs, ys) = (self.col(a)?, self.col(b)?);
        let bad = (0..xs.len()).find(|&i| !ok(xs[i], ys[i]));
        bad.map_or(Ok(()), |i| Err(format!("{}: {a} {} vs {b} {}", self.label(i), xs[i], ys[i])))
    }

    /// `columns[0] < columns[1] < …` on every row.
    fn ordered(&self, columns: &[&str]) -> Result<(), String> {
        columns.windows(2).try_for_each(|w| self.pairs(w[0], w[1], |x, y| x < y))
    }

    /// Column `header` strictly falls row by row.
    fn falls(&self, header: &str) -> Result<(), String> {
        let xs = self.col(header)?;
        let why = || format!("{}: {header} does not fall: {xs:?}", self.title);
        check(xs.windows(2).all(|w| w[0] > w[1]), why)
    }
}

/// Fig. 3: 4-granularity wins; zswap ties 2-granularity (deviation 5).
pub(crate) fn fig3(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    claim("4-granularity beats 2-granularity", g.ordered(&["FastSwap 2-gran", "FastSwap 4-gran"]))?;
    let tie = g.pairs("FastSwap 2-gran", "zswap (zbud)", |two, zswap| two >= zswap - 0.02);
    claim("zswap at best ties 2-granularity (deviation 5)", tie)
}

/// Fig. 4: compressibility pays on both overflow paths, remote beats disk.
pub(crate) fn fig4(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let (remote, disk) = ("(a) overflow to remote", "(b) overflow to disk");
    claim("time falls with compressibility", g.falls(remote).and(g.falls(disk)))?;
    claim("remote beats disk throughout", g.ordered(&[remote, disk]))
}

/// Fig. 5: compression improves every workload.
pub(crate) fn fig5(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    claim("compression improves every workload", g.every("improvement", |x| x > 1.0))
}

/// Fig. 6: the swap-in ordering at every working-set size.
pub(crate) fn fig6(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let order = g.ordered(&["FastSwap (PBS)", "FastSwap w/o PBS", "Infiniswap", "Linux"]);
    claim("PBS fastest at every size, then w/o PBS, Infiniswap, Linux", order)?;
    let behind = g.pairs("Infiniswap", "Linux", |infiniswap, linux| linux >= 10.0 * infiniswap);
    claim("Linux is an order of magnitude behind", behind)
}

/// Fig. 7: the ordering at both pressures, the growing means and the
/// @75 % bands of deviations 2 and 3.
pub(crate) fn fig7(t: &[Table]) -> Result<(), String> {
    let [at75, at50] = tables(t)?;
    let [(linux75, inf75), (linux50, inf50)] = [fig7_means(at75)?, fig7_means(at50)?];
    claim("the speedups grow with memory pressure", check(linux50 > linux75 && inf50 > inf75, || {
        format!("fig7: vs Linux {linux75} @75% → {linux50} @50%, vs Infiniswap {inf75} → {inf50}")
    }))?;
    let inf = check((1.5..=2.6).contains(&inf75), || format!("fig7 @75%: {inf75}"));
    claim("mean vs Infiniswap @75% is 1.5-2.6x (deviation 3)", inf)?;
    let linux = check(linux75 >= 24.0, || format!("fig7 @75%: {linux75}"));
    claim("mean vs Linux @75% is at least 24x (deviation 2)", linux)
}

/// One fig7 table's ordering, then its `AVG / MAX` row's mean speedups
/// (vs Linux, vs Infiniswap).
fn fig7_means(g: &Table) -> Result<(f64, f64), String> {
    let mut body = g.clone();
    body.rows.pop().ok_or_else(|| format!("{}: no AVG / MAX row", g.title))?;
    let order = body.ordered(&["FastSwap", "Infiniswap", "Linux"]);
    claim("FastSwap < Infiniswap < Linux on every workload", order)?;
    let mean = |header| g.cells(header).and_then(|column| number(column[column.len() - 1]));
    Ok((mean("vs Linux")?, mean("vs Infiniswap")?))
}

/// Fig. 8: throughput by distribution ratio and baseline.
pub(crate) fn fig8(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let order = g.ordered(&[
        "Linux (ops/s)", "Infiniswap (ops/s)", "NBDX (ops/s)", "FS-RDMA (ops/s)",
        "FS-5:5 (ops/s)", "FS-7:3 (ops/s)", "FS-9:1 (ops/s)", "FS-SM (ops/s)",
    ]);
    claim("throughput falls from FS-SM to FS-RDMA, still above NBDX, Infiniswap, Linux", order)?;
    claim("FS-SM beats Linux by triple-digit factors", g.every("FS-SM/Linux", |x| x >= 100.0))
}

/// Fig. 9: FastSwap recovers ahead of Infiniswap (running totals).
pub(crate) fn fig9(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let infiniswap = g.col("Infiniswap")?;
    for column in ["FastSwap+PBS", "FastSwap w/o PBS"] {
        let (mut ours, mut theirs) = (0.0, 0.0);
        for (i, x) in g.col(column)?.into_iter().enumerate() {
            (ours, theirs) = (ours + x, theirs + infiniswap[i]);
            let why = || format!("{}: {column} total {ours} vs {theirs}", g.label(i));
            claim("FastSwap recovers ahead of Infiniswap", check(ours > theirs, why))?;
        }
        let end = check(ours >= 2.0 * theirs, || format!("fig9: {column} ends at {ours} vs {theirs}"));
        claim("FastSwap ends at least 2x ahead of Infiniswap", end)?;
    }
    Ok(())
}

/// Fig. 10: DAHI ties in memory, wins and pulls ahead once it spills.
pub(crate) fn fig10(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let (jobs, sizes) = (g.cells("workload")?, g.cells("dataset")?);
    let (vanilla_cells, dahi_cells) = (g.cells("vanilla")?, g.cells("DAHI")?);
    let (vanilla, dahi, speedup) = (g.col("vanilla")?, g.col("DAHI")?, g.col("speedup")?);
    for i in 0..jobs.len() {
        let row = || format!("{} {}", g.label(i), sizes[i]);
        if sizes[i] == "small" {
            let tie = check(vanilla_cells[i] == dahi_cells[i], || {
                format!("{}: {} vs {}", row(), vanilla_cells[i], dahi_cells[i])
            });
            claim("DAHI ties vanilla Spark in memory", tie)?;
            continue;
        }
        let wins = check(dahi[i] < vanilla[i], || format!("{}: {} !< {}", row(), dahi[i], vanilla[i]));
        claim("DAHI beats vanilla Spark once the dataset spills", wins)?;
        let grows = i > 0 && jobs[i - 1] == jobs[i] && speedup[i] >= speedup[i - 1];
        let why = || format!("{}: speedup shrank", row());
        claim("the speedup grows with the dataset", check(grows, why))?;
    }
    Ok(())
}

/// Batching ablation: larger windows and messages amortize verb latency.
pub(crate) fn ablation_batching(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let windows = ["d=32", "d=16", "d=8", "d=4", "d=2", "d=1"];
    claim("time falls as the window d grows", g.ordered(&windows))?;
    windows.iter().try_for_each(|d| claim("time falls as the message m grows", g.falls(d)))
}

/// Cost-model ablation: the ordering holds at every compute intensity.
pub(crate) fn ablation_costmodel(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let order = g.ordered(&["FastSwap", "Infiniswap", "Linux"]);
    claim("FastSwap < Infiniswap < Linux at every compute intensity", order)
}

/// QoS isolation: the governed KV p99 stays flat as antagonists pile on,
/// the uncontrolled one does not, and the burn alert sees the difference.
pub(crate) fn ext_qos(t: &[Table]) -> Result<(), String> {
    let [g, alerts] = tables(t)?;
    let (one, worst) = (g.at("1", "QoS p99")?, g.at("16", "QoS p99")?);
    let flat = check(worst <= 2.0 * one, || format!("{}: QoS p99 {one} at 1, {worst} at 16", g.title));
    claim("governed KV p99 at 16 antagonists is at most 2x its value at 1", flat)?;
    let uncontrolled = g.at("16", "no-QoS p99")?;
    let worse = check(uncontrolled > 2.0 * worst, || {
        format!("{}: p99 at 16 no-QoS {uncontrolled} vs QoS {worst}", g.title)
    });
    claim("uncontrolled KV p99 at 16 antagonists is over 2x the governed", worse)?;
    let firing = |mode| alerts.at(mode, "FIRING edges");
    let (observed, governed) = (firing("observe-only")?, firing("qos")?);
    let quieter = check(observed >= 1.0 && governed < observed, || {
        format!("{}: FIRING edges {observed} observe-only, {governed} governed", alerts.title)
    });
    claim("the burn alert fires observe-only and is quieter governed", quieter)
}

/// KV cache: the overflow tier pays most where the hot set is smallest.
pub(crate) fn ext_kv_cache(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let speedup = g.least("64.0 KiB", "speedup", 5.0);
    claim("the overflow tier beats drop-cold at least 5x at the smallest hot set", speedup)
}

/// LLM serving: tiered TTFT beats disk offload at the heaviest load.
pub(crate) fn ext_llm_serving(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let gap = g.least("200", "p99 vs disk", 5.0);
    claim("tiered p99 TTFT is at least 5x disk-offload's at the largest session count", gap)
}

/// Object allocator: Clio's granularity gap on small objects.
pub(crate) fn ext_obj_alloc(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let ratio = g.least("uniform-small", "bytes ratio", 10.0);
    claim("the page path moves at least 10x the object path's fabric bytes on uniform-small", ratio)
}

/// Crossover: no transport dominates.
pub(crate) fn ext_crossover(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let winners = g.cells("winner")?;
    let loser = ["cxl", "rdma", "nvm"].into_iter().find(|backend| !winners.contains(backend));
    let why = |backend| format!("{}: {backend} wins no cell", g.title);
    claim("cxl, rdma and nvm each win at least one cell", loser.map_or(Ok(()), |b| Err(why(b))))
}

/// Rack sweep: per-host work is fixed, so the engine's costs scale with it.
pub(crate) fn fig4_rack(t: &[Table]) -> Result<(), String> {
    let [g] = tables(t)?;
    let (hosts, cross) = (g.col("hosts")?, g.col("cross_msgs")?);
    let per_host: Vec<f64> = cross.iter().zip(&hosts).map(|(c, h)| c / h).collect();
    let linear = g.flat("cross_msgs per host", &per_host, 0.01);
    claim("cross-shard messages per host stay within 1% across host counts", linear)?;
    claim("epochs stay within 2% across host counts", g.flat("epochs", &g.col("epochs")?, 0.02))
}

/// For a figure whose expectations are in its doc comment, not claims.
pub(crate) fn none(_: &[Table]) -> Result<(), String> {
    Ok(())
}
