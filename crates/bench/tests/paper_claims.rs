//! The paper's sentences as predicates over the committed figure CSVs.
//!
//! `ci.sh`'s `figures` step pins every bin's output to `results/*.csv`
//! byte for byte; this file pins what the paper *says* about those
//! numbers, so a refactor that regenerates a golden cannot quietly turn
//! "FastSwap beats Infiniswap" into a number that no longer does. Each
//! test reads the committed CSV, not a private re-run. EXPERIMENTS.md
//! § Honest deviations 2, 3 and 5 appear as bands.

use std::path::Path;

struct Golden {
    name: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Golden {
    fn load(name: &'static str) -> Self {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(format!("{name}.csv"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
        let header = lines.next().expect("header line");
        Golden {
            name,
            header,
            rows: lines.collect(),
        }
    }

    fn at(&self, header: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == header)
            .unwrap_or_else(|| panic!("{}: no column {header:?}", self.name))
    }

    /// The numbers of one column, row by row.
    fn col(&self, header: &str) -> Vec<f64> {
        let at = self.at(header);
        self.rows.iter().map(|row| number(&row[at])).collect()
    }

    /// Removes and returns the trailing summary row (fig7's `AVG / MAX`).
    fn pop_summary(&mut self) -> Vec<String> {
        self.rows.pop().expect("summary row")
    }

    /// First cell of row `i`, for messages.
    fn label(&self, i: usize) -> String {
        format!("{} row {:?}", self.name, self.rows[i][0])
    }
}

/// The leading number of a cell, times in seconds: `209.543ms` → 0.209…,
/// `9506.6 ms (1.0x vs 1.3x)` → 9.5066, `2.528s` → 2.528, `12.1x` → 12.1,
/// `81x / 103x` → 81, `1668` → 1668.
fn number(cell: &str) -> f64 {
    let digits = cell
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(cell.len());
    let value: f64 = cell[..digits]
        .parse()
        .unwrap_or_else(|_| panic!("no leading number in {cell:?}"));
    if cell[digits..].trim_start().starts_with("ms") {
        value / 1e3
    } else {
        value
    }
}

/// `columns[0][i] < columns[1][i] < …` on every row `i`.
fn assert_ordered(g: &Golden, columns: &[&str]) {
    let cols: Vec<Vec<f64>> = columns.iter().map(|c| g.col(c)).collect();
    for i in 0..g.rows.len() {
        for (pair, names) in cols.windows(2).zip(columns.windows(2)) {
            assert!(
                pair[0][i] < pair[1][i],
                "{}: {} {} !< {} {}",
                g.label(i),
                names[0],
                pair[0][i],
                names[1],
                pair[1][i]
            );
        }
    }
}

fn assert_falling(g: &Golden, column: &str) {
    let xs = g.col(column);
    assert!(
        xs.windows(2).all(|w| w[0] > w[1]),
        "{}: {column} does not fall row by row: {xs:?}",
        g.name
    );
}

/// Fig. 3: 4-granularity stores more per frame than 2-granularity on
/// every workload, and zswap never beats 2-granularity by more than
/// rounding (deviation 5: it ties rather than trails).
#[test]
fn fig3_four_granularity_wins_and_zswap_at_best_ties() {
    let g = Golden::load("fig3");
    assert_ordered(&g, &["FastSwap 2-gran", "FastSwap 4-gran"]);
    let (two, zswap) = (g.col("FastSwap 2-gran"), g.col("zswap (zbud)"));
    for i in 0..g.rows.len() {
        assert!(
            two[i] >= zswap[i] - 0.02,
            "{}: zswap {} vs {}",
            g.label(i),
            zswap[i],
            two[i]
        );
    }
}

/// Fig. 4: completion time falls with compressibility on both overflow
/// paths, and overflowing to remote memory always beats disk.
#[test]
fn fig4_time_falls_with_compressibility_and_remote_beats_disk() {
    let g = Golden::load("fig4");
    assert_falling(&g, "(a) overflow to remote");
    assert_falling(&g, "(b) overflow to disk");
    assert_ordered(&g, &["(a) overflow to remote", "(b) overflow to disk"]);
}

/// Fig. 5: compression improves every workload.
#[test]
fn fig5_compression_always_improves() {
    let g = Golden::load("fig5");
    for (i, x) in g.col("improvement").into_iter().enumerate() {
        assert!(x > 1.0, "{}: improvement {x}", g.label(i));
    }
}

/// Fig. 6: PBS < w/o PBS < Infiniswap < Linux at every working-set size.
#[test]
fn fig6_swap_in_latency_ordering_at_every_size() {
    let g = Golden::load("fig6");
    assert_ordered(
        &g,
        &["FastSwap (PBS)", "FastSwap w/o PBS", "Infiniswap", "Linux"],
    );
}

/// Fig. 7: FastSwap < Infiniswap < Linux on every workload at both
/// memory pressures, the mean speedups grow as local memory shrinks, and
/// the @75 % means sit where the paper puts them (deviation 3: ours is
/// 1.9× vs Infiniswap against the paper's 2.3×; deviation 2: the Linux
/// factor runs high, never below the paper's 24×).
#[test]
fn fig7_fastswap_wins_and_the_gap_grows_with_pressure() {
    let means = ["fig7_75", "fig7_50"].map(|name| {
        let mut g = Golden::load(name);
        let avg = g.pop_summary();
        assert_ordered(&g, &["FastSwap", "Infiniswap", "Linux"]);
        (
            number(&avg[g.at("vs Linux")]),
            number(&avg[g.at("vs Infiniswap")]),
        )
    });
    let [(linux75, inf75), (linux50, inf50)] = means;
    assert!(
        linux50 > linux75,
        "vs Linux: {linux75} @75% → {linux50} @50%"
    );
    assert!(inf50 > inf75, "vs Infiniswap: {inf75} @75% → {inf50} @50%");
    assert!(
        (1.5..=2.6).contains(&inf75),
        "mean vs Infiniswap @75%: {inf75}"
    );
    assert!(linux75 >= 24.0, "mean vs Linux @75%: {linux75}");
}

/// Fig. 8: throughput falls monotonically as the shared-memory share
/// shrinks (FS-SM → FS-RDMA), and even all-RDMA FastSwap beats NBDX,
/// which beats Infiniswap, which beats Linux.
#[test]
fn fig8_throughput_monotone_in_shared_fraction() {
    let g = Golden::load("fig8");
    assert_ordered(
        &g,
        &[
            "Linux (ops/s)",
            "Infiniswap (ops/s)",
            "NBDX (ops/s)",
            "FS-RDMA (ops/s)",
            "FS-5:5 (ops/s)",
            "FS-7:3 (ops/s)",
            "FS-9:1 (ops/s)",
            "FS-SM (ops/s)",
        ],
    );
}

/// Fig. 9: both FastSwap variants recover ahead of Infiniswap — their
/// running totals lead at every sampled bucket and end at least 2× up.
#[test]
fn fig9_fastswap_recovers_ahead_of_infiniswap() {
    let g = Golden::load("fig9");
    let infiniswap = g.col("Infiniswap");
    for column in ["FastSwap+PBS", "FastSwap w/o PBS"] {
        let (mut ours, mut theirs) = (0.0, 0.0);
        for (i, x) in g.col(column).into_iter().enumerate() {
            ours += x;
            theirs += infiniswap[i];
            assert!(
                ours > theirs,
                "{}: {column} total {ours} vs {theirs}",
                g.label(i)
            );
        }
        assert!(
            ours >= 2.0 * theirs,
            "fig9: {column} ends at {ours} vs {theirs}"
        );
    }
}

/// Fig. 10: with the dataset in memory DAHI ties vanilla Spark exactly;
/// once it spills DAHI wins, and the gap grows with the dataset.
#[test]
fn fig10_dahi_ties_small_and_pulls_ahead_as_data_grows() {
    let g = Golden::load("fig10");
    let (vanilla, dahi, speedup) = (g.col("vanilla"), g.col("DAHI"), g.col("speedup"));
    for (i, row) in g.rows.iter().enumerate() {
        if row[1] == "small" {
            assert_eq!(row[2], row[3], "{}: small must tie", g.label(i));
        } else {
            assert!(
                dahi[i] < vanilla[i],
                "{} {}: {} !< {}",
                g.label(i),
                row[1],
                dahi[i],
                vanilla[i]
            );
            assert_eq!(
                g.rows[i - 1][0],
                row[0],
                "sizes of one job are adjacent rows"
            );
            assert!(
                speedup[i] >= speedup[i - 1],
                "{} {}: speedup shrank",
                g.label(i),
                row[1]
            );
        }
    }
}
