//! The paper's sentences, checked on the committed figure CSVs.
//!
//! `dmem_bench::figures::FIGURES` pairs every figure with its claims, and
//! the `figures` binary checks them on the tables it has just written;
//! this file checks the same claims on `results/*.csv` as committed, so a
//! golden cannot be committed with a sentence it breaks: one test per
//! paper figure, and one over every entry. It also shows
//! that the CSV reader is the exact inverse of the writer and that every
//! claim can fail: flipping one cell it reads turns it into an `Err`
//! naming the figure.

use dmem_bench::figures::{Figure, FIGURES};
use dmem_bench::Table;
use std::path::{Path, PathBuf};

fn committed(csv: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{csv}.csv"))
}

/// `figure`'s committed tables, in `csvs` order.
fn load(figure: &Figure) -> Vec<Table> {
    figure
        .csvs
        .iter()
        .map(|csv| Table::read_csv(&committed(csv)).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// `name`'s claims hold on its committed tables.
fn holds(name: &str) {
    let figure = FIGURES.iter().find(|f| f.name == name).unwrap();
    if let Err(why) = (figure.claims)(&load(figure)) {
        panic!("{name}: {why}");
    }
}

#[test]
fn fig3_four_granularity_wins_and_zswap_at_best_ties() {
    holds("fig3");
}

#[test]
fn fig4_time_falls_with_compressibility_and_remote_beats_disk() {
    holds("fig4");
}

#[test]
fn fig5_compression_always_improves() {
    holds("fig5");
}

#[test]
fn fig6_swap_in_latency_ordering_at_every_size() {
    holds("fig6");
}

#[test]
fn fig7_fastswap_wins_and_the_gap_grows_with_pressure() {
    holds("fig7");
}

#[test]
fn fig8_throughput_monotone_in_shared_fraction() {
    holds("fig8");
}

#[test]
fn fig9_fastswap_recovers_ahead_of_infiniswap() {
    holds("fig9");
}

#[test]
fn fig10_dahi_ties_small_and_pulls_ahead_as_data_grows() {
    holds("fig10");
}

/// Every entry, so one added to `FIGURES` is checked without a new test.
#[test]
fn committed_csvs_carry_every_claim() {
    let failures: Vec<String> = FIGURES
        .iter()
        .filter_map(|figure| {
            let why = (figure.claims)(&load(figure)).err()?;
            Some(format!("{}: {why}", figure.name))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn committed_csvs_round_trip_byte_for_byte() {
    for csv in FIGURES.iter().flat_map(|figure| figure.csvs) {
        let path = committed(csv);
        let text = std::fs::read_to_string(&path).unwrap();
        let table = Table::read_csv(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(table.to_csv(), text, "{csv}.csv does not round-trip");
    }
}

/// `(figure, csv, committed text, replacement)`: one cell per claim,
/// changed so that claim alone no longer holds.
#[rustfmt::skip]
const FLIPS: &[(&str, &str, &str, &str)] = &[
    ("fig3", "fig3", "LDA,4.2x ± 1.2,2.00,3.07", "LDA,4.2x ± 1.2,2.00,1.07"),
    ("fig3", "fig3", "1.28,1.37,1.27", "1.28,1.37,1.31"),
    ("fig4", "fig4", "3.0x,226.8 ms", "3.0x,4500.0 ms"),
    ("fig4", "fig4", "(51.9x vs 1.3x),15400.5 ms", "(51.9x vs 1.3x),150.0 ms"),
    ("fig5", "fig5", "251.001ms,23.1x", "251.001ms,0.9x"),
    ("fig6", "fig6", "512 pages (2 MiB),14.0 ms", "512 pages (2 MiB),24.0 ms"),
    ("fig6", "fig6", "354.8 ms,8437.9 ms", "354.8 ms,3437.9 ms"),
    ("fig7", "fig7_75", "TunkRank,6.488s,203.792ms", "TunkRank,6.488s,103.792ms"),
    ("fig7", "fig7_50", "AVG / MAX,,,,111x", "AVG / MAX,,,,71x"),
    ("fig7", "fig7_75", "1.9x / 2.1x", "1.4x / 2.1x"),
    ("fig7", "fig7_75", "81x / 103x", "23x / 103x"),
    ("fig8", "fig8", "Redis,1668,155478", "Redis,1668,185478"),
    ("fig8", "fig8", "299x,3.6x", "99x,3.6x"),
    ("fig9", "fig9", "0,21,34,8", "0,21,34,40"),
    ("fig9", "fig9", "290,69,111,72", "290,69,111,472"),
    ("fig10", "fig10", "SVM,small,91.857ms,91.857ms", "SVM,small,91.857ms,91.856ms"),
    ("fig10", "fig10", "KMeans,medium,1.611s,470.838ms", "KMeans,medium,1.611s,1.700s"),
    ("fig10", "fig10", "4.224s,2.493s,1.7x", "4.224s,2.493s,1.5x"),
    ("ablation_batching", "ablation_batching", "5.364ms,3.521ms", "5.364ms,5.521ms"),
    ("ablation_batching", "ablation_batching", "64.0 KiB,1.908ms", "64.0 KiB,3.908ms"),
    ("ablation_costmodel", "ablation_costmodel", "1.226s,687.576ms", "1.226s,1.687s"),
];

#[test]
fn one_flipped_cell_breaks_each_claim() {
    // A figure with no flip has no claims: they accept even no tables.
    for figure in &FIGURES {
        if !FLIPS.iter().any(|flip| flip.0 == figure.name) {
            assert_eq!((figure.claims)(&[]), Ok(()), "{}: claims with no flip", figure.name);
        }
    }
    for &(name, csv, from, to) in FLIPS {
        let figure = FIGURES.iter().find(|f| f.name == name).unwrap();
        let mut tables = load(figure);
        let at = figure.csvs.iter().position(|c| *c == csv).unwrap();
        let text = std::fs::read_to_string(committed(csv)).unwrap();
        assert_eq!(
            text.matches(from).count(),
            1,
            "{csv}: {from:?} is not one cell"
        );
        tables[at] = Table::from_csv(csv, &text.replacen(from, to, 1)).unwrap();
        match (figure.claims)(&tables) {
            Ok(()) => panic!("{name}: claims still hold with {from:?} → {to:?}"),
            Err(why) => assert!(
                why.contains(name),
                "{name}: {why:?} does not name the figure"
            ),
        }
    }
}
