//! Runs every `dmem_bench::figures::FIGURES` entry — Table 3, Figs. 3-10
//! and the five ablations — writing `./results/<csv>.csv` (16 CSVs), then
//! checks its claims. Exits 1 after every CSV is written if a claim
//! fails, naming each on stderr; 2 on any argument.
//!
//! Run with: `cargo run --release -p dmem-bench --bin figures`

use dmem_bench::figures::FIGURES;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: figures (takes no arguments)");
        return ExitCode::from(2);
    }
    let mut failures = Vec::new();
    for figure in &FIGURES {
        let tables = (figure.run)();
        for (table, csv) in tables.iter().zip(figure.csvs) {
            table.emit(csv);
        }
        if let Err(why) = (figure.claims)(&tables) {
            failures.push(format!("{}: {why}", figure.name));
        }
    }
    for failure in &failures {
        eprintln!("claim failed — {failure}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}
