//! Runs every `dmem_bench::figures::FIGURES` entry — Table 3, Figs. 3-10,
//! the five ablations and the six extensions — writing
//! `./results/<csv>.csv` (23 CSVs), then checks its claims. Prints each
//! entry's wall seconds (run, CSVs and claims) to stderr as
//! `figures: <entry> <s> s`, one line per entry. Exits 1 after every CSV
//! is written if a claim fails, naming each on stderr; 2 on any argument.
//!
//! Run with: `cargo run --release -p dmem-bench --bin figures`

use dmem_bench::figures::FIGURES;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: figures (takes no arguments)");
        return ExitCode::from(2);
    }
    let mut failures = Vec::new();
    for figure in &FIGURES {
        let start = Instant::now();
        let tables = (figure.run)();
        for (table, csv) in tables.iter().zip(figure.csvs) {
            table.emit(csv);
        }
        if let Err(why) = (figure.claims)(&tables) {
            failures.push(format!("{}: {why}", figure.name));
        }
        eprintln!("figures: {} {:.2} s", figure.name, start.elapsed().as_secs_f64());
    }
    for failure in &failures {
        eprintln!("claim failed — {failure}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}
