//! The reproduction: runs every table, figure, checkpoint, ablation,
//! extension, and claim check, or the ones `--only` names, printing a
//! report.
//!
//! Usage: `repro [--scale quick|default|paper] [--only NAME[,NAME...]]
//! [--plot] [--out DIR] [--cache-dir DIR | --no-cache]`
//!
//! `--only` runs the named artifacts, in report order. `--plot` prints
//! each selected figure's ASCII chart after its table. With `--out DIR`,
//! each artifact is also written to `DIR/<name>.csv`. With
//! `--cache-dir DIR`, completed sweep points are memoized on disk, making
//! repeated reproductions incremental.
//!
//! Exits 2 on a usage error and 1 when a write fails or, once the report
//! is out, when the `claims` artifact ran and any claim failed.

use std::process::ExitCode;

use sda_experiments::repro;
use sda_experiments::run::cache_report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match repro::parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("repro: {message}");
            eprintln!(
                "usage: repro [--scale quick|default|paper] [--only NAME[,NAME...]] \
                 [--plot] [--out DIR] [--cache-dir DIR | --no-cache]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = repro::install_exec(&options) {
        eprintln!("repro: setting up the result cache: {e}");
        return ExitCode::from(2);
    }

    println!("# SDA reproduction report (scale: {})\n", options.scale);
    let mut artifacts = Vec::new();
    repro::build(
        options.scale,
        options.plot,
        |name| options.selects(name),
        |name| eprintln!("running {name}..."),
        |name, table, chart| {
            println!("{table}");
            if let Some(chart) = chart {
                println!("{chart}");
            }
            artifacts.push((name, table));
        },
    );
    if let Some(dir) = &options.out {
        if let Err(message) = repro::write_csvs(dir, &artifacts) {
            eprintln!("repro: {message}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {} CSV files to {}", artifacts.len(), dir.display());
    }
    if let Some(report) = cache_report() {
        eprintln!("{report}");
    }
    if let Some((holding, total)) = repro::claim_tally(&artifacts) {
        eprintln!("{holding} / {total} claims hold at this scale");
        if holding < total {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
