//! # sda-cli — execution and report rendering for the `sda` command-line
//! tool
//!
//! The binary (`sda`) drives the simulator from the plain-text
//! configuration format that [`sda_sim::SimConfig::from_text`] reads, so
//! experiments can be run without writing Rust:
//!
//! ```text
//! # trading.conf — §8's experiment
//! nodes      = 6
//! load       = 0.5
//! frac_local = 0.75
//! shape      = spec:[init [g1 || g2 || g3 || g4] analyse [a1 || a2 || a3 || a4] done]
//! strategy   = EQF-DIV1
//! global_slack = 6.25..25
//! duration   = 200000
//! ```
//!
//! ```bash
//! sda run trading.conf --seed 7
//! sda run trading.conf load=0.7 strategy=UD-UD   # inline overrides
//! sda compare trading.conf UD-UD UD-DIV1 EQF-UD EQF-DIV1
//! sda decompose "[a [b || c] d]" 12.0 EQF-DIV1
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod report;

pub use exec::CliError;
pub use report::render_report;
