//! # sda-cli — configuration parsing and report rendering for the `sda`
//! command-line tool
//!
//! The binary (`sda`) drives the simulator from a plain-text
//! configuration format, so experiments can be run without writing Rust:
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

pub mod config_file;
pub mod exec;
pub mod parse;
pub mod report;

pub use config_file::{apply_setting, load_config, ConfigFileError};
pub use exec::CliError;
pub use parse::{parse_abort, parse_estimation, parse_range, parse_shape, parse_strategy};
pub use report::render_report;
