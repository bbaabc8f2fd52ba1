//! # sda-experiments — the reproduction harness
//!
//! One function per table and figure of Kao & Garcia-Molina (ICDCS
//! 1994), plus the in-text numeric checkpoints and the ablations listed
//! in `DESIGN.md`. Each function builds its configurations, runs them at
//! a chosen [`Scale`] through [`run::run_configs`] or [`run::run_grid`]
//! (the one entry point, which applies the scale), and returns both the
//! raw series (for tests and benches) and a rendered [`Table`] matching
//! the rows/series the paper plots.
//!
//! | Paper artifact | Function | `repro --only` |
//! |---|---|---|
//! | Table 1 (baseline setting) | [`tables::table1`] | `table1` |
//! | Figure 5 (UD baseline) | [`figures::fig5`] | `fig5` |
//! | Figure 6 (UD vs DIV-1 vs DIV-2) | [`figures::fig6`] | `fig6` |
//! | Figure 7 (UD, DIV-1, GF) | [`figures::fig7`] | `fig7` |
//! | Figure 9 (MD vs x, n ∈ {2,4,6}) | [`figures::fig9`] | `fig9` |
//! | Figure 10 (frac_local sweeps) | [`figures::fig10`] | `fig10` |
//! | Figure 11 (PM abortion) | [`figures::fig11`] | `fig11` |
//! | Figure 12 (per-class MD, n uniform in 2..6) | [`figures::fig12`] | `fig12` |
//! | Table 2 (SSP × PSP combinations) | [`tables::table2`] | `table2` |
//! | Figure 15 (SDA combos on Figure 14 graph) | [`figures::fig15`] | `fig15` |
//! | §6.1/§7.3 in-text numbers | [`checkpoints::run`] | `checkpoints` |
//! | Ablations A1–A10 | [`ablations`] | `a1_local_abort` … `a10_burstiness` |
//! | Extensions E1/E2 | [`extensions`] | `e1_stages`, `e2_slack` |
//! | Fault robustness F1 | [`faults::mttf_sweep`] | `f1_faults` |
//! | Reproduction claims | [`claims::validate`] | `claims` |
//!
//! The one binary, `repro`, runs every artifact of [`repro::REGISTRY`]
//! (or the ones `--only` names) and prints a full report.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod chart;
pub mod checkpoints;
pub mod claims;
pub mod extensions;
pub mod faults;
pub mod figures;
pub mod gantt;
pub mod repro;
pub mod run;
pub mod scale;
pub mod table;
pub mod tables;

pub use scale::Scale;
pub use table::Table;

/// The standard load sweep the paper's load–MD figures use.
pub const LOAD_SWEEP: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// The three PSP strategies of Figures 7 and 10–12, labelled as in the
/// paper's legends: UD, DIV-1 and GF (each with SSP = UD).
pub(crate) fn ud_div1_gf() -> [(&'static str, sda_core::SdaStrategy); 3] {
    use sda_core::{PspStrategy, SdaStrategy, SspStrategy};
    [
        ("UD", SdaStrategy::ud_ud()),
        ("DIV-1", SdaStrategy::ud_div1()),
        (
            "GF",
            SdaStrategy {
                ssp: SspStrategy::Ud,
                psp: PspStrategy::gf(),
            },
        ),
    ]
}

/// Formats an [`sda_simcore::stats::Estimate`] of a rate as a percentage
/// with its 95% half-width.
pub fn pct(e: sda_simcore::stats::Estimate) -> String {
    format!("{:5.2}% ±{:.2}", 100.0 * e.mean, 100.0 * e.half_width)
}
