//! Fault-injection experiment F1: strategy robustness under node
//! crashes.
//!
//! The paper's model assumes reliable nodes; this extension measures how
//! gracefully each subtask-deadline strategy degrades when nodes fail
//! and recover (exponential MTTF/MTTR, `RequeueSubtask` policy: the
//! crashed node's work restarts from scratch after repair). Strategies
//! that leave slack at the tail — EQF in particular — should absorb a
//! requeue better than UD, which concentrates slack in early stages.
//!
//! The fault stream is seeded independently of the workload stream, so
//! every cell of the table sees identical arrivals *and* identical crash
//! schedules — the common-random-numbers discipline extends to faults.

use sda_core::{PspStrategy, SdaStrategy, SspStrategy};
use sda_model::TaskSpec;
use sda_sim::{CrashPolicy, FaultConfig, GlobalShape, SimConfig};
use sda_simcore::dist::Uniform;

use crate::pct;
use crate::run::run_grid;
use crate::scale::Scale;
use crate::table::Table;

/// The SSP strategies F1 compares (all with PSP = UD).
pub const F1_SSPS: [SspStrategy; 4] = [
    SspStrategy::Ud,
    SspStrategy::Ed,
    SspStrategy::Eqs,
    SspStrategy::Eqf,
];

/// The mean-time-to-failure grid, most reliable first. `None` is the
/// fault-free reference row (MTTF = ∞).
pub const F1_MTTF: [Option<f64>; 5] =
    [None, Some(2_000.0), Some(1_000.0), Some(500.0), Some(250.0)];

/// Mean time to repair: short relative to every MTTF, long relative to
/// subtask service times, so an outage loses work without partitioning
/// the system for a whole deadline window.
pub const F1_MTTR: f64 = 25.0;

fn strategy(ssp: SspStrategy) -> SdaStrategy {
    SdaStrategy {
        ssp,
        psp: PspStrategy::Ud,
    }
}

/// The workload F1 runs on: a 5-stage serial pipeline (the Table 2
/// graph family), where SSP strategies actually assign different
/// subtask deadlines. On the single-stage parallel baseline every SSP
/// hands each subtask the whole deadline, so fault sensitivity would be
/// identical by construction.
fn pipeline_base() -> SimConfig {
    SimConfig {
        shape: GlobalShape::Spec(TaskSpec::pipeline(5)),
        global_slack: Uniform::new(1.25, 5.0).scaled(5.0),
        ..SimConfig::baseline()
    }
}

fn fault_config(mttf: Option<f64>) -> FaultConfig {
    match mttf {
        None => FaultConfig::disabled(),
        Some(mttf) => FaultConfig {
            mttf,
            mttr: F1_MTTR,
            crash_policy: CrashPolicy::RequeueSubtask,
            ..FaultConfig::disabled()
        },
    }
}

/// One F1 data row: the MTTF (`None` = fault-free), the `MD_global`
/// means in [`F1_SSPS`] order, and the total node crashes in the row.
pub type F1Row = (Option<f64>, Vec<f64>, u64);

/// **F1** — `MD_global` versus node MTTF for each SSP strategy on a
/// 5-stage serial pipeline (load 0.5, `RequeueSubtask` crash policy).
///
/// Returns the table plus the per-row [`F1Row`] data for shape
/// assertions.
pub fn mttf_sweep(scale: Scale) -> (Table, Vec<F1Row>) {
    let mut table = Table::new(
        "F1: MD_global vs node MTTF (5-stage pipeline, crash policy: requeue, MTTR 25)",
        &[
            "MTTF",
            "MD_global[UD]",
            "MD_global[ED]",
            "MD_global[EQS]",
            "MD_global[EQF]",
        ],
    );
    let results = run_grid(scale, &F1_MTTF, &F1_SSPS, |&mttf, &ssp| SimConfig {
        fault: fault_config(mttf),
        ..pipeline_base().with_strategy(strategy(ssp))
    });
    let mut data = Vec::new();
    for (&mttf, row) in F1_MTTF.iter().zip(&results) {
        let crashes: u64 = row
            .iter()
            .flat_map(|multi| multi.runs())
            .map(|run| run.metrics.node_crashes)
            .sum();
        let mds: Vec<f64> = row.iter().map(|multi| multi.md_global().mean).collect();
        let mut cells = vec![match mttf {
            None => "inf".to_string(),
            Some(v) => format!("{v}"),
        }];
        cells.extend(row.iter().map(|multi| pct(multi.md_global())));
        table.row(&cells);
        data.push((mttf, mds, crashes));
    }
    (table, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_crashes_scale_with_failure_rate_and_hurt_miss_rates() {
        let (table, data) = mttf_sweep(Scale::Quick);
        assert_eq!(table.row_count(), F1_MTTF.len());
        // The fault-free reference row really is fault-free.
        assert_eq!(data[0].2, 0, "MTTF = inf must inject nothing");
        // Crash counts grow as MTTF shrinks; every faulty row crashes.
        for pair in data[1..].windows(2) {
            assert!(
                pair[1].2 > pair[0].2,
                "halving MTTF must crash more: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        // Crashes cost deadlines: at the least-reliable row every
        // strategy misses more than its fault-free reference.
        let (reference, worst) = (&data[0].1, &data[F1_MTTF.len() - 1].1);
        for (i, (clean, faulty)) in reference.iter().zip(worst).enumerate() {
            assert!(
                faulty > clean,
                "{:?}: MD_global {faulty} at MTTF 250 vs {clean} fault-free",
                F1_SSPS[i]
            );
        }
    }
}
