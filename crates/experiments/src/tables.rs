//! Reproductions of the paper's tables (configuration artifacts).

use sda_core::SdaStrategy;
use sda_sched::Policy;
use sda_sim::{AbortPolicy, GlobalShape, SimConfig};

use crate::table::Table;

/// **Table 1** — the baseline setting. Prints the constants and asserts
/// that [`SimConfig::baseline`] encodes exactly the paper's values.
pub fn table1() -> Table {
    let cfg = SimConfig::baseline();
    assert_eq!(cfg.abort, AbortPolicy::None);
    assert_eq!(cfg.scheduler, Policy::Edf);
    assert_eq!(cfg.mu_subtask, 1.0);
    assert_eq!(cfg.mu_local, 1.0);
    assert_eq!(cfg.nodes, 6);
    assert_eq!(cfg.shape, GlobalShape::ParallelFixed { n: 4 });
    assert_eq!(cfg.load, 0.5);
    assert_eq!(cfg.frac_local, 0.75);
    assert_eq!((cfg.local_slack.lo(), cfg.local_slack.hi()), (1.25, 5.0));

    let mut t = Table::new("Table 1: baseline setting", &["parameter", "value"]);
    t.row(&["Overload Management Policy", "No Abortion"]);
    t.row(&["Local Scheduling Algorithm", "Earliest Deadline First"]);
    t.row(&["mu_subtask", "1.0"]);
    t.row(&["mu_local", "1.0"]);
    t.row(&["k (# of nodes)", "6"]);
    t.row(&["n (# of subtasks of a global task)", "4"]);
    t.row(&["load", "0.5"]);
    t.row(&["frac_local", "0.75"]);
    t.row(&["[S_min, S_max]", "[1.25, 5.0]"]);
    t.row(&[
        "derived lambda_local (per node)",
        &format!("{:.4}", cfg.lambda_local()),
    ]);
    t.row(&[
        "derived lambda_global (system)",
        &format!("{:.4}", cfg.lambda_global()),
    ]);
    t
}

/// **Table 2** — the SSP × PSP strategy combinations of the §8 experiment.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: combinations of SSP/PSP strategies",
        &["SDA", "SSP", "PSP"],
    );
    for strategy in SdaStrategy::table2() {
        t.row(&[
            strategy.label(),
            strategy.ssp.label().to_string(),
            strategy.psp.label().into_owned(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_every_paper_row() {
        let t = table1();
        let text = t.to_string();
        for needle in [
            "No Abortion",
            "Earliest Deadline First",
            "frac_local",
            "[1.25, 5.0]",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        assert_eq!(t.row_count(), 11);
    }

    #[test]
    fn table2_lists_the_four_combinations() {
        let t = table2();
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.cell(0, 0), Some("UD-UD"));
        assert_eq!(t.cell(3, 0), Some("EQF-DIV1"));
        assert_eq!(t.cell(2, 1), Some("EQF"));
        assert_eq!(t.cell(1, 2), Some("DIV-1"));
    }
}
