//! Ablations beyond the paper's figures (DESIGN.md A1–A5).
//!
//! Each ablation probes a claim the paper makes in prose but does not
//! plot, or a design choice our implementation had to make.

use sda_core::{EstimationModel, PspStrategy, SdaStrategy, SspStrategy};
use sda_model::TaskSpec;
use sda_sched::Policy;
use sda_sim::{AbortPolicy, GlobalShape, MultiRun, ResubmitPolicy, ServiceShape, SimConfig};

use crate::run::{run_configs, run_grid};
use crate::scale::Scale;
use crate::table::Table;
use crate::{pct, ud_div1_gf};

/// Adds one row to `table`: `labels`, the cell's `MD_local` and
/// `MD_global`, then `extra` if any.
fn md_row(table: &mut Table, labels: &[&str], multi: &MultiRun, extra: Option<String>) {
    let mut row: Vec<String> = labels.iter().map(|label| label.to_string()).collect();
    row.push(pct(multi.md_local()));
    row.push(pct(multi.md_global()));
    row.extend(extra);
    table.row(&row);
}

/// **A1** — local-scheduler abortion (§7.3's "results not shown"):
/// DIV-x degrades when local schedulers abort on virtual deadlines,
/// and degrades harder for larger `x`; process-manager abortion does not.
pub fn local_abort(scale: Scale) -> Table {
    let mut table = Table::new(
        "A1: DIV-x under local-scheduler abortion (load 0.7)",
        &[
            "strategy",
            "abort mode",
            "MD_local",
            "MD_global",
            "resubmissions",
        ],
    );
    let strategies = [
        ("DIV-1", SdaStrategy::ud_div1()),
        (
            "DIV-4",
            SdaStrategy {
                ssp: SspStrategy::Ud,
                psp: PspStrategy::div(4.0),
            },
        ),
    ];
    let modes = [
        ("none", AbortPolicy::None),
        ("process manager", AbortPolicy::ProcessManager),
        (
            "local scheduler",
            AbortPolicy::LocalScheduler {
                resubmit: ResubmitPolicy::OnceWithRealDeadline,
            },
        ),
    ];
    let results = run_grid(scale, &strategies, &modes, |(_, strategy), (_, abort)| {
        SimConfig {
            abort: *abort,
            load: 0.7,
            ..SimConfig::baseline()
        }
        .with_strategy(*strategy)
    });
    for ((s_label, _), row) in strategies.iter().zip(&results) {
        for ((m_label, _), multi) in modes.iter().zip(row) {
            let resub: u64 = multi.runs().iter().map(|r| r.metrics.resubmissions).sum();
            md_row(
                &mut table,
                &[s_label, m_label],
                multi,
                Some(resub.to_string()),
            );
        }
    }
    table
}

/// **A2** — local scheduling policy ablation: EDF vs FCFS vs SJF under UD
/// and DIV-1 at the baseline point. Deadline-driven local scheduling is
/// load-bearing for the whole SDA idea: deadline-blind queues cannot see
/// virtual deadlines (DIV-1 ≡ UD under FCFS/SJF).
pub fn sched_policies(scale: Scale) -> Table {
    let mut table = Table::new(
        "A2: local scheduler ablation (load 0.5)",
        &["scheduler", "strategy", "MD_local", "MD_global"],
    );
    let strategies = [
        ("UD", SdaStrategy::ud_ud()),
        ("DIV-1", SdaStrategy::ud_div1()),
    ];
    let results = run_grid(
        scale,
        &Policy::ALL,
        &strategies,
        |&scheduler, (_, strategy)| {
            SimConfig {
                scheduler,
                ..SimConfig::baseline()
            }
            .with_strategy(*strategy)
        },
    );
    for (scheduler, row) in Policy::ALL.iter().zip(&results) {
        for ((label, _), multi) in strategies.iter().zip(row) {
            md_row(&mut table, &[&scheduler.to_string(), label], multi, None);
        }
    }
    table
}

/// **A3** — the SSP family on a serial-only pipeline (the shape of the
/// companion paper \[6\] that §8 summarizes): UD vs ED vs EQS vs EQF on a
/// 5-stage pipeline with slack scaled by the stage count.
pub fn ssp_family(scale: Scale) -> Table {
    let mut table = Table::new(
        "A3: SSP strategies on a 5-stage serial pipeline (load 0.5)",
        &["SSP", "MD_local", "MD_global"],
    );
    let base = SimConfig {
        shape: GlobalShape::Spec(TaskSpec::pipeline(5)),
        global_slack: SimConfig::baseline().local_slack.scaled(5.0),
        ..SimConfig::baseline()
    };
    let cfgs = SspStrategy::ALL
        .into_iter()
        .map(|ssp| {
            base.clone().with_strategy(SdaStrategy {
                ssp,
                psp: PspStrategy::Ud,
            })
        })
        .collect();
    for (ssp, multi) in SspStrategy::ALL.into_iter().zip(&run_configs(scale, cfgs)) {
        md_row(&mut table, &[ssp.label()], multi, None);
    }
    table
}

/// **A4** — robustness of EQF to execution-time estimation error (§8
/// claims "good performance even when the estimate can be off by a factor
/// of 2"): EQF-DIV1 on the Figure 14 workload with increasing error.
pub fn pex_error(scale: Scale) -> Table {
    let mut table = Table::new(
        "A4: EQF-DIV1 vs pex estimation error (Figure 14 workload, load 0.5)",
        &["estimation", "MD_local", "MD_global"],
    );
    let models: [(&str, EstimationModel); 5] = [
        ("exact", EstimationModel::Exact),
        ("off by <=2x", EstimationModel::uniform_factor(2.0)),
        ("off by <=4x", EstimationModel::uniform_factor(4.0)),
        ("bias 2x over", EstimationModel::bias(2.0)),
        ("class mean only", EstimationModel::ClassMean { mean: 1.0 }),
    ];
    let cfgs = models
        .iter()
        .map(|(_, estimation)| {
            SimConfig {
                estimation: *estimation,
                ..SimConfig::section8()
            }
            .with_strategy(SdaStrategy::eqf_div1())
        })
        .collect();
    for ((label, _), multi) in models.iter().zip(&run_configs(scale, cfgs)) {
        md_row(&mut table, &[label], multi, None);
    }
    table
}

/// **A5** — GF's Δ is a free parameter only in appearance: any Δ larger
/// than the deadline horizon behaves identically, while a too-small Δ
/// degrades toward UD.
pub fn gf_delta(scale: Scale) -> Table {
    let mut table = Table::new(
        "A5: GF sensitivity to the Δ shift (load 0.7)",
        &["delta", "MD_local", "MD_global"],
    );
    let deltas = [1.0, 10.0, 1.0e3, 1.0e9];
    let cfgs = deltas
        .iter()
        .map(|&delta| {
            SimConfig::baseline()
                .with_load(0.7)
                .with_strategy(SdaStrategy {
                    ssp: SspStrategy::Ud,
                    psp: PspStrategy::Gf { delta },
                })
        })
        .collect();
    for (delta, multi) in deltas.iter().zip(&run_configs(scale, cfgs)) {
        md_row(&mut table, &[&format!("{delta:.0e}")], multi, None);
    }
    table
}

/// **A6** — heterogeneous node speeds: the paper's "open systems" are
/// built from pre-existing components of different capability. With the
/// same total capacity split unevenly, a parallel global task is hostage
/// to its slowest node; do DIV-1 and GF still repair the gap?
pub fn heterogeneous_nodes(scale: Scale) -> Table {
    let mut table = Table::new(
        "A6: heterogeneous node speeds (total capacity fixed, load 0.5)",
        &["speeds", "strategy", "MD_local", "MD_global"],
    );
    let speed_sets: [(&str, Vec<f64>); 3] = [
        ("uniform 1x", vec![]),
        ("2:1 split", vec![1.5, 1.5, 1.5, 0.5, 0.5, 0.5]),
        ("7:1 split", vec![1.75, 1.75, 1.75, 0.25, 0.25, 0.25]),
    ];
    let strategies = ud_div1_gf();
    let results = run_grid(
        scale,
        &speed_sets,
        &strategies,
        |(_, node_speeds), (_, strategy)| {
            SimConfig {
                node_speeds: node_speeds.clone(),
                ..SimConfig::baseline()
            }
            .with_strategy(*strategy)
        },
    );
    for ((label, _), row) in speed_sets.iter().zip(&results) {
        for ((s_label, _), multi) in strategies.iter().zip(row) {
            md_row(&mut table, &[label, s_label], multi, None);
        }
    }
    table
}

/// **A7** — preemptive vs non-preemptive EDF: the paper's nodes serve
/// non-preemptively; does preemption change the PSP picture?
pub fn preemption(scale: Scale) -> Table {
    let mut table = Table::new(
        "A7: non-preemptive vs preemptive EDF (load 0.7)",
        &["mode", "strategy", "MD_local", "MD_global", "preemptions"],
    );
    let modes = [("non-preemptive", false), ("preemptive", true)];
    let strategies = [
        ("UD", SdaStrategy::ud_ud()),
        ("DIV-1", SdaStrategy::ud_div1()),
    ];
    let results = run_grid(
        scale,
        &modes,
        &strategies,
        |(_, preemptive), (_, strategy)| {
            SimConfig {
                preemptive: *preemptive,
                load: 0.7,
                ..SimConfig::baseline()
            }
            .with_strategy(*strategy)
        },
    );
    for ((m_label, _), row) in modes.iter().zip(&results) {
        for ((s_label, _), multi) in strategies.iter().zip(row) {
            let preemptions: u64 = multi.runs().iter().map(|r| r.metrics.preemptions).sum();
            md_row(
                &mut table,
                &[m_label, s_label],
                multi,
                Some(preemptions.to_string()),
            );
        }
    }
    table
}

/// **A8** — service-time variability: is the PSP miss amplification a
/// service-variance artifact? (No: even deterministic service shows it —
/// queueing variability is enough.)
pub fn service_shapes(scale: Scale) -> Table {
    let mut table = Table::new(
        "A8: service-time distribution shape (load 0.5, UD)",
        &["shape", "MD_local", "MD_global", "amplification"],
    );
    let shapes = [
        ("exponential", ServiceShape::Exponential),
        ("uniform ±50%", ServiceShape::UniformSpread),
        ("deterministic", ServiceShape::Deterministic),
    ];
    let cfgs = shapes
        .iter()
        .map(|(_, service_shape)| SimConfig {
            service_shape: *service_shape,
            ..SimConfig::baseline()
        })
        .collect();
    for ((label, _), multi) in shapes.iter().zip(&run_configs(scale, cfgs)) {
        let amplification = multi.md_global().mean / multi.md_local().mean.max(1e-9);
        md_row(
            &mut table,
            &[label],
            multi,
            Some(format!("{amplification:.2}x")),
        );
    }
    table
}

/// **A9** — placement policy: how much of the parallel subtask problem
/// is *placement-blindness*? Least-loaded placement (a join-shortest-queue
/// variant at dispatch time) attacks the same "one subtask hits a busy
/// node" failure mode from the other side, and composes with deadline
/// assignment.
pub fn placement(scale: Scale) -> Table {
    use sda_sim::Placement;
    let mut table = Table::new(
        "A9: subtask placement policy x deadline assignment (load 0.7)",
        &["placement", "strategy", "MD_local", "MD_global"],
    );
    let placements = [
        ("random distinct", Placement::RandomDistinct),
        ("least loaded", Placement::LeastLoaded),
    ];
    let strategies = ud_div1_gf();
    let results = run_grid(
        scale,
        &placements,
        &strategies,
        |(_, placement), (_, strategy)| {
            SimConfig {
                placement: *placement,
                load: 0.7,
                ..SimConfig::baseline()
            }
            .with_strategy(*strategy)
        },
    );
    for ((p_label, _), row) in placements.iter().zip(&results) {
        for ((s_label, _), multi) in strategies.iter().zip(row) {
            md_row(&mut table, &[p_label, s_label], multi, None);
        }
    }
    table
}

/// **A10** — transient overload: §5 attributes most misses to transient
/// overload but studies only stationary Poisson arrivals. Here the same
/// average load arrives in periodic ON/OFF bursts (ON = 20% of a
/// 50-time-unit cycle); the boost sets how hard the ON phase overloads
/// the system (boost 3 at load 0.5 ⇒ instantaneous load 1.5).
pub fn burstiness(scale: Scale) -> Table {
    use sda_sim::Burst;
    let mut table = Table::new(
        "A10: transient overload — ON/OFF arrival bursts (load 0.5)",
        &["burst boost", "strategy", "MD_local", "MD_global"],
    );
    let burst = |boost| {
        Some(Burst {
            period: 50.0,
            on_fraction: 0.2,
            boost,
        })
    };
    let bursts = [
        ("none (paper)", None),
        ("2x", burst(2.0)),
        ("4x", burst(4.0)),
    ];
    let strategies = ud_div1_gf();
    let results = run_grid(scale, &bursts, &strategies, |(_, burst), (_, strategy)| {
        SimConfig {
            burst: *burst,
            ..SimConfig::baseline()
        }
        .with_strategy(*strategy)
    });
    for ((b_label, _), row) in bursts.iter().zip(&results) {
        for ((s_label, _), multi) in strategies.iter().zip(row) {
            md_row(&mut table, &[b_label, s_label], multi, None);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_div1_is_noop_under_deadline_blind_queues() {
        let t = sched_policies(Scale::Quick);
        assert_eq!(t.row_count(), 8);
        // FCFS rows: UD and DIV-1 must have identical MD_global (virtual
        // deadlines are invisible to a FIFO queue) — same seeds, same
        // arrival process, same service order.
        assert_eq!(t.cell(2, 3), t.cell(3, 3), "FCFS ignores deadlines");
        // SJF likewise.
        assert_eq!(t.cell(4, 3), t.cell(5, 3), "SJF ignores deadlines");
        // LLF is deadline-cognizant: DIV-1 must differ from UD.
        assert_ne!(t.cell(6, 3), t.cell(7, 3), "LLF sees virtual deadlines");
    }

    #[test]
    fn a6_heterogeneity_hurts_globals_under_ud() {
        let t = heterogeneous_nodes(Scale::Quick);
        assert_eq!(t.row_count(), 9);
        // MD_global[UD] grows as the speed split widens: compare the
        // uniform row (0) with the 7:1 row (6).
        let parse = |cell: &str| -> f64 {
            cell.trim()
                .split('%')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let uniform = parse(t.cell(0, 3).unwrap());
        let skewed = parse(t.cell(6, 3).unwrap());
        assert!(skewed > uniform, "7:1 {skewed} vs uniform {uniform}");
    }

    #[test]
    fn a7_preemption_counts_only_in_preemptive_rows() {
        let t = preemption(Scale::Quick);
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.cell(0, 4), Some("0"), "non-preemptive UD");
        assert_ne!(t.cell(2, 4), Some("0"), "preemptive UD must preempt");
    }

    #[test]
    fn a5_large_deltas_equivalent() {
        let t = gf_delta(Scale::Quick);
        assert_eq!(t.row_count(), 4);
        // Δ = 1e3 and Δ = 1e9 must give identical results: both exceed
        // every deadline in a 20k-unit run... they do differ in SimTime
        // values, but the EDF *order* is identical, hence the same MDs.
        assert_eq!(t.cell(2, 2), t.cell(3, 2));
    }
}
