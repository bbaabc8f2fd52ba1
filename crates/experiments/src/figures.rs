//! Reproductions of the paper's figures (§6–§8).
//!
//! Every function returns a [`FigureResult`]: the raw series (used by the
//! integration tests to assert the paper's qualitative shape) plus a
//! rendered [`Table`] with the same rows/series the figure plots.

use sda_core::analysis::global_miss_probability;
use sda_core::{PspStrategy, SdaStrategy, SspStrategy};
use sda_sim::{AbortPolicy, GlobalShape, SimConfig};
use sda_simcore::stats::Estimate;

use crate::run::{run_configs, run_grid};
use crate::scale::Scale;
use crate::table::Table;
use crate::{pct, ud_div1_gf, LOAD_SWEEP};

/// One data point of a load–MD curve.
#[derive(Debug, Clone, Copy)]
pub struct LoadPoint {
    /// The normalized system load.
    pub load: f64,
    /// `MD_local` with 95% CI.
    pub md_local: Estimate,
    /// `MD_subtask` with 95% CI.
    pub md_subtask: Estimate,
    /// `MD_global` with 95% CI.
    pub md_global: Estimate,
}

/// One strategy's curve across a sweep.
#[derive(Debug, Clone)]
pub struct Series {
    /// Strategy label as in the paper's legends.
    pub label: String,
    /// Data points, in sweep order.
    pub points: Vec<LoadPoint>,
}

impl Series {
    /// The point at a given load (within floating-point tolerance).
    pub fn at_load(&self, load: f64) -> Option<&LoadPoint> {
        self.points.iter().find(|p| (p.load - load).abs() < 1e-9)
    }
}

/// The output of one figure reproduction.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Rendered, paper-shaped table.
    pub table: Table,
    /// The raw series, one per strategy/class line in the figure.
    pub series: Vec<Series>,
}

/// The function that builds one figure at a scale.
pub type FigureFn = fn(Scale) -> FigureResult;

impl FigureResult {
    /// Renders the `MD_global` curves (and the first series' `MD_local`
    /// for reference, as in the paper's dotted lines) as an ASCII chart.
    pub fn plot(&self, title: &str, x_label: &str) -> String {
        let mut chart = crate::chart::Chart::new(title, 64, 20);
        chart.labels(x_label, "fraction of missed deadlines");
        for s in &self.series {
            chart.series(
                &format!("MD_global[{}]", s.label),
                s.points
                    .iter()
                    .map(|p| (p.load, p.md_global.mean))
                    .collect(),
            );
        }
        if let Some(first) = self.series.first() {
            chart.series(
                &format!("MD_local[{}]", first.label),
                first
                    .points
                    .iter()
                    .map(|p| (p.load, p.md_local.mean))
                    .collect(),
            );
        }
        chart.to_string()
    }
}

/// Runs one labelled row per entry of `rows` across the x axis `xs` as a
/// single grid, so the engine schedules every replication of every cell
/// across its worker pool; cell `(row, x)` simulates `cell(row, x)`. All
/// cells use the campaign seed (common random numbers), so row
/// comparisons are paired. Each point's `load` carries its x value.
fn sweep<R>(
    scale: Scale,
    rows: &[(&str, R)],
    xs: &[f64],
    cell: impl Fn(&R, f64) -> SimConfig,
) -> Vec<Series> {
    let grid = run_grid(scale, rows, xs, |(_, row), &x| cell(row, x));
    rows.iter()
        .zip(grid)
        .map(|((label, _), results)| Series {
            label: (*label).to_string(),
            points: xs
                .iter()
                .zip(results)
                .map(|(&x, multi)| LoadPoint {
                    load: x,
                    md_local: multi.md_local(),
                    md_subtask: multi.md_subtask(),
                    md_global: multi.md_global(),
                })
                .collect(),
        })
        .collect()
}

/// A (strategy × load) [`sweep`] over a base configuration.
fn load_sweep(
    scale: Scale,
    base: &SimConfig,
    strategies: &[(&str, SdaStrategy)],
    loads: &[f64],
) -> Vec<Series> {
    sweep(scale, strategies, loads, |strategy, load| {
        base.clone().with_load(load).with_strategy(*strategy)
    })
}

/// Renders one row per x value: the x value, then `MD_local` and
/// `MD_global` of every series.
fn load_table(title: &str, x_header: &str, series: &[Series]) -> Table {
    let mut headers = vec![x_header.to_string()];
    for s in series {
        headers.push(format!("MD_local[{}]", s.label));
        headers.push(format!("MD_global[{}]", s.label));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for (i, point) in series[0].points.iter().enumerate() {
        let mut row = vec![format!("{:.2}", point.load)];
        for s in series {
            row.push(pct(s.points[i].md_local));
            row.push(pct(s.points[i].md_global));
        }
        table.row(&row);
    }
    table
}

/// **Figure 5** — the UD baseline: `MD_local`, `MD_subtask`, and
/// `MD_global` versus load at the Table 1 setting. Also prints the
/// independence-model prediction `1 − (1 − MD_subtask)^4` next to the
/// measured `MD_global` (the §6.1 cross-check).
pub fn fig5(scale: Scale) -> FigureResult {
    let series = load_sweep(
        scale,
        &SimConfig::baseline(),
        &[("UD", SdaStrategy::ud_ud())],
        &LOAD_SWEEP,
    );
    let mut table = Table::new(
        "Figure 5: UD in the baseline experiment (k=6, n=4, frac_local=0.75)",
        &[
            "load",
            "MD_local",
            "MD_subtask",
            "MD_global",
            "predicted 1-(1-p)^4",
        ],
    );
    for p in &series[0].points {
        table.row(&[
            format!("{:.2}", p.load),
            pct(p.md_local),
            pct(p.md_subtask),
            pct(p.md_global),
            format!(
                "{:5.2}%",
                100.0 * global_miss_probability(p.md_subtask.mean, 4)
            ),
        ]);
    }
    FigureResult { table, series }
}

/// **Figure 6** — UD vs DIV-1 vs DIV-2 at the baseline setting.
pub fn fig6(scale: Scale) -> FigureResult {
    let strategies = [
        ("UD", SdaStrategy::ud_ud()),
        ("DIV-1", SdaStrategy::ud_div1()),
        (
            "DIV-2",
            SdaStrategy {
                ssp: SspStrategy::Ud,
                psp: PspStrategy::div(2.0),
            },
        ),
    ];
    let series = load_sweep(scale, &SimConfig::baseline(), &strategies, &LOAD_SWEEP);
    let table = load_table(
        "Figure 6: UD vs DIV-x in the baseline experiment",
        "load",
        &series,
    );
    FigureResult { table, series }
}

/// **Figure 7** — UD, DIV-1, and GF at the baseline setting.
pub fn fig7(scale: Scale) -> FigureResult {
    let series = load_sweep(scale, &SimConfig::baseline(), &ud_div1_gf(), &LOAD_SWEEP);
    let table = load_table(
        "Figure 7: UD, DIV-1, and GF in the baseline experiment",
        "load",
        &series,
    );
    FigureResult { table, series }
}

/// The x values Figure 9 sweeps.
pub const FIG9_X: [f64; 7] = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0];

/// **Figure 9** — `MD^DIV-x` as a function of `x` for `n ∈ {2, 4, 6}` at
/// load 0.5. Series come back in order n=2, n=4, n=6, with `point.load`
/// reused to carry the x value.
pub fn fig9(scale: Scale) -> FigureResult {
    let fanouts = [("n=2", 2), ("n=4", 4), ("n=6", 6)];
    let series = sweep(scale, &fanouts, &FIG9_X, |&n, x| {
        SimConfig {
            shape: GlobalShape::ParallelFixed { n },
            ..SimConfig::baseline()
        }
        .with_strategy(SdaStrategy {
            ssp: SspStrategy::Ud,
            psp: PspStrategy::div(x),
        })
    });
    let table = load_table(
        "Figure 9: MD under DIV-x as a function of x (load 0.5)",
        "x",
        &series,
    );
    FigureResult { table, series }
}

/// The frac_local values Figure 10 sweeps.
pub const FIG10_FRAC: [f64; 7] = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9];

/// **Figure 10** — `MD` of (a) DIV-1 and (b) GF as functions of
/// `frac_local` at load 0.5, with UD for comparison. `point.load` carries
/// the frac_local value.
pub fn fig10(scale: Scale) -> FigureResult {
    let series = sweep(scale, &ud_div1_gf(), &FIG10_FRAC, |strategy, frac| {
        SimConfig {
            frac_local: frac,
            ..SimConfig::baseline()
        }
        .with_strategy(*strategy)
    });
    let mut table = Table::new(
        "Figure 10: DIV-1 (a) and GF (b) vs frac_local (load 0.5; UD for reference)",
        &[
            "frac_local",
            "MD_local[UD]",
            "MD_global[UD]",
            "MD_local[DIV-1]",
            "MD_global[DIV-1]",
            "MD_local[GF]",
            "MD_global[GF]",
        ],
    );
    for (i, &frac) in FIG10_FRAC.iter().enumerate() {
        let mut row = vec![format!("{frac:.2}")];
        for s in &series {
            let p = &s.points[i];
            row.push(if frac == 0.0 && s.label != "UD" {
                // No locals exist; MD_local is undefined (0/0).
                "    n/a".to_string()
            } else {
                pct(p.md_local)
            });
            row.push(pct(p.md_global));
        }
        table.row(&row);
    }
    FigureResult { table, series }
}

/// **Figure 11** — UD and DIV-1 (plus GF, which the paper says overlaps
/// DIV-1) with process-manager abortion.
pub fn fig11(scale: Scale) -> FigureResult {
    let base = SimConfig {
        abort: AbortPolicy::ProcessManager,
        ..SimConfig::baseline()
    };
    let series = load_sweep(scale, &base, &ud_div1_gf(), &LOAD_SWEEP);
    let table = load_table(
        "Figure 11: UD and DIV-1 with process-manager abortion (GF shown too)",
        "load",
        &series,
    );
    FigureResult { table, series }
}

/// **Figure 12** — per-class `MD` (locals + globals with n = 2..6 drawn
/// uniformly) under UD, DIV-1, and GF at load 0.5. Series are strategies;
/// `point.load` carries the class (0 = local, else n).
pub fn fig12(scale: Scale) -> FigureResult {
    let strategies = ud_div1_gf();
    let base = SimConfig {
        shape: GlobalShape::ParallelUniform { lo: 2, hi: 6 },
        ..SimConfig::baseline()
    };
    let results = run_configs(
        scale,
        strategies
            .iter()
            .map(|(_, strategy)| base.clone().with_strategy(*strategy))
            .collect(),
    );
    let series: Vec<Series> = strategies
        .iter()
        .zip(&results)
        .map(|((label, _), multi)| {
            // Class 0 is the locals; class n the globals with n subtasks.
            let class = |load: f64, md_global: Estimate| LoadPoint {
                load,
                md_local: multi.md_local(),
                md_subtask: multi.md_subtask(),
                md_global,
            };
            let mut points = vec![class(0.0, multi.md_local())];
            points.extend((2..=6u32).map(|n| class(f64::from(n), multi.md_global_n(n))));
            Series {
                label: (*label).to_string(),
                points,
            }
        })
        .collect();
    let mut table = Table::new(
        "Figure 12: per-class MD with n ~ U[2..6] (load 0.5)",
        &["class", "MD[UD]", "MD[DIV-1]", "MD[GF]"],
    );
    let class_names = [
        "local",
        "global n=2",
        "global n=3",
        "global n=4",
        "global n=5",
        "global n=6",
    ];
    for (i, name) in class_names.iter().enumerate() {
        table.row(&[
            (*name).to_string(),
            pct(series[0].points[i].md_global),
            pct(series[1].points[i].md_global),
            pct(series[2].points[i].md_global),
        ]);
    }
    FigureResult { table, series }
}

/// The loads Figure 15 sweeps (the paper runs the 5-stage workload up to
/// a load where UD-UD has saturated).
pub const FIG15_LOADS: [f64; 7] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];

/// **Figure 15** — the four Table 2 SSP×PSP combinations on the Figure 14
/// five-stage serial-parallel task graph (global slack U[6.25, 25]).
pub fn fig15(scale: Scale) -> FigureResult {
    let strategies = [
        ("UD-UD", SdaStrategy::ud_ud()),
        ("UD-DIV1", SdaStrategy::ud_div1()),
        ("EQF-UD", SdaStrategy::eqf_ud()),
        ("EQF-DIV1", SdaStrategy::eqf_div1()),
    ];
    let series = load_sweep(scale, &SimConfig::section8(), &strategies, &FIG15_LOADS);
    let table = load_table(
        "Figure 15: SDA strategy combinations on the Figure 14 task graph",
        "load",
        &series,
    );
    FigureResult { table, series }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure-shape assertions run at Quick scale: they validate the
    // *qualitative* claims (who wins where), which are robust at 2x20k
    // time units; the full quantitative run is `repro`.

    #[test]
    fn fig5_shapes() {
        let fig = fig5(Scale::Quick);
        let s = &fig.series[0];
        // MD grows with load.
        assert!(s.at_load(0.9).unwrap().md_global.mean > s.at_load(0.3).unwrap().md_global.mean);
        // Globals miss far more than locals at mid load (the PSP problem).
        let p5 = s.at_load(0.5).unwrap();
        assert!(p5.md_global.mean > 2.0 * p5.md_local.mean);
        // Subtasks do slightly better than locals (Equation 3 slack bonus).
        assert!(p5.md_subtask.mean < p5.md_local.mean);
        assert_eq!(fig.table.row_count(), LOAD_SWEEP.len());
    }

    #[test]
    fn fig7_ordering_at_high_load() {
        let fig = fig7(Scale::Quick);
        let ud = fig.series[0].at_load(0.7).unwrap().md_global.mean;
        let div1 = fig.series[1].at_load(0.7).unwrap().md_global.mean;
        let gf = fig.series[2].at_load(0.7).unwrap().md_global.mean;
        assert!(div1 < ud, "DIV-1 {div1} must beat UD {ud}");
        assert!(gf < div1, "GF {gf} must beat DIV-1 {div1} at high load");
    }

    #[test]
    fn fig12_ud_worsens_with_n() {
        let fig = fig12(Scale::Quick);
        let ud = &fig.series[0];
        // Under UD, global n=6 misses much more than n=2.
        assert!(ud.points[5].md_global.mean > ud.points[1].md_global.mean);
    }
}
