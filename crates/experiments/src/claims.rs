//! Executable reproduction claims: every qualitative statement the paper
//! makes about its figures, as pass/fail checks runnable at any scale.
//!
//! The claims read figures 5–7, 9–12 and 15 ([`FIGURES`]) and the in-text
//! checkpoints; [`check`] is the one checker. Inside the report, `repro`'s
//! build loop hands it the figures and checkpoints it built for their own
//! artifacts, so the claims measure nothing twice; [`validate`] builds
//! the same inputs itself and runs the same checker.
//!
//! `repro --only claims` runs these, prints a report, and exits 1 if any
//! fails; the CI-sized versions of the same assertions live in the
//! repository's integration tests at [`Scale::Quick`]. Running at [`Scale::Paper`] verifies the
//! reproduction with the paper's own statistical weight.

use sda_core::analysis::global_miss_probability;

use crate::checkpoints::{self, Checkpoint};
use crate::figures::{self, FigureFn, Series};
use crate::scale::Scale;
use crate::table::Table;

/// The outcome of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Claim identifier (`fig7/gf-wins`, ...).
    pub id: &'static str,
    /// The paper's statement being checked.
    pub claim: &'static str,
    /// Whether the reproduction satisfies it.
    pub pass: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

fn record(
    out: &mut Vec<ClaimResult>,
    id: &'static str,
    claim: &'static str,
    pass: bool,
    detail: String,
) {
    out.push(ClaimResult {
        id,
        claim,
        pass,
        detail,
    });
}

fn fig5_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let s = &fig[0];
    let p5 = s.at_load(0.5).expect("load 0.5 in sweep");
    record(
        out,
        "fig5/amplification",
        "under UD, global tasks miss ~3x as often as locals at load 0.5 (§6.1)",
        p5.md_global.mean > 2.0 * p5.md_local.mean && p5.md_global.mean < 4.5 * p5.md_local.mean,
        format!(
            "MD_global {:.3} vs MD_local {:.3} ({:.1}x)",
            p5.md_global.mean,
            p5.md_local.mean,
            p5.md_global.mean / p5.md_local.mean
        ),
    );
    let worst = s
        .points
        .iter()
        .filter(|p| p.load <= 0.7)
        .map(|p| (p.md_global.mean - global_miss_probability(p.md_subtask.mean, 4)).abs())
        .fold(0.0, f64::max);
    record(
        out,
        "fig5/independence",
        "measured MD_global tracks 1-(1-p)^4 (§6.1: \"not far from what we obtained\")",
        worst < 0.03,
        format!(
            "max |measured - predicted| = {:.3} over loads <= 0.7",
            worst
        ),
    );
    record(
        out,
        "fig5/subtask-slack-bonus",
        "subtasks do slightly better than locals under UD (Equation 3)",
        p5.md_subtask.mean < p5.md_local.mean,
        format!(
            "MD_subtask {:.3} < MD_local {:.3}",
            p5.md_subtask.mean, p5.md_local.mean
        ),
    );
}

fn fig6_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let (ud, div1, div2) = (&fig[0], &fig[1], &fig[2]);
    let at = |s: &Series, l: f64| s.at_load(l).expect("load in sweep").md_global.mean;
    record(
        out,
        "fig6/div1-halves",
        "DIV-1 roughly halves MD_global at load 0.5 (§6.1: 25% -> 13%)",
        at(div1, 0.5) < 0.65 * at(ud, 0.5),
        format!("UD {:.3} -> DIV-1 {:.3}", at(ud, 0.5), at(div1, 0.5)),
    );
    record(
        out,
        "fig6/div2-similar",
        "DIV-2 is hardly different from DIV-1 except at very high load (§6.1)",
        (at(div1, 0.5) - at(div2, 0.5)).abs() < 0.03
            && (at(div1, 0.7) - at(div2, 0.7)).abs() < 0.05,
        format!(
            "load 0.5: {:.3} vs {:.3}; load 0.7: {:.3} vs {:.3}",
            at(div1, 0.5),
            at(div2, 0.5),
            at(div1, 0.7),
            at(div2, 0.7)
        ),
    );
}

fn fig7_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let (div1, gf) = (&fig[1], &fig[2]);
    let g = |s: &Series, l: f64| s.at_load(l).expect("load in sweep").md_global.mean;
    let l = |s: &Series, l: f64| s.at_load(l).expect("load in sweep").md_local.mean;
    let local_gaps = [0.5, 0.6, 0.7, 0.8].map(|load| (l(gf, load) - l(div1, load)).abs());
    record(
        out,
        "fig7/gf-wins-high-load",
        "GF beats DIV-1 on globals, especially under high load (§6.1)",
        g(gf, 0.6) < g(div1, 0.6) && (g(div1, 0.8) - g(gf, 0.8)) > (g(div1, 0.5) - g(gf, 0.5)),
        format!(
            "gaps: load 0.5 {:.3}, load 0.8 {:.3}",
            g(div1, 0.5) - g(gf, 0.5),
            g(div1, 0.8) - g(gf, 0.8)
        ),
    );
    record(
        out,
        "fig7/gf-free-for-locals",
        "GF and DIV-1 miss approximately the same number of local tasks (§6.1)",
        local_gaps.iter().all(|&gap| gap < 0.02),
        format!(
            "max local gap {:.3}",
            local_gaps.iter().copied().fold(0.0, f64::max)
        ),
    );
}

fn fig9_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let mut flat = true;
    let mut near = true;
    let mut detail = String::new();
    for series in fig {
        let at = |x: f64| series.at_load(x).expect("x in sweep").md_global.mean;
        flat &= (at(4.0) - at(8.0)).abs() < 0.03;
        near &= (at(1.0) - at(8.0)).abs() < 0.05;
        detail.push_str(&format!(
            "{}: x=1 {:.3}, x=4 {:.3}, x=8 {:.3}; ",
            series.label,
            at(1.0),
            at(4.0),
            at(8.0)
        ));
    }
    record(
        out,
        "fig9/flattens",
        "MD curves flatten as x grows and x = 1 is usually adequate (§7.1)",
        flat && near,
        detail,
    );
}

fn fig10_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let (ud, div1, gf) = (&fig[0], &fig[1], &fig[2]);
    let g0_ud = ud.at_load(0.0).expect("frac 0").md_global.mean;
    let g0_gf = gf.at_load(0.0).expect("frac 0").md_global.mean;
    record(
        out,
        "fig10/gf-equals-ud-no-locals",
        "with frac_local = 0, GF performs exactly as UD (§7.2)",
        (g0_ud - g0_gf).abs() < 1e-12,
        format!("UD {:.4} vs GF {:.4}", g0_ud, g0_gf),
    );
    let gain = |s: &Series, f: f64| {
        ud.at_load(f).expect("frac in sweep").md_global.mean
            - s.at_load(f).expect("frac in sweep").md_global.mean
    };
    record(
        out,
        "fig10/gains-grow-with-locals",
        "DIV-x and GF are most effective with a large local population (§7.2)",
        gain(div1, 0.9) > gain(div1, 0.3) && gain(gf, 0.9) > gain(gf, 0.3),
        format!(
            "DIV-1 gain 0.3 -> 0.9: {:.3} -> {:.3}; GF: {:.3} -> {:.3}",
            gain(div1, 0.3),
            gain(div1, 0.9),
            gain(gf, 0.3),
            gain(gf, 0.9)
        ),
    );
}

fn fig11_claims(fig: &[Series], no_abort: &[Series], out: &mut Vec<ClaimResult>) {
    let g = |f: &[Series], i: usize, l: f64| f[i].at_load(l).expect("load in sweep").md_global.mean;
    record(
        out,
        "fig11/abort-helps-everyone",
        "abortion reduces all miss rates by not wasting resources on tardy tasks (§7.3)",
        g(fig, 0, 0.8) < g(no_abort, 0, 0.8) && g(fig, 1, 0.8) < g(no_abort, 1, 0.8),
        format!(
            "UD at 0.8: {:.3} -> {:.3}; DIV-1: {:.3} -> {:.3}",
            g(no_abort, 0, 0.8),
            g(fig, 0, 0.8),
            g(no_abort, 1, 0.8),
            g(fig, 1, 0.8)
        ),
    );
    record(
        out,
        "fig11/gf-overlaps-div1",
        "under PM abortion GF performs very similarly to DIV-1 (§7.3)",
        (g(fig, 2, 0.5) - g(fig, 1, 0.5)).abs() < 0.02,
        format!(
            "DIV-1 {:.3} vs GF {:.3} at load 0.5",
            g(fig, 1, 0.5),
            g(fig, 2, 0.5)
        ),
    );
}

fn fig12_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let (ud, div1, gf) = (&fig[0], &fig[1], &fig[2]);
    let n6 = ud.points[5].md_global.mean;
    let local = ud.points[0].md_global.mean;
    record(
        out,
        "fig12/n6-one-third",
        "under UD, a 6-subtask global misses about one third of deadlines, ~4x the locals (§7.4)",
        (0.25..0.42).contains(&n6) && n6 > 2.5 * local,
        format!("n=6 {:.3}, local {:.3} ({:.1}x)", n6, local, n6 / local),
    );
    let spread = |s: &Series| {
        let rates: Vec<f64> = (1..=5).map(|i| s.points[i].md_global.mean).collect();
        rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min)
    };
    record(
        out,
        "fig12/div1-equalizes",
        "DIV-1 keeps the MD of all task classes at roughly the same level (§7.4)",
        spread(div1) < 0.5 * spread(ud),
        format!(
            "class spread: UD {:.3}, DIV-1 {:.3}",
            spread(ud),
            spread(div1)
        ),
    );
    let gf_better =
        (1..=5).all(|i| gf.points[i].md_global.mean <= div1.points[i].md_global.mean + 0.01);
    record(
        out,
        "fig12/gf-reduces-further",
        "GF further reduces global miss rates to even lower values (§7.4)",
        gf_better,
        format!(
            "n=4: DIV-1 {:.3} vs GF {:.3}",
            div1.points[3].md_global.mean, gf.points[3].md_global.mean
        ),
    );
}

fn fig15_claims(fig: &[Series], out: &mut Vec<ClaimResult>) {
    let g = |i: usize, l: f64| fig[i].at_load(l).expect("load in sweep").md_global.mean;
    record(
        out,
        "fig15/additive",
        "EQF and DIV-1 complement each other; together they dominate (§8)",
        g(1, 0.6) < g(0, 0.6)
            && g(2, 0.6) < g(0, 0.6)
            && g(3, 0.6) < g(1, 0.6)
            && g(3, 0.6) < g(2, 0.6),
        format!(
            "at load 0.6: UD-UD {:.3}, UD-DIV1 {:.3}, EQF-UD {:.3}, EQF-DIV1 {:.3}",
            g(0, 0.6),
            g(1, 0.6),
            g(2, 0.6),
            g(3, 0.6)
        ),
    );
    let p1 = fig[0].at_load(0.1).expect("low load");
    record(
        out,
        "fig15/low-load-slack",
        "at low load global tasks miss slightly less than locals, thanks to their larger slack (§8)",
        p1.md_global.mean <= p1.md_local.mean + 0.005,
        format!(
            "load 0.1: MD_global {:.4} vs MD_local {:.4}",
            p1.md_global.mean, p1.md_local.mean
        ),
    );
    let p6 = fig[3].at_load(0.6).expect("load 0.6");
    record(
        out,
        "fig15/close-to-locals",
        "EQF-DIV1 keeps MD_global close to MD_local up to load 0.6 (§8)",
        p6.md_global.mean < p6.md_local.mean + 0.06,
        format!(
            "load 0.6: MD_global {:.3} vs MD_local {:.3}",
            p6.md_global.mean, p6.md_local.mean
        ),
    );
}

/// The figures the claims read, by registry name, with the function that
/// builds each: the order of [`check`]'s `figures` argument.
pub const FIGURES: [(&str, FigureFn); 8] = [
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig9", figures::fig9),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig15", figures::fig15),
];

/// Evaluates every reproduction claim against the series of the eight
/// [`FIGURES`], in that order, and the in-text checkpoints.
pub fn check(figures: &[Vec<Series>; 8], checkpoints: &[Checkpoint]) -> Vec<ClaimResult> {
    let [fig5, fig6, fig7, fig9, fig10, fig11, fig12, fig15] = figures;
    let mut out = Vec::new();
    fig5_claims(fig5, &mut out);
    fig6_claims(fig6, &mut out);
    fig7_claims(fig7, &mut out);
    fig9_claims(fig9, &mut out);
    fig10_claims(fig10, &mut out);
    fig11_claims(fig11, fig7, &mut out);
    fig12_claims(fig12, &mut out);
    fig15_claims(fig15, &mut out);

    // The in-text numeric checkpoints, each within 3pp of the paper.
    for c in checkpoints {
        let pass = c.abs_error() < 0.03;
        out.push(ClaimResult {
            id: "checkpoint",
            claim: c.name,
            pass,
            detail: format!(
                "paper {:.3}, measured {:.3} ({:+.1}pp)",
                c.paper,
                c.measured,
                100.0 * (c.measured - c.paper)
            ),
        });
    }
    out
}

/// Builds every figure the claims read and the checkpoints at `scale`,
/// then [`check`]s all reproduction claims against them.
pub fn validate(scale: Scale) -> Vec<ClaimResult> {
    let figures = FIGURES.map(|(_, build)| build(scale).series);
    let (_, checkpoints) = checkpoints::run(scale);
    check(&figures, &checkpoints)
}

/// Renders claim results as a table.
pub fn render(results: &[ClaimResult]) -> Table {
    let mut table = Table::new(
        "Reproduction claims (paper statement vs measurement)",
        &["verdict", "id", "claim", "measured"],
    );
    for r in results {
        table.row(&[
            if r.pass { "PASS" } else { "FAIL" }.to_string(),
            r.id.to_string(),
            r.claim.to_string(),
            r.detail.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_pass_at_quick_scale() {
        let results = validate(Scale::Quick);
        assert!(results.len() >= 20, "expected a rich claim set");
        let failures: Vec<&ClaimResult> = results.iter().filter(|r| !r.pass).collect();
        assert!(
            failures.is_empty(),
            "failing claims: {:#?}",
            failures
                .iter()
                .map(|r| format!("{}: {} ({})", r.id, r.claim, r.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn render_lists_every_claim() {
        let results = vec![
            ClaimResult {
                id: "demo",
                claim: "demo claim",
                pass: true,
                detail: "x".into(),
            },
            ClaimResult {
                id: "demo2",
                claim: "other claim",
                pass: false,
                detail: "y".into(),
            },
        ];
        let t = render(&results);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, 0), Some("PASS"));
        assert_eq!(t.cell(1, 0), Some("FAIL"));
    }
}
