//! The reproduction as a library: the registry of every artifact the
//! report holds, the one loop that builds them ([`build`]), and the
//! `repro` binary's argument parsing, shared with the determinism test
//! and the sweep benchmark.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::figures::{FigureFn, Series};
use crate::run::{install, Exec};
use crate::table::Table;
use crate::{ablations, checkpoints, claims, extensions, faults, figures, tables, Scale};

/// How one registry entry builds its artifact.
#[derive(Debug, Clone, Copy)]
pub enum Artifact {
    /// A table.
    Table(fn(Scale) -> Table),
    /// A figure, with the x-axis label of its `--plot` chart.
    Figure(FigureFn, &'static str),
    /// The in-text checkpoints ([`checkpoints::run`]).
    Checkpoints,
    /// The claim checks ([`claims::check`]), run against the figures and
    /// checkpoints built before them.
    Claims,
}

/// Every artifact of the report, in report order. The names are the
/// CSV file names `--out` writes and the names `--only` selects.
pub const REGISTRY: [(&str, Artifact); 25] = [
    ("table1", Artifact::Table(|_| tables::table1())),
    ("table2", Artifact::Table(|_| tables::table2())),
    ("fig5", Artifact::Figure(figures::fig5, "load")),
    ("fig6", Artifact::Figure(figures::fig6, "load")),
    ("fig7", Artifact::Figure(figures::fig7, "load")),
    ("fig9", Artifact::Figure(figures::fig9, "x (DIV-x factor)")),
    ("fig10", Artifact::Figure(figures::fig10, "frac_local")),
    ("fig11", Artifact::Figure(figures::fig11, "load")),
    (
        "fig12",
        Artifact::Figure(figures::fig12, "task class (0 = local, else n)"),
    ),
    ("fig15", Artifact::Figure(figures::fig15, "load")),
    ("checkpoints", Artifact::Checkpoints),
    ("a1_local_abort", Artifact::Table(ablations::local_abort)),
    ("a2_sched", Artifact::Table(ablations::sched_policies)),
    ("a3_ssp", Artifact::Table(ablations::ssp_family)),
    ("a4_pex_error", Artifact::Table(ablations::pex_error)),
    ("a5_gf_delta", Artifact::Table(ablations::gf_delta)),
    (
        "a6_heterogeneous",
        Artifact::Table(ablations::heterogeneous_nodes),
    ),
    ("a7_preemption", Artifact::Table(ablations::preemption)),
    (
        "a8_service_shape",
        Artifact::Table(ablations::service_shapes),
    ),
    ("a9_placement", Artifact::Table(ablations::placement)),
    ("a10_burstiness", Artifact::Table(ablations::burstiness)),
    (
        "e1_stages",
        Artifact::Table(|s| extensions::stage_sweep(s).0),
    ),
    (
        "e2_slack",
        Artifact::Table(|s| extensions::slack_sweep(s).0),
    ),
    ("f1_faults", Artifact::Table(|s| faults::mttf_sweep(s).0)),
    // The claim checks read the figures and checkpoints above as the
    // build loop built them; only those `--only` skipped are built for
    // them, unprinted.
    ("claims", Artifact::Claims),
];

/// Parsed `repro` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Experiment scale (`--scale quick|default|paper`, default
    /// `default`).
    pub scale: Scale,
    /// Directory to write per-artifact CSVs into (`--out DIR`).
    pub out: Option<PathBuf>,
    /// On-disk result cache directory (`--cache-dir DIR`), making
    /// repeated reproductions incremental.
    pub cache_dir: Option<PathBuf>,
    /// Disable result caching entirely (`--no-cache`).
    pub no_cache: bool,
    /// The artifacts to run (`--only NAME[,NAME...]`); `None` runs all.
    pub only: Option<Vec<&'static str>>,
    /// Print each selected figure's ASCII chart after its table
    /// (`--plot`).
    pub plot: bool,
}

impl Options {
    /// Whether the artifact `name` is selected.
    pub fn selects(&self, name: &str) -> bool {
        self.only.as_ref().is_none_or(|only| only.contains(&name))
    }
}

/// Resolves a `--only` value against the registry.
fn parse_only(value: &str) -> Result<Vec<&'static str>, String> {
    if value.is_empty() {
        return Err("--only needs at least one artifact name".to_string());
    }
    value
        .split(',')
        .map(|wanted| {
            REGISTRY
                .iter()
                .map(|&(name, _)| name)
                .find(|&name| name == wanted)
                .ok_or_else(|| {
                    let names: Vec<&str> = REGISTRY.iter().map(|&(name, _)| name).collect();
                    format!(
                        "unknown artifact {wanted:?} for --only; valid names: {}",
                        names.join(", ")
                    )
                })
        })
        .collect()
}

/// Parses the `repro` argument list.
///
/// # Errors
///
/// Returns a message naming the offending flag: a flag missing its
/// value, an unknown scale or artifact name, `--cache-dir` combined with
/// `--no-cache`, or an unrecognized argument.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::Default,
        out: None,
        cache_dir: None,
        no_cache: false,
        only: None,
        plot: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale needs a value")?;
                options.scale = Scale::parse(value)?;
            }
            "--out" => {
                options.out = Some(PathBuf::from(iter.next().ok_or("--out needs a directory")?));
            }
            "--cache-dir" => {
                options.cache_dir = Some(PathBuf::from(
                    iter.next().ok_or("--cache-dir needs a directory")?,
                ));
            }
            "--no-cache" => options.no_cache = true,
            "--only" => {
                let value = iter.next().ok_or("--only needs a value")?;
                options
                    .only
                    .get_or_insert_with(Vec::new)
                    .extend(parse_only(value)?);
            }
            "--plot" => options.plot = true,
            other => {
                // A bare scale name is shorthand for `--scale` (`repro quick`).
                options.scale =
                    Scale::parse(other).map_err(|_| format!("unrecognized argument {other:?}"))?;
            }
        }
    }
    if options.no_cache && options.cache_dir.is_some() {
        return Err("--no-cache conflicts with --cache-dir".to_string());
    }
    Ok(options)
}

/// Installs the process-wide execution mode the options ask for.
///
/// # Errors
///
/// Returns the error from creating the cache directory.
pub fn install_exec(options: &Options) -> std::io::Result<()> {
    let exec = if options.no_cache {
        Exec::sweep_uncached()
    } else if let Some(dir) = &options.cache_dir {
        Exec::sweep_with_dir(dir)?
    } else {
        Exec::sweep()
    };
    install(exec);
    Ok(())
}

/// The one build loop of the report, shared by [`artifacts`] and the
/// `repro` binary: builds every artifact `selects` picks, in report
/// order. `start` gets each one's name before it builds, `emit` its
/// table and, with `plot`, a figure's chart after.
///
/// The loop keeps the series of every figure it builds and the
/// checkpoint list, and the claim checks read those instead of measuring
/// them again. A figure or the checkpoints the claims need but `selects`
/// skipped are built when the claims run, and never emitted.
pub fn build(
    scale: Scale,
    plot: bool,
    selects: impl Fn(&str) -> bool,
    mut start: impl FnMut(&'static str),
    mut emit: impl FnMut(&'static str, Table, Option<String>),
) {
    let mut kept_figures: BTreeMap<&str, Vec<Series>> = BTreeMap::new();
    let mut kept_checkpoints = None;
    for &(name, artifact) in &REGISTRY {
        if !selects(name) {
            continue;
        }
        start(name);
        let (table, chart) = match artifact {
            Artifact::Table(build) => (build(scale), None),
            Artifact::Figure(build, x_label) => {
                let result = build(scale);
                let chart = plot.then(|| result.plot(name, x_label));
                kept_figures.insert(name, result.series);
                (result.table, chart)
            }
            Artifact::Checkpoints => {
                let (table, list) = checkpoints::run(scale);
                kept_checkpoints = Some(list);
                (table, None)
            }
            Artifact::Claims => {
                let figures = claims::FIGURES.map(|(figure, build)| {
                    kept_figures
                        .remove(figure)
                        .unwrap_or_else(|| build(scale).series)
                });
                let checkpoints = kept_checkpoints
                    .take()
                    .unwrap_or_else(|| checkpoints::run(scale).1);
                (claims::render(&claims::check(&figures, &checkpoints)), None)
            }
        };
        emit(name, table, chart);
    }
}

/// Runs every table, figure, checkpoint, ablation, extension, and claim
/// check at the given scale, returning the named artifacts in report
/// order.
pub fn artifacts(scale: Scale) -> Vec<(&'static str, Table)> {
    let mut out = Vec::with_capacity(REGISTRY.len());
    build(
        scale,
        false,
        |_| true,
        |_| {},
        |name, table, _| out.push((name, table)),
    );
    out
}

/// Writes each artifact to `DIR/<name>.csv`.
///
/// # Errors
///
/// Returns the first write error, naming the file.
pub fn write_csvs(dir: &std::path::Path, artifacts: &[(&str, Table)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (name, table) in artifacts {
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The claim verdict of a report: `(holding, total)` claims when the
/// `claims` artifact ran, `None` otherwise. `repro` exits with failure
/// when fewer claims hold than were checked.
pub fn claim_tally(artifacts: &[(&str, Table)]) -> Option<(usize, usize)> {
    let (_, claims) = artifacts.iter().find(|(name, _)| *name == "claims")?;
    let total = claims.row_count();
    let holding = (0..total)
        .filter(|&row| claims.cell(row, 0) == Some("PASS"))
        .count();
    Some((holding, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::ClaimResult;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_all_flags() {
        let options = parse_args(&args(&[
            "--scale",
            "quick",
            "--out",
            "report",
            "--cache-dir",
            "cache",
            "--only",
            "fig7,table1",
            "--plot",
        ]))
        .unwrap();
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(options.out.as_deref(), Some(std::path::Path::new("report")));
        assert_eq!(
            options.cache_dir.as_deref(),
            Some(std::path::Path::new("cache"))
        );
        assert!(!options.no_cache);
        assert_eq!(options.only, Some(vec!["fig7", "table1"]));
        assert!(options.plot);
        assert!(options.selects("table1") && !options.selects("fig5"));
    }

    #[test]
    fn parse_errors_name_the_flag() {
        for (argv, needle) in [
            (args(&["--out"]), "--out"),
            (args(&["--scale"]), "--scale"),
            (args(&["--cache-dir"]), "--cache-dir"),
            (args(&["--scale", "galactic"]), "galactic"),
            (args(&["--frobnicate"]), "--frobnicate"),
            (args(&["--scael", "paper"]), "--scael"),
            (args(&["--no-cache", "--cache-dir", "d"]), "--no-cache"),
            (args(&["--only", "fig8"]), "fig8"),
            (args(&["--only", "fig5,nope"]), "a10_burstiness"),
            (args(&["--only", ""]), "--only"),
            (args(&["--only", "fig5,"]), "--only"),
            (args(&["--only"]), "--only"),
        ] {
            let err = parse_args(&argv).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        }
    }

    #[test]
    fn parse_accepts_bare_scale() {
        assert_eq!(parse_args(&args(&["paper"])).unwrap().scale, Scale::Paper);
        let defaults = parse_args(&args(&[])).unwrap();
        assert_eq!(defaults.scale, Scale::Default);
        assert!(defaults.only.is_none() && REGISTRY.iter().all(|(n, _)| defaults.selects(n)));
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn a_failing_claim_fails_the_report() {
        let claim = |id, pass| ClaimResult {
            id,
            claim: "demo claim",
            pass,
            detail: "x".into(),
        };
        let report = |results: &[ClaimResult]| {
            vec![
                ("table1", tables::table1()),
                ("claims", claims::render(results)),
            ]
        };
        assert_eq!(
            claim_tally(&report(&[claim("ok", true), claim("bad", false)])),
            Some((1, 2))
        );
        assert_eq!(claim_tally(&report(&[claim("ok", true)])), Some((1, 1)));
        assert_eq!(claim_tally(&report(&[])[..1]), None, "claims did not run");
    }
}
