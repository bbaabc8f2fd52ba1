//! The umbrella reproduction's artifacts are byte-identical however the
//! sweep engine executes them: sequentially, on a work-stealing pool, or
//! replayed from a warm disk cache. This is the repo's end-to-end pin on
//! the engine's determinism contract. The warm replay also pins how many
//! points the report resolves: the claim checks read the figures and
//! checkpoints the report built, and the standalone
//! [`claims::validate`] renders the same claims table.
//!
//! The sequential render is also compared with a committed copy,
//! `tests/golden/quick_artifacts.txt`, so a change to the harness that
//! moves any cell fails here and the diff names the cell. To regenerate
//! after an *intentional* change to what the artifacts report:
//!
//! ```text
//! SDA_REGEN_GOLDEN=1 cargo test -p sda-experiments --test repro_determinism
//! ```

use sda_experiments::claims;
use sda_experiments::repro::artifacts;
use sda_experiments::run::{with_exec, Exec};
use sda_experiments::{Scale, Table};

/// Renders every quick-scale artifact (display form plus CSV bytes) into
/// one string.
fn render_all() -> String {
    render(&artifacts(Scale::Quick))
}

/// Renders `artifacts` (display form plus CSV bytes) into one string.
fn render(artifacts: &[(&str, Table)]) -> String {
    let mut out = String::new();
    for (name, table) in artifacts {
        out.push_str(name);
        out.push('\n');
        out.push_str(&format!("{table}"));
        out.push('\n');
        out.push_str(&table.to_csv());
        out.push('\n');
    }
    out
}

/// Compares `actual` with the committed quick-artifact golden, or
/// rewrites the golden when `SDA_REGEN_GOLDEN` is set.
fn check_or_regen_golden(actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("quick_artifacts.txt");
    if std::env::var_os("SDA_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); see module docs", path.display()));
    assert_eq!(
        expected, actual,
        "quick artifacts drifted from the golden: the same configurations and \
         seeds must render byte-identical reports"
    );
}

#[test]
fn quick_artifacts_are_identical_across_jobs_and_cache_state() {
    let dir = std::env::temp_dir().join(format!("sda-repro-determinism-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Sequential, no cross-point memoization at all.
    let sequential = with_exec(Exec::sweep_uncached().with_jobs(1), render_all);
    check_or_regen_golden(&sequential);

    // Work-stealing pool, cold disk cache: every simulated point lands in
    // `dir` as it completes.
    let parallel_cold = with_exec(
        Exec::sweep_with_dir(&dir)
            .expect("create cache dir")
            .with_jobs(4),
        render_all,
    );
    assert_eq!(
        sequential, parallel_cold,
        "jobs=4 must render byte-identical artifacts to jobs=1"
    );

    // A fresh execution context over the same directory: everything must
    // replay from disk without simulating, still byte-identical.
    let warm_exec = Exec::sweep_with_dir(&dir).expect("reopen cache dir");
    let warm_artifacts = with_exec(warm_exec.clone(), || artifacts(Scale::Quick));
    assert_eq!(
        sequential,
        render(&warm_artifacts),
        "a warm cache replay must render byte-identical artifacts"
    );
    let report = warm_exec
        .cache_report()
        .expect("cached execution has a report");
    assert_eq!(report.misses, 0, "warm run must not simulate: {report}");
    assert!(report.hits() > 0, "warm run must actually hit: {report}");
    assert_eq!(
        (report.points(), report.hits_disk, report.hits_memory),
        (265, 207, 58),
        "the warm report must resolve each point once: claims must reuse \
         the report's figures and checkpoints, not measure them again: {report}"
    );

    // The standalone claim check builds its own inputs and runs the same
    // checker: it must render the claims table the report built.
    let standalone = with_exec(warm_exec, || {
        claims::render(&claims::validate(Scale::Quick))
    });
    let (_, reused) = warm_artifacts
        .iter()
        .find(|(name, _)| *name == "claims")
        .expect("the report has a claims artifact");
    assert_eq!(
        &standalone, reused,
        "claims::validate must render the claims table of the report"
    );

    std::fs::remove_dir_all(&dir).ok();
}
