//! The umbrella reproduction's artifacts are byte-identical however the
//! sweep engine executes them: sequentially, on a work-stealing pool, or
//! replayed from a warm disk cache. This is the repo's end-to-end pin on
//! the engine's determinism contract.
//!
//! The sequential render is also compared with a committed copy,
//! `tests/golden/quick_artifacts.txt`, so a change to the harness that
//! moves any cell fails here and the diff names the cell. To regenerate
//! after an *intentional* change to what the artifacts report:
//!
//! ```text
//! SDA_REGEN_GOLDEN=1 cargo test -p sda-experiments --test repro_determinism
//! ```

use sda_experiments::repro::artifacts;
use sda_experiments::run::{with_exec, Exec};
use sda_experiments::Scale;

/// Renders every quick-scale artifact (display form plus CSV bytes) into
/// one string.
fn render_all() -> String {
    let mut out = String::new();
    for (name, table) in artifacts(Scale::Quick) {
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
    let warm = with_exec(warm_exec.clone(), render_all);
    assert_eq!(
        sequential, warm,
        "a warm cache replay must render byte-identical artifacts"
    );
    let report = warm_exec
        .cache_report()
        .expect("cached execution has a report");
    assert_eq!(report.misses, 0, "warm run must not simulate: {report}");
    assert!(report.hits() > 0, "warm run must actually hit: {report}");

    std::fs::remove_dir_all(&dir).ok();
}
