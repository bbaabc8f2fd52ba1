//! How `sda run`/`compare`/`sweep` fail: a failed replication is a run
//! error (exit status 1) naming the point, replication and seed, not a
//! panic; a configuration the sweep rejects stays a usage error (exit
//! status 2).

use sda_cli::{exec, CliError};
use sda_sim::runner::test_hooks;
use sda_sim::{SimConfig, Sweep, SweepPoint};
use sda_simcore::rng::derive_seed;

fn quick() -> SimConfig {
    SimConfig {
        duration: 1_000.0,
        warmup: 50.0,
        ..SimConfig::baseline()
    }
}

#[test]
fn a_failed_replication_is_a_run_error_naming_point_rep_and_seed() {
    // An exotic base seed no other test uses: the armed panic seed is
    // process-global.
    let base = 0x00C1_1FA1_0000_0001;
    let armed = derive_seed(base, 1);
    test_hooks::panic_on_seed(armed);
    let sweep = Sweep::new()
        .point(SweepPoint::new(quick(), 42))
        .point(SweepPoint::new(quick().with_load(0.3), base))
        .jobs(2);
    let result = exec::execute(&sweep);
    test_hooks::clear();
    let error = result.expect_err("the armed replication fails");
    assert!(matches!(error, CliError::Run(_)), "{error:?}");
    assert_eq!(error.exit_code(), 1);
    let shown = error.to_string();
    for part in [
        "point 1",
        "rep 1",
        &format!("seed {armed}"),
        "injected panic",
    ] {
        assert!(shown.contains(part), "{shown:?} lacks {part:?}");
    }
}

#[test]
fn a_rejected_configuration_is_a_usage_error() {
    let sweep = Sweep::new().point(SweepPoint::new(quick().with_load(-1.0), 42));
    let error = exec::execute(&sweep).expect_err("negative load is rejected");
    assert!(matches!(error, CliError::Usage(_)), "{error:?}");
    assert_eq!(error.exit_code(), 2);
}

#[test]
fn healthy_points_come_back_in_order() {
    let sweep = Sweep::new()
        .point(SweepPoint::new(quick().with_load(0.3), 7))
        .point(SweepPoint::new(quick().with_load(0.6), 7));
    let results = exec::execute(&sweep).unwrap();
    let direct = sweep.execute().unwrap();
    assert_eq!(results.len(), 2);
    for (a, b) in results.iter().zip(&direct) {
        assert_eq!(a.stats().to_json(), b.stats().to_json());
    }
}
