//! How `sda run`/`compare`/`sweep` fail: a failed replication is a run
//! error (exit status 1) naming the first failed point, its replication
//! and its seed, not a panic; a configuration or stop rule the sweep
//! rejects stays a usage error (exit status 2).

use sda_cli::CliError;
use sda_sim::runner::test_hooks;
use sda_sim::{SimConfig, StopRule, Sweep, SweepPoint};
use sda_simcore::rng::derive_seed;

fn quick() -> SimConfig {
    SimConfig {
        duration: 1_000.0,
        warmup: 50.0,
        ..SimConfig::baseline()
    }
}

fn cli_error(sweep: &Sweep) -> CliError {
    CliError::from(sweep.execute().expect_err("the sweep fails"))
}

#[test]
fn a_failed_replication_is_a_run_error_naming_the_first_failed_point() {
    // An exotic base seed no other test uses: the armed panic seed is
    // process-global. Points 1 and 2 share it, so both fail at
    // replication 1, and the error names point 1 at any jobs level.
    let base = 0x00C1_1FA1_0000_0001;
    let armed = derive_seed(base, 1);
    test_hooks::panic_on_seed(armed);
    let sweep = Sweep::new()
        .point(SweepPoint::new(quick(), 42))
        .point(SweepPoint::new(quick().with_load(0.3), base))
        .point(SweepPoint::new(quick().with_load(0.6), base))
        .jobs(2);
    let error = cli_error(&sweep);
    test_hooks::clear();
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
    let error = cli_error(&sweep);
    assert!(matches!(error, CliError::Usage(_)), "{error:?}");
    assert_eq!(error.exit_code(), 2);
}

#[test]
fn a_wrong_stop_rule_is_a_usage_error() {
    let sweep = Sweep::new().point(SweepPoint::new(quick(), 42).stop(StopRule::FixedReps(0)));
    let error = cli_error(&sweep);
    assert_eq!(error.exit_code(), 2);
    assert!(error.to_string().contains("replication"), "{error}");
}
