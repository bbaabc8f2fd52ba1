//! The text form of a configuration, through its public surface:
//! `SimConfig::from_text`, `SimConfig::set`, `SimConfig::to_text` and
//! `parse_strategy`. Every spelling the `sda` tool has accepted still
//! reads, and each error names its key or line. (The round trip over
//! generated configurations is in `cache_key.rs`.)

use sda_core::{EstimationModel, PspStrategy, SdaStrategy, SspStrategy, DEFAULT_GF_DELTA};
use sda_sched::Policy;
use sda_sim::{
    parse_strategy, AbortPolicy, CrashPolicy, GlobalShape, Placement, ResubmitPolicy, ServiceShape,
    SimConfig,
};

/// The baseline with one setting applied.
fn with(key: &str, value: &str) -> Result<SimConfig, String> {
    let mut cfg = SimConfig::baseline();
    cfg.set(key, value)?;
    Ok(cfg)
}

#[test]
fn parses_a_full_config() {
    let text = "\
# the §8 experiment
nodes        = 6
load         = 0.6      # intermediate load
frac_local   = 0.75
shape        = figure14
strategy     = EQF-DIV1
global_slack = 6.25..25
duration     = 50000
warmup       = 500
";
    let cfg = SimConfig::from_text(text).unwrap();
    assert_eq!(cfg.nodes, 6);
    assert_eq!(cfg.load, 0.6);
    assert_eq!(cfg.shape, GlobalShape::figure14());
    assert_eq!(cfg.strategy, SdaStrategy::eqf_div1());
    assert_eq!((cfg.global_slack.lo(), cfg.global_slack.hi()), (6.25, 25.0));
    assert_eq!(cfg.duration, 50_000.0);
    assert!(cfg.validate().is_ok());
}

#[test]
fn defaults_are_the_baseline_and_comments_are_ignored() {
    assert_eq!(SimConfig::from_text("").unwrap(), SimConfig::baseline());
    let cfg = SimConfig::from_text("\n# comment only\n\n  load = 0.3  # trailing\n").unwrap();
    assert_eq!(cfg.load, 0.3);
}

#[test]
fn the_written_text_reads_back() {
    for cfg in [SimConfig::baseline(), SimConfig::section8()] {
        let text = cfg.to_text();
        assert_eq!(text.lines().count(), 24, "{text}");
        assert_eq!(SimConfig::from_text(&text).unwrap(), cfg, "{text}");
    }
    // A line set twice keeps its last value, so overrides append.
    let text = format!("{}load=0.7\n", SimConfig::baseline().to_text());
    assert_eq!(SimConfig::from_text(&text).unwrap().load, 0.7);
}

#[test]
fn every_spelling_applies() {
    let cfg = |key, value| with(key, value).unwrap();
    assert_eq!(cfg("mu_local", "2.0").mu_local, 2.0);
    assert_eq!(cfg("mu_subtask", "0.5").mu_subtask, 0.5);
    let slack = cfg("slack", " 1 .. 2 ").local_slack;
    assert_eq!((slack.lo(), slack.hi()), (1.0, 2.0));
    for (spelling, policy) in [
        ("edf", Policy::Edf),
        ("FCFS", Policy::Fcfs),
        ("sjf", Policy::Sjf),
        ("llf", Policy::Llf),
    ] {
        assert_eq!(cfg("scheduler", spelling).scheduler, policy);
    }
    for (spelling, preemptive) in [
        ("true", true),
        ("YES", true),
        ("1", true),
        ("false", false),
        ("no", false),
        ("0", false),
    ] {
        assert_eq!(cfg("preemptive", spelling).preemptive, preemptive);
    }
    assert_eq!(
        cfg("speeds", "1, 2, 1, 1, 0.5, 0.5").node_speeds,
        [1.0, 2.0, 1.0, 1.0, 0.5, 0.5]
    );
    assert!(cfg("speeds", "").node_speeds.is_empty());
    for (spelling, shape) in [
        ("exponential", ServiceShape::Exponential),
        ("exp", ServiceShape::Exponential),
        ("deterministic", ServiceShape::Deterministic),
        ("constant", ServiceShape::Deterministic),
        ("uniform", ServiceShape::UniformSpread),
    ] {
        assert_eq!(cfg("service_shape", spelling).service_shape, shape);
    }
    for (spelling, placement) in [
        ("random", Placement::RandomDistinct),
        ("random-distinct", Placement::RandomDistinct),
        ("least-loaded", Placement::LeastLoaded),
        ("jsq", Placement::LeastLoaded),
    ] {
        assert_eq!(cfg("placement", spelling).placement, placement);
    }
    for (spelling, abort) in [
        ("none", AbortPolicy::None),
        ("PM", AbortPolicy::ProcessManager),
        ("process-manager", AbortPolicy::ProcessManager),
        (
            "local",
            AbortPolicy::LocalScheduler {
                resubmit: ResubmitPolicy::OnceWithRealDeadline,
            },
        ),
        (
            "local-drop",
            AbortPolicy::LocalScheduler {
                resubmit: ResubmitPolicy::Never,
            },
        ),
    ] {
        assert_eq!(cfg("abort", spelling).abort, abort);
    }
    for (spelling, estimation) in [
        ("exact", EstimationModel::Exact),
        ("factor:2", EstimationModel::uniform_factor(2.0)),
        ("bias:0.5", EstimationModel::bias(0.5)),
        ("mean:1", EstimationModel::ClassMean { mean: 1.0 }),
    ] {
        assert_eq!(cfg("estimation", spelling).estimation, estimation);
    }
    let burst = cfg("burst", "50, 0.2, 3").burst.expect("set");
    assert_eq!(
        (burst.period, burst.on_fraction, burst.boost),
        (50.0, 0.2, 3.0)
    );
    assert_eq!(cfg("burst", "none").burst, None);
}

#[test]
fn shapes_parse() {
    let shape = |value| with("shape", value).unwrap().shape;
    assert_eq!(shape("parallel:4"), GlobalShape::ParallelFixed { n: 4 });
    assert_eq!(
        shape("uniform:2-6"),
        GlobalShape::ParallelUniform { lo: 2, hi: 6 }
    );
    assert_eq!(shape("FIGURE14"), GlobalShape::figure14());
    match shape("spec:[a [b || c] d]") {
        GlobalShape::Spec(s) => {
            assert_eq!(s.simple_count(), 4);
            assert_eq!(s.stage_count(), 3);
        }
        other => panic!("expected spec shape, got {other:?}"),
    }
}

#[test]
fn strategies_parse_table2_labels_and_variants() {
    for s in SdaStrategy::table2() {
        assert_eq!(parse_strategy(&s.label()).unwrap(), s);
    }
    let s = parse_strategy("eqs-div2.5").unwrap();
    assert_eq!(s.ssp, SspStrategy::Eqs);
    assert_eq!(s.psp, PspStrategy::div(2.5));
    assert_eq!(
        parse_strategy("UD-DIV-4").unwrap().psp,
        PspStrategy::div(4.0)
    );
    assert_eq!(parse_strategy("ED-GF").unwrap().psp, PspStrategy::gf());
    assert_eq!(
        parse_strategy("UD-GF1000").unwrap().psp,
        PspStrategy::Gf { delta: 1000.0 }
    );
    // The factor reads exactly; `PspStrategy::label` would round it.
    let x = 2.000_000_000_000_1;
    assert_eq!(
        parse_strategy(&format!("UD-DIV{x:?}")).unwrap().psp,
        PspStrategy::div(x)
    );
}

#[test]
fn strategies_write_the_spellings_that_read_back() {
    let written = |psp| {
        let cfg = SimConfig::baseline().with_strategy(SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp,
        });
        let text = cfg.to_text();
        assert_eq!(SimConfig::from_text(&text).unwrap(), cfg);
        let line = text.lines().find_map(|l| l.strip_prefix("strategy="));
        line.expect("a strategy line").to_string()
    };
    assert_eq!(written(PspStrategy::Ud), "EQF-UD");
    assert_eq!(written(PspStrategy::gf()), "EQF-GF");
    assert_eq!(written(PspStrategy::Gf { delta: 1000.0 }), "EQF-GF1000.0");
    assert_eq!(written(PspStrategy::div(1.0)), "EQF-DIV1.0");
    assert_eq!(
        written(PspStrategy::div(2.000_000_000_000_1)),
        "EQF-DIV2.0000000000001"
    );
    assert_eq!(written(PspStrategy::div(1e-5)), "EQF-DIV1e-5");
    assert_eq!(DEFAULT_GF_DELTA, 1e9);
}

#[test]
fn malformed_values_name_their_problem() {
    for (key, value) in [
        ("strategy", "EQF"),
        ("strategy", "XX-UD"),
        ("strategy", "UD-DIVx"),
        ("strategy", "UD-DIV0"),
        ("strategy", "UD-DIV-0"),
        ("strategy", "UD-GF-5"),
        ("strategy", "UD-GFinf"),
        ("shape", "parallel:x"),
        ("shape", "uniform:6"),
        ("shape", "spec:[a ||]"),
        ("shape", "circle"),
        ("slack", "5"),
        ("slack", "5..1"),
        ("abort", "sometimes"),
        ("estimation", "magic"),
        ("estimation", "factor:0.5"),
        ("placement", "psychic"),
        ("burst", "50,0.2"),
        ("burst", "50,0.2,9"),
        ("speeds", "1,,2"),
    ] {
        let err = with(key, value).unwrap_err();
        assert!(
            err.starts_with(&format!("bad value for {key}: ")),
            "{key}={value}: {err}"
        );
    }
}

#[test]
fn fault_keys_apply_and_validate() {
    let text = "\
fault_mttf      = 500
fault_mttr      = 25
fault_crash     = requeue
fault_straggler = 0.05, 4
fault_comm      = 0.02, 0.5
";
    let cfg = SimConfig::from_text(text).unwrap();
    assert_eq!((cfg.fault.mttf, cfg.fault.mttr), (500.0, 25.0));
    assert_eq!(cfg.fault.crash_policy, CrashPolicy::RequeueSubtask);
    assert_eq!(
        (cfg.fault.straggler_prob, cfg.fault.straggler_factor),
        (0.05, 4.0)
    );
    assert_eq!(
        (cfg.fault.comm_delay_prob, cfg.fault.comm_delay_mean),
        (0.02, 0.5)
    );
    assert!(cfg.fault.any_enabled());
    assert!(cfg.validate().is_ok());
    for bad in [
        "fault_mttf = soon",
        "fault_crash = explode",
        "fault_straggler = 0.05",
        "fault_straggler = 0.05,many",
        "fault_comm = always,1",
    ] {
        let err = SimConfig::from_text(bad).unwrap_err();
        let key = bad.split('=').next().unwrap().trim();
        let prefix = format!("bad value for {key}: ");
        assert!(err.starts_with(&prefix), "{bad:?} -> {err}");
    }
    // A negative rate reads, and validation rejects it by name.
    let cfg = SimConfig::from_text("fault_mttf = -1").unwrap();
    assert!(cfg.validate().unwrap_err().to_string().contains("mttf"));
}

#[test]
fn errors_carry_context() {
    assert_eq!(
        SimConfig::from_text("load = 0.5\noops"),
        Err("line 2: expected `key = value`, got \"oops\"".into())
    );
    assert_eq!(
        SimConfig::from_text("speed_of_light = 3e8"),
        Err("unknown setting \"speed_of_light\"".into())
    );
    assert_eq!(
        with("load", "fast"),
        Err("bad value for load: not a number: \"fast\"".into())
    );
}

#[test]
fn key_help_lists_the_written_keys_in_order() {
    let help = SimConfig::key_help();
    let listed: Vec<&str> = help
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter(|l| !l.starts_with(' '))
        .map(|l| l.split(" = ").next().unwrap())
        .collect();
    let text = SimConfig::section8().to_text();
    let written: Vec<&str> = text.lines().map(|l| l.split('=').next().unwrap()).collect();
    assert_eq!(listed, written, "{help}");
    assert!(help.contains("GFΔ") && help.contains("DIVx"), "{help}");
    // An enum's listed syntax is the set of spellings its reader names.
    let mut enums = 0;
    for line in help.lines().filter_map(|l| l.strip_prefix("  ")) {
        let Some((key, rest)) = line.split_once(" = ") else {
            continue;
        };
        let syntax = rest.split_whitespace().next().unwrap();
        let err = with(key, "?").unwrap_err();
        let named = err.strip_prefix(&format!("bad value for {key}: expected "));
        if let Some((choices, _)) = named.and_then(|n| n.split_once(", got")) {
            if !choices.contains('`') {
                assert_eq!(choices, syntax, "{key}");
                enums += 1;
            }
        }
    }
    assert_eq!(enums, 6, "{help}");
}
