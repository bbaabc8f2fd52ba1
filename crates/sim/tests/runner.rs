//! Runner tests: determinism across `jobs` levels, stopping rules,
//! stats.json schema, and the trace threading of replication 0.

use sda_sim::runner::test_hooks;
use sda_sim::trace::{CountingSink, RingBufferSink, SharedSink};
use sda_sim::{MultiRun, RunError, RunResult, Runner, SimConfig, Simulation, StopRule, SweepError};
use sda_simcore::rng::derive_seed;
use sda_simcore::stats::Estimate;
use sda_simcore::{Engine, SimTime};

fn quick() -> SimConfig {
    SimConfig {
        duration: 3_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    }
}

#[test]
fn runner_fixed_reps_produces_results() {
    let multi = Runner::new(quick())
        .seed(5)
        .stop(StopRule::FixedReps(2))
        .execute()
        .unwrap();
    assert_eq!(multi.runs().len(), 2);
    let r = &multi.runs()[0];
    assert!(r.events > 10_000);
    assert_eq!(r.node_stats.len(), 6);
    assert!(r.metrics.local_count() > 1_000);
    assert!((r.utilization() - 0.5).abs() < 0.08, "{}", r.utilization());
    assert_eq!(r.seed, derive_seed(5, 0));
    assert_eq!(multi.runs()[1].seed, derive_seed(5, 1));
    // Utilization is the mean of the nodes' busy fractions.
    let busy: f64 = r.node_stats.iter().map(|s| s.busy()).sum();
    assert_eq!(r.utilization(), busy / (6.0 * r.duration));
}

#[test]
fn runner_rejects_invalid_config() {
    let bad = quick().with_load(2.0);
    assert!(Runner::new(bad).execute().is_err());
}

#[test]
fn runner_is_deterministic_across_jobs() {
    // The core guarantee: jobs=1 and jobs=8 are bit-identical.
    let base = Runner::new(quick()).seed(42).stop(StopRule::FixedReps(4));
    let serial = base.clone().jobs(1).execute().unwrap();
    let parallel = base.clone().jobs(8).execute().unwrap();
    assert_eq!(serial.runs().len(), parallel.runs().len());
    for (a, b) in serial.runs().iter().zip(parallel.runs()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.metrics.md_local().to_bits(),
            b.metrics.md_local().to_bits()
        );
        assert_eq!(
            a.metrics.md_global().to_bits(),
            b.metrics.md_global().to_bits()
        );
        let busy = |r: &RunResult| r.node_stats.iter().map(|s| s.busy()).collect::<Vec<_>>();
        assert_eq!(busy(a), busy(b));
    }
}

#[test]
fn runner_ci_width_stops_when_converged() {
    // Low-variance config: MD estimates agree closely across seeds,
    // so a loose target is met at the floor.
    let multi = Runner::new(quick())
        .seed(7)
        .stop(StopRule::CiWidth {
            target: 50.0,
            min_reps: 2,
            max_reps: 32,
        })
        .execute()
        .unwrap();
    assert_eq!(multi.runs().len(), 2, "loose target must stop at the floor");
    // And the cap binds under an unattainable target.
    let capped = Runner::new(quick())
        .seed(7)
        .stop(StopRule::CiWidth {
            target: 1e-9,
            min_reps: 2,
            max_reps: 5,
        })
        .execute()
        .unwrap();
    assert_eq!(capped.runs().len(), 5, "hard cap must bind");
}

#[test]
fn runner_ci_width_rep_counts_match_across_jobs() {
    let base = Runner::new(quick()).seed(11).stop(StopRule::CiWidth {
        target: 0.05,
        min_reps: 2,
        max_reps: 8,
    });
    let serial = base.clone().jobs(1).execute().unwrap();
    let parallel = base.clone().jobs(4).execute().unwrap();
    assert_eq!(serial.runs().len(), parallel.runs().len());
    let a = serial.md_local();
    let b = parallel.md_local();
    assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
}

#[test]
fn runner_explicit_seeds_override_derivation() {
    let multi = Runner::new(quick())
        .with_seeds(vec![3, 9])
        .stop(StopRule::FixedReps(2))
        .execute()
        .unwrap();
    assert_eq!(multi.runs()[0].seed, 3);
    assert_eq!(multi.runs()[1].seed, 9);
    // Explicit lists cap the replication budget.
    let capped = Runner::new(quick())
        .with_seeds(vec![3, 9])
        .stop(StopRule::FixedReps(10))
        .execute()
        .unwrap();
    assert_eq!(capped.runs().len(), 2);
}

#[test]
fn with_seeds_runs_match_seeded_single_runs() {
    let cfg = quick();
    let multi = Runner::new(cfg.clone())
        .with_seeds(vec![1, 2])
        .stop(StopRule::FixedReps(2))
        .execute()
        .unwrap();
    assert_eq!(multi.runs().len(), 2);
    let solo = Runner::new(cfg)
        .with_seeds(vec![1])
        .stop(StopRule::FixedReps(1))
        .execute()
        .unwrap();
    assert_eq!(
        multi.runs()[0].metrics.md_local(),
        solo.runs()[0].metrics.md_local(),
        "threaded replication must equal the sequential run"
    );
}

#[test]
fn estimates_have_uncertainty_with_two_runs() {
    let multi = Runner::new(quick())
        .with_seeds(vec![1, 2])
        .stop(StopRule::FixedReps(2))
        .execute()
        .unwrap();
    let e = multi.md_local();
    assert!(e.mean > 0.0);
    assert!(e.half_width > 0.0);
    let pooled = multi.pooled_metrics();
    assert_eq!(
        pooled.local_count(),
        multi.runs()[0].metrics.local_count() + multi.runs()[1].metrics.local_count()
    );
}

#[test]
fn stats_report_covers_schema() {
    let fixed = Runner::new(quick())
        .seed(1)
        .stop(StopRule::FixedReps(2))
        .execute()
        .unwrap();
    // An unattainable target runs rounds of 2, 2 and 1 up to the cap.
    let adaptive = Runner::new(quick())
        .seed(7)
        .stop(StopRule::CiWidth {
            target: 1e-9,
            min_reps: 2,
            max_reps: 5,
        })
        .execute()
        .unwrap();
    let seeded = Runner::new(quick())
        .with_seeds(vec![3, 9, 27])
        .stop(StopRule::FixedReps(3))
        .execute()
        .unwrap();
    for (multi, reps) in [(&fixed, 2), (&adaptive, 5), (&seeded, 3)] {
        assert_eq!(multi.runs().len(), reps);
        let stats = multi.stats();
        // Each stats.json entry reports the same interval as the
        // matching MultiRun estimator.
        for (name, estimator) in [
            ("md_local", MultiRun::md_local as fn(&MultiRun) -> Estimate),
            ("md_subtask", MultiRun::md_subtask),
            ("md_global", MultiRun::md_global),
            ("missed_work", MultiRun::missed_work),
            ("utilization", MultiRun::utilization),
        ] {
            let s = stats.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.samples, reps as u64, "{name}");
            let (reported, direct) = (s.estimate(), estimator(multi));
            assert!(
                (reported.mean - direct.mean).abs() <= 1e-12
                    && (reported.half_width - direct.half_width).abs() <= 1e-12,
                "{name}: stats {reported:?} vs estimator {direct:?}"
            );
        }
        assert_eq!(stats.per_node().len(), 6);
        for n in stats.per_node() {
            assert!(n.utilization.mean > 0.0 && n.utilization.mean < 1.0);
            assert!(n.mean_queue_len.mean >= 0.0);
            assert_eq!(n.local_miss_rate.samples, reps as u64);
        }
    }
    let json = fixed.stats().to_json();
    assert!(json.contains("\"md_local\": {\"mean\":"));
    assert!(json.contains("\"confidence_interval_95\": ["));
    assert!(json.contains("\"per_node\": ["));
    assert!(json.contains("\"local_miss_rate\""));
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
}

#[test]
fn seeds_are_distinct_and_derived() {
    let s: Vec<u64> = (0..8).map(|i| derive_seed(1000, i)).collect();
    assert_eq!(s.len(), 8);
    let mut dedup = s.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), 8);
    assert_eq!(s[3], derive_seed(1000, 3));
}

#[test]
fn wrong_stop_rules_are_errors_before_any_run() {
    // Replication 0 of every case would panic if it ran. An exotic base
    // seed no other test uses: the armed panic seed is process-global.
    let base = 0x00AD_BEEF_FA17_0100;
    let ci = |target: f64| StopRule::CiWidth {
        target,
        min_reps: 2,
        max_reps: 8,
    };
    let runner = Runner::new(quick()).seed(base);
    let cases = [
        (
            runner.clone().stop(StopRule::FixedReps(0)),
            "NoReplications",
        ),
        (runner.clone().with_seeds(vec![]), "NoReplications"),
        (runner.clone().stop(ci(0.0)), "BadCiTarget(0.0)"),
        (runner.clone().stop(ci(f64::NAN)), "BadCiTarget(NaN)"),
    ];
    test_hooks::panic_on_seed(derive_seed(base, 0));
    let results: Vec<_> = cases.iter().map(|(runner, _)| runner.execute()).collect();
    test_hooks::clear();
    for ((_, want), result) in cases.iter().zip(results) {
        let error = result.expect_err(want);
        assert_eq!(format!("{error:?}"), format!("Config({want})"));
    }
}

#[test]
fn a_panicking_replication_is_an_error() {
    // An exotic base seed no other test uses: the armed panic seed is
    // process-global.
    let base = 0x00AD_BEEF_FA17_0101;
    let armed = derive_seed(base, 1);
    test_hooks::panic_on_seed(armed);
    let result = Runner::new(quick())
        .seed(base)
        .jobs(2)
        .stop(StopRule::FixedReps(2))
        .execute();
    test_hooks::clear();
    match result {
        Err(SweepError::Run(RunError::Panic {
            point, rep, seed, ..
        })) => assert_eq!((point, rep, seed), (0, 1, armed)),
        other => panic!("expected a failed replication, got {other:?}"),
    }
}

#[test]
fn trace_goes_to_first_replication_only() {
    let (sink, handle) = CountingSink::with_handle();
    let shared = SharedSink::new(Box::new(sink));
    let multi = Runner::new(quick())
        .seed(3)
        .jobs(2)
        .stop(StopRule::FixedReps(3))
        .trace(shared)
        .execute()
        .unwrap();
    assert_eq!(multi.runs().len(), 3);
    let counts = handle.counts();
    assert!(counts.total() > 0, "replication 0 must be traced");
    // The trace equals a solo run of replication 0's seed.
    let (solo_sink, solo_handle) = CountingSink::with_handle();
    let mut sim = Simulation::new(quick(), derive_seed(3, 0)).unwrap();
    sim.set_sink(Box::new(solo_sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(quick().duration));
    assert_eq!(counts, solo_handle.counts());
}

#[test]
fn traced_runner_output_is_jobs_invariant() {
    let jsonl_of = |jobs: usize| {
        let (sink, handle) = RingBufferSink::with_handle(usize::MAX);
        let shared = SharedSink::new(Box::new(sink));
        Runner::new(quick())
            .seed(21)
            .jobs(jobs)
            .stop(StopRule::FixedReps(3))
            .trace(shared)
            .execute()
            .unwrap();
        let mut out = String::new();
        for r in handle.records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    };
    let a = jsonl_of(1);
    let b = jsonl_of(4);
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes(), "trace must be byte-identical");
}

#[test]
fn tracing_does_not_change_results() {
    let base = Runner::new(quick()).seed(8).stop(StopRule::FixedReps(2));
    let plain = base.clone().execute().unwrap();
    let (sink, _handle) = CountingSink::with_handle();
    let traced = base
        .clone()
        .trace(SharedSink::new(Box::new(sink)))
        .execute()
        .unwrap();
    for (a, b) in plain.runs().iter().zip(traced.runs()) {
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.metrics.md_local().to_bits(),
            b.metrics.md_local().to_bits()
        );
    }
}

#[test]
fn wall_time_is_measured_but_kept_out_of_stats() {
    let multi = Runner::new(quick())
        .seed(3)
        .stop(StopRule::FixedReps(2))
        .execute()
        .unwrap();
    for r in multi.runs() {
        assert!(r.wall_secs > 0.0, "the engine loop takes measurable time");
    }
    // The report's bytes are the golden-determinism contract, so no
    // wall-clock entry enters it.
    assert!(!multi.stats().to_json().contains("per_sec"));
}
