//! Configuration and validation tests (moved out of `config.rs` to keep
//! the module focused; everything here goes through the public API).

use sda_core::{EstimationModel, PspStrategy, SdaStrategy, SspStrategy};
use sda_sched::Policy;
use sda_sim::{
    AbortPolicy, Burst, ConfigError, CrashPolicy, FaultConfig, GlobalShape, ResubmitPolicy,
    ServiceShape, SimConfig, Simulation,
};
use sda_simcore::dist::Uniform;
use sda_simcore::{Engine, SimTime};

#[test]
fn baseline_matches_table1() {
    let cfg = SimConfig::baseline();
    assert_eq!(cfg.nodes, 6);
    assert_eq!(cfg.load, 0.5);
    assert_eq!(cfg.frac_local, 0.75);
    assert_eq!(cfg.mu_local, 1.0);
    assert_eq!(cfg.mu_subtask, 1.0);
    assert_eq!(cfg.local_slack, Uniform::new(1.25, 5.0));
    assert_eq!(cfg.shape, GlobalShape::ParallelFixed { n: 4 });
    assert_eq!(cfg.scheduler, Policy::Edf);
    assert_eq!(cfg.abort, AbortPolicy::None);
    assert!(cfg.validate().is_ok());
}

#[test]
fn rate_derivation_satisfies_load_identity() {
    for load in [0.1, 0.5, 0.9] {
        for frac in [0.0, 0.25, 0.75, 1.0] {
            let cfg = SimConfig {
                load,
                frac_local: frac,
                ..SimConfig::baseline()
            };
            assert!(
                (cfg.offered_load() - load).abs() < 1e-12,
                "load {load} frac {frac}: offered {}",
                cfg.offered_load()
            );
        }
    }
}

#[test]
fn baseline_rates_hand_check() {
    // k=6, load=0.5, frac=0.75, n=4, mu=1:
    // lambda_local = 0.375 per node; lambda_global = 0.125*6/4 = 0.1875.
    let cfg = SimConfig::baseline();
    assert!((cfg.lambda_local() - 0.375).abs() < 1e-12);
    assert!((cfg.lambda_global() - 0.1875).abs() < 1e-12);
}

#[test]
fn section8_config() {
    let cfg = SimConfig::section8();
    assert_eq!(cfg.shape, GlobalShape::figure14());
    assert_eq!(cfg.global_slack, Uniform::new(6.25, 25.0));
    assert!(cfg.validate().is_ok());
    // 11 leaves per global: lambda_global = 0.125 * 6 / 11.
    assert!((cfg.lambda_global() - 0.75 / 11.0).abs() < 1e-12);
}

#[test]
fn shape_mean_leaf_counts() {
    assert_eq!(GlobalShape::ParallelFixed { n: 4 }.mean_leaf_count(), 4.0);
    assert_eq!(
        GlobalShape::ParallelUniform { lo: 2, hi: 6 }.mean_leaf_count(),
        4.0
    );
    assert_eq!(GlobalShape::figure14().mean_leaf_count(), 11.0);
    assert_eq!(GlobalShape::figure14().max_fanout(), 4);
}

#[test]
fn validation_rejects_bad_configs() {
    let base = SimConfig::baseline();
    assert_eq!(
        SimConfig {
            nodes: 0,
            ..base.clone()
        }
        .validate(),
        Err(ConfigError::NoNodes)
    );
    assert_eq!(
        base.clone().with_load(1.0).validate(),
        Err(ConfigError::BadLoad(1.0))
    );
    assert_eq!(
        SimConfig {
            frac_local: 1.5,
            ..base.clone()
        }
        .validate(),
        Err(ConfigError::BadFracLocal(1.5))
    );
    assert_eq!(
        SimConfig {
            mu_local: 0.0,
            ..base.clone()
        }
        .validate(),
        Err(ConfigError::BadServiceRate("mu_local = 0.0".into()))
    );
    assert!(matches!(
        SimConfig {
            warmup: 1e9,
            ..base.clone()
        }
        .validate(),
        Err(ConfigError::BadHorizon { .. })
    ));
    // Non-finite values used to slip past negative comparisons: NaN
    // panicked mid-replication and an infinite duration never ended.
    for (mu_local, mu_subtask) in [
        (f64::NAN, 1.0),
        (1.0, f64::NAN),
        (f64::INFINITY, 1.0),
        (1.0, f64::INFINITY),
        (-1.0, 1.0),
    ] {
        let err = SimConfig {
            mu_local,
            mu_subtask,
            ..base.clone()
        }
        .validate();
        assert!(
            matches!(&err, Err(ConfigError::BadServiceRate(rate)) if rate.starts_with(if mu_local == 1.0 { "mu_subtask" } else { "mu_local" })),
            "mu_local {mu_local}, mu_subtask {mu_subtask}: {err:?}"
        );
    }
    for (duration, warmup) in [
        (f64::NAN, 100.0),
        (f64::INFINITY, 100.0),
        (1_000.0, f64::NAN),
        (1_000.0, f64::NEG_INFINITY),
        (1_000.0, -1.0),
        (0.0, 0.0),
    ] {
        assert!(
            matches!(
                SimConfig {
                    duration,
                    warmup,
                    ..base.clone()
                }
                .validate(),
                Err(ConfigError::BadHorizon { .. })
            ),
            "duration {duration}, warmup {warmup}"
        );
    }
    assert_eq!(
        SimConfig {
            shape: GlobalShape::ParallelFixed { n: 0 },
            ..base.clone()
        }
        .validate(),
        Err(ConfigError::EmptyShape)
    );
    assert_eq!(
        SimConfig {
            shape: GlobalShape::ParallelFixed { n: 7 },
            ..base.clone()
        }
        .validate(),
        Err(ConfigError::FanoutExceedsNodes {
            fanout: 7,
            nodes: 6
        })
    );
    // ...but a wide shape is fine when there are no globals at all.
    assert!(SimConfig {
        shape: GlobalShape::ParallelFixed { n: 7 },
        frac_local: 1.0,
        ..base
    }
    .validate()
    .is_ok());
}

#[test]
fn preemption_requires_edf() {
    let cfg = SimConfig {
        preemptive: true,
        scheduler: Policy::Fcfs,
        ..SimConfig::baseline()
    };
    assert_eq!(
        cfg.validate(),
        Err(ConfigError::PreemptionNeedsEdf(Policy::Fcfs))
    );
    let ok = SimConfig {
        preemptive: true,
        ..SimConfig::baseline()
    };
    assert!(ok.validate().is_ok());
}

#[test]
fn node_speeds_validation() {
    let base = SimConfig::baseline();
    let wrong_len = SimConfig {
        node_speeds: vec![1.0; 3],
        ..base.clone()
    };
    assert!(matches!(
        wrong_len.validate(),
        Err(ConfigError::BadNodeSpeeds(_))
    ));
    let negative = SimConfig {
        node_speeds: vec![1.0, 1.0, 1.0, 1.0, 1.0, -1.0],
        ..base.clone()
    };
    assert!(matches!(
        negative.validate(),
        Err(ConfigError::BadNodeSpeeds(_))
    ));
    let ok = SimConfig {
        node_speeds: vec![2.0, 2.0, 1.0, 1.0, 0.5, 0.5],
        ..base
    };
    assert!(ok.validate().is_ok());
    assert_eq!(ok.capacity(), 7.0);
}

#[test]
fn per_node_load_matches_system_load_when_homogeneous() {
    let cfg = SimConfig::baseline().with_load(0.7);
    for node in 0..cfg.nodes {
        assert!((cfg.per_node_load(node) - 0.7).abs() < 1e-12);
    }
}

#[test]
fn saturated_slow_node_is_rejected() {
    // The A6 pitfall: a 0.25-speed node carries its 1/k share of
    // global work at 4x cost. At high enough load it saturates even
    // though the system load is < 1.
    let cfg = SimConfig {
        node_speeds: vec![1.75, 1.75, 1.75, 0.25, 0.25, 0.25],
        ..SimConfig::baseline().with_load(0.7)
    };
    // slow node: locals 0.75*0.7 + globals (0.25*0.7*6/6)/0.25 = 1.225
    assert!(cfg.per_node_load(3) >= 1.0);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::NodeSaturated { node: 3, .. })
    ));
    // The same split at load 0.5 is stable and accepted.
    let ok = SimConfig {
        node_speeds: vec![1.75, 1.75, 1.75, 0.25, 0.25, 0.25],
        ..SimConfig::baseline()
    };
    assert!(ok.per_node_load(3) < 1.0);
    assert!(ok.validate().is_ok());
}

#[test]
fn heterogeneous_speeds_preserve_load_identity() {
    let cfg = SimConfig {
        node_speeds: vec![2.0, 2.0, 1.0, 1.0, 0.5, 0.5],
        ..SimConfig::baseline()
    };
    assert!((cfg.offered_load() - 0.5).abs() < 1e-12);
    // Local arrivals are speed-proportional: a 2x node generates 2x
    // the locals of a speed-1 node, so its *local* load is the same.
    assert_eq!(cfg.lambda_local_at(0), 2.0 * cfg.lambda_local());
    assert_eq!(cfg.lambda_local_at(2), cfg.lambda_local());
    assert_eq!(cfg.lambda_local_at(5), 0.5 * cfg.lambda_local());
    // Homogeneous systems reduce to the §5 formula.
    let base = SimConfig::baseline();
    assert_eq!(base.lambda_local_at(3), base.lambda_local());
}

#[test]
fn service_shapes_have_the_requested_mean() {
    use sda_simcore::dist::Sample;
    for shape in [
        ServiceShape::Exponential,
        ServiceShape::Deterministic,
        ServiceShape::UniformSpread,
    ] {
        let d = shape.dist(2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12, "{shape:?}");
    }
    assert_eq!(ServiceShape::default(), ServiceShape::Exponential);
}

#[test]
#[should_panic(expected = "finite and positive")]
fn service_shape_rejects_zero_mean() {
    ServiceShape::Deterministic.dist(0.0);
}

#[test]
fn builder_helpers() {
    let cfg = SimConfig::baseline()
        .with_load(0.7)
        .with_strategy(SdaStrategy::eqf_div1())
        .with_duration(1_000_000.0);
    assert_eq!(cfg.load, 0.7);
    assert_eq!(cfg.strategy, SdaStrategy::eqf_div1());
    assert_eq!(cfg.duration, 1_000_000.0);
}

#[test]
fn error_display() {
    assert_eq!(
        ConfigError::FanoutExceedsNodes {
            fanout: 8,
            nodes: 6
        }
        .to_string(),
        "parallel fan-out 8 exceeds node count 6"
    );
    assert_eq!(
        ConfigError::NoNodes.to_string(),
        "node count must be positive"
    );
}

#[test]
fn validation_rejects_infinite_service_means() {
    let base = SimConfig::baseline();
    // Finite, positive rates whose mean service time 1/μ is infinite.
    for (mu_local, mu_subtask, named) in [
        (1e-320, 1.0, "mu_local = 1e-320"),
        (1.0, 1e-320, "mu_subtask = 1e-320"),
    ] {
        let cfg = SimConfig {
            mu_local,
            mu_subtask,
            ..base.clone()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::BadServiceRate(named.into()))
        );
    }
    // A mean that a slow node's speed makes infinite, and one that a
    // fast node's speed makes zero.
    for (mu_subtask, speed) in [(1e-300, 1e-10), (1e300, 1e10)] {
        let cfg = SimConfig {
            mu_subtask,
            node_speeds: vec![1.0, speed, 1.0, 1.0, 1.0, 1.0],
            ..base.clone()
        };
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadServiceRate(format!("mu_subtask = {mu_subtask:?}"))
        );
        assert!(err.to_string().contains("mu_subtask"), "{err}");
    }
}

#[test]
fn validation_rejects_parameters_the_constructors_reject() {
    let base = SimConfig::baseline();
    for psp in [
        PspStrategy::DivX { x: -2.0 },
        PspStrategy::DivX { x: f64::NAN },
        PspStrategy::Gf { delta: 0.0 },
        PspStrategy::Gf {
            delta: f64::INFINITY,
        },
    ] {
        let cfg = base.clone().with_strategy(SdaStrategy {
            ssp: SspStrategy::Ud,
            psp,
        });
        assert!(
            matches!(cfg.validate(), Err(ConfigError::BadModel(..))),
            "{psp:?}"
        );
    }
    for estimation in [
        EstimationModel::UniformFactor { max_factor: 0.5 },
        EstimationModel::Bias { factor: -1.0 },
        EstimationModel::ClassMean { mean: f64::NAN },
        EstimationModel::ClassMean { mean: -1.0 },
    ] {
        let cfg = SimConfig {
            estimation,
            ..base.clone()
        };
        assert!(
            matches!(cfg.validate(), Err(ConfigError::BadModel(..))),
            "{estimation:?}"
        );
    }
}

#[test]
fn one_child_parallel_specs_are_rejected() {
    use sda_model::TaskSpec::{Parallel, Serial, Simple};
    // `[[T1] T2]` with its first stage a one-child parallel composition
    // writes the same text, and so the same cache key, as the serial one,
    // yet the two simulate differently.
    let serial = Serial(vec![Serial(vec![Simple]), Simple]);
    let parallel = Serial(vec![Parallel(vec![Simple]), Simple]);
    let with = |spec| SimConfig {
        shape: GlobalShape::Spec(spec),
        strategy: SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::div(4.0),
        },
        load: 0.7,
        ..SimConfig::baseline()
    };
    assert_eq!(
        with(serial.clone()).to_text(),
        with(parallel.clone()).to_text()
    );
    assert_eq!(with(serial).validate(), Ok(()));
    let error = with(parallel).validate().unwrap_err();
    assert_eq!(error, ConfigError::OneChildParallel);
    assert!(error.to_string().starts_with("shape:"), "{error}");
    // At the top level and nested deeper alike.
    for spec in [
        Parallel(vec![Simple]),
        Serial(vec![Simple, Parallel(vec![Simple, Parallel(vec![Simple])])]),
    ] {
        assert_eq!(with(spec).validate(), Err(ConfigError::OneChildParallel));
    }
    // The fixed-width shape builds a one-child parallel spec internally
    // and stays valid.
    let one = SimConfig {
        shape: GlobalShape::ParallelFixed { n: 1 },
        ..SimConfig::baseline()
    };
    assert_eq!(one.validate(), Ok(()));
}

/// `expected_events` is the one estimate of a replication's work: the
/// sweep's event budget is a multiple of it. Each row's measured event
/// count must lie within [0.9, 1.2] of it, whatever the fault class,
/// abort policy, burst or speed mix; a new event source that breaks the
/// band belongs in the formula, not in a wider band or budget.
#[test]
fn expected_events_tracks_the_events_of_every_model_feature() {
    let base = SimConfig {
        duration: 20_000.0,
        warmup: 200.0,
        ..SimConfig::baseline()
    };
    let faults = |fault: FaultConfig| {
        [CrashPolicy::AbortTask, CrashPolicy::RequeueSubtask].map(|crash_policy| SimConfig {
            fault: FaultConfig {
                crash_policy,
                ..fault
            },
            ..SimConfig::section8().with_duration(20_000.0)
        })
    };
    let crash = FaultConfig {
        mttf: 200.0,
        mttr: 20.0,
        ..FaultConfig::disabled()
    };
    let straggler = FaultConfig {
        straggler_prob: 0.3,
        straggler_factor: 4.0,
        ..FaultConfig::disabled()
    };
    let comm = FaultConfig {
        comm_delay_prob: 1.0,
        comm_delay_mean: 2.0,
        ..FaultConfig::disabled()
    };
    let mut rows = vec![
        ("load 0.1", base.clone().with_load(0.1)),
        ("load 0.5", base.clone()),
        ("load 0.9", base.clone().with_load(0.9)),
        ("section 8", SimConfig::section8().with_duration(20_000.0)),
        (
            "burst",
            SimConfig {
                burst: Some(Burst {
                    period: 100.0,
                    on_fraction: 0.25,
                    boost: 3.0,
                }),
                ..base.clone()
            },
        ),
        (
            "preemptive EDF",
            SimConfig {
                preemptive: true,
                ..base.clone().with_load(0.9)
            },
        ),
        (
            "local abort, resubmit",
            SimConfig {
                abort: AbortPolicy::LocalScheduler {
                    resubmit: ResubmitPolicy::OnceWithRealDeadline,
                },
                ..base.clone().with_load(0.9)
            },
        ),
        (
            "PM abort",
            SimConfig {
                abort: AbortPolicy::ProcessManager,
                ..base.clone().with_load(0.9)
            },
        ),
        (
            "speeds",
            SimConfig {
                node_speeds: vec![2.0, 2.0, 1.0, 1.0, 0.5, 0.5],
                ..base.clone()
            },
        ),
        // No arrivals, so the crash term alone is the whole estimate.
        (
            "crash cycles alone",
            SimConfig {
                fault: FaultConfig {
                    mttf: 5.0,
                    mttr: 5.0,
                    ..FaultConfig::disabled()
                },
                ..base.clone().with_load(0.0)
            },
        ),
    ];
    for (class, fault) in [("crash", crash), ("straggler", straggler), ("comm", comm)] {
        let [abort, requeue] = faults(fault);
        rows.push((class, abort));
        rows.push((class, requeue));
    }
    for (name, cfg) in rows {
        let cfg = SimConfig {
            warmup: 200.0,
            ..cfg
        };
        let mut sim = Simulation::new(cfg.clone(), 11).expect("valid row");
        let mut engine = Engine::new();
        sim.prime(&mut engine);
        engine.run_until(&mut sim, SimTime::from(cfg.duration));
        let ratio = engine.events_processed() as f64 / cfg.expected_events();
        assert!(
            (0.9..=1.2).contains(&ratio),
            "{name} ({:?}): {} events, {ratio:.3} of the expected {:.0}",
            cfg.fault.crash_policy,
            engine.events_processed(),
            cfg.expected_events()
        );
    }
}
