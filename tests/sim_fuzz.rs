//! Fuzzing the simulator: random valid configurations must run to their
//! horizon without panicking, and the accounting invariants must hold
//! whatever combination of strategy, shape, scheduler, abortion,
//! placement, speeds, burstiness and injected faults is active.

use proptest::prelude::*;

use sda::prelude::*;
use sda::sim::trace::{Replay, RingBufferSink};
use sda::sim::{CrashPolicy, FaultConfig, Simulation};
use sda::simcore::Engine;

/// Single-replication run through the [`Runner`], with the replication's
/// seed given explicitly (shadows the deprecated free function).
fn run(cfg: &SimConfig, seed: u64) -> Result<RunResult, sda::sim::ConfigError> {
    Ok(Runner::new(cfg.clone())
        .with_seeds(vec![seed])
        .stop(StopRule::FixedReps(1))
        .execute()?
        .runs()[0]
        .clone())
}

use sda::sched::Policy;
use sda::sim::{Burst, Placement, ServiceShape};

fn arb_strategy() -> impl Strategy<Value = SdaStrategy> {
    let ssp = prop_oneof![
        Just(SspStrategy::Ud),
        Just(SspStrategy::Ed),
        Just(SspStrategy::Eqs),
        Just(SspStrategy::Eqf),
    ];
    let psp = prop_oneof![
        Just(PspStrategy::Ud),
        (0.25f64..8.0).prop_map(PspStrategy::div),
        Just(PspStrategy::gf()),
    ];
    (ssp, psp).prop_map(|(ssp, psp)| SdaStrategy { ssp, psp })
}

fn arb_shape() -> impl Strategy<Value = GlobalShape> {
    prop_oneof![
        (1usize..=4).prop_map(|n| GlobalShape::ParallelFixed { n }),
        (1usize..=3, 0usize..=3)
            .prop_map(|(lo, extra)| GlobalShape::ParallelUniform { lo, hi: lo + extra }),
        Just(GlobalShape::figure14()),
        Just(GlobalShape::Spec(
            sda::model::parse_spec("[a [b || c] [d e]]").unwrap()
        )),
    ]
}

fn arb_abort() -> impl Strategy<Value = AbortPolicy> {
    prop_oneof![
        Just(AbortPolicy::None),
        Just(AbortPolicy::ProcessManager),
        Just(AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline
        }),
        Just(AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::Never
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        arb_strategy(),
        arb_shape(),
        arb_abort(),
        0.05f64..0.9, // load
        0.0f64..=1.0, // frac_local
        prop_oneof![
            Just(Policy::Edf),
            Just(Policy::Fcfs),
            Just(Policy::Sjf),
            Just(Policy::Llf)
        ],
        any::<bool>(), // preemptive (EDF only)
        prop_oneof![
            Just(ServiceShape::Exponential),
            Just(ServiceShape::Deterministic),
            Just(ServiceShape::UniformSpread)
        ],
        prop_oneof![
            Just(Placement::RandomDistinct),
            Just(Placement::LeastLoaded)
        ],
        proptest::option::of((10.0f64..200.0, 0.1f64..0.5).prop_map(|(period, f)| Burst {
            period,
            on_fraction: f,
            boost: 1.0 + 0.8 * (1.0 / f - 1.0), // safely inside [1, 1/f)
        })),
        prop_oneof![
            Just(Vec::new()),
            Just(vec![2.0, 2.0, 1.0, 1.0, 0.5, 0.5]),
            Just(vec![1.75, 1.75, 1.75, 0.25, 0.25, 0.25]),
        ],
    )
        .prop_map(
            |(
                strategy,
                shape,
                abort,
                load,
                frac_local,
                scheduler,
                preemptive,
                service_shape,
                placement,
                burst,
                node_speeds,
            )| {
                SimConfig {
                    strategy,
                    shape,
                    abort,
                    load,
                    frac_local,
                    scheduler,
                    preemptive: preemptive && scheduler == Policy::Edf,
                    service_shape,
                    placement,
                    burst,
                    node_speeds,
                    duration: 600.0,
                    warmup: 10.0,
                    ..SimConfig::baseline()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_valid_config_runs_and_accounts_consistently(
        cfg in arb_config(),
        seed in 0u64..1_000,
    ) {
        // Some generated combos are legitimately invalid (e.g. fan-out
        // wider than nodes with globals present): they must be *rejected*,
        // never panic.
        let Ok(result) = run(&cfg, seed) else { return Ok(()) };
        let m = &result.metrics;

        // Rates are probabilities.
        for rate in [m.md_local(), m.md_subtask(), m.md_global(), m.missed_work_fraction()] {
            prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        }
        // Counters are consistent.
        prop_assert!(m.local_md.missed() <= m.local_md.total());
        prop_assert!(m.subtask_md.missed() <= m.subtask_md.total());
        prop_assert!(m.total_missed_count() <= m.local_count() + m.global_count());
        // Busy time per node never exceeds the horizon.
        for (i, node) in result.node_stats.iter().enumerate() {
            let busy = node.busy();
            prop_assert!(busy <= result.duration * 1.0001, "node {i} busy {busy}");
            prop_assert!(busy >= 0.0);
            // Queue lengths are non-negative and finite.
            let q = node.mean_queue_len(SimTime::from(result.duration));
            prop_assert!(q.is_finite() && q >= 0.0);
        }
        // Response times can't be negative.
        prop_assert!(m.local_response.min() >= 0.0 || m.local_response.count() == 0);
        prop_assert!(m.global_response.min() >= 0.0 || m.global_response.count() == 0);
        // Determinism: the same config and seed reproduce the counters,
        // traced or not, and the trace replays.
        let (again, events) = run_replayed(&cfg, seed)?;
        prop_assert_eq!(again.metrics().local_md, m.local_md);
        prop_assert_eq!(events, result.events);
    }
}

/// Runs a valid `cfg` straight through `Simulation` to its horizon and
/// replays its whole trace: every record must be one the modelled system
/// can produce (see [`Replay`]), and the globals left live must be the
/// simulator's in-flight globals. Returns the simulation and its event
/// count.
fn run_replayed(cfg: &SimConfig, seed: u64) -> Result<(Simulation, u64), TestCaseError> {
    let mut sim = Simulation::new(cfg.clone(), seed).expect("validated by the caller");
    let (sink, handle) = RingBufferSink::with_handle(usize::MAX);
    sim.set_sink(Box::new(sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.duration));
    let mut replay = Replay::new(cfg.nodes, cfg.scheduler);
    for record in handle.records() {
        replay
            .apply(&record)
            .map_err(|violation| TestCaseError::fail(violation.to_string()))?;
    }
    prop_assert_eq!(replay.live_slots(), sim.active_globals());
    Ok((sim, engine.events_processed()))
}

/// Each fault class on or off with random rates, crossed with both crash
/// policies.
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        (any::<bool>(), 50.0f64..400.0, 1.0f64..40.0),
        prop_oneof![
            Just(CrashPolicy::AbortTask),
            Just(CrashPolicy::RequeueSubtask)
        ],
        (any::<bool>(), 0.01f64..0.3, 1.0f64..5.0),
        (any::<bool>(), 0.01f64..0.5, 0.1f64..3.0),
    )
        .prop_map(|(crash, crash_policy, slow, delay)| {
            let mut fault = FaultConfig {
                crash_policy,
                ..FaultConfig::disabled()
            };
            if let (true, mttf, mttr) = crash {
                (fault.mttf, fault.mttr) = (mttf, mttr);
            }
            if let (true, prob, factor) = slow {
                (fault.straggler_prob, fault.straggler_factor) = (prob, factor);
            }
            if let (true, prob, mean) = delay {
                (fault.comm_delay_prob, fault.comm_delay_mean) = (prob, mean);
            }
            fault
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_injected_runs_finish_every_task_once(
        cfg in arb_config(),
        fault in arb_faults(),
        seed in 0u64..1_000,
    ) {
        let cfg = SimConfig { fault, ..cfg };
        if cfg.validate().is_err() {
            return Ok(());
        }
        run_replayed(&cfg, seed)?;
    }
}
