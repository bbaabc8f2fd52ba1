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
/// seed given explicitly.
fn run(cfg: &SimConfig, seed: u64) -> Result<RunResult, sda::sim::SweepError> {
    Ok(Runner::new(cfg.clone())
        .with_seeds(vec![seed])
        .stop(StopRule::FixedReps(1))
        .execute()?
        .runs()[0]
        .clone())
}

use sda::sched::Policy;
use sda::sim::{Burst, Placement, ServiceShape, SweepError};

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
        check_runs_and_accounts(&cfg, seed)?;
    }
}

/// Runs `cfg` and checks its accounting, its determinism and its trace.
fn check_runs_and_accounts(cfg: &SimConfig, seed: u64) -> Result<(), TestCaseError> {
    // Some generated combos are legitimately invalid (e.g. fan-out
    // wider than nodes with globals present): they must be *rejected*,
    // never panic. A replication that fails is a failed case.
    let result = match run(cfg, seed) {
        Ok(result) => result,
        Err(SweepError::Config(_)) => return Ok(()),
        Err(error) => return Err(TestCaseError::fail(error.to_string())),
    };
    let m = &result.metrics;

    // Rates are probabilities.
    for rate in [
        m.md_local(),
        m.md_subtask(),
        m.md_global(),
        m.missed_work_fraction(),
    ] {
        prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
    }
    // Counters are consistent.
    prop_assert!(m.local_md.missed() <= m.local_md.total());
    prop_assert!(m.subtask_md.missed() <= m.subtask_md.total());
    let missed = m.local_md.missed() + m.global_md.values().map(|c| c.missed()).sum::<u64>();
    prop_assert!(missed <= m.local_count() + m.global_count());
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
    let (again, events) = run_replayed(cfg, seed)?;
    prop_assert_eq!(again.metrics().local_md, m.local_md);
    prop_assert_eq!(events, result.events);
    Ok(())
}

/// A configuration the property once failed on, in its text form.
#[test]
fn recorded_config_case_still_holds() {
    const TEXT: &str = "\
nodes=6
load=0.05
frac_local=0.0
mu_local=1.0
mu_subtask=1.0
slack=1.25..5.0
global_slack=1.25..5.0
shape=parallel:2
strategy=UD-GF
scheduler=edf
preemptive=false
speeds=
service_shape=exponential
placement=random
burst=none
abort=local-drop
estimation=exact
fault_mttf=0.0
fault_mttr=0.0
fault_crash=abort
fault_straggler=0.0,1.0
fault_comm=0.0,0.0
duration=600.0
warmup=10.0
";
    let cfg = SimConfig::from_text(TEXT).expect("valid text");
    assert_eq!(cfg.to_text(), TEXT);
    check_runs_and_accounts(&cfg, 0).expect("UD-GF with local-drop aborts and no locals");
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

/// Edge floats for the fault means: subnormals, signed zeros, extremes
/// and the neighbours of 1.
const EDGES: &[f64] = &[
    5e-324,
    1e-320,
    0.0,
    -0.0,
    0.9999999999999999,
    1.0,
    1.0000000000000002,
    1e308,
    -1e308,
];

/// A mean drawn from `range` or, one time in four, from [`EDGES`].
fn arb_mean(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    (0usize..4, range, 0..EDGES.len()).prop_map(|(pick, x, i)| if pick == 0 { EDGES[i] } else { x })
}

/// Each fault class on or off with random rates, crossed with both crash
/// policies; the MTTF, MTTR and hand-off delay means are sometimes edge
/// floats.
fn arb_faults() -> impl Strategy<Value = FaultConfig> {
    (
        (any::<bool>(), arb_mean(50.0..400.0), arb_mean(1.0..40.0)),
        prop_oneof![
            Just(CrashPolicy::AbortTask),
            Just(CrashPolicy::RequeueSubtask)
        ],
        (any::<bool>(), 0.01f64..0.3, 1.0f64..5.0),
        (any::<bool>(), 0.01f64..0.5, arb_mean(0.1..3.0)),
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
