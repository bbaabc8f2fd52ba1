//! Property tests for cache-key stability: the canonical point text (and
//! therefore the content address) is a pure function of the simulated
//! parameters — identical however the configuration was constructed, and
//! different whenever any simulated parameter differs.
//!
//! The preimage is written without `core::fmt`. Differential tests hold
//! it to a `writeln!`-based reference writer, kept here as the oracle,
//! its float writer to `format!("{x:?}")`, its bracket-spec writer to
//! `TaskSpec`'s `Display`, and the key's hex digits to
//! `format!("{hi:016x}{lo:016x}")`, so every key (and every cache file on
//! disk) stays what the formatting machinery wrote.

use std::fmt::{self, Write as _};

use proptest::prelude::*;
use sda_core::{EstimationModel, PspStrategy, SdaStrategy, SspStrategy};
use sda_model::{parse_spec, TaskSpec};
use sda_sched::Policy;
use sda_sim::cache::{canonical_point, point_key_of};
use sda_sim::runner::StopRule;
use sda_sim::{
    AbortPolicy, Burst, CrashPolicy, FaultConfig, GlobalShape, Placement, ResubmitPolicy,
    ServiceShape, SimConfig, CACHE_SCHEMA_VERSION,
};
use sda_simcore::dist::Uniform;

/// The generated knobs a test configuration is built from. Everything
/// here is a *simulated parameter*: changing any field must change the
/// cache key.
#[derive(Debug, Clone, PartialEq)]
struct Knobs {
    nodes: usize,
    load: f64,
    frac_local: f64,
    shape_n: usize,
    psp: PspStrategy,
    ssp: SspStrategy,
    preemptive: bool,
    service_shape: ServiceShape,
    placement: Placement,
    abort: AbortPolicy,
    estimation: EstimationModel,
    burst_boost: Option<f64>,
    duration: f64,
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        (
            2usize..8,
            0.05f64..0.9,
            0.0f64..0.95,
            2usize..6,
            prop_oneof![
                Just(PspStrategy::Ud),
                (0.25f64..4.0).prop_map(PspStrategy::div),
                Just(PspStrategy::gf()),
            ],
            prop_oneof![
                Just(SspStrategy::Ud),
                Just(SspStrategy::Ed),
                Just(SspStrategy::Eqs),
                Just(SspStrategy::Eqf),
            ],
            any::<bool>(),
        ),
        (
            prop_oneof![
                Just(ServiceShape::Exponential),
                Just(ServiceShape::Deterministic),
                Just(ServiceShape::UniformSpread),
            ],
            prop_oneof![
                Just(Placement::RandomDistinct),
                Just(Placement::LeastLoaded)
            ],
            prop_oneof![
                Just(AbortPolicy::None),
                Just(AbortPolicy::ProcessManager),
                Just(AbortPolicy::LocalScheduler {
                    resubmit: ResubmitPolicy::Never
                }),
                Just(AbortPolicy::LocalScheduler {
                    resubmit: ResubmitPolicy::OnceWithRealDeadline
                }),
            ],
            prop_oneof![
                Just(EstimationModel::Exact),
                (1.1f64..4.0).prop_map(EstimationModel::uniform_factor),
                (0.3f64..3.0).prop_map(EstimationModel::bias),
            ],
            proptest::option::of(1.5f64..8.0),
            1_000.0f64..50_000.0,
        ),
    )
        .prop_map(
            |(
                (nodes, load, frac_local, shape_n, psp, ssp, preemptive),
                (service_shape, placement, abort, estimation, burst_boost, duration),
            )| Knobs {
                nodes,
                load,
                frac_local,
                shape_n: shape_n.min(nodes),
                psp,
                ssp,
                preemptive,
                service_shape,
                placement,
                abort,
                estimation,
                burst_boost,
                duration,
            },
        )
}

/// Builds the configuration from knobs, assigning fields in one order.
fn build(k: &Knobs) -> SimConfig {
    SimConfig {
        nodes: k.nodes,
        load: k.load,
        frac_local: k.frac_local,
        shape: GlobalShape::ParallelFixed { n: k.shape_n },
        strategy: SdaStrategy {
            ssp: k.ssp,
            psp: k.psp,
        },
        preemptive: k.preemptive,
        node_speeds: vec![1.0; k.nodes],
        service_shape: k.service_shape,
        placement: k.placement,
        abort: k.abort,
        estimation: k.estimation,
        burst: k.burst_boost.map(|boost| Burst {
            period: 50.0,
            on_fraction: 0.25,
            boost,
        }),
        duration: k.duration,
        warmup: k.duration / 100.0,
        ..SimConfig::baseline()
    }
}

/// Builds the same configuration through a different construction path
/// (builder methods applied after a differently-ordered literal).
fn build_other_order(k: &Knobs) -> SimConfig {
    let base = SimConfig {
        duration: k.duration,
        warmup: k.duration / 100.0,
        estimation: k.estimation,
        abort: k.abort,
        placement: k.placement,
        service_shape: k.service_shape,
        node_speeds: vec![1.0; k.nodes],
        preemptive: k.preemptive,
        shape: GlobalShape::ParallelFixed { n: k.shape_n },
        frac_local: k.frac_local,
        nodes: k.nodes,
        burst: k.burst_boost.map(|boost| Burst {
            period: 50.0,
            on_fraction: 0.25,
            boost,
        }),
        ..SimConfig::baseline()
    };
    base.with_load(k.load).with_strategy(SdaStrategy {
        ssp: k.ssp,
        psp: k.psp,
    })
}

fn key(cfg: &SimConfig, seed: u64) -> String {
    point_key_of(&canonical_point(cfg, seed, &StopRule::FixedReps(2)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key does not depend on how the config value was constructed.
    #[test]
    fn key_is_stable_across_construction_orders(k in knobs(), seed in 0u64..1_000) {
        prop_assert_eq!(key(&build(&k), seed), key(&build_other_order(&k), seed));
    }

    /// Changing any single simulated parameter changes the key.
    #[test]
    fn key_changes_with_every_parameter(k in knobs(), seed in 0u64..1_000, which in 0usize..10) {
        let base_key = key(&build(&k), seed);
        let mut m = k.clone();
        match which {
            0 => m.load = (m.load * 0.5) + 0.01,
            1 => m.nodes += 1,
            2 => m.frac_local = (m.frac_local * 0.5) + 0.001,
            3 => m.shape_n += 1,
            4 => m.preemptive = !m.preemptive,
            5 => m.duration *= 2.0,
            6 => {
                m.psp = match m.psp {
                    PspStrategy::Ud => PspStrategy::div(1.0),
                    _ => PspStrategy::Ud,
                }
            }
            7 => {
                m.ssp = match m.ssp {
                    SspStrategy::Ud => SspStrategy::Eqf,
                    _ => SspStrategy::Ud,
                }
            }
            8 => {
                m.placement = match m.placement {
                    Placement::RandomDistinct => Placement::LeastLoaded,
                    Placement::LeastLoaded => Placement::RandomDistinct,
                }
            }
            _ => {
                m.abort = match m.abort {
                    AbortPolicy::None => AbortPolicy::ProcessManager,
                    _ => AbortPolicy::None,
                }
            }
        }
        // `shape_n` is clamped to `nodes` at build time, so bumping it can
        // be a no-op; only a knob change that survives the build must
        // change the key.
        if build(&m) != build(&k) {
            prop_assert_ne!(key(&build(&m), seed), base_key);
        }
    }

    /// The base seed and the stop rule are part of the key.
    #[test]
    fn key_changes_with_seed_and_stop_rule(k in knobs(), seed in 0u64..1_000) {
        let cfg = build(&k);
        prop_assert_ne!(key(&cfg, seed), key(&cfg, seed + 1));
        let fixed = canonical_point(&cfg, seed, &StopRule::FixedReps(2));
        let more = canonical_point(&cfg, seed, &StopRule::FixedReps(3));
        let adaptive = canonical_point(&cfg, seed, &StopRule::CiWidth { target: 0.1, min_reps: 2, max_reps: 64 });
        prop_assert_ne!(point_key_of(&fixed), point_key_of(&more));
        prop_assert_ne!(point_key_of(&fixed), point_key_of(&adaptive));
    }

    /// Slack distributions are simulated parameters too.
    #[test]
    fn key_changes_with_slack_bounds(k in knobs(), lo in 0.5f64..2.0, width in 0.1f64..3.0) {
        let cfg = build(&k);
        let other = SimConfig {
            global_slack: Uniform::new(lo, lo + width),
            ..cfg.clone()
        };
        if other.global_slack.lo() != cfg.global_slack.lo()
            || other.global_slack.hi() != cfg.global_slack.hi()
        {
            prop_assert_ne!(key(&cfg, 1), key(&other, 1));
        }
    }
}

/// The reference preimage writer: the configuration lines written with
/// `writeln!` and `{:?}`, as the cache wrote them before the direct
/// writer replaced it.
fn reference_config(out: &mut String, cfg: &SimConfig) -> fmt::Result {
    writeln!(out, "nodes={}", cfg.nodes)?;
    writeln!(out, "load={:?}", cfg.load)?;
    writeln!(out, "frac_local={:?}", cfg.frac_local)?;
    writeln!(out, "mu_local={:?}", cfg.mu_local)?;
    writeln!(out, "mu_subtask={:?}", cfg.mu_subtask)?;
    let (local, global) = (&cfg.local_slack, &cfg.global_slack);
    writeln!(
        out,
        "local_slack=uniform[{:?},{:?}]",
        local.lo(),
        local.hi()
    )?;
    writeln!(
        out,
        "global_slack=uniform[{:?},{:?}]",
        global.lo(),
        global.hi()
    )?;
    match &cfg.shape {
        GlobalShape::ParallelFixed { n } => writeln!(out, "shape=parallel_fixed:{n}"),
        GlobalShape::ParallelUniform { lo, hi } => {
            writeln!(out, "shape=parallel_uniform:{lo}..{hi}")
        }
        GlobalShape::Spec(spec) => writeln!(out, "shape=spec:{spec}"),
    }?;
    let ssp = match cfg.strategy.ssp {
        SspStrategy::Ud => "ud",
        SspStrategy::Ed => "ed",
        SspStrategy::Eqs => "eqs",
        SspStrategy::Eqf => "eqf",
    };
    writeln!(out, "ssp={ssp}")?;
    match cfg.strategy.psp {
        PspStrategy::Ud => writeln!(out, "psp=ud"),
        PspStrategy::DivX { x } => writeln!(out, "psp=div:{x:?}"),
        PspStrategy::Gf { delta } => writeln!(out, "psp=gf:{delta:?}"),
    }?;
    writeln!(out, "scheduler={}", cfg.scheduler)?;
    writeln!(out, "preemptive={}", cfg.preemptive)?;
    out.push_str("node_speeds=");
    for (i, speed) in cfg.node_speeds.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}{speed:?}")?;
    }
    out.push('\n');
    let service_shape = match cfg.service_shape {
        ServiceShape::Exponential => "exponential",
        ServiceShape::Deterministic => "deterministic",
        ServiceShape::UniformSpread => "uniform_spread",
    };
    writeln!(out, "service_shape={service_shape}")?;
    let placement = match cfg.placement {
        Placement::RandomDistinct => "random_distinct",
        Placement::LeastLoaded => "least_loaded",
    };
    writeln!(out, "placement={placement}")?;
    match &cfg.burst {
        None => writeln!(out, "burst=none"),
        Some(b) => writeln!(
            out,
            "burst=period:{:?},on:{:?},boost:{:?}",
            b.period, b.on_fraction, b.boost
        ),
    }?;
    let abort = match cfg.abort {
        AbortPolicy::None => "none",
        AbortPolicy::ProcessManager => "process_manager",
        AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::Never,
        } => "local_scheduler:never",
        AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline,
        } => "local_scheduler:once_real_deadline",
    };
    writeln!(out, "abort={abort}")?;
    match cfg.estimation {
        EstimationModel::Exact => writeln!(out, "estimation=exact"),
        EstimationModel::UniformFactor { max_factor } => {
            writeln!(out, "estimation=uniform_factor:{max_factor:?}")
        }
        EstimationModel::Bias { factor } => writeln!(out, "estimation=bias:{factor:?}"),
        EstimationModel::ClassMean { mean } => writeln!(out, "estimation=class_mean:{mean:?}"),
    }?;
    let fault = &cfg.fault;
    if fault.any_enabled() {
        writeln!(
            out,
            "fault=mttf:{:?},mttr:{:?},crash:{},straggler:{:?}x{:?},comm:{:?}~{:?}",
            fault.mttf,
            fault.mttr,
            fault.crash_policy.label(),
            fault.straggler_prob,
            fault.straggler_factor,
            fault.comm_delay_prob,
            fault.comm_delay_mean
        )?;
    } else {
        writeln!(out, "fault=none")?;
    }
    writeln!(out, "duration={:?}", cfg.duration)?;
    writeln!(out, "warmup={:?}", cfg.warmup)
}

/// The reference canonical point text (see [`reference_config`]). The
/// adaptive rule's bounds are written as the rule clamps them: the floor
/// up to 2, the cap up to 1.
fn reference_point(cfg: &SimConfig, seed: u64, stop: &StopRule) -> String {
    let mut out = String::new();
    let written = (|| {
        writeln!(out, "schema={CACHE_SCHEMA_VERSION}")?;
        reference_config(&mut out, cfg)?;
        writeln!(out, "seed={seed}")?;
        match *stop {
            StopRule::FixedReps(n) => writeln!(out, "stop=fixed:{n}"),
            StopRule::CiWidth {
                target,
                min_reps,
                max_reps,
            } => {
                let (min, max) = (min_reps.max(2), max_reps.max(1));
                writeln!(out, "stop=ci:target={target:?},min={min},max={max}")
            }
        }
    })();
    written.expect("formatting into a String cannot fail");
    out
}

/// Asserts that the direct writer and the reference agree on `cfg` under
/// both stop rules.
fn assert_matches_reference(cfg: &SimConfig, seed: u64) {
    let ci = |target, min_reps, max_reps| StopRule::CiWidth {
        target,
        min_reps,
        max_reps,
    };
    for stop in [
        StopRule::FixedReps(2),
        StopRule::FixedReps(137),
        ci(0.05, 3, 48),
        ci(1.0 / 3.0, 10, 1_000),
        ci(0.25, 1, 0),
    ] {
        assert_eq!(
            canonical_point(cfg, seed, &stop),
            reference_point(cfg, seed, &stop),
            "{cfg:?} under {stop:?}"
        );
    }
    // Bounds below the clamps are written clamped, as existing cache
    // entries were keyed.
    let clamped = canonical_point(cfg, seed, &ci(0.25, 1, 0));
    assert!(
        clamped.ends_with("stop=ci:target=0.25,min=2,max=1\n"),
        "{clamped}"
    );
}

/// The floats of `values` as the preimage writes them: they ride in
/// `node_speeds`, which the canonical text lists comma-separated.
fn written_floats(values: &[f64]) -> Vec<String> {
    let cfg = SimConfig {
        node_speeds: values.to_vec(),
        ..SimConfig::baseline()
    };
    let text = canonical_point(&cfg, 1, &StopRule::FixedReps(2));
    let line = text
        .lines()
        .find_map(|line| line.strip_prefix("node_speeds="))
        .expect("a node_speeds line");
    line.split(',').map(str::to_string).collect()
}

/// Asserts that every value of `values` is written as `{:?}` writes it.
fn assert_floats_match_debug(values: &[f64]) {
    for chunk in values.chunks(1_000) {
        for (&x, written) in chunk.iter().zip(written_floats(chunk)) {
            assert_eq!(written, format!("{x:?}"), "bits {:#018x}", x.to_bits());
        }
    }
}

/// SplitMix64: a self-contained stream of test inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn float_writer_matches_debug_on_edge_cases() {
    let below = |x: f64| f64::from_bits(x.to_bits() - 1);
    let above = |x: f64| f64::from_bits(x.to_bits() + 1);
    let two_50 = (1u64 << 50) as f64;
    assert_floats_match_debug(&[
        0.0,
        -0.0,
        1e-4,
        below(1e-4),
        above(1e-4),
        1e15,
        below(1e15),
        above(1e15),
        1e16,
        two_50,
        below(two_50),
        above(two_50),
        two_50 / 1e8,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        below(f64::MIN_POSITIVE),
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1 + 0.2,
        1.0 / 3.0,
        0.5,
        1.0,
        -1.0,
        1.25,
        20_000.0,
        0.000_123_456_78,
        0.000_123_456_789,
        99_999_999.999_999_99,
        123_456_789.123_456_78,
        0.999_999_999_9,
        9.5,
        0.05,
        2.5e-3,
    ]);
}

#[test]
fn float_writer_matches_debug_on_short_decimals() {
    // n / 10^d for up to 8 fractional digits and magnitudes from 1e-8 to
    // beyond 1e15, on both sides of every range the writer tests.
    let mut state = 0x5DA_C0DE;
    let values: Vec<f64> = (0..200_000)
        .map(|_| {
            let digits = splitmix(&mut state) % 17;
            let n = splitmix(&mut state) % 10u64.pow(digits as u32).max(2);
            let d = (splitmix(&mut state) % 9) as i32;
            let x = n as f64 / 10f64.powi(d);
            if splitmix(&mut state).is_multiple_of(8) {
                -x
            } else {
                x
            }
        })
        .collect();
    assert_floats_match_debug(&values);
}

#[test]
fn float_writer_matches_debug_on_random_bit_patterns() {
    let mut state = 0xB175;
    let mut values: Vec<f64> = (0..100_000)
        .map(|_| f64::from_bits(splitmix(&mut state)))
        .collect();
    // Uniform bit patterns rarely land in the short-decimal range, so
    // add as many drawn inside it: a random exponent between 2^-14 and
    // 2^50 and a random mantissa.
    values.extend((0..100_000).map(|_| {
        let exponent = 1023 - 14 + splitmix(&mut state) % 64;
        let mantissa = splitmix(&mut state) >> 12;
        f64::from_bits((exponent << 52) | mantissa)
    }));
    assert_floats_match_debug(&values);
}

#[test]
fn canonical_point_matches_the_reference_on_named_configs() {
    let fault_on = SimConfig {
        fault: FaultConfig {
            mttf: 500.0,
            mttr: 25.0,
            crash_policy: CrashPolicy::RequeueSubtask,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            comm_delay_prob: 0.1,
            comm_delay_mean: 0.5,
        },
        abort: AbortPolicy::ProcessManager,
        scheduler: Policy::Sjf,
        ..SimConfig::section8().with_strategy(SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::div(1.0),
        })
    };
    let burst = SimConfig {
        burst: Some(Burst {
            period: 50.0,
            on_fraction: 0.25,
            boost: 3.0,
        }),
        node_speeds: vec![1.0, 2.0, 0.5, 1.5, 1.0, 0.75],
        estimation: EstimationModel::ClassMean { mean: 1.0 },
        scheduler: Policy::Fcfs,
        ..SimConfig::baseline().with_load(0.7)
    };
    let bracket = SimConfig {
        shape: GlobalShape::Spec(
            parse_spec("[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]").expect("a valid spec"),
        ),
        scheduler: Policy::Llf,
        ..SimConfig::baseline()
    };
    let uniform_shape = SimConfig {
        shape: GlobalShape::ParallelUniform { lo: 2, hi: 6 },
        preemptive: true,
        ..SimConfig::baseline().with_strategy(SdaStrategy::ud_div1())
    };
    for cfg in [
        SimConfig::baseline(),
        SimConfig::section8(),
        bracket,
        burst,
        fault_on,
        uniform_shape,
    ] {
        assert_matches_reference(&cfg, 42);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The direct writer and the reference agree on every generated
    /// configuration.
    #[test]
    fn canonical_point_matches_the_reference(k in knobs(), seed in any::<u64>()) {
        let cfg = build(&k);
        let canonical = canonical_point(&cfg, seed, &StopRule::FixedReps(2));
        prop_assert_eq!(
            &canonical,
            &reference_point(&cfg, seed, &StopRule::FixedReps(2))
        );
        prop_assert_eq!(point_key_of(&canonical), reference_key(&canonical));
        assert_matches_reference(&cfg, seed);
    }
}

/// The key as `format!` wrote it, kept as the oracle for
/// [`point_key_of`]'s direct hex writer: the same two FNV-1a lanes.
fn reference_key(canonical: &str) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let (mut lo, mut hi) = (0xCBF2_9CE4_8422_2325_u64, 0x6C62_272E_07BB_0142_u64);
    for &byte in canonical.as_bytes() {
        lo = (lo ^ u64::from(byte)).wrapping_mul(PRIME);
        hi = (hi ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    format!("{hi:016x}{lo:016x}")
}

#[test]
fn key_writer_matches_format_on_random_preimages() {
    // Random lengths (the empty text included) over ASCII, multi-byte
    // characters and newlines, so the lanes take every kind of digit.
    const ALPHABET: [char; 8] = ['a', '0', '=', '\n', 'é', '‖', '𝒯', 'f'];
    let mut state = 0x4E7;
    for _ in 0..20_000 {
        let len = splitmix(&mut state) % 64;
        let text: String = (0..len)
            .map(|_| ALPHABET[(splitmix(&mut state) % 8) as usize])
            .collect();
        assert_eq!(point_key_of(&text), reference_key(&text), "{text:?}");
    }
}

/// A random serial-parallel spec at most `depth` levels deep, with up to
/// four children per composite.
fn random_spec(state: &mut u64, depth: u32) -> TaskSpec {
    if depth == 0 || splitmix(state).is_multiple_of(3) {
        return TaskSpec::simple();
    }
    let children = (0..1 + splitmix(state) % 4)
        .map(|_| random_spec(state, depth - 1))
        .collect();
    if splitmix(state).is_multiple_of(2) {
        TaskSpec::serial(children)
    } else {
        TaskSpec::parallel(children)
    }
}

/// The `shape=spec:` line of the canonical text of `spec`.
fn written_spec(spec: &TaskSpec) -> String {
    let cfg = SimConfig {
        shape: GlobalShape::Spec(spec.clone()),
        ..SimConfig::baseline()
    };
    let text = canonical_point(&cfg, 1, &StopRule::FixedReps(2));
    text.lines()
        .find_map(|line| line.strip_prefix("shape=spec:"))
        .expect("a shape=spec line")
        .to_string()
}

#[test]
fn spec_writer_matches_display() {
    // The bracket parser's nesting bound.
    const MAX_DEPTH: usize = 1024;
    let mut specs = vec![
        parse_spec("[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]").expect("Figure 1"),
        TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)]),
        parse_spec(&format!(
            "{}T1{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .expect("nesting at the bound parses"),
    ];
    // Serial and parallel levels alternating down to the bound, with a
    // leaf beside each, so the numbering runs through every level.
    let mut deep = TaskSpec::simple();
    for level in 1..MAX_DEPTH {
        deep = if level % 2 == 0 {
            TaskSpec::serial(vec![TaskSpec::simple(), deep])
        } else {
            TaskSpec::parallel(vec![deep, TaskSpec::simple()])
        };
    }
    assert!(parse_spec(&deep.to_string()).is_ok(), "within the bound");
    specs.push(deep);
    let mut state = 0x5EC;
    specs.extend((0..5_000).map(|_| random_spec(&mut state, 6)));
    for spec in &specs {
        assert_eq!(written_spec(spec), spec.to_string());
    }
}
