//! Property tests for cache-key stability: the canonical point text (and
//! therefore the content address) is a pure function of the simulated
//! parameters — different whenever any simulated parameter differs.
//!
//! The configuration part of the preimage is the config-file text form,
//! [`SimConfig::to_text`]. The round-trip property reads it back with
//! [`SimConfig::from_text`] on generated configurations, whose generator
//! builds every struct as a literal: a new field does not compile until
//! the generator draws it, so the key stays complete by construction.
//! The preimage is written without `core::fmt`; differential tests hold
//! its float writer to `format!("{x:?}")`, its bracket-spec writer to
//! `TaskSpec`'s `Display`, and the key's hex digits to
//! `format!("{hi:016x}{lo:016x}")`, and the committed preimages under
//! `tests/fixtures/preimages-v5/` pin the whole text of named points.

use proptest::prelude::*;
use sda_core::{EstimationModel, PspStrategy, SdaStrategy, SspStrategy};
use sda_model::{parse_spec, TaskSpec};
use sda_sched::Policy;
use sda_sim::cache::{canonical_point, point_key_of};
use sda_sim::runner::StopRule;
use sda_sim::{
    AbortPolicy, Burst, CrashPolicy, FaultConfig, GlobalShape, Placement, ResubmitPolicy,
    ServiceShape, SimConfig,
};
use sda_simcore::dist::Uniform;

/// Positive finite floats over many magnitudes, with integers and their
/// neighbours one ulp away (which `PspStrategy::label` rounds) among
/// them.
fn arb_positive() -> impl Strategy<Value = f64> {
    prop_oneof![
        (1u64..100).prop_map(|n| n as f64),
        (1u64..100, any::<bool>()).prop_map(|(n, up)| {
            let bits = (n as f64).to_bits();
            f64::from_bits(if up { bits + 1 } else { bits - 1 })
        }),
        (0u64..90, any::<u64>()).prop_map(|(exponent, bits)| f64::from_bits(
            ((1023 - 30 + exponent) << 52) | (bits >> 12)
        )),
    ]
}

/// A serial-parallel spec whose compositions all have at least two
/// children, so its bracket text parses back to it.
fn arb_spec() -> impl Strategy<Value = TaskSpec> {
    Just(TaskSpec::Simple).prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..5).prop_map(TaskSpec::serial),
            prop::collection::vec(inner, 2..5).prop_map(TaskSpec::parallel),
        ]
    })
}

fn arb_shape() -> impl Strategy<Value = GlobalShape> {
    prop_oneof![
        (1usize..8).prop_map(|n| GlobalShape::ParallelFixed { n }),
        (1usize..4, 0usize..4)
            .prop_map(|(lo, extra)| GlobalShape::ParallelUniform { lo, hi: lo + extra }),
        Just(GlobalShape::figure14()),
        arb_spec().prop_map(GlobalShape::Spec),
    ]
}

fn arb_strategy() -> impl Strategy<Value = SdaStrategy> {
    let ssp = prop_oneof![
        Just(SspStrategy::Ud),
        Just(SspStrategy::Ed),
        Just(SspStrategy::Eqs),
        Just(SspStrategy::Eqf),
    ];
    let psp = prop_oneof![
        Just(PspStrategy::Ud),
        arb_positive().prop_map(PspStrategy::div),
        Just(PspStrategy::gf()),
        arb_positive().prop_map(|delta| PspStrategy::Gf { delta }),
    ];
    (ssp, psp).prop_map(|(ssp, psp)| SdaStrategy { ssp, psp })
}

fn arb_abort() -> impl Strategy<Value = AbortPolicy> {
    prop_oneof![
        Just(AbortPolicy::None),
        Just(AbortPolicy::ProcessManager),
        Just(AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::Never
        }),
        Just(AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline
        }),
    ]
}

fn arb_estimation() -> impl Strategy<Value = EstimationModel> {
    prop_oneof![
        Just(EstimationModel::Exact),
        arb_positive().prop_map(|x| EstimationModel::uniform_factor(1.0 + x)),
        arb_positive().prop_map(EstimationModel::bias),
        arb_positive().prop_map(|mean| EstimationModel::ClassMean { mean }),
    ]
}

/// Each fault class on or off, with every rate drawn either way: an off
/// class keeps the values of its other fields.
fn arb_fault() -> impl Strategy<Value = FaultConfig> {
    (
        (any::<bool>(), arb_positive(), arb_positive()),
        prop_oneof![
            Just(CrashPolicy::AbortTask),
            Just(CrashPolicy::RequeueSubtask)
        ],
        (any::<bool>(), 0.01f64..1.0, arb_positive()),
        (any::<bool>(), 0.01f64..1.0, arb_positive()),
    )
        .prop_map(
            |(
                (crash, mttf, mttr),
                crash_policy,
                (slow, p_slow, factor),
                (delay, p_delay, mean),
            )| {
                FaultConfig {
                    mttf: if crash { mttf } else { 0.0 },
                    mttr,
                    crash_policy,
                    straggler_prob: if slow { p_slow } else { 0.0 },
                    straggler_factor: 1.0 + factor,
                    comm_delay_prob: if delay { p_delay } else { 0.0 },
                    comm_delay_mean: mean,
                }
            },
        )
}

/// Every field drawn, as a struct literal with no `..base`.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        (
            1usize..12,
            0.0f64..1.0,
            0.0f64..=1.0,
            arb_positive(),
            arb_positive(),
        ),
        ((0.0f64..10.0, 0.0f64..10.0), (0.0f64..10.0, 0.0f64..10.0)),
        (arb_shape(), arb_strategy()),
        (
            prop_oneof![
                Just(Policy::Edf),
                Just(Policy::Fcfs),
                Just(Policy::Sjf),
                Just(Policy::Llf)
            ],
            any::<bool>(),
            proptest::option::of(prop::collection::vec(arb_positive(), 12..13)),
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
            proptest::option::of((arb_positive(), 0.05f64..0.95, 0.0f64..1.0)),
        ),
        (arb_abort(), arb_estimation(), arb_fault()),
        (arb_positive(), 0.0f64..1.0),
    )
        .prop_map(
            |(
                (nodes, load, frac_local, mu_local, mu_subtask),
                ((local_lo, local_width), (global_lo, global_width)),
                (shape, strategy),
                (scheduler, preemptive, speeds),
                (service_shape, placement, burst),
                (abort, estimation, fault),
                (duration, warmup_share),
            )| SimConfig {
                nodes,
                load,
                frac_local,
                mu_local,
                mu_subtask,
                local_slack: Uniform::new(local_lo, local_lo + local_width),
                global_slack: Uniform::new(global_lo, global_lo + global_width),
                shape,
                strategy,
                scheduler,
                preemptive,
                node_speeds: speeds.map_or(Vec::new(), |speeds| speeds[..nodes].to_vec()),
                service_shape,
                placement,
                burst: burst.map(|(period, on_fraction, boost_share)| Burst {
                    period,
                    on_fraction,
                    boost: 1.0 + boost_share * (1.0 / on_fraction - 1.0),
                }),
                abort,
                estimation,
                fault,
                duration,
                warmup: duration * warmup_share,
            },
        )
}

fn key(cfg: &SimConfig, seed: u64) -> String {
    point_key_of(&canonical_point(cfg, seed, &StopRule::FixedReps(2)))
}

/// Whether `a` and `b` differ only in fault fields while neither enables
/// a fault class: such configurations simulate identically.
fn differ_only_in_idle_faults(a: &SimConfig, b: &SimConfig) -> bool {
    let a_without_faults = SimConfig {
        fault: b.fault,
        ..a.clone()
    };
    !a.fault.any_enabled() && !b.fault.any_enabled() && a_without_faults == *b
}

/// The next value of a small enum in `values`, cyclically.
fn next<T: PartialEq + Copy>(values: &[T], current: T) -> T {
    let at = values.iter().position(|&v| v == current).expect("listed");
    values[(at + 1) % values.len()]
}

/// `cfg` with one field changed: `which` ranges over every field of
/// [`SimConfig`] and of its [`FaultConfig`].
fn mutate(cfg: &SimConfig, which: usize) -> SimConfig {
    let mut m = cfg.clone();
    let shift = |x: f64| if x < 0.5 { x + 0.25 } else { x - 0.25 };
    let wider = |u: Uniform| Uniform::new(u.lo(), u.hi() + 1.0);
    match which {
        0 => m.nodes += 1,
        1 => m.load = shift(m.load),
        2 => m.frac_local = shift(m.frac_local),
        3 => m.mu_local *= 2.0,
        4 => m.mu_subtask *= 2.0,
        5 => m.local_slack = wider(m.local_slack),
        6 => m.global_slack = wider(m.global_slack),
        7 => {
            m.shape = match m.shape {
                GlobalShape::ParallelFixed { n } => GlobalShape::ParallelFixed { n: n + 1 },
                GlobalShape::ParallelUniform { lo, hi } => {
                    GlobalShape::ParallelUniform { lo, hi: hi + 1 }
                }
                GlobalShape::Spec(spec) => {
                    GlobalShape::Spec(TaskSpec::serial(vec![spec, TaskSpec::Simple]))
                }
            }
        }
        8 => {
            let ssps = [
                SspStrategy::Ud,
                SspStrategy::Ed,
                SspStrategy::Eqs,
                SspStrategy::Eqf,
            ];
            m.strategy.ssp = next(&ssps, m.strategy.ssp);
        }
        9 => {
            m.strategy.psp = match m.strategy.psp {
                PspStrategy::Ud => PspStrategy::div(1.0),
                PspStrategy::DivX { x } => PspStrategy::div(2.0 * x),
                PspStrategy::Gf { delta } => PspStrategy::Gf { delta: 2.0 * delta },
            }
        }
        10 => m.scheduler = next(&Policy::ALL, m.scheduler),
        11 => m.preemptive = !m.preemptive,
        12 => match m.node_speeds.first_mut() {
            Some(speed) => *speed *= 2.0,
            None => m.node_speeds = vec![1.0; m.nodes],
        },
        13 => {
            let shapes = [
                ServiceShape::Exponential,
                ServiceShape::Deterministic,
                ServiceShape::UniformSpread,
            ];
            m.service_shape = next(&shapes, m.service_shape);
        }
        14 => {
            let placements = [Placement::RandomDistinct, Placement::LeastLoaded];
            m.placement = next(&placements, m.placement);
        }
        15 => {
            m.burst = match m.burst {
                Some(_) => None,
                None => Some(Burst {
                    period: 50.0,
                    on_fraction: 0.25,
                    boost: 2.0,
                }),
            }
        }
        16 => {
            let aborts = [
                AbortPolicy::None,
                AbortPolicy::ProcessManager,
                AbortPolicy::LocalScheduler {
                    resubmit: ResubmitPolicy::Never,
                },
                AbortPolicy::LocalScheduler {
                    resubmit: ResubmitPolicy::OnceWithRealDeadline,
                },
            ];
            m.abort = next(&aborts, m.abort);
        }
        17 => {
            m.estimation = match m.estimation {
                EstimationModel::Exact => EstimationModel::bias(2.0),
                _ => EstimationModel::Exact,
            }
        }
        18 => m.fault.mttf = if m.fault.mttf == 0.0 { 500.0 } else { 0.0 },
        19 => m.fault.mttr *= 2.0,
        20 => {
            let policies = [CrashPolicy::AbortTask, CrashPolicy::RequeueSubtask];
            m.fault.crash_policy = next(&policies, m.fault.crash_policy);
        }
        21 => m.fault.straggler_prob = shift(m.fault.straggler_prob),
        22 => m.fault.straggler_factor *= 2.0,
        23 => m.fault.comm_delay_prob = shift(m.fault.comm_delay_prob),
        24 => m.fault.comm_delay_mean *= 2.0,
        25 => m.duration *= 2.0,
        26 => m.warmup = if m.warmup > 1.0 { m.warmup / 2.0 } else { 2.0 },
        _ => unreachable!("27 fields"),
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The text form reads back to the configuration it was written
    /// from, and the key is the one its writer hashes.
    #[test]
    fn text_form_round_trips(cfg in arb_config(), seed in any::<u64>()) {
        let text = cfg.to_text();
        let back = SimConfig::from_text(&text);
        prop_assert_eq!(back.as_ref(), Ok(&cfg), "{}", text);
        let canonical = canonical_point(&cfg, seed, &StopRule::FixedReps(2));
        prop_assert!(canonical.contains(&text) || !cfg.fault.any_enabled(), "{}", canonical);
        prop_assert_eq!(point_key_of(&canonical), reference_key(&canonical));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Changing any single field changes the key, unless the change only
    /// touches a fault layer that no class enables.
    #[test]
    fn key_changes_with_every_parameter(cfg in arb_config(), seed in 0u64..1_000) {
        let base_key = key(&cfg, seed);
        for which in 0..27 {
            let m = mutate(&cfg, which);
            prop_assert!(m != cfg, "mutation {} changed nothing", which);
            if differ_only_in_idle_faults(&m, &cfg) {
                prop_assert_eq!(key(&m, seed), base_key.clone(), "mutation {}", which);
            } else {
                prop_assert_ne!(key(&m, seed), base_key.clone(), "mutation {}", which);
            }
        }
    }

    /// The base seed and the stop rule are part of the key.
    #[test]
    fn key_changes_with_seed_and_stop_rule(cfg in arb_config(), seed in 0u64..1_000) {
        prop_assert_ne!(key(&cfg, seed), key(&cfg, seed + 1));
        let fixed = canonical_point(&cfg, seed, &StopRule::FixedReps(2));
        let more = canonical_point(&cfg, seed, &StopRule::FixedReps(3));
        let adaptive = canonical_point(&cfg, seed, &StopRule::CiWidth { target: 0.1, min_reps: 2, max_reps: 64 });
        prop_assert_ne!(point_key_of(&fixed), point_key_of(&more));
        prop_assert_ne!(point_key_of(&fixed), point_key_of(&adaptive));
    }
}

#[test]
fn idle_fault_layers_share_one_key() {
    let base = SimConfig::baseline();
    let disabled = FaultConfig::disabled();
    let idle = FaultConfig {
        mttr: 25.0,
        crash_policy: CrashPolicy::RequeueSubtask,
        straggler_factor: 4.0,
        comm_delay_mean: 0.5,
        ..disabled
    };
    let with = |fault| SimConfig {
        fault,
        ..base.clone()
    };
    for fault in [
        FaultConfig {
            mttr: 25.0,
            ..disabled
        },
        FaultConfig {
            crash_policy: CrashPolicy::RequeueSubtask,
            ..disabled
        },
        FaultConfig {
            straggler_factor: 4.0,
            ..disabled
        },
        FaultConfig {
            comm_delay_mean: 0.5,
            ..disabled
        },
        idle,
    ] {
        assert!(!fault.any_enabled());
        assert_eq!(key(&with(fault), 1), key(&base, 1), "{fault:?}");
    }
    // Enabling any one class, over either fault layer, changes the key.
    for enable in [
        |f: FaultConfig| FaultConfig { mttf: 500.0, ..f },
        |f: FaultConfig| FaultConfig {
            straggler_prob: 0.05,
            ..f
        },
        |f: FaultConfig| FaultConfig {
            comm_delay_prob: 0.1,
            ..f
        },
    ] {
        for layer in [disabled, idle] {
            let fault = enable(layer);
            assert!(fault.any_enabled());
            assert_ne!(key(&with(fault), 1), key(&base, 1), "{fault:?}");
        }
        assert_ne!(key(&with(enable(disabled)), 1), key(&with(enable(idle)), 1));
    }
}

/// The named configurations of the committed preimages, each with its
/// fixture file under `tests/fixtures/preimages-v5/`.
fn named_configs() -> [(&'static str, SimConfig, &'static str); 6] {
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
    [
        (
            "baseline",
            SimConfig::baseline(),
            include_str!("fixtures/preimages-v5/baseline.txt"),
        ),
        (
            "section8",
            SimConfig::section8(),
            include_str!("fixtures/preimages-v5/section8.txt"),
        ),
        (
            "bracket",
            bracket,
            include_str!("fixtures/preimages-v5/bracket.txt"),
        ),
        (
            "burst",
            burst,
            include_str!("fixtures/preimages-v5/burst.txt"),
        ),
        (
            "fault_on",
            fault_on,
            include_str!("fixtures/preimages-v5/fault_on.txt"),
        ),
        (
            "uniform_shape",
            uniform_shape,
            include_str!("fixtures/preimages-v5/uniform_shape.txt"),
        ),
    ]
}

#[test]
fn canonical_point_matches_the_committed_preimages() {
    for (name, cfg, committed) in named_configs() {
        assert_eq!(
            canonical_point(&cfg, 42, &StopRule::FixedReps(2)),
            committed,
            "{name}"
        );
    }
    // The stop rule's line, with adaptive bounds below the clamps
    // written clamped, as existing cache entries were keyed.
    let ci = |target, min_reps, max_reps| StopRule::CiWidth {
        target,
        min_reps,
        max_reps,
    };
    for (stop, line) in [
        (StopRule::FixedReps(137), "stop=fixed:137\n"),
        (ci(0.05, 3, 48), "stop=ci:target=0.05,min=3,max=48\n"),
        (
            ci(1.0 / 3.0, 10, 1_000),
            "stop=ci:target=0.3333333333333333,min=10,max=1000\n",
        ),
        (ci(0.25, 1, 0), "stop=ci:target=0.25,min=2,max=1\n"),
    ] {
        let text = canonical_point(&SimConfig::baseline(), 42, &stop);
        assert!(text.ends_with(&format!("seed=42\n{line}")), "{text}");
    }
}

/// The floats of `values` as the preimage writes them: they ride in
/// `speeds`, which the text form lists comma-separated.
fn written_floats(values: &[f64]) -> Vec<String> {
    let cfg = SimConfig {
        node_speeds: values.to_vec(),
        ..SimConfig::baseline()
    };
    let text = canonical_point(&cfg, 1, &StopRule::FixedReps(2));
    let line = text
        .lines()
        .find_map(|line| line.strip_prefix("speeds="))
        .expect("a speeds line");
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
