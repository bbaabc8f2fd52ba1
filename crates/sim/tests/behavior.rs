//! Behavioral tests of the full system model: the paper's phenomena
//! (PSP amplification, DIV-1, §7.3 abortion modes, burstiness,
//! heterogeneity) reproduced on short runs.

use sda_core::SdaStrategy;
use sda_sim::trace::{RingBufferSink, TraceEvent};
use sda_sim::{
    AbortPolicy, Burst, GlobalShape, Placement, ResubmitPolicy, ServiceShape, SimConfig, Simulation,
};
use sda_simcore::{Engine, SimTime};

fn tiny(cfg: SimConfig, seed: u64, horizon: f64) -> (Simulation, Engine<sda_sim::Ev>) {
    let mut sim = Simulation::new(cfg, seed).expect("valid config");
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(horizon));
    (sim, engine)
}

fn quick_cfg() -> SimConfig {
    SimConfig {
        duration: 5_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    }
}

#[test]
fn runs_and_collects_tasks() {
    let (sim, engine) = tiny(quick_cfg(), 1, 5_000.0);
    let m = sim.metrics();
    // Expected locals: 6 nodes * 0.375/unit * ~4900 counted units.
    assert!(m.local_count() > 8_000, "locals: {}", m.local_count());
    assert!(m.global_count() > 700, "globals: {}", m.global_count());
    assert!(engine.events_processed() > 25_000);
    // All globals in the baseline have 4 subtasks.
    assert_eq!(m.global_md.keys().copied().collect::<Vec<_>>(), vec![4]);
}

#[test]
fn deterministic_for_same_seed() {
    let (a, _) = tiny(quick_cfg(), 42, 5_000.0);
    let (b, _) = tiny(quick_cfg(), 42, 5_000.0);
    assert_eq!(a.metrics().local_md, b.metrics().local_md);
    assert_eq!(a.metrics().subtask_md, b.metrics().subtask_md);
    assert_eq!(a.metrics().md_global(), b.metrics().md_global());
}

#[test]
fn different_seeds_differ() {
    let (a, _) = tiny(quick_cfg(), 1, 5_000.0);
    let (b, _) = tiny(quick_cfg(), 2, 5_000.0);
    assert_ne!(a.metrics().local_md, b.metrics().local_md);
}

#[test]
fn frac_local_one_has_no_globals() {
    let cfg = SimConfig {
        frac_local: 1.0,
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 3, 5_000.0);
    assert_eq!(sim.metrics().global_count(), 0);
    assert!(sim.metrics().local_count() > 10_000);
}

#[test]
fn frac_local_zero_has_no_locals() {
    let cfg = SimConfig {
        frac_local: 0.0,
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 3, 5_000.0);
    assert_eq!(sim.metrics().local_count(), 0);
    assert!(sim.metrics().global_count() > 1_000);
}

#[test]
fn low_load_misses_almost_nothing() {
    let cfg = quick_cfg().with_load(0.05);
    let (sim, _) = tiny(cfg, 4, 5_000.0);
    assert!(sim.metrics().md_local() < 0.01);
    assert!(sim.metrics().md_global() < 0.02);
}

#[test]
fn global_miss_rate_exceeds_local_under_ud() {
    // The PSP phenomenon itself (§4): UD amplifies global misses.
    let (sim, _) = tiny(quick_cfg(), 5, 5_000.0);
    let m = sim.metrics();
    assert!(
        m.md_global() > 1.8 * m.md_local(),
        "global {} vs local {}",
        m.md_global(),
        m.md_local()
    );
}

#[test]
fn div1_narrows_the_gap() {
    let ud = tiny(quick_cfg(), 6, 5_000.0).0;
    let cfg = quick_cfg().with_strategy(SdaStrategy::ud_div1());
    let div = tiny(cfg, 6, 5_000.0).0;
    assert!(
        div.metrics().md_global() < ud.metrics().md_global(),
        "DIV-1 must reduce MD_global: {} vs {}",
        div.metrics().md_global(),
        ud.metrics().md_global()
    );
    assert!(
        div.metrics().md_local() >= ud.metrics().md_local(),
        "DIV-1 must not help locals"
    );
}

#[test]
fn subtasks_have_more_slack_than_locals_under_ud() {
    // Equation 3: a subtask's slack is at least the drawn slack, so
    // MD_subtask < MD_local under UD (Figure 5's observation).
    let (sim, _) = tiny(quick_cfg(), 7, 5_000.0);
    let m = sim.metrics();
    assert!(m.md_subtask() < m.md_local());
}

#[test]
fn no_tasks_leak_in_steady_state() {
    let (sim, engine) = tiny(quick_cfg(), 8, 5_000.0);
    // In-flight work is bounded (stable system): active globals and
    // pending events stay small relative to throughput.
    assert!(sim.active_globals() < 100);
    assert!(engine.events_pending() < 1_000);
}

#[test]
fn pm_abort_caps_lateness_and_records_aborts() {
    let cfg = SimConfig {
        abort: AbortPolicy::ProcessManager,
        load: 0.8,
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 9, 5_000.0);
    let m = sim.metrics();
    assert!(m.aborted_globals > 0, "high load must abort some globals");
    assert!(m.aborted_locals > 0);
    // Aborted tasks still count as missed.
    assert!(m.md_global() > 0.0);
    // Response time of a local can never exceed ex + slack by more
    // than numerical noise when the PM aborts at the deadline:
    // max slack 5.0, so worst-case response <= ex + 5.0; mean response
    // must be small.
    assert!(m.local_response.max() < 30.0);
}

#[test]
fn pm_abort_reduces_miss_rates_at_high_load() {
    // §7.3: "abortion helps reduce all miss rates by not wasting
    // resources on tardy tasks".
    let base = SimConfig {
        load: 0.8,
        ..quick_cfg()
    };
    let no_abort = tiny(base.clone(), 10, 5_000.0).0;
    let with_abort = tiny(
        SimConfig {
            abort: AbortPolicy::ProcessManager,
            ..base
        },
        10,
        5_000.0,
    )
    .0;
    assert!(
        with_abort.metrics().md_local() < no_abort.metrics().md_local(),
        "{} vs {}",
        with_abort.metrics().md_local(),
        no_abort.metrics().md_local()
    );
}

#[test]
fn local_scheduler_abort_with_resubmission_runs() {
    let cfg = SimConfig {
        abort: AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline,
        },
        strategy: SdaStrategy::ud_div1(),
        load: 0.7,
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 11, 5_000.0);
    let m = sim.metrics();
    assert!(m.local_scheduler_aborts > 0);
    assert!(m.resubmissions > 0);
    assert!(m.global_count() > 100);
}

#[test]
fn local_abort_never_resubmit_still_accounts_all_globals() {
    let cfg = SimConfig {
        abort: AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::Never,
        },
        strategy: SdaStrategy::ud_div1(),
        load: 0.7,
        duration: 3_000.0,
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg.clone(), 12, 3_000.0);
    let m = sim.metrics();
    // Dropped subtasks abort their global; every counted global must
    // resolve (complete or abort), so in steady state active stays low.
    assert!(sim.active_globals() < 50);
    assert!(m.aborted_globals > 0);
}

#[test]
fn gf_with_drop_on_abort_survives_reentrant_teardown() {
    // Regression (found by fuzzing): with GF's already-expired virtual
    // deadlines and drop-on-abort local scheduling, submitting the
    // first release of a global can abort the whole task while its
    // remaining releases are still being submitted.
    let cfg = SimConfig {
        frac_local: 0.0,
        load: 0.05,
        shape: GlobalShape::ParallelFixed { n: 2 },
        strategy: SdaStrategy {
            ssp: sda_core::SspStrategy::Ud,
            psp: sda_core::PspStrategy::gf(),
        },
        abort: AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::Never,
        },
        duration: 600.0,
        warmup: 10.0,
        ..SimConfig::baseline()
    };
    let (sim, _) = tiny(cfg, 0, 600.0);
    let m = sim.metrics();
    // Every global dies instantly at its first dispatch.
    assert!(m.global_count() > 0);
    assert_eq!(m.md_global(), 1.0);
    assert_eq!(sim.active_globals(), 0, "no leaked globals");
}

#[test]
fn gf_under_local_abort_is_pathological() {
    // §7.3: GF's virtual deadlines are below arrival time, so every
    // subtask is dispatched-aborted once, resubmitted with its real
    // deadline, and the system degrades toward UD-with-overhead.
    let cfg = SimConfig {
        abort: AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline,
        },
        strategy: SdaStrategy {
            ssp: sda_core::SspStrategy::Ud,
            psp: sda_core::PspStrategy::gf(),
        },
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 13, 2_000.0);
    let m = sim.metrics();
    assert!(m.resubmissions > 0);
    // Every submitted subtask must get aborted at least once.
    assert!(m.local_scheduler_aborts >= m.resubmissions);
}

#[test]
fn figure14_shape_runs_end_to_end() {
    let cfg = SimConfig {
        strategy: SdaStrategy::eqf_div1(),
        duration: 5_000.0,
        ..SimConfig::section8()
    };
    let (sim, _) = tiny(cfg, 14, 5_000.0);
    let m = sim.metrics();
    assert!(m.global_count() > 100);
    assert_eq!(m.global_md.keys().copied().collect::<Vec<_>>(), vec![11]);
}

#[test]
fn heterogeneous_n_populates_all_classes() {
    let cfg = SimConfig {
        shape: GlobalShape::ParallelUniform { lo: 2, hi: 6 },
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 15, 5_000.0);
    let classes: Vec<u32> = sim.metrics().global_md.keys().copied().collect();
    assert_eq!(classes, vec![2, 3, 4, 5, 6]);
}

#[test]
fn utilization_tracks_load() {
    let (sim, _) = tiny(quick_cfg(), 16, 5_000.0);
    let (_, stats) = sim.into_results();
    let total: f64 = stats.iter().map(|s| s.busy()).sum();
    let util = total / (6.0 * 5_000.0);
    assert!(
        (util - 0.5).abs() < 0.05,
        "utilization {util} should be near the 0.5 offered load"
    );
    // The per-node view agrees with the aggregate one.
    let span = SimTime::from(5_000.0);
    for s in &stats {
        assert!(s.utilization(span.value()) > 0.2 && s.utilization(span.value()) < 0.8);
        assert!(s.served() > 1_000, "every node serves tasks");
        assert!(s.mean_queue_len(span) >= 0.0);
    }
}

#[test]
fn per_node_local_miss_rates_bracket_the_aggregate() {
    let (sim, _) = tiny(quick_cfg(), 18, 5_000.0);
    let aggregate = sim.metrics().md_local();
    let (_, stats) = sim.into_results();
    let lo = stats
        .iter()
        .map(|s| s.local_miss_rate())
        .fold(f64::INFINITY, f64::min);
    let hi = stats
        .iter()
        .map(|s| s.local_miss_rate())
        .fold(0.0_f64, f64::max);
    assert!(
        lo <= aggregate && aggregate <= hi,
        "aggregate {aggregate} outside per-node range [{lo}, {hi}]"
    );
    let finished: u64 = stats.iter().map(|s| s.local_counter().total()).sum();
    assert_eq!(
        finished,
        sim_local_count_of(quick_cfg()),
        "node totals add up"
    );
}

// Helper for the node-totals check: an identical run's aggregate count.
fn sim_local_count_of(cfg: SimConfig) -> u64 {
    let (sim, _) = tiny(cfg, 18, 5_000.0);
    sim.metrics().local_count()
}

#[test]
fn bursty_arrivals_preserve_the_average_load() {
    let burst = Burst {
        period: 50.0,
        on_fraction: 0.2,
        boost: 3.0,
    };
    assert!(burst.validate().is_ok());
    // Mean multiplier is exactly 1.
    let mean = 0.2 * burst.boost + 0.8 * burst.off_multiplier();
    assert!((mean - 1.0).abs() < 1e-12);
    let plain = tiny(quick_cfg(), 51, 10_000.0).0;
    let bursty = tiny(
        SimConfig {
            burst: Some(burst),
            ..quick_cfg()
        },
        51,
        10_000.0,
    )
    .0;
    // Same average arrival volume (within a few percent)...
    let rel = (bursty.metrics().local_count() as f64 - plain.metrics().local_count() as f64).abs()
        / plain.metrics().local_count() as f64;
    assert!(rel < 0.05, "arrival volume drift {rel}");
    // ...but many more misses: the transients do the damage (§5).
    assert!(bursty.metrics().md_local() > 1.5 * plain.metrics().md_local());
    assert!(bursty.metrics().md_global() > plain.metrics().md_global());
}

#[test]
fn burst_multiplier_is_periodic() {
    let b = Burst {
        period: 10.0,
        on_fraction: 0.3,
        boost: 2.0,
    };
    assert_eq!(b.multiplier_at(0.0), 2.0);
    assert_eq!(b.multiplier_at(2.9), 2.0);
    assert!(b.multiplier_at(3.1) < 1.0);
    assert_eq!(b.multiplier_at(12.9), b.multiplier_at(2.9));
    assert!(b.validate().is_ok());
    // Invalid parameter combinations are rejected.
    assert!(
        Burst { boost: 5.0, ..b }.validate().is_err(),
        "boost >= 1/f"
    );
    assert!(Burst {
        on_fraction: 0.0,
        ..b
    }
    .validate()
    .is_err());
    assert!(Burst { period: 0.0, ..b }.validate().is_err());
    let cfg = SimConfig {
        burst: Some(Burst { boost: 5.0, ..b }),
        ..quick_cfg()
    };
    assert!(matches!(
        cfg.validate(),
        Err(sda_sim::ConfigError::BadBurst(_))
    ));
}

#[test]
fn least_loaded_placement_reduces_global_misses() {
    // Placement-awareness attacks the same phenomenon as deadline
    // assignment, from the other side.
    let random = tiny(quick_cfg(), 41, 5_000.0).0;
    let jsq = tiny(
        SimConfig {
            placement: Placement::LeastLoaded,
            ..quick_cfg()
        },
        41,
        5_000.0,
    )
    .0;
    assert!(
        jsq.metrics().md_global() < random.metrics().md_global(),
        "least-loaded {} vs random {}",
        jsq.metrics().md_global(),
        random.metrics().md_global()
    );
}

#[test]
fn preemptive_edf_helps_urgent_tasks() {
    // Preemption lets a freshly-arrived urgent task interrupt a long
    // job instead of waiting it out; at moderate-high load it must
    // not increase the local miss rate, and utilization is conserved
    // (preemptive-resume wastes no work).
    let base = SimConfig {
        load: 0.7,
        ..quick_cfg()
    };
    let np = tiny(base.clone(), 31, 5_000.0).0;
    let pre = tiny(
        SimConfig {
            preemptive: true,
            ..base
        },
        31,
        5_000.0,
    )
    .0;
    let md_np = np.metrics().md_local();
    let md_pre = pre.metrics().md_local();
    assert!(
        md_pre < md_np + 0.01,
        "preemptive {md_pre} vs non-preemptive {md_np}"
    );
    let (_, stats_np) = np.into_results();
    let (_, stats_pre) = pre.into_results();
    let total_np: f64 = stats_np.iter().map(|s| s.busy()).sum();
    let total_pre: f64 = stats_pre.iter().map(|s| s.busy()).sum();
    assert!(
        (total_np - total_pre).abs() / total_np < 0.02,
        "work conserved: {total_np} vs {total_pre}"
    );
}

#[test]
fn preemptions_happen_and_are_counted() {
    let base = quick_cfg().with_load(0.8);
    let np = tiny(base.clone(), 32, 3_000.0).0;
    assert_eq!(np.metrics().preemptions, 0, "non-preemptive never preempts");
    let pre = tiny(
        SimConfig {
            preemptive: true,
            ..base
        },
        32,
        3_000.0,
    )
    .0;
    assert!(
        pre.metrics().preemptions > 100,
        "preemptions: {}",
        pre.metrics().preemptions
    );
}

#[test]
fn heterogeneous_speeds_skew_per_node_utilization() {
    let cfg = SimConfig {
        node_speeds: vec![2.0, 2.0, 1.0, 1.0, 0.5, 0.5],
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 33, 5_000.0);
    let (_, stats) = sim.into_results();
    // Arrivals are uniform across nodes, so slow nodes are busier
    // (higher utilization) than fast ones.
    assert!(
        stats[4].busy() > stats[0].busy(),
        "slow node busy {} vs fast node busy {}",
        stats[4].busy(),
        stats[0].busy()
    );
}

#[test]
fn heterogeneous_speeds_raise_global_miss_rates() {
    // A parallel global task is hostage to its slowest node: with the
    // same total capacity, heterogeneity hurts globals under UD.
    let homo = tiny(quick_cfg(), 34, 5_000.0).0;
    let hetero = tiny(
        SimConfig {
            node_speeds: vec![1.75, 1.75, 1.0, 1.0, 0.25, 0.25],
            ..quick_cfg()
        },
        34,
        5_000.0,
    )
    .0;
    assert!(hetero.metrics().md_global() > homo.metrics().md_global());
}

#[test]
fn deterministic_service_reduces_misses() {
    // Lower service variance => lower queueing variance => fewer
    // misses at the same load.
    let exp = tiny(quick_cfg(), 35, 5_000.0).0;
    let det = tiny(
        SimConfig {
            service_shape: ServiceShape::Deterministic,
            ..quick_cfg()
        },
        35,
        5_000.0,
    )
    .0;
    assert!(det.metrics().md_local() < exp.metrics().md_local());
    assert!(det.metrics().md_global() < exp.metrics().md_global());
}

#[test]
fn psp_amplification_survives_deterministic_service() {
    // The PSP effect is a queueing phenomenon, not a service-variance
    // artifact: even with deterministic service, global tasks under UD
    // miss notably more than locals.
    let cfg = SimConfig {
        service_shape: ServiceShape::Deterministic,
        load: 0.7,
        ..quick_cfg()
    };
    let (sim, _) = tiny(cfg, 36, 5_000.0);
    let m = sim.metrics();
    assert!(m.md_global() > 1.5 * m.md_local());
}

#[test]
fn preemption_with_pm_abort_is_consistent() {
    // Exercise the preemption/abortion interplay: preempted jobs must
    // still be removable from queues by their PM timers.
    let cfg = SimConfig {
        preemptive: true,
        abort: AbortPolicy::ProcessManager,
        load: 0.85,
        ..quick_cfg()
    };
    let (sim, engine) = tiny(cfg, 37, 5_000.0);
    let m = sim.metrics();
    assert!(m.aborted_globals > 0);
    assert!(m.aborted_locals > 0);
    assert!(sim.active_globals() < 100);
    assert!(engine.events_pending() < 2_000);
}

#[test]
fn trace_records_full_task_lifecycles() {
    let (sink, handle) = RingBufferSink::with_handle(1_000_000);
    let mut sim = Simulation::new(quick_cfg(), 5).expect("valid");
    sim.set_sink(Box::new(sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(200.0));

    let events = handle.records();
    assert!(!events.is_empty());
    // Times are non-decreasing.
    for pair in events.windows(2) {
        assert!(pair[0].time <= pair[1].time);
    }
    let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|r| f(&r.event)).count();
    let arrivals = count(&|e| matches!(e, TraceEvent::GlobalArrived { .. }));
    let finishes = count(&|e| matches!(e, TraceEvent::GlobalFinished { .. }));
    let submissions = count(&|e| matches!(e, TraceEvent::SubtaskSubmitted { .. }));
    assert!(arrivals > 0);
    assert!(finishes <= arrivals, "cannot finish more than arrived");
    assert!(
        arrivals - finishes < 30,
        "most globals finish within 200 units"
    );
    assert_eq!(
        submissions,
        4 * arrivals,
        "every baseline global submits 4 subtasks"
    );
    // Service starts and completions match up (within in-flight slack).
    let starts = count(&|e| matches!(e, TraceEvent::ServiceStarted { .. }));
    let completes = count(&|e| matches!(e, TraceEvent::ServiceCompleted { .. }));
    assert!(starts >= completes && starts - completes <= 6);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let plain = tiny(quick_cfg(), 6, 2_000.0).0;
    let mut traced = Simulation::new(quick_cfg(), 6).expect("valid");
    // A closure is a sink too (blanket impl).
    traced.set_sink(Box::new(|_now: SimTime, _ev: &TraceEvent| {}));
    let mut engine = Engine::new();
    traced.prime(&mut engine);
    engine.run_until(&mut traced, SimTime::from(2_000.0));
    assert_eq!(plain.metrics().local_md, traced.metrics().local_md);
    assert_eq!(plain.metrics().md_global(), traced.metrics().md_global());
}

#[test]
fn gf_serves_subtasks_before_locals() {
    // With GF at moderate load, subtask queueing is short: MD_global
    // under GF must be below UD's.
    let ud = tiny(quick_cfg(), 17, 5_000.0).0;
    let cfg = quick_cfg().with_strategy(SdaStrategy {
        ssp: sda_core::SspStrategy::Ud,
        psp: sda_core::PspStrategy::gf(),
    });
    let gf = tiny(cfg, 17, 5_000.0).0;
    assert!(gf.metrics().md_global() < ud.metrics().md_global());
}
