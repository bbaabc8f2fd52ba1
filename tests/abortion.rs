//! Integration tests of the §7.3 overload-management modes: accounting
//! identities and behavioural bounds that must hold under abortion.

use sda::prelude::*;

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

fn cfg(load: f64, abort: AbortPolicy) -> SimConfig {
    SimConfig {
        abort,
        load,
        duration: 20_000.0,
        warmup: 200.0,
        ..SimConfig::baseline()
    }
}

#[test]
fn pm_abort_bounds_every_response_time() {
    // With process-manager abortion, no task lives past its deadline, so
    // the response time of any local is at most ex + slack <= ex + 5; the
    // histogram's p100 must respect a generous bound (ex is exponential,
    // so allow a deep tail: p99.9 of Exp(1) ~ 7, + 5 slack).
    let r = run(&cfg(0.8, AbortPolicy::ProcessManager), 1).unwrap();
    assert!(r.metrics.local_response.max() <= 30.0);
    // Without abortion, high load produces far longer responses.
    let r2 = run(&cfg(0.8, AbortPolicy::None), 1).unwrap();
    assert!(r2.metrics.local_response.max() > r.metrics.local_response.max());
}

#[test]
fn pm_abort_equals_miss_for_globals() {
    // Under PM abortion, a global misses iff it is aborted (completion
    // after the deadline is impossible): the counters must agree exactly
    // up to warm-up boundary effects.
    let r = run(&cfg(0.6, AbortPolicy::ProcessManager), 2).unwrap();
    let m = &r.metrics;
    let missed: u64 = m.global_md.values().map(|c| c.missed()).sum();
    let aborted = m.aborted_globals;
    // aborted counts warm-up tasks too; missed only counted ones.
    assert!(aborted >= missed);
    assert!(
        (aborted - missed) < 50,
        "aborted {aborted} vs missed {missed}"
    );
    assert!(missed > 100, "need a meaningful sample");
}

#[test]
fn work_is_conserved_across_abort_modes() {
    // Total busy time can only go down when tardy work is cancelled.
    let busy = |abort| -> f64 {
        let result = run(&cfg(0.8, abort), 3).unwrap();
        result.node_stats.iter().map(|s| s.busy()).sum()
    };
    let none = busy(AbortPolicy::None);
    let pm = busy(AbortPolicy::ProcessManager);
    assert!(pm < none, "abortion must shed load: {pm} vs {none}");
    // And the shed work is meaningful at this load.
    assert!(pm < 0.97 * none);
}

#[test]
fn local_abort_with_drop_resolves_every_global() {
    // With drop-on-abort, a global either completes or aborts; none hang.
    let cfg = SimConfig {
        strategy: SdaStrategy::ud_div1(),
        ..cfg(
            0.7,
            AbortPolicy::LocalScheduler {
                resubmit: ResubmitPolicy::Never,
            },
        )
    };
    let r = run(&cfg, 4).unwrap();
    let m = &r.metrics;
    assert!(m.aborted_globals > 0);
    assert!(m.global_count() > 1_000);
    // Subtask accounting: every counted global contributes at most 4
    // subtask records (fewer when unreleased leaves die with an abort —
    // impossible here since the shape is parallel-only, so exactly 4
    // minus the double-count protection).
    let ratio = m.subtask_md.total() as f64 / m.global_count() as f64;
    assert!((3.5..=4.5).contains(&ratio), "subtask/global ratio {ratio}");
}

#[test]
fn resubmission_only_happens_once_per_subtask() {
    let cfg = SimConfig {
        strategy: SdaStrategy {
            ssp: SspStrategy::Ud,
            psp: PspStrategy::div(8.0), // very tight: plenty of aborts
        },
        ..cfg(
            0.6,
            AbortPolicy::LocalScheduler {
                resubmit: ResubmitPolicy::OnceWithRealDeadline,
            },
        )
    };
    let r = run(&cfg, 5).unwrap();
    let m = &r.metrics;
    assert!(m.resubmissions > 0);
    // Each subtask can be locally aborted at most twice (once tight, once
    // after resubmission), and resubmitted at most once: aborts <= 2x
    // submissions, resubmissions <= aborts.
    assert!(m.resubmissions <= m.local_scheduler_aborts);
}

#[test]
fn abort_modes_do_not_change_the_workload() {
    // The generators draw from dedicated streams: the same seed must see
    // the same counted task population whatever the abort policy does.
    let a = run(&cfg(0.7, AbortPolicy::None), 6).unwrap();
    let b = run(&cfg(0.7, AbortPolicy::ProcessManager), 6).unwrap();
    let c = run(
        &cfg(
            0.7,
            AbortPolicy::LocalScheduler {
                resubmit: ResubmitPolicy::OnceWithRealDeadline,
            },
        ),
        6,
    )
    .unwrap();
    // Local and global totals agree between None and PM modes exactly
    // (every task still resolves by the deadline + horizon slack)...
    let count = |r: &RunResult| (r.metrics.local_count(), r.metrics.global_count());
    let (al, ag) = count(&a);
    let (bl, bg) = count(&b);
    let (cl, cg) = count(&c);
    // ...up to end-of-horizon censoring: allow a small boundary band.
    assert!((al as i64 - bl as i64).abs() < 100, "{al} vs {bl}");
    assert!((ag as i64 - bg as i64).abs() < 50, "{ag} vs {bg}");
    assert!((al as i64 - cl as i64).abs() < 100, "{al} vs {cl}");
    assert!((ag as i64 - cg as i64).abs() < 50, "{ag} vs {cg}");
}

#[test]
fn preemptive_and_abort_compose() {
    let cfg = SimConfig {
        preemptive: true,
        ..cfg(0.85, AbortPolicy::ProcessManager)
    };
    let r = run(&cfg, 7).unwrap();
    assert!(r.metrics.preemptions > 0);
    assert!(r.metrics.aborted_globals > 0);
    assert!(
        r.metrics.local_response.max() <= 35.0,
        "PM bound still holds"
    );
}
