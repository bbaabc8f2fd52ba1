//! The sweep engine's contract: results bit-identical at any `jobs`
//! level (the golden fixtures pin the bytes themselves), duplicates
//! deduplicated, the cache making repeat sweeps free, and a failure
//! reported as the first failed point, its replication and its seed.

use std::sync::{Arc, Mutex, MutexGuard};

use sda_core::SdaStrategy;
use sda_sim::cache::{canonical_point, point_key_of};
use sda_sim::{
    CrashPolicy, FaultConfig, MultiRun, PointCache, RunError, SimConfig, StopRule, Sweep,
    SweepError, SweepPoint,
};
use sda_simcore::rng::derive_seed;

fn quick(load: f64) -> SimConfig {
    SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        ..SimConfig::baseline().with_load(load)
    }
}

/// A small campaign mixing fixed-rep points, strategies, and an
/// adaptive point.
fn campaign() -> Vec<SweepPoint> {
    vec![
        SweepPoint::new(quick(0.3), 42),
        SweepPoint::new(quick(0.5), 42).stop(StopRule::FixedReps(3)),
        SweepPoint::new(quick(0.5).with_strategy(SdaStrategy::ud_div1()), 42),
        SweepPoint::new(quick(0.7), 42).stop(StopRule::CiWidth {
            target: 0.9,
            min_reps: 2,
            max_reps: 64,
        }),
    ]
}

/// Every float in the report, bit-for-bit.
fn fingerprint(multi: &MultiRun) -> String {
    let mut out = multi.stats().to_json();
    for run in multi.runs() {
        out.push_str(&format!("\nseed={} events={}", run.seed, run.events));
        for (field, value) in [
            ("md_global", run.metrics.md_global()),
            ("md_local", run.metrics.md_local()),
            ("missed_work", run.metrics.missed_work.fraction()),
            ("q99", run.metrics.global_response_quantile(0.99)),
        ] {
            out.push_str(&format!(" {field}={:016x}", value.to_bits()));
        }
    }
    out
}

#[test]
fn sweep_is_bit_identical_at_any_jobs_level() {
    let sequential = Sweep::new().points(campaign()).jobs(1).execute().unwrap();
    // The campaign's first round is 9 units, so 16 workers outnumber
    // them.
    for jobs in [2, 3, 4, 16] {
        let parallel = Sweep::new()
            .points(campaign())
            .jobs(jobs)
            .execute()
            .unwrap();
        assert_eq!(parallel.len(), sequential.len());
        for (point, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(
                fingerprint(a),
                fingerprint(b),
                "point {point} diverged at jobs {jobs}"
            );
        }
    }
}

#[test]
fn adaptive_points_in_one_sweep_keep_their_own_bounds() {
    // A target no run set meets, so each point runs to its own cap.
    let adaptive = |min_reps, max_reps| {
        SweepPoint::new(quick(0.5), 42).stop(StopRule::CiWidth {
            target: 1e-12,
            min_reps,
            max_reps,
        })
    };
    for jobs in [1, 3] {
        let results = Sweep::new()
            .points([adaptive(2, 4), adaptive(3, 6)])
            .jobs(jobs)
            .execute()
            .unwrap();
        let counts: Vec<usize> = results.iter().map(|multi| multi.runs().len()).collect();
        assert_eq!(counts, [4, 6], "jobs {jobs}");
        // Both points share the base seed, so the longer run set extends
        // the shorter one.
        for (a, b) in results[0].runs().iter().zip(results[1].runs()) {
            assert_eq!((a.seed, a.events), (b.seed, b.events));
        }
    }
}

#[test]
fn duplicate_points_simulate_once() {
    let cache = Arc::new(PointCache::in_memory());
    let point = SweepPoint::new(quick(0.5), 7);
    let results = Sweep::new()
        .points([point.clone(), point.clone(), point])
        .jobs(2)
        .cache(Arc::clone(&cache))
        .execute()
        .unwrap();
    let report = cache.report();
    assert_eq!(report.misses, 1, "one unique point simulates once");
    assert_eq!(report.hits_memory, 2, "duplicates share the result");
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[1]));
    assert_eq!(fingerprint(&results[0]), fingerprint(&results[2]));
}

#[test]
fn shared_points_are_one_allocation() {
    let point = SweepPoint::new(quick(0.5), 11);
    let preimage = canonical_point(&point.cfg, 11, &point.stop);
    let key = point_key_of(&preimage);
    let dir = std::env::temp_dir().join(format!("sda-sweep-share-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A duplicate point shares the computed result, and so does the
    // cache's stored copy and a later memory hit.
    let cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let sweep = Sweep::new()
        .points([point.clone(), point.clone()])
        .jobs(2)
        .cache(Arc::clone(&cache));
    let cold = sweep.execute().unwrap();
    assert!(Arc::ptr_eq(&cold[0], &cold[1]), "deduplicated point");
    let report = cache.report();
    assert_eq!((report.misses, report.hits_memory), (1, 1));
    let again = sweep.execute().unwrap();
    assert!(Arc::ptr_eq(&again[0], &cold[0]), "memory hit");
    assert!(Arc::ptr_eq(&again[1], &cold[0]), "memory hit");
    let stored = cache.lookup(key, preimage).expect("stored");
    assert!(Arc::ptr_eq(&stored, &cold[0]), "stored result");
    let report = cache.report();
    assert_eq!((report.misses, report.hits_memory), (1, 4));

    // A disk hit is decoded once and shared by the points after it.
    let warm_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let warm = Sweep::new()
        .points([point.clone(), point])
        .cache(Arc::clone(&warm_cache))
        .execute()
        .unwrap();
    assert!(Arc::ptr_eq(&warm[0], &warm[1]), "promoted disk hit");
    assert_eq!(fingerprint(&warm[0]), fingerprint(&cold[0]));
    let report = warm_cache.report();
    assert_eq!(
        (report.misses, report.hits_disk, report.hits_memory),
        (0, 1, 1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_makes_a_second_sweep_all_hits() {
    let dir = std::env::temp_dir().join(format!("sda-sweep-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let cold = Sweep::new()
        .points(campaign())
        .jobs(2)
        .cache(Arc::clone(&cold_cache))
        .execute()
        .unwrap();
    let report = cold_cache.report();
    assert_eq!(report.hits(), 0, "cold sweep hits nothing");
    assert_eq!(report.misses as usize, campaign().len());

    // A fresh cache handle over the same directory: pure disk replay.
    let warm_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let warm = Sweep::new()
        .points(campaign())
        .jobs(2)
        .cache(Arc::clone(&warm_cache))
        .execute()
        .unwrap();
    let report = warm_cache.report();
    assert_eq!(report.misses, 0, "warm sweep simulates nothing");
    assert_eq!(report.hits_disk as usize, campaign().len());

    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "cached results are bit-identical"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_still_deduplicates_within_a_sweep() {
    let point = SweepPoint::new(quick(0.4), 9);
    let results = Sweep::new()
        .points([point.clone(), point])
        .jobs(1)
        .execute()
        .unwrap();
    assert!(Arc::ptr_eq(&results[0], &results[1]));
}

/// Serializes the tests that arm the process-global panic hook, which
/// holds one seed at a time.
fn hook_lock() -> MutexGuard<'static, ()> {
    static HOOK: Mutex<()> = Mutex::new(());
    HOOK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A configuration with every fault class enabled.
fn faulty(load: f64) -> SimConfig {
    SimConfig {
        fault: FaultConfig {
            mttf: 400.0,
            mttr: 20.0,
            crash_policy: CrashPolicy::RequeueSubtask,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            comm_delay_prob: 0.1,
            comm_delay_mean: 0.5,
        },
        ..quick(load)
    }
}

#[test]
fn faulty_sweeps_are_jobs_invariant_and_cache_replayable() {
    let dir = std::env::temp_dir().join(format!("sda-sweep-fault-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let points = || {
        vec![
            SweepPoint::new(faulty(0.5), 42),
            SweepPoint::new(
                SimConfig {
                    fault: FaultConfig {
                        crash_policy: CrashPolicy::AbortTask,
                        ..faulty(0.5).fault
                    },
                    ..faulty(0.5)
                },
                42,
            ),
        ]
    };
    let cold_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let cold = Sweep::new()
        .points(points())
        .jobs(1)
        .cache(Arc::clone(&cold_cache))
        .execute()
        .unwrap();
    // Faults actually fired, and the two crash policies diverge.
    let crashes: u64 = cold[0].runs().iter().map(|r| r.metrics.node_crashes).sum();
    assert!(crashes > 0, "MTTF 400 over 2000 time units must crash");
    assert_ne!(fingerprint(&cold[0]), fingerprint(&cold[1]));
    // Identical bytes at a different jobs level: the fault streams are
    // drawn per replication, not from shared worker state.
    let parallel = Sweep::new().points(points()).jobs(4).execute().unwrap();
    for (a, b) in cold.iter().zip(&parallel) {
        assert_eq!(fingerprint(a), fingerprint(b), "faulty run diverged");
    }
    // And a warm disk replay reproduces the same bytes without
    // simulating.
    let warm_cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let warm = Sweep::new()
        .points(points())
        .jobs(2)
        .cache(Arc::clone(&warm_cache))
        .execute()
        .unwrap();
    assert_eq!(warm_cache.report().misses, 0);
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(fingerprint(a), fingerprint(b), "cache replay diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The error of a sweep that must fail with a failed replication.
fn run_error(sweep: &Sweep) -> RunError {
    match sweep.execute() {
        Err(SweepError::Run(error)) => error,
        other => panic!("expected a failed replication, got {other:?}"),
    }
}

#[test]
fn a_panicking_replication_fails_the_sweep_at_the_first_failed_point() {
    // An exotic base seed no other test uses: the armed panic seed is
    // process-global, and sibling tests run concurrently. Points 1 and 3
    // share it, so both fail at replication 1.
    let _hook = hook_lock();
    let base = 0x00AD_BEEF_FA17_0001;
    let armed = derive_seed(base, 1);
    let points = vec![
        SweepPoint::new(quick(0.3), 42),
        SweepPoint::new(quick(0.45), base),
        SweepPoint::new(quick(0.6), 42),
        SweepPoint::new(quick(0.5), base),
    ];
    let cache = Arc::new(PointCache::in_memory());
    sda_sim::runner::test_hooks::panic_on_seed(armed);
    let errors: Vec<RunError> = [1, 4]
        .into_iter()
        .map(|jobs| {
            run_error(
                &Sweep::new()
                    .points(points.clone())
                    .jobs(jobs)
                    .cache(Arc::clone(&cache)),
            )
        })
        .collect();
    sda_sim::runner::test_hooks::clear();
    for error in &errors {
        match error {
            RunError::Panic {
                point,
                rep,
                seed,
                message,
            } => {
                assert_eq!((*point, *rep, *seed), (1, 1, armed));
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected a panic error, got {other}"),
        }
        let shown = error.to_string();
        for part in ["point 1", "rep 1", &format!("seed {armed}")] {
            assert!(shown.contains(part), "{shown:?} lacks {part:?}");
        }
    }
    // The completed siblings were stored: the second failed sweep found
    // them, and a rerun simulates only the two failed points,
    // bit-identical to a clean sequential run.
    let before = cache.report();
    assert_eq!((before.hits_memory, before.misses), (2, 6));
    let rerun = Sweep::new()
        .points(points.clone())
        .jobs(2)
        .cache(Arc::clone(&cache))
        .execute()
        .unwrap();
    let after = cache.report();
    assert_eq!(after.hits_memory - before.hits_memory, 2);
    assert_eq!(after.misses - before.misses, 2);
    let clean = Sweep::new().points(points).jobs(1).execute().unwrap();
    for (a, b) in clean.iter().zip(&rerun) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }
}

#[test]
fn adaptive_points_fail_at_the_real_replication_and_seed() {
    // A target no run set meets, so the point runs rounds 0..2, 2..4 and
    // 4..6; the armed seed is replication 3, in the second round. The
    // base seed is exotic for the same reason as above.
    let _hook = hook_lock();
    let base = 0x00AD_BEEF_FA17_0002;
    let armed = derive_seed(base, 3);
    let adaptive = SweepPoint::new(quick(0.5), base).stop(StopRule::CiWidth {
        target: 1e-9,
        min_reps: 2,
        max_reps: 6,
    });
    sda_sim::runner::test_hooks::panic_on_seed(armed);
    let errors: Vec<RunError> = [1, 4]
        .into_iter()
        .map(|jobs| {
            run_error(
                &Sweep::new()
                    .points([SweepPoint::new(quick(0.3), 42), adaptive.clone()])
                    .jobs(jobs),
            )
        })
        .collect();
    sda_sim::runner::test_hooks::clear();
    for error in errors {
        match error {
            RunError::Panic {
                point, rep, seed, ..
            } => assert_eq!((point, rep, seed), (1, 3, armed)),
            other => panic!("expected a panic error, got {other}"),
        }
    }
}
