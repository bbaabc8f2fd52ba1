//! Shared replication driver for every experiment sweep.
//!
//! All tables, figures, ablations and checkpoints funnel through
//! [`run_points`], so one place decides how data points are executed:
//! by default the campaign-level [`Sweep`] engine, which schedules every
//! replication of every point across one work-stealing worker pool and
//! memoizes completed points in a [`PointCache`].
//!
//! # Common random numbers, campaign-wide
//!
//! Every experiment uses the same base seed, [`CAMPAIGN_SEED`]: the seed
//! of replication `i` depends only on `(CAMPAIGN_SEED, i)`, so every
//! configuration — across strategies, loads, *and figures* — sees
//! identical arrival and service draws. That is the classic
//! common-random-numbers variance reduction for paired comparisons, and
//! it makes config-identical points (the UD baseline curve appears in
//! several figures; checkpoints re-measure figure cells) resolve to
//! identical cache keys, so the sweep engine simulates each unique point
//! exactly once per campaign.
//!
//! # Choosing an execution context
//!
//! The process-wide context (worker count and cache) is installed once
//! (by `repro`) with [`install`]; everything after that call uses it.
//! Tests that need a specific context run under the scoped [`with_exec`]
//! override instead.

use std::sync::{Arc, Mutex, OnceLock};

use sda_sim::{CacheReport, MultiRun, PointCache, SimConfig, StopRule, Sweep, SweepPoint};

/// The single base seed shared by the whole campaign (see the
/// [module docs](self)).
pub const CAMPAIGN_SEED: u64 = 42;

/// Worker threads: the `SDA_JOBS` environment variable, or `0`
/// (automatic — the machine's available parallelism). Parsed once per
/// process.
pub fn jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        std::env::var("SDA_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    })
}

/// One experiment data point: a configuration, its base seed, and a
/// fixed replication count.
#[derive(Debug, Clone)]
pub struct Point {
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Base seed of the derived replication seed stream.
    pub seed: u64,
    /// Number of replications.
    pub reps: usize,
}

impl Point {
    /// A point at the campaign seed.
    pub fn new(cfg: SimConfig, reps: usize) -> Point {
        Point {
            cfg,
            seed: CAMPAIGN_SEED,
            reps,
        }
    }
}

/// An execution context for experiment sweeps: a worker count and the
/// cache (if any) shared by every sweep in the campaign.
#[derive(Debug, Clone)]
pub struct Exec {
    jobs: usize,
    cache: Option<Arc<PointCache>>,
}

impl Exec {
    /// The default: the sweep engine with an in-memory cache, so
    /// config-identical points across figures are simulated once per
    /// process.
    pub fn sweep() -> Exec {
        Exec {
            jobs: jobs(),
            cache: Some(Arc::new(PointCache::in_memory())),
        }
    }

    /// The sweep engine backed by an on-disk cache directory, making
    /// reproductions incremental across processes.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn sweep_with_dir(dir: impl Into<std::path::PathBuf>) -> std::io::Result<Exec> {
        Ok(Exec {
            jobs: jobs(),
            cache: Some(Arc::new(PointCache::with_dir(dir)?)),
        })
    }

    /// The sweep engine with no cache at all: no cross-figure
    /// memoization, no disk. Points duplicated *within* one
    /// [`run_points`] call are still deduplicated by the engine.
    pub fn sweep_uncached() -> Exec {
        Exec {
            jobs: jobs(),
            cache: None,
        }
    }

    /// Overrides the worker-thread count (`0` = automatic).
    pub fn with_jobs(mut self, jobs: usize) -> Exec {
        self.jobs = jobs;
        self
    }

    /// The cache's hit/miss accounting, when a cache is attached.
    pub fn cache_report(&self) -> Option<CacheReport> {
        self.cache.as_ref().map(|c| c.report())
    }

    /// Executes a batch of points as one sweep and returns their results
    /// in order.
    fn run(&self, points: &[Point]) -> Vec<Arc<MultiRun>> {
        let mut sweep = Sweep::new().jobs(self.jobs).points(
            points
                .iter()
                .map(|p| SweepPoint::new(p.cfg.clone(), p.seed).stop(StopRule::FixedReps(p.reps)))
                .collect::<Vec<_>>(),
        );
        if let Some(cache) = &self.cache {
            sweep = sweep.cache(Arc::clone(cache));
        }
        sweep.execute().expect("experiment configuration validates")
    }
}

/// The process-wide execution context, installed by [`install`].
static GLOBAL: OnceLock<Exec> = OnceLock::new();

thread_local! {
    /// A scoped override used by tests ([`with_exec`]); checked before
    /// the process-wide context.
    static OVERRIDE: Mutex<Vec<Exec>> = const { Mutex::new(Vec::new()) };
}

/// Installs the process-wide execution context. Call once, before the
/// first experiment runs (later calls are ignored — the first
/// installation wins, matching [`OnceLock`] semantics).
pub fn install(exec: Exec) {
    let _ = GLOBAL.set(exec);
}

/// Runs `f` with `exec` as this thread's execution context, restoring
/// the previous context afterwards. For tests that must pin a context
/// without touching process state.
pub fn with_exec<T>(exec: Exec, f: impl FnOnce() -> T) -> T {
    OVERRIDE.with(|stack| stack.lock().expect("exec override").push(exec));
    // Pop even if `f` panics, so one failing test cannot leak its
    // context into the next test on this thread.
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| {
                stack.lock().expect("exec override").pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// The execution context in effect on this thread: the innermost
/// [`with_exec`] override, else the installed process-wide context, else
/// the default [`Exec::sweep`] (installed on first use).
fn current() -> Exec {
    let overridden = OVERRIDE.with(|stack| stack.lock().expect("exec override").last().cloned());
    if let Some(exec) = overridden {
        return exec;
    }
    GLOBAL.get_or_init(Exec::sweep).clone()
}

/// The hit/miss accounting of the current context's cache, if any.
pub fn cache_report() -> Option<CacheReport> {
    current().cache_report()
}

/// Runs a batch of experiment data points — all points of a figure or
/// table at once — and returns their results in point order. Batching a
/// whole figure into one call lets the engine interleave replications of
/// different points across workers instead of running point-by-point.
/// Points with equal configurations, within the batch or across the
/// campaign's cache, share one result.
///
/// # Panics
///
/// Panics if a configuration fails validation — experiment
/// configurations are constructed by the harness and must be valid.
pub fn run_points(points: &[Point]) -> Vec<Arc<MultiRun>> {
    current().run(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimConfig {
        SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        }
    }

    #[test]
    fn run_points_uses_the_derived_seed_stream() {
        let point = Point {
            cfg: quick(),
            seed: 42,
            reps: 2,
        };
        let multi = &run_points(&[point])[0];
        assert_eq!(multi.runs().len(), 2);
        assert_eq!(
            multi.runs()[0].seed,
            sda_simcore::rng::derive_seed(42, 0),
            "common-random-numbers contract: seeds depend only on (base, i)"
        );
    }

    #[test]
    fn a_batch_matches_its_points_run_one_at_a_time() {
        let points = [
            Point::new(quick(), 2),
            Point::new(quick().with_load(0.7), 2),
        ];
        let batched = with_exec(Exec::sweep().with_jobs(3), || run_points(&points));
        let single = with_exec(Exec::sweep_uncached().with_jobs(1), || {
            points
                .iter()
                .flat_map(|p| run_points(std::slice::from_ref(p)))
                .collect::<Vec<_>>()
        });
        for (a, b) in batched.iter().zip(&single) {
            assert_eq!(a.stats().to_json(), b.stats().to_json());
            for (x, y) in a.runs().iter().zip(b.runs()) {
                assert_eq!(
                    x.metrics.md_global().to_bits(),
                    y.metrics.md_global().to_bits()
                );
            }
        }
    }

    #[test]
    fn with_exec_restores_the_previous_context() {
        let report = with_exec(Exec::sweep().with_jobs(1), || {
            run_points(&[Point::new(quick(), 2)]);
            run_points(&[Point::new(quick(), 2)]);
            cache_report().expect("sweep mode has a cache")
        });
        assert_eq!(report.misses, 1);
        assert_eq!(
            report.hits_memory, 1,
            "second identical point is a memory hit"
        );
        // An uncached context reports no cache.
        assert_eq!(with_exec(Exec::sweep_uncached(), cache_report), None);
    }
}
