//! Shared replication driver for every experiment sweep.
//!
//! All tables, figures, ablations and checkpoints funnel through
//! [`run_configs`] (or [`run_grid`], which runs a two-dimensional grid
//! as one [`run_configs`] call), so one place decides how data points
//! are executed and at what size: each configuration gets the [`Scale`]'s
//! horizon, its replication count and the campaign seed here and nowhere
//! else. By default the campaign-level [`Sweep`] engine then schedules
//! every replication of every point across one worker pool, whose
//! workers claim replications from a shared cursor, and memoizes
//! completed points in a [`PointCache`].
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

use crate::scale::Scale;

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
    /// [`run_configs`] call are still deduplicated by the engine.
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

    /// Executes a batch of configurations at `scale` as one sweep and
    /// returns their results in order.
    fn run(&self, scale: Scale, cfgs: Vec<SimConfig>) -> Vec<Arc<MultiRun>> {
        let points: Vec<SweepPoint> = cfgs
            .into_iter()
            .map(|cfg| {
                SweepPoint::new(scale.apply(cfg), CAMPAIGN_SEED)
                    .stop(StopRule::FixedReps(scale.replications()))
            })
            .collect();
        let mut sweep = Sweep::new().jobs(self.jobs).points(points);
        if let Some(cache) = &self.cache {
            sweep = sweep.cache(Arc::clone(cache));
        }
        sweep.execute().expect("every experiment point runs")
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

/// Runs a batch of experiment configurations — all points of a figure
/// or table at once — at `scale` and returns their results in order.
/// Each configuration gets the scale's duration and warm-up, its
/// replication count and [`CAMPAIGN_SEED`]. Batching a whole figure into
/// one call lets the engine interleave replications of different points
/// across workers instead of running point-by-point. Points with equal
/// configurations, within the batch or across the campaign's cache,
/// share one result.
///
/// # Panics
///
/// Panics if a configuration fails validation — experiment
/// configurations are constructed by the harness and must be valid.
pub fn run_configs(scale: Scale, cfgs: Vec<SimConfig>) -> Vec<Arc<MultiRun>> {
    current().run(scale, cfgs)
}

/// Runs the `rows` × `cols` grid whose cell `(row, col)` is
/// `cell(row, col)` as one [`run_configs`] sweep and returns the
/// results row by row: `grid[i][j]` belongs to `rows[i]` and `cols[j]`.
///
/// # Panics
///
/// As [`run_configs`].
pub fn run_grid<R, C>(
    scale: Scale,
    rows: &[R],
    cols: &[C],
    cell: impl Fn(&R, &C) -> SimConfig,
) -> Vec<Vec<Arc<MultiRun>>> {
    let cfgs = rows
        .iter()
        .flat_map(|row| cols.iter().map(|col| cell(row, col)))
        .collect();
    let mut results = run_configs(scale, cfgs).into_iter();
    rows.iter()
        .map(|_| results.by_ref().take(cols.len()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use sda_core::SdaStrategy;

    use super::*;

    #[test]
    fn run_configs_uses_the_campaign_seed_stream_and_scale() {
        let multi = &run_configs(Scale::Quick, vec![SimConfig::baseline()])[0];
        assert_eq!(multi.runs().len(), Scale::Quick.replications());
        assert_eq!(
            multi.runs()[0].seed,
            sda_simcore::rng::derive_seed(CAMPAIGN_SEED, 0),
            "common-random-numbers contract: seeds depend only on (base, i)"
        );
        assert_eq!(multi.runs()[0].duration, Scale::Quick.duration());
    }

    #[test]
    fn a_batch_matches_its_points_run_one_at_a_time() {
        let cfgs = vec![SimConfig::baseline(), SimConfig::baseline().with_load(0.7)];
        let batched = with_exec(Exec::sweep().with_jobs(3), || {
            run_configs(Scale::Quick, cfgs.clone())
        });
        let single = with_exec(Exec::sweep_uncached().with_jobs(1), || {
            cfgs.iter()
                .flat_map(|cfg| run_configs(Scale::Quick, vec![cfg.clone()]))
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
            run_configs(Scale::Quick, vec![SimConfig::baseline()]);
            run_configs(Scale::Quick, vec![SimConfig::baseline()]);
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

    #[test]
    fn run_grid_returns_cells_row_by_row() {
        let strategies = [SdaStrategy::ud_ud(), SdaStrategy::ud_div1()];
        let loads = [0.3, 0.5, 0.7];
        let cell =
            |s: &SdaStrategy, &load: &f64| SimConfig::baseline().with_load(load).with_strategy(*s);
        with_exec(Exec::sweep().with_jobs(2), || {
            let grid = run_grid(Scale::Quick, &strategies, &loads, cell);
            assert_eq!(grid.len(), strategies.len());
            let simulated = cache_report().expect("sweep mode has a cache").misses;
            for (s, row) in strategies.iter().zip(&grid) {
                assert_eq!(row.len(), loads.len());
                for (load, multi) in loads.iter().zip(row) {
                    let alone = &run_configs(Scale::Quick, vec![cell(s, load)])[0];
                    assert!(Arc::ptr_eq(multi, alone), "{s:?} at load {load}");
                }
            }
            let report = cache_report().expect("sweep mode has a cache");
            assert_eq!(report.misses, simulated, "the lookups simulate nothing");
        });
    }
}
