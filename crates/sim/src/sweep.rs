//! The replication executor: every simulation this crate runs is a unit
//! of a [`Sweep`], scheduled on one worker pool.
//!
//! A paper reproduction is a *campaign*: dozens of points (configuration
//! × base seed × stop rule), each several replications. [`Sweep`]
//! flattens all points into per-replication work units, and the pool's
//! workers claim units one at a time from a shared cursor, so they drain
//! the whole campaign without ever waiting at a point boundary. Running
//! one configuration on its own is a one-point sweep.
//!
//! A [`StopRule::FixedReps`]`(n)` point is `n` units. A
//! [`StopRule::CiWidth`] point runs in rounds, each one pass of the pool
//! shared with every point still running: first its floor `min_reps`,
//! then `(len / 2).max(2)` more replications per round until its metrics
//! converge or it reaches its cap `max_reps`.
//!
//! # Determinism
//!
//! Replication `i` of a point with base seed `b` always simulates with
//! `derive_seed(b, i)` regardless of which worker runs it or when, and
//! results are reassembled per point by replication index. Round sizes
//! depend only on the replication count, never on timing. Every
//! [`MultiRun`] this module returns is therefore **bit-identical** at any
//! `jobs` level, pinned by the `sweep` integration test and the golden
//! fixtures. So is the trace of replication 0 that a
//! [`SweepPoint::trace`] sink records.
//!
//! # Deduplication and caching
//!
//! Identical points (same configuration, seed, and stop rule) are
//! detected by their canonical content address ([`crate::cache`]) and
//! simulated once per sweep; duplicates share the result, one
//! `Arc<MultiRun>` allocation, as do cache hits. With a
//! [`PointCache`] attached, completed points are also memoized across
//! sweeps — and, when the cache is disk-backed, across processes —
//! making repeated reproductions incremental.
//!
//! # Failures
//!
//! [`Sweep::execute`] is the only way to run points, and it fails one
//! way: with a [`SweepError`]. A point whose configuration or stop rule
//! is rejected fails the sweep before any simulation starts. Each
//! replication runs under [`std::panic::catch_unwind`] and a budget of
//! 16 × [`SimConfig::expected_events`] + 10,000 events, so a panicking or
//! runaway replication stops only its own point; the other points run to
//! the end and are stored in the cache, so a rerun resumes from them. The
//! sweep then returns the [`RunError`] of the first failed point in point
//! order, naming its lowest failed replication and that replication's
//! seed, the same at any `jobs` level.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sda_simcore::rng::derive_seed;
use sda_simcore::stats::Summary;

use crate::cache::{canonical_point, point_key_of, PointCache};
use crate::config::{ConfigError, SimConfig};
use crate::metrics::Metrics;
use crate::runner::{run_single_with_budget, MultiRun, RunResult, StopRule};
use crate::trace::{SharedSink, TraceSink};

/// One data point of a sweep: a configuration, the base seed its
/// replication seeds derive from, and the stopping rule.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Base seed; replication `i` runs with `derive_seed(seed, i)`.
    pub seed: u64,
    /// When to stop adding replications.
    pub stop: StopRule,
    /// A sink observing **replication 0 only**, flushed when that
    /// replication finishes. A traced point is never resolved from the
    /// cache or shared with a duplicate point.
    pub trace: Option<SharedSink>,
    /// Explicit per-replication seeds replacing the derived stream; caps
    /// the replication count at the list's length. A point with a seed
    /// list is never cached or deduplicated, since its content address
    /// names only the base seed.
    pub(crate) seeds: Option<Vec<u64>>,
}

impl SweepPoint {
    /// A point with the paper's default of two fixed replications.
    pub fn new(cfg: SimConfig, seed: u64) -> SweepPoint {
        SweepPoint {
            cfg,
            seed,
            stop: StopRule::FixedReps(2),
            trace: None,
            seeds: None,
        }
    }

    /// Sets the stopping rule.
    pub fn stop(mut self, stop: StopRule) -> SweepPoint {
        self.stop = stop;
        self
    }

    /// Attaches a trace sink to replication 0 (see [`SweepPoint::trace`]).
    pub fn trace(mut self, sink: SharedSink) -> SweepPoint {
        self.trace = Some(sink);
        self
    }

    /// The seed of replication `rep`.
    fn seed_of(&self, rep: usize) -> u64 {
        match &self.seeds {
            Some(list) => list[rep],
            None => derive_seed(self.seed, rep as u64),
        }
    }

    /// Checks the configuration and the stop rule, and returns the first
    /// round's size and the replication cap: the stop rule's bounds, both
    /// capped by an explicit seed list.
    fn validate(&self) -> Result<(usize, usize), ConfigError> {
        self.cfg.validate()?;
        if let StopRule::CiWidth { target, .. } = self.stop {
            if target.is_nan() || target <= 0.0 {
                return Err(ConfigError::BadCiTarget(target));
            }
        }
        let (first, cap) = self.stop.rep_bounds();
        let capped = |n: usize| self.seeds.as_ref().map_or(n, |list| n.min(list.len()));
        match capped(first) {
            0 => Err(ConfigError::NoReplications),
            first => Ok((first, capped(cap))),
        }
    }
}

/// How a point gets its result.
enum Plan {
    /// Resolved from the cache before any simulation.
    Cached(Arc<MultiRun>),
    /// The result of the task at this index, which a duplicate point
    /// shares with the point that planned it.
    Task(usize),
}

/// One planned simulation task (a point that neither hit the cache nor
/// duplicates an earlier point) and the replications it has run so far.
struct Task {
    point: SweepPoint,
    /// The index of the point that planned this task: the first point
    /// that resolves to it, since duplicates come later.
    index: usize,
    /// Content address, for storing the result back into the cache;
    /// `None` for a point that is never shared.
    address: Option<(String, String)>,
    /// The first round's size and the most replications this task may
    /// reach; a cap below the first round stops the task after it.
    first: usize,
    cap: usize,
    /// Each replication's event budget (see the [module docs](self)).
    budget: u64,
    /// Results by replication index; each round appends empty slots.
    runs: Vec<Option<RunResult>>,
    /// The lowest failed replication; a failed task runs no more rounds.
    failure: Option<RunError>,
}

impl Task {
    /// Schedules this task's next round (see the [module docs](self))
    /// and returns its replication indices, empty once the task is done.
    fn next_round(&mut self) -> Range<usize> {
        let len = self.runs.len();
        let add = match self.point.stop {
            _ if len == 0 => self.first,
            StopRule::CiWidth { target, .. }
                if self.failure.is_none()
                    && len < self.cap
                    && !ci_converged(&self.runs, target) =>
            {
                (len / 2).max(2).min(self.cap - len)
            }
            _ => 0,
        };
        self.runs.resize_with(len + add, || None);
        len..len + add
    }
}

/// Whether every metric [`StopRule::CiWidth`] tracks (`MD_local` and
/// `MD_global`) has converged to `target`.
fn ci_converged(runs: &[Option<RunResult>], target: f64) -> bool {
    runs.len() >= 2
        && [Metrics::md_local as fn(&Metrics) -> f64, Metrics::md_global]
            .iter()
            .all(|metric| {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|run| metric(&run.as_ref().expect("round completed").metrics))
                    .collect();
                Summary::from_values(&values).converged(target)
            })
}

/// One schedulable unit of work: a single replication of a task.
#[derive(Clone, Copy)]
struct Unit {
    task: usize,
    rep: usize,
}

/// Why a replication of a [`Sweep`] failed: `point`, `rep` and `seed`
/// name the point, the replication and the seed it ran with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The replication panicked; the panic payload is in `message`.
    Panic {
        /// Index of the failed point in the sweep's point list.
        point: usize,
        /// Replication index within the point.
        rep: usize,
        /// The seed the replication ran with.
        seed: u64,
        /// The panic message.
        message: String,
    },
    /// The replication used up its event budget (see the [module
    /// docs](self)) before its horizon: a runaway simulation, cut off.
    Budget {
        /// Index of the failed point in the sweep's point list.
        point: usize,
        /// Replication index within the point.
        rep: usize,
        /// The seed the replication ran with.
        seed: u64,
        /// The replication's event budget.
        budget: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic {
                point,
                rep,
                seed,
                message,
            } => write!(
                f,
                "point {point} rep {rep} (seed {seed}) panicked: {message}"
            ),
            RunError::Budget {
                point,
                rep,
                seed,
                budget,
            } => write!(
                f,
                "point {point} rep {rep} (seed {seed}) did not reach its horizon \
                 within its budget of {budget} events"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    fn rep(&self) -> usize {
        match self {
            RunError::Panic { rep, .. } | RunError::Budget { rep, .. } => *rep,
        }
    }
}

/// Why [`Sweep::execute`] returned no results.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A point was rejected before any simulation started: its
    /// configuration failed [`SimConfig::validate`], or its stop rule
    /// asks for no replications or sets a CI target that is not
    /// positive.
    Config(ConfigError),
    /// The first failed point in point order.
    Run(RunError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Config(error) => error.fmt(f),
            SweepError::Run(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<ConfigError> for SweepError {
    fn from(error: ConfigError) -> SweepError {
        SweepError::Config(error)
    }
}

/// Builds and executes a campaign of points over one worker pool. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct Sweep {
    points: Vec<SweepPoint>,
    jobs: usize,
    cache: Option<Arc<PointCache>>,
}

impl Default for Sweep {
    fn default() -> Sweep {
        Sweep::new()
    }
}

impl Sweep {
    /// An empty sweep with automatic parallelism and no cache.
    pub fn new() -> Sweep {
        Sweep {
            points: Vec::new(),
            jobs: 0,
            cache: None,
        }
    }

    /// Adds one point.
    pub fn point(mut self, point: SweepPoint) -> Sweep {
        self.points.push(point);
        self
    }

    /// Adds many points.
    pub fn points(mut self, points: impl IntoIterator<Item = SweepPoint>) -> Sweep {
        self.points.extend(points);
        self
    }

    /// Sets the number of worker threads; `0` (the default) uses the
    /// machine's available parallelism. Affects wall-clock time only,
    /// never results.
    pub fn jobs(mut self, jobs: usize) -> Sweep {
        self.jobs = jobs;
        self
    }

    /// Attaches a result cache; completed points are stored into it and
    /// future lookups (in this sweep or later ones) replay them.
    pub fn cache(mut self, cache: Arc<PointCache>) -> Sweep {
        self.cache = Some(cache);
        self
    }

    /// Worker-thread count for a given unit count.
    fn effective_jobs(&self, units: usize) -> usize {
        let auto = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let jobs = if self.jobs > 0 { self.jobs } else { auto() };
        jobs.min(units).max(1)
    }

    /// Executes every point and returns their results in point order.
    /// Duplicate points and cache hits share one allocation. See the
    /// [module docs](self) for how a failure stops the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Config`] for the first rejected point before
    /// starting any simulation, and [`SweepError::Run`] for the first
    /// point, in point order, whose replication panicked or used up its
    /// event budget. Every point that completed is still stored in the
    /// cache.
    pub fn execute(&self) -> Result<Vec<Arc<MultiRun>>, SweepError> {
        let bounds = self
            .points
            .iter()
            .map(SweepPoint::validate)
            .collect::<Result<Vec<_>, _>>()?;

        // Resolve each point: cache hit, duplicate of an earlier point,
        // or a fresh task to simulate. Deduplication keys on the same
        // canonical content address the cache uses.
        let mut plans = Vec::with_capacity(self.points.len());
        let mut tasks: Vec<Task> = Vec::new();
        let mut planned: HashMap<String, usize> = HashMap::new();
        for (index, (point, (first, cap))) in self.points.iter().zip(bounds).enumerate() {
            let mut address = None;
            if point.trace.is_none() && point.seeds.is_none() {
                let preimage = canonical_point(&point.cfg, point.seed, &point.stop);
                let key = point_key_of(&preimage);
                if let Some(&task) = planned.get(&key) {
                    if let Some(cache) = &self.cache {
                        cache.record_shared_hit();
                    }
                    plans.push(Plan::Task(task));
                    continue;
                }
                let (key, preimage) = match &self.cache {
                    Some(cache) => match cache.lookup(key, preimage) {
                        Ok(found) => {
                            plans.push(Plan::Cached(found));
                            continue;
                        }
                        Err(missed) => missed,
                    },
                    None => (key, preimage),
                };
                planned.insert(key.clone(), tasks.len());
                address = Some((key, preimage));
            }
            plans.push(Plan::Task(tasks.len()));
            tasks.push(Task {
                point: point.clone(),
                index,
                address,
                first,
                cap,
                budget: (16.0 * point.cfg.expected_events()) as u64 + 10_000,
                runs: Vec::new(),
                failure: None,
            });
        }

        // Run in rounds until no task schedules more replications. Unit
        // order is the submission order; it affects only which worker
        // runs what, never the results.
        loop {
            let round: Vec<Unit> = tasks
                .iter_mut()
                .enumerate()
                .flat_map(|(task, t)| t.next_round().map(move |rep| Unit { task, rep }))
                .collect();
            if round.is_empty() {
                break;
            }
            for (Unit { task, rep }, result) in self.run_units(&tasks, &round) {
                let task = &mut tasks[task];
                match result {
                    Ok(run) => task.runs[rep] = Some(run),
                    // Results arrive in no fixed order; keep the lowest
                    // failing replication so the error is the same at any
                    // jobs level.
                    Err(error) => {
                        if task.failure.as_ref().is_none_or(|f| error.rep() < f.rep()) {
                            task.failure = Some(error);
                        }
                    }
                }
            }
        }

        // Reassemble per task by replication index and store every
        // completed task, so a rerun resumes from it: the first collect
        // visits every task, the second returns the first failure. Tasks
        // are planned in point order, so that is the first failed point.
        let computed = tasks
            .into_iter()
            .map(|task| {
                if let Some(error) = task.failure {
                    return Err(SweepError::Run(error));
                }
                let runs = task
                    .runs
                    .into_iter()
                    .map(|run| run.expect("every replication ran"))
                    .collect();
                let multi = Arc::new(MultiRun::from_parts(runs));
                if let (Some(cache), Some((key, preimage))) = (&self.cache, &task.address) {
                    cache.store(key, preimage, &multi);
                }
                Ok(multi)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        // Hand results back in point order.
        Ok(plans
            .into_iter()
            .map(|plan| match plan {
                Plan::Cached(multi) => multi,
                Plan::Task(task) => Arc::clone(&computed[task]),
            })
            .collect())
    }

    /// Runs one round's units on the worker pool and returns each unit
    /// with its result, in no fixed order.
    fn run_units(
        &self,
        tasks: &[Task],
        units: &[Unit],
    ) -> impl Iterator<Item = (Unit, Result<RunResult, RunError>)> {
        // Workers claim units in submission order from one shared
        // cursor; no unit schedules another, so a worker whose claim
        // passes the end is done.
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let per_worker: Vec<Vec<_>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.effective_jobs(units.len()))
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        while let Some(&unit) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                            let result = run_unit(&tasks[unit.task], unit.rep);
                            done.push((unit, result));
                        }
                        done
                    })
                })
                .collect();
            // Join each worker by hand: the scope's own join returns once
            // the closures are done, before the threads exit and hand
            // their malloc arenas back, so the next sweep's workers could
            // find none free and make another, about 1.5 MB more resident
            // for the rest of the process, in some runs and not others.
            workers
                .into_iter()
                .map(|worker| {
                    worker
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        per_worker.into_iter().flatten()
    }
}

/// Executes replication `rep` of `task`'s point. Configurations were
/// validated up front, so simulation itself cannot fail — but the unit
/// is isolated with [`std::panic::catch_unwind`] so a poisoned
/// replication (a model bug, a fault-injection edge case) degrades into
/// a [`RunError`] instead of tearing down the worker pool.
fn run_unit(task: &Task, rep: usize) -> Result<RunResult, RunError> {
    let Task { point, index, .. } = task;
    let seed = point.seed_of(rep);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sink = match (rep, &point.trace) {
            (0, Some(user)) => Some(Box::new(user.clone()) as Box<dyn TraceSink>),
            _ => None,
        };
        run_single_with_budget(&point.cfg, seed, sink, task.budget)
    }));
    match caught {
        Ok(Some(run)) => Ok(run),
        Ok(None) => Err(RunError::Budget {
            point: *index,
            rep,
            seed,
            budget: task.budget,
        }),
        Err(payload) => Err(RunError::Panic {
            point: *index,
            rep,
            seed,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` cover everything `panic!` produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(load: f64) -> SimConfig {
        SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline().with_load(load)
        }
    }

    /// The task planning makes of `point` at `index`, with its budget
    /// cut to `budget` events.
    fn task(point: SweepPoint, index: usize, budget: u64) -> Task {
        let (first, cap) = point.validate().expect("valid point");
        Task {
            point,
            index,
            address: None,
            first,
            cap,
            budget,
            runs: Vec::new(),
            failure: None,
        }
    }

    #[test]
    fn a_replication_over_its_budget_fails_naming_its_point_rep_and_seed() {
        let error = run_unit(&task(SweepPoint::new(quick(0.5), 42), 3, 500), 1).unwrap_err();
        let seed = derive_seed(42, 1);
        assert_eq!(
            error,
            RunError::Budget {
                point: 3,
                rep: 1,
                seed,
                budget: 500
            }
        );
        let shown = error.to_string();
        for part in ["point 3", "rep 1", &format!("seed {seed}"), "500 events"] {
            assert!(shown.contains(part), "{shown:?} lacks {part:?}");
        }
    }

    #[test]
    fn budget_failures_name_their_point_rep_and_seed_at_any_jobs_level() {
        // Adaptive and fixed-count points alike; each error names the
        // replication's own seed, not the base seed.
        let adaptive = StopRule::CiWidth {
            target: 0.5,
            min_reps: 2,
            max_reps: 64,
        };
        let tasks = [
            task(SweepPoint::new(quick(0.5), 42).stop(adaptive), 0, 500),
            task(
                SweepPoint::new(quick(0.8), 7).stop(StopRule::FixedReps(3)),
                1,
                500,
            ),
        ];
        let units: Vec<Unit> = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
            .map(|(task, rep)| Unit { task, rep })
            .into();
        for jobs in [1, 2] {
            let mut results: Vec<_> = Sweep::new().jobs(jobs).run_units(&tasks, &units).collect();
            results.sort_by_key(|(unit, _)| (unit.task, unit.rep));
            assert_eq!(results.len(), units.len());
            for (Unit { task, rep }, result) in results {
                let base = [42, 7][task];
                let expected = RunError::Budget {
                    point: task,
                    rep,
                    seed: derive_seed(base, rep as u64),
                    budget: 500,
                };
                assert_eq!(result.unwrap_err(), expected, "jobs {jobs}");
            }
        }
    }
}
