//! Running simulations: the [`Runner`] builder describes independent
//! replications of one configuration, with fixed-count or adaptive
//! (CI-width) stopping, and renders per-metric statistics as a
//! machine-readable `stats.json` record.
//!
//! The paper's methodology (§5): each data point is the average of
//! independent one-million-time-unit runs, reported with a 95%
//! confidence interval. [`Runner`] reproduces that — one simulation per
//! derived seed, combined per metric with a Student-t interval — and
//! generalizes it with adaptive stopping: keep adding replications until
//! every tracked metric's CI width ratio falls below a target.
//!
//! [`Runner::execute`] lowers to a one-point [`Sweep`], so a single run
//! and a whole campaign share one executor: the same worker pool,
//! panic isolation, run body and error, a [`SweepError`]
//! ([`crate::sweep`] has the scheduling and failure details).
//!
//! # Determinism
//!
//! Replication `i` of base seed `b` always runs with seed
//! [`derive_seed`](sda_simcore::rng::derive_seed)`(b, i)`, and the
//! adaptive-stopping schedule depends only on the accumulated results,
//! never on thread timing — so the output of [`Runner::execute`] is
//! **bit-identical** for `jobs = 1` and `jobs = N`. Parallelism changes
//! only the wall-clock time.
//!
//! The same holds for tracing: a sink attached with [`Runner::trace`]
//! observes replication 0 only (which always runs with
//! [`derive_seed`](sda_simcore::rng::derive_seed)`(b, 0)`), so a trace
//! file is byte-identical at any `jobs` level.
//!
//! ```
//! use sda_sim::{Runner, SimConfig, StopRule};
//! let cfg = SimConfig { duration: 2_000.0, warmup: 100.0, ..SimConfig::baseline() };
//! let multi = Runner::new(cfg)
//!     .seed(42)
//!     .jobs(2)
//!     .stop(StopRule::FixedReps(2))
//!     .execute()
//!     .unwrap();
//! assert_eq!(multi.runs().len(), 2);
//! println!("{}", multi.stats().to_json());
//! ```

use std::sync::Arc;

use sda_simcore::stats::{Estimate, NodeStats, Summary};
use sda_simcore::{Engine, SimTime};

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::simulation::Simulation;
use crate::sweep::{Sweep, SweepError, SweepPoint};
use crate::trace::{SharedSink, TraceSink};

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// All task statistics.
    pub metrics: Metrics,
    /// Events processed by the engine.
    pub events: u64,
    /// Per-node statistics: busy time, services, local misses, and the
    /// time-weighted ready-queue length (waiting tasks).
    pub node_stats: Vec<NodeStats>,
    /// The simulated horizon (the configured duration).
    pub duration: f64,
    /// The seed the run used.
    pub seed: u64,
    /// Wall-clock seconds the engine loop took (excluding setup and
    /// result extraction). Nondeterministic — machine- and load-
    /// dependent — so no [`MultiRun::stats`] report carries it.
    pub wall_secs: f64,
}

impl RunResult {
    /// Mean server utilization across nodes.
    pub fn utilization(&self) -> f64 {
        if self.node_stats.is_empty() || self.duration <= 0.0 {
            return 0.0;
        }
        let busy = self.node_stats.iter().map(NodeStats::busy).sum::<f64>();
        busy / (self.node_stats.len() as f64 * self.duration)
    }
}

/// When a [`Runner`] stops adding replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Run exactly this many replications (the paper used 2 per point).
    FixedReps(usize),
    /// Add replications until the 95% CI width ratio of every tracked
    /// metric (`MD_local` and `MD_global`) falls at or below `target`,
    /// running at least `min_reps` and at most `max_reps` replications.
    ///
    /// The width ratio is `(hi − lo) / |mean|`, falling back to the
    /// absolute width for means at zero — see
    /// [`Estimate::width_ratio`](sda_simcore::stats::Estimate::width_ratio).
    /// All three fields are part of the point's cache key.
    CiWidth {
        /// The CI width ratio to reach; must be positive.
        target: f64,
        /// The replication floor, clamped up to 2 (a CI needs two
        /// samples).
        min_reps: usize,
        /// The hard replication cap; a cap below the floor stops the
        /// point at its floor.
        max_reps: usize,
    },
}

impl StopRule {
    /// The first round's size and the replication cap. The adaptive
    /// floor is clamped up to 2 and its cap up to 1. The sweep schedules
    /// by these and the cache key writes them, so both always read the
    /// same bounds.
    pub(crate) fn rep_bounds(&self) -> (usize, usize) {
        match *self {
            StopRule::FixedReps(n) => (n, n),
            StopRule::CiWidth {
                min_reps, max_reps, ..
            } => (min_reps.max(2), max_reps.max(1)),
        }
    }
}

/// Builds and executes a set of simulation replications.
///
/// The builder for running one configuration: every replication count,
/// parallelism level and stopping rule is set here, and
/// [`Runner::execute`] lowers the result to a one-point [`Sweep`], the
/// crate's only executor. See the [module docs](self) for the
/// determinism guarantee.
#[derive(Debug, Clone)]
pub struct Runner {
    point: SweepPoint,
    sweep: Sweep,
}

impl Runner {
    /// Starts building a run of `cfg` with the defaults: base seed 0,
    /// automatic parallelism, and the paper's two fixed replications.
    pub fn new(cfg: SimConfig) -> Runner {
        Runner {
            point: SweepPoint::new(cfg, 0),
            sweep: Sweep::new(),
        }
    }

    /// Sets the base seed; replication `i` runs with
    /// [`derive_seed`](sda_simcore::rng::derive_seed)`(base, i)`.
    pub fn seed(mut self, base: u64) -> Runner {
        self.point.seed = base;
        self
    }

    /// Supplies explicit per-replication seeds instead of the derived
    /// stream (common-random-numbers workflows). Caps the replication
    /// count at `seeds.len()`.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Runner {
        self.point.seeds = Some(seeds);
        self
    }

    /// Sets the number of worker threads; `0` (the default) uses the
    /// machine's available parallelism. Affects wall-clock time only,
    /// never results.
    pub fn jobs(mut self, jobs: usize) -> Runner {
        self.sweep = self.sweep.jobs(jobs);
        self
    }

    /// Sets the stopping rule.
    pub fn stop(mut self, rule: StopRule) -> Runner {
        self.point.stop = rule;
        self
    }

    /// Attaches a trace sink to **replication 0 only** (the one seeded
    /// with [`derive_seed`](sda_simcore::rng::derive_seed)`(base, 0)`),
    /// so traced output is independent of the `jobs` level and of how
    /// many replications follow. The sink is flushed when that
    /// replication finishes.
    pub fn trace(mut self, sink: SharedSink) -> Runner {
        self.point.trace = Some(sink);
        self
    }

    /// Executes the configured replications and combines them.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Config`] before starting any run if the
    /// configuration is invalid, the rule asks for zero replications
    /// (`FixedReps(0)`, an empty seed list) or the CI target is not
    /// positive, and [`SweepError::Run`] if a replication panics or
    /// uses up its event budget.
    pub fn execute(&self) -> Result<MultiRun, SweepError> {
        let mut results = self.sweep.clone().point(self.point.clone()).execute()?;
        // A one-point sweep with no cache holds the only reference.
        let multi = results.pop().expect("one point in, one result out");
        Ok(Arc::unwrap_or_clone(multi))
    }
}

/// The run body of every replication: one simulation of a validated
/// configuration to its duration, optionally feeding a trace sink
/// (flushed at the end of the run), as one engine run of at most
/// `budget` events. A run that reaches its budget first (a runaway, or a
/// livelock at one instant) is `None`, its partial results discarded.
pub(crate) fn run_single_with_budget(
    cfg: &SimConfig,
    seed: u64,
    sink: Option<Box<dyn TraceSink>>,
    budget: u64,
) -> Option<RunResult> {
    test_hooks::check(seed);
    let mut sim = Simulation::new(cfg.clone(), seed).expect("config validated");
    if let Some(sink) = sink {
        sim.set_sink(sink);
    }
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    let started = std::time::Instant::now();
    if !engine.run_bounded(&mut sim, SimTime::from(cfg.duration), budget) {
        return None;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    if let Some(mut sink) = sim.take_sink() {
        sink.flush();
    }
    let (metrics, node_stats) = sim.into_results();
    Some(RunResult {
        metrics,
        events: engine.events_processed(),
        node_stats,
        duration: cfg.duration,
        seed,
        wall_secs,
    })
}

/// Test-only fault hooks for the harness itself: lets integration tests
/// inject a panic into one specific replication to exercise the sweep
/// engine's isolation. Not part of the public API.
#[doc(hidden)]
pub mod test_hooks {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Seed whose replication panics on entry (0 = disabled; seed 0
    /// itself cannot be targeted, which no test needs).
    static PANIC_SEED: AtomicU64 = AtomicU64::new(0);

    /// Arms the hook: the next replications running with exactly `seed`
    /// panic on entry. Use an exotic seed so concurrent tests in the
    /// same process cannot collide.
    pub fn panic_on_seed(seed: u64) {
        PANIC_SEED.store(seed, Ordering::SeqCst);
    }

    /// Disarms the hook.
    pub fn clear() {
        PANIC_SEED.store(0, Ordering::SeqCst);
    }

    pub(crate) fn check(seed: u64) {
        let armed = PANIC_SEED.load(Ordering::SeqCst);
        if armed != 0 && armed == seed {
            panic!("test hook: injected panic for seed {seed}");
        }
    }
}

/// A set of replications of the same configuration, with per-metric
/// confidence intervals.
#[derive(Debug, Clone)]
pub struct MultiRun {
    runs: Vec<RunResult>,
}

impl MultiRun {
    /// Assembles a run set from its parts: `runs` must be in replication
    /// order (replication `i` seeded with
    /// [`derive_seed`](sda_simcore::rng::derive_seed)`(base, i)`) for the
    /// determinism contract to hold. Used by the sweep to recombine
    /// the replications it scheduled, and by the result cache to
    /// reconstruct a deserialized run set.
    pub fn from_parts(runs: Vec<RunResult>) -> MultiRun {
        assert!(!runs.is_empty(), "a run set needs at least one run");
        MultiRun { runs }
    }

    /// The individual runs.
    pub fn runs(&self) -> &[RunResult] {
        &self.runs
    }

    /// Applies `metric` to each run and combines the values into a mean
    /// ± 95% CI.
    pub fn estimate<F>(&self, metric: F) -> Estimate
    where
        F: Fn(&RunResult) -> f64,
    {
        let values: Vec<f64> = self.runs.iter().map(metric).collect();
        Estimate::from_values(&values)
    }

    /// Applies `metric` to each run and returns the full descriptive
    /// summary (the `stats.json` record for one metric).
    fn summary_of<F>(&self, metric: F) -> Summary
    where
        F: Fn(&RunResult) -> f64,
    {
        Summary::from_values(&self.runs.iter().map(metric).collect::<Vec<_>>())
    }

    /// `MD_local` across replications.
    pub fn md_local(&self) -> Estimate {
        self.estimate(|r| r.metrics.md_local())
    }

    /// `MD_subtask` across replications.
    pub fn md_subtask(&self) -> Estimate {
        self.estimate(|r| r.metrics.md_subtask())
    }

    /// `MD_global` (all global classes) across replications.
    pub fn md_global(&self) -> Estimate {
        self.estimate(|r| r.metrics.md_global())
    }

    /// `MD_global` for the class with exactly `n` subtasks.
    pub fn md_global_n(&self, n: u32) -> Estimate {
        self.estimate(|r| r.metrics.md_global_n(n))
    }

    /// Fraction of missed work across replications (§6.1).
    pub fn missed_work(&self) -> Estimate {
        self.estimate(|r| r.metrics.missed_work_fraction())
    }

    /// Mean node utilization across replications.
    pub fn utilization(&self) -> Estimate {
        self.estimate(RunResult::utilization)
    }

    /// Pools the raw metrics of all runs (counter-level merge).
    pub fn pooled_metrics(&self) -> Metrics {
        let mut pooled = Metrics::new();
        for run in &self.runs {
            pooled.merge(&run.metrics);
        }
        pooled
    }

    /// The per-metric descriptive statistics of this run set — the
    /// content of a `stats.json` file — including a per-node section.
    pub fn stats(&self) -> StatsReport {
        let nodes = self.runs.first().map_or(0, |r| r.node_stats.len());
        let per_node = (0..nodes)
            .map(|i| NodeSummary {
                node: i,
                utilization: self.summary_of(|r| r.node_stats[i].utilization(r.duration)),
                mean_queue_len: self
                    .summary_of(|r| r.node_stats[i].mean_queue_len(SimTime::from(r.duration))),
                local_miss_rate: self.summary_of(|r| r.node_stats[i].local_miss_rate()),
            })
            .collect();
        StatsReport {
            entries: vec![
                ("md_local", self.summary_of(|r| r.metrics.md_local())),
                ("md_subtask", self.summary_of(|r| r.metrics.md_subtask())),
                ("md_global", self.summary_of(|r| r.metrics.md_global())),
                (
                    "missed_work",
                    self.summary_of(|r| r.metrics.missed_work_fraction()),
                ),
                ("utilization", self.summary_of(RunResult::utilization)),
            ],
            per_node,
        }
    }
}

/// Per-node descriptive statistics across replications, one entry per
/// node in the `per_node` array of `stats.json`.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// Node index.
    pub node: usize,
    /// Utilization (busy time / duration) across replications.
    pub utilization: Summary,
    /// Time-weighted mean ready-queue length across replications.
    pub mean_queue_len: Summary,
    /// Local-task miss rate at this node across replications.
    pub local_miss_rate: Summary,
}

/// Per-metric descriptive statistics for one run point, rendered as
/// `stats.json`: a JSON object mapping each metric name to
/// `{"mean", "stddev", "stderr", "min", "max", "samples",
/// "confidence_interval_95": [lo, hi], "ci_width_ratio"}`, plus a
/// `per_node` array with each node's utilization, mean queue length,
/// and local miss rate.
#[derive(Debug, Clone)]
pub struct StatsReport {
    entries: Vec<(&'static str, Summary)>,
    per_node: Vec<NodeSummary>,
}

impl StatsReport {
    /// The metrics in report order.
    pub fn entries(&self) -> &[(&'static str, Summary)] {
        &self.entries
    }

    /// The per-node section (one entry per node).
    pub fn per_node(&self) -> &[NodeSummary] {
        &self.per_node
    }

    /// Looks up one metric's summary by name.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Renders the report as a `stats.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (name, summary) in self.entries.iter() {
            out.push_str(&format!("  \"{name}\": {},\n", summary.to_json()));
        }
        out.push_str("  \"per_node\": [\n");
        for (i, n) in self.per_node.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"node\": {}, \"utilization\": {}, \"mean_queue_len\": {}, \"local_miss_rate\": {}}}{}\n",
                n.node,
                n.utilization.to_json(),
                n.mean_queue_len.to_json(),
                n.local_miss_rate.to_json(),
                if i + 1 < self.per_node.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(run: &RunResult) -> (u64, u64, u64, u64) {
        let m = &run.metrics;
        (
            run.events,
            m.local_count(),
            m.global_count(),
            m.md_global().to_bits(),
        )
    }

    #[test]
    fn a_budget_cuts_a_run_off_and_changes_nothing_it_lets_finish() {
        let cfg = SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        };
        let free = run_single_with_budget(&cfg, 9, None, u64::MAX).expect("no bound");
        // The derived budget, and one just above the run's own count.
        let derived = (16.0 * cfg.expected_events()) as u64 + 10_000;
        for budget in [derived, free.events + 1] {
            let bounded = run_single_with_budget(&cfg, 9, None, budget).expect("within");
            assert_eq!(fingerprint(&bounded), fingerprint(&free));
        }
        // A run that reaches its budget before its horizon is discarded.
        for budget in [500, free.events] {
            assert!(run_single_with_budget(&cfg, 9, None, budget).is_none());
        }
    }
}
