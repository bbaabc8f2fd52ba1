//! Simulation configuration (§5's parameters, Table 1's baseline).

use std::fmt;

use sda_core::{EstimationModel, PspStrategy, SdaStrategy};
use sda_model::TaskSpec;
use sda_sched::Policy;
use sda_simcore::dist::{Constant, Dist, Exp, Uniform};

use crate::fault::FaultConfig;

pub(crate) mod text;

pub use text::parse_strategy;

/// The shape of the global tasks a run generates.
#[derive(Debug, Clone, PartialEq)]
pub enum GlobalShape {
    /// Every global task is `n` simple subtasks in parallel at `n`
    /// distinct nodes (the §4–§7 baseline; Table 1 uses `n = 4`).
    ParallelFixed {
        /// Number of parallel subtasks.
        n: usize,
    },
    /// The number of parallel subtasks is drawn uniformly from
    /// `[lo, hi]` per task (§7.4 uses `[2..6]`).
    ParallelUniform {
        /// Smallest subtask count (inclusive).
        lo: usize,
        /// Largest subtask count (inclusive).
        hi: usize,
    },
    /// Every global task instantiates the given serial-parallel graph
    /// (§8 uses the Figure 14 five-stage pipeline).
    Spec(TaskSpec),
}

impl GlobalShape {
    /// The Figure 14 task graph: 5 serial stages; stages 2 and 4 are
    /// parallel complex subtasks of 4 simple subtasks each.
    pub fn figure14() -> GlobalShape {
        GlobalShape::Spec(TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)]))
    }

    /// Expected number of simple subtasks per global task (used to derive
    /// the global arrival rate from `load`).
    pub fn mean_leaf_count(&self) -> f64 {
        match self {
            GlobalShape::ParallelFixed { n } => *n as f64,
            GlobalShape::ParallelUniform { lo, hi } => 0.5 * (*lo + *hi) as f64,
            GlobalShape::Spec(spec) => spec.simple_count() as f64,
        }
    }

    /// The widest parallel fan-out this shape can produce. Subtasks of one
    /// parallel composition run at *distinct* nodes, so this may not
    /// exceed the node count.
    pub fn max_fanout(&self) -> usize {
        match self {
            GlobalShape::ParallelFixed { n } => *n,
            GlobalShape::ParallelUniform { hi, .. } => *hi,
            GlobalShape::Spec(spec) => spec.max_fanout(),
        }
    }
}

/// The shape of the service-time distributions (the mean is fixed by
/// `mu_local` / `mu_subtask`; the shape controls variability).
///
/// The paper uses exponential service everywhere; the other shapes are
/// ablations probing how much of the PSP effect is driven by service-time
/// variance (an M/D/1-style system still amplifies misses through queueing
/// variability alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceShape {
    /// Exponential with the configured mean (the paper's model).
    #[default]
    Exponential,
    /// Deterministic: every task takes exactly the mean.
    Deterministic,
    /// Uniform on `[0.5 mean, 1.5 mean]` (same mean, lower variance).
    UniformSpread,
}

impl ServiceShape {
    /// Builds the concrete distribution for a given mean.
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and positive.
    pub fn dist(self, mean: f64) -> Dist {
        assert!(
            mean.is_finite() && mean > 0.0,
            "service mean must be finite and positive, got {mean}"
        );
        match self {
            ServiceShape::Exponential => Exp::with_mean(mean).into(),
            ServiceShape::Deterministic => Constant(mean).into(),
            ServiceShape::UniformSpread => Uniform::new(0.5 * mean, 1.5 * mean).into(),
        }
    }
}

/// Periodic ON/OFF modulation of the arrival processes.
///
/// §5 notes that "it is the occasional experience of transient overload
/// that accounts for most of the missed deadlines"; the paper studies
/// stationary Poisson arrivals and lets randomness supply the transients.
/// This extension makes them explicit: during the ON phase (a fraction
/// `on_fraction` of each `period`) both arrival rates are multiplied by
/// `boost`; during OFF they are scaled down so the *average* rate — and
/// hence the configured `load` — is unchanged. A `boost` that pushes the
/// instantaneous load past 1 creates genuine overload bursts that must
/// drain during the OFF phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Length of one ON+OFF cycle, in time units.
    pub period: f64,
    /// Fraction of the period spent in the ON phase, in `(0, 1)`.
    pub on_fraction: f64,
    /// Arrival-rate multiplier during ON, in `[1, 1/on_fraction)`. The
    /// OFF multiplier is derived as `(1 − on_fraction·boost)/(1 −
    /// on_fraction)` so the mean multiplier is exactly 1.
    pub boost: f64,
}

impl Burst {
    /// The derived OFF-phase rate multiplier (≥ 0).
    pub fn off_multiplier(&self) -> f64 {
        (1.0 - self.on_fraction * self.boost) / (1.0 - self.on_fraction)
    }

    /// The instantaneous rate multiplier at time `t` (deterministic
    /// periodic phases starting ON at t = 0).
    pub fn multiplier_at(&self, t: f64) -> f64 {
        let phase = t.rem_euclid(self.period);
        if phase < self.on_fraction * self.period {
            self.boost
        } else {
            self.off_multiplier()
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(format!("period must be positive, got {}", self.period));
        }
        if !(self.on_fraction > 0.0 && self.on_fraction < 1.0) {
            return Err(format!(
                "on_fraction must be in (0, 1), got {}",
                self.on_fraction
            ));
        }
        if !(self.boost >= 1.0 && self.boost < 1.0 / self.on_fraction) {
            return Err(format!(
                "boost must be in [1, 1/on_fraction = {:.3}), got {}",
                1.0 / self.on_fraction,
                self.boost
            ));
        }
        Ok(())
    }
}

/// How the process manager chooses execution nodes for subtasks.
///
/// The paper places the `n` parallel subtasks of a global task at `n`
/// *different* nodes chosen blindly (uniformly at random); the
/// least-loaded variant is an extension quantifying how much of the
/// parallel subtask problem is placement-blindness rather than
/// deadline-blindness. (Either way there is no migration afterwards —
/// the paper's "no load balancing" premise refers to moving queued work,
/// which neither policy does.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Uniformly random, distinct within each parallel group (the paper).
    #[default]
    RandomDistinct,
    /// Choose the least-backlogged nodes at task arrival (ties broken by
    /// node index), distinct within each parallel group.
    LeastLoaded,
}

/// How tardy tasks are aborted (§7.3), if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbortPolicy {
    /// No abortion: tardy tasks run to completion (the baseline; Table 1).
    #[default]
    None,
    /// Abortion by the process manager: a timer fires at every task's
    /// *real* deadline; an unfinished task is aborted then (a global task
    /// abort kills all of its subtasks).
    ProcessManager,
    /// Abortion by the local schedulers: a task whose *presented* (virtual)
    /// deadline has passed is aborted — at dispatch if it expired in the
    /// queue, or mid-service when the deadline passes. The process manager
    /// resubmits an aborted subtask according to the resubmission policy.
    LocalScheduler {
        /// What the process manager does with a locally-aborted subtask.
        resubmit: ResubmitPolicy,
    },
}

/// Resubmission of subtasks aborted by a local scheduler.
///
/// The paper (§7.3) describes the aborted subtask being resubmitted with
/// its slack "consumed mostly by its former unsuccessful trial"; results
/// were not shown. We implement the natural reading: one resubmission with
/// the *real* (end-to-end) deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResubmitPolicy {
    /// Drop the subtask: the global task has failed.
    Never,
    /// Resubmit once with the real deadline (no virtual tightening), if
    /// the real deadline has not itself passed.
    #[default]
    OnceWithRealDeadline,
}

/// Full configuration of one simulation run.
///
/// All `f64` time quantities are in units of the mean local execution time
/// (`1/mu_local`), matching the paper's normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// `k`: number of nodes (Table 1: 6).
    pub nodes: usize,
    /// Normalized offered load in `[0, 1)` (Table 1: 0.5).
    pub load: f64,
    /// Fraction of the load contributed by local tasks (Table 1: 0.75).
    pub frac_local: f64,
    /// Service *rate* of local tasks (Table 1: 1.0).
    pub mu_local: f64,
    /// Service *rate* of simple subtasks (Table 1: 1.0).
    pub mu_subtask: f64,
    /// Slack distribution for local tasks (Table 1: U[1.25, 5.0]).
    pub local_slack: Uniform,
    /// Slack distribution for global tasks (defaults to `local_slack`;
    /// the §8 experiment scales it by the number of stages to U[6.25, 25]).
    pub global_slack: Uniform,
    /// Shape of global tasks.
    pub shape: GlobalShape,
    /// The deadline-assignment strategy under test.
    pub strategy: SdaStrategy,
    /// Local scheduling policy (the paper: EDF).
    pub scheduler: Policy,
    /// Whether the local schedulers preempt the task in service when a
    /// task with an earlier presented deadline arrives
    /// (preemptive-resume). The paper's nodes are non-preemptive; this is
    /// an extension ablation. Requires [`Policy::Edf`].
    pub preemptive: bool,
    /// Per-node speed factors: node `i` serves work at `node_speeds[i]`
    /// work units per time unit. Empty means uniform speed 1 (the paper's
    /// homogeneous system). With non-uniform speeds the *system-wide*
    /// offered load still equals `load`, but per-node load varies — the
    /// "pre-existing components of different nature" the paper's open
    /// systems motivation describes.
    pub node_speeds: Vec<f64>,
    /// Shape of both service-time distributions (the paper: exponential).
    pub service_shape: ServiceShape,
    /// How subtasks are placed on nodes (the paper: random distinct).
    pub placement: Placement,
    /// Optional ON/OFF arrival burstiness (None = the paper's stationary
    /// Poisson arrivals).
    pub burst: Option<Burst>,
    /// Overload management (Table 1: no abortion).
    pub abort: AbortPolicy,
    /// How `pex` predictions are produced for the SSP strategies.
    pub estimation: EstimationModel,
    /// Fault injection: node crashes, stragglers, and communication
    /// delays (all disabled by default — the paper's fault-free system).
    pub fault: FaultConfig,
    /// Simulated duration (the paper: 1,000,000 time units per run).
    pub duration: f64,
    /// Warm-up interval: tasks *arriving* before this time execute but are
    /// not counted in the statistics.
    pub warmup: f64,
}

impl SimConfig {
    /// The paper's baseline setting (Table 1).
    ///
    /// The default `duration` here is 200,000 time units (the paper used
    /// 1,000,000 per run); scale it up with [`SimConfig::with_duration`]
    /// for paper-scale confidence intervals.
    pub fn baseline() -> SimConfig {
        SimConfig {
            nodes: 6,
            load: 0.5,
            frac_local: 0.75,
            mu_local: 1.0,
            mu_subtask: 1.0,
            local_slack: Uniform::new(1.25, 5.0),
            global_slack: Uniform::new(1.25, 5.0),
            shape: GlobalShape::ParallelFixed { n: 4 },
            strategy: SdaStrategy::ud_ud(),
            scheduler: Policy::Edf,
            preemptive: false,
            node_speeds: Vec::new(),
            service_shape: ServiceShape::Exponential,
            placement: Placement::RandomDistinct,
            burst: None,
            abort: AbortPolicy::None,
            estimation: EstimationModel::Exact,
            fault: FaultConfig::disabled(),
            duration: 200_000.0,
            warmup: 2_000.0,
        }
    }

    /// The §8 serial-parallel experiment: Figure 14 task graph and global
    /// slack scaled by the 5 stages to U[6.25, 25].
    pub fn section8() -> SimConfig {
        SimConfig {
            shape: GlobalShape::figure14(),
            global_slack: Uniform::new(1.25, 5.0).scaled(5.0),
            ..SimConfig::baseline()
        }
    }

    /// Returns a copy with a different load.
    pub fn with_load(mut self, load: f64) -> SimConfig {
        self.load = load;
        self
    }

    /// Returns a copy with a different strategy.
    pub fn with_strategy(mut self, strategy: SdaStrategy) -> SimConfig {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with a different duration (warm-up is left alone).
    pub fn with_duration(mut self, duration: f64) -> SimConfig {
        self.duration = duration;
        self
    }

    /// Total processing capacity in work units per time unit: the sum of
    /// node speeds (`k` for the paper's homogeneous system).
    pub fn capacity(&self) -> f64 {
        if self.node_speeds.is_empty() {
            self.nodes as f64
        } else {
            self.node_speeds.iter().sum()
        }
    }

    /// Local arrival rate `λ_local` at a *speed-1* node, implied by `load`
    /// and `frac_local` (§5): `λ_local = frac_local · load · μ_local`.
    ///
    /// Each node generates local work in proportion to its own speed (a
    /// component's local workload is its own), so node `i` arrives at
    /// [`SimConfig::lambda_local_at`]` = λ_local · speed_i`; every node
    /// then carries the same *local* load, and heterogeneity is felt only
    /// through the globally-placed subtasks.
    pub fn lambda_local(&self) -> f64 {
        self.frac_local * self.load * self.mu_local
    }

    /// Local arrival rate at node `i` (speed-proportional; see
    /// [`SimConfig::lambda_local`]).
    pub fn lambda_local_at(&self, node: usize) -> f64 {
        let speed = self.node_speeds.get(node).copied().unwrap_or(1.0);
        self.lambda_local() * speed
    }

    /// System-wide global arrival rate `λ_global` implied by `load`,
    /// `frac_local`, and the shape (§5):
    /// `λ_global = (1 − frac_local) · load · capacity · μ_subtask / E[n]`.
    pub fn lambda_global(&self) -> f64 {
        (1.0 - self.frac_local) * self.load * self.capacity() * self.mu_subtask
            / self.shape.mean_leaf_count()
    }

    /// The offered load of node `i`: its own (speed-proportional) locals
    /// plus its `1/k` share of global subtask work, divided by its speed.
    ///
    /// In the homogeneous system this equals `load` at every node; with
    /// `node_speeds` a slow node carries more than `load`, and a
    /// configuration can silently saturate a node even though the
    /// *system* load is below 1 — [`SimConfig::validate`] rejects that.
    pub fn per_node_load(&self, node: usize) -> f64 {
        let speed = self.node_speeds.get(node).copied().unwrap_or(1.0);
        let local_work = self.lambda_local_at(node) / self.mu_local;
        let global_work = self.lambda_global() * self.shape.mean_leaf_count()
            / (self.mu_subtask * self.nodes as f64);
        (local_work + global_work) / speed
    }

    /// Checks the §5 accounting identity: offered work rate over capacity
    /// equals `load`, and local work is `frac_local` of it.
    pub fn offered_load(&self) -> f64 {
        let local_work: f64 = (0..self.nodes)
            .map(|i| self.lambda_local_at(i) / self.mu_local)
            .sum();
        let global_work = self.lambda_global() * self.shape.mean_leaf_count() / self.mu_subtask;
        (local_work + global_work) / self.capacity()
    }

    /// The engine events one replication is expected to process: candidate
    /// arrivals (at the burst peak rate), one completion per job and subtask,
    /// and a crash and a recovery per node per MTTF + MTTR.
    pub fn expected_events(&self) -> f64 {
        let boost = self.burst.map_or(1.0, |b| b.boost);
        let locals = self.lambda_local() * self.capacity();
        let globals = self.lambda_global();
        let arrivals = boost * (locals + globals);
        let completions = locals + globals * self.shape.mean_leaf_count();
        let crashes = if self.fault.crash_enabled() {
            2.0 * self.nodes as f64 / (self.fault.mttf + self.fault.mttr)
        } else {
            0.0
        };
        self.duration * (arrivals + completions + crashes)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if !(0.0..1.0).contains(&self.load) {
            return Err(ConfigError::BadLoad(self.load));
        }
        if !(0.0..=1.0).contains(&self.frac_local) {
            return Err(ConfigError::BadFracLocal(self.frac_local));
        }
        // Positive tests, so NaN fails them too.
        let finite_positive = |x: f64| x.is_finite() && x > 0.0;
        // The parameters the constructors check, for a configuration
        // built from struct literals.
        let at_least = |x: f64, floor: f64| x.is_finite() && x >= floor;
        let psp_ok = match self.strategy.psp {
            PspStrategy::Ud => true,
            PspStrategy::DivX { x: p } | PspStrategy::Gf { delta: p } => finite_positive(p),
        };
        let estimation_ok = match self.estimation {
            EstimationModel::Exact => true,
            EstimationModel::UniformFactor { max_factor } => at_least(max_factor, 1.0),
            EstimationModel::Bias { factor } => finite_positive(factor),
            EstimationModel::ClassMean { mean } => at_least(mean, 0.0),
        };
        if !psp_ok || !estimation_ok {
            return Err(ConfigError::BadModel(self.strategy.psp, self.estimation));
        }
        if self.preemptive && self.scheduler != Policy::Edf {
            return Err(ConfigError::PreemptionNeedsEdf(self.scheduler));
        }
        if let Some(burst) = &self.burst {
            burst.validate().map_err(ConfigError::BadBurst)?;
        }
        self.fault.validate().map_err(ConfigError::BadFault)?;
        if !self.node_speeds.is_empty() {
            if self.node_speeds.len() != self.nodes {
                return Err(ConfigError::BadNodeSpeeds(format!(
                    "{} speeds for {} nodes",
                    self.node_speeds.len(),
                    self.nodes
                )));
            }
            if self.node_speeds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                return Err(ConfigError::BadNodeSpeeds(
                    "speeds must be finite and positive".to_string(),
                ));
            }
        }
        // Each rate, its mean service time 1/μ and each node's 1/(μ·speed)
        // must be finite and positive: 1e-320 is such a rate, its mean is
        // not.
        for (class, rate) in [("local", self.mu_local), ("subtask", self.mu_subtask)] {
            let speeds = std::iter::once(&1.0).chain(&self.node_speeds);
            let mut means = speeds.map(|speed| 1.0 / (rate * speed));
            if !finite_positive(rate) || !means.all(finite_positive) {
                let rate = format!("mu_{class} = {rate:?}");
                return Err(ConfigError::BadServiceRate(rate));
            }
        }
        // Only heterogeneous speeds can saturate a node.
        for node in 0..self.node_speeds.len() {
            let rho = self.per_node_load(node);
            if rho >= 1.0 {
                return Err(ConfigError::NodeSaturated { node, rho });
            }
        }
        let warmup_ok = self.warmup.is_finite() && self.warmup >= 0.0;
        if !finite_positive(self.duration) || !warmup_ok || self.warmup >= self.duration {
            return Err(ConfigError::BadHorizon {
                duration: self.duration,
                warmup: self.warmup,
            });
        }
        let empty = match &self.shape {
            GlobalShape::ParallelFixed { n } => *n == 0,
            GlobalShape::ParallelUniform { lo, hi } => *lo == 0 || lo > hi,
            GlobalShape::Spec(spec) => spec.validate().is_err(),
        };
        if empty {
            return Err(ConfigError::EmptyShape);
        }
        if matches!(&self.shape, GlobalShape::Spec(spec) if has_one_child_parallel(spec)) {
            return Err(ConfigError::OneChildParallel);
        }
        if self.frac_local < 1.0 && self.shape.max_fanout() > self.nodes {
            return Err(ConfigError::FanoutExceedsNodes {
                fanout: self.shape.max_fanout(),
                nodes: self.nodes,
            });
        }
        // Last, as the count means something only for a config valid so far.
        let events = self.expected_events();
        if !(events.is_finite() && events <= EVENT_CEILING) {
            return Err(ConfigError::TooManyEvents(events));
        }
        Ok(())
    }
}

/// The most events [`SimConfig::validate`] lets a run expect: ~780× the largest paper point's.
const EVENT_CEILING: f64 = 1e10;

/// Whether `spec` holds a parallel composition with one child anywhere.
/// Such a spec writes the same text, and so has the same cache key, as
/// the one-stage serial composition it does not simulate like.
fn has_one_child_parallel(spec: &TaskSpec) -> bool {
    match spec {
        TaskSpec::Simple => false,
        TaskSpec::Parallel(children) if children.len() == 1 => true,
        TaskSpec::Serial(children) | TaskSpec::Parallel(children) => {
            children.iter().any(has_one_child_parallel)
        }
    }
}

/// Error returned by [`SimConfig::validate`], and by
/// [`Sweep::execute`](crate::Sweep::execute) for a point's stop rule.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `nodes == 0`.
    NoNodes,
    /// `load` outside `[0, 1)` — the system must be stable.
    BadLoad(f64),
    /// `frac_local` outside `[0, 1]`.
    BadFracLocal(f64),
    /// A service rate, named with its value, that is not finite and
    /// positive, or whose mean service time at some node is not.
    BadServiceRate(String),
    /// A DIV factor or GF shift that is not finite and positive, or an
    /// estimation model parameter its constructor would reject (a class
    /// mean must be a finite, non-negative time).
    BadModel(PspStrategy, EstimationModel),
    /// `preemptive` set with a non-EDF scheduler.
    PreemptionNeedsEdf(Policy),
    /// Wrong number of node speeds, or a non-positive speed.
    BadNodeSpeeds(String),
    /// Invalid burstiness parameters.
    BadBurst(String),
    /// Invalid fault-injection parameters.
    BadFault(String),
    /// A node's offered load is at or above 1: its queue would grow
    /// without bound even though the system-wide load is below 1.
    NodeSaturated {
        /// The saturated node.
        node: usize,
        /// Its offered load.
        rho: f64,
    },
    /// A duration that is not finite and positive, or a warm-up that is
    /// not finite, non-negative and shorter than the duration.
    BadHorizon {
        /// Configured duration.
        duration: f64,
        /// Configured warm-up.
        warmup: f64,
    },
    /// A global shape with no subtasks (or an invalid spec).
    EmptyShape,
    /// A spec shape with a one-child parallel composition, which would
    /// share its text form with a one-stage serial composition.
    OneChildParallel,
    /// A parallel composition wider than the node count: its subtasks
    /// could not run at distinct nodes.
    FanoutExceedsNodes {
        /// Widest parallel composition in the shape.
        fanout: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// A [`SimConfig::expected_events`] count that is not finite or is above 1e10.
    TooManyEvents(f64),
    /// A stop rule that asks for no replications: `FixedReps(0)`, or an
    /// empty seed list.
    NoReplications,
    /// A [`StopRule::CiWidth`](crate::StopRule::CiWidth) target that is
    /// not positive, or is NaN.
    BadCiTarget(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "node count must be positive"),
            ConfigError::BadLoad(l) => write!(f, "load must be in [0, 1), got {l}"),
            ConfigError::BadFracLocal(x) => write!(f, "frac_local must be in [0, 1], got {x}"),
            ConfigError::BadServiceRate(rate) => write!(
                f,
                "service rates and mean service times must be finite and positive, got {rate}"
            ),
            ConfigError::BadModel(psp, model) => {
                write!(f, "invalid parameter in {psp:?} or {model:?}")
            }
            ConfigError::PreemptionNeedsEdf(policy) => {
                write!(f, "preemption requires EDF, got {policy}")
            }
            ConfigError::BadNodeSpeeds(why) => write!(f, "invalid node speeds: {why}"),
            ConfigError::BadBurst(why) => write!(f, "invalid burstiness: {why}"),
            ConfigError::BadFault(why) => write!(f, "invalid fault injection: {why}"),
            ConfigError::NodeSaturated { node, rho } => {
                write!(f, "node {node} is saturated (offered load {rho:.3} >= 1)")
            }
            ConfigError::BadHorizon { duration, warmup } => {
                write!(f, "invalid horizon: duration {duration}, warmup {warmup}")
            }
            ConfigError::EmptyShape => write!(f, "global task shape has no subtasks"),
            ConfigError::OneChildParallel => write!(
                f,
                "shape: a parallel composition needs at least two children, got one"
            ),
            ConfigError::FanoutExceedsNodes { fanout, nodes } => {
                write!(f, "parallel fan-out {fanout} exceeds node count {nodes}")
            }
            ConfigError::TooManyEvents(events) => write!(
                f,
                "a replication would process {events:.3e} events, above the ceiling of \
                 {EVENT_CEILING:e}: shorten the run or lower its rates"
            ),
            ConfigError::NoReplications => write!(f, "a point needs at least one replication"),
            ConfigError::BadCiTarget(target) => {
                write!(f, "CI width target must be positive, got {target}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}
