//! The orchestration layer: one [`Simulation`] wires the workload
//! sources, the nodes, and the process manager together over the
//! discrete-event engine.
//!
//! One `Simulation` is one run of the paper's system (Figure 2): `k`
//! nodes with independent local schedulers ([`crate::node`]), a process
//! manager that assigns virtual deadlines (via `sda-core`), submits
//! subtasks, enforces precedence, and optionally aborts tardy tasks
//! (§7.3, [`crate::pm`]); all randomness lives in [`crate::workload`],
//! and observability flows through a [`TraceSink`] ([`crate::trace`]).

use sda_core::Release;
use sda_sched::QueuedTask;
use sda_simcore::rng::Rng;
use sda_simcore::stats::NodeStats;
use sda_simcore::{Engine, Model, SimTime};

use crate::config::{AbortPolicy, ConfigError, ResubmitPolicy, SimConfig};
use crate::fault::FaultState;
use crate::metrics::Metrics;
use crate::node::{InService, Job, LocalJob, Node, SubtaskJob};
use crate::pm::{GlobalInstance, LeafState, ProcessManager};
use crate::trace::{TraceEvent, TraceSink};
use crate::workload::Workload;

mod abort;
mod faults;

/// The event alphabet of the system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A local task arrives at `node` (and the next arrival is drawn).
    LocalArrival {
        /// Destination node.
        node: usize,
    },
    /// A global task arrives (single system-wide stream).
    GlobalArrival,
    /// The task in service at `node` completes.
    ServiceComplete {
        /// The serving node.
        node: usize,
    },
    /// Process-manager timer: local task `job_id` reached its real
    /// deadline unfinished.
    PmAbortLocal {
        /// Node the task lives at.
        node: usize,
        /// The task's job id.
        job_id: u64,
    },
    /// Process-manager timer: global task in `slot` reached its real
    /// deadline unfinished.
    PmAbortGlobal {
        /// Slot in the active-global table.
        slot: usize,
    },
    /// Local-scheduler abortion: the presented deadline of the job in
    /// service at `node` passed mid-service.
    InServiceDeadline {
        /// The serving node.
        node: usize,
        /// Job the timer was armed for (guards against the job having
        /// finished already).
        job_id: u64,
    },
    /// Fault injection: `node` crashes (scheduled only when crashes are
    /// enabled).
    NodeCrash {
        /// The crashing node.
        node: usize,
    },
    /// Fault injection: a crashed `node` comes back up.
    NodeRecover {
        /// The recovering node.
        node: usize,
    },
    /// Fault injection: a hand-off release delayed by a communication
    /// fault lands. Times are carried as `f64` bits so `Ev` stays `Eq`.
    CommRelease {
        /// Slot of the global task the release belongs to.
        slot: usize,
        /// The leaf being released.
        leaf: usize,
        /// Bits of the release's virtual deadline.
        deadline_bits: u64,
        /// Bits of the task's arrival time, guarding against the slot
        /// having been recycled while the release was in flight.
        ar_bits: u64,
    },
}

/// One run of the distributed soft real-time system.
///
/// Use [`crate::Runner`] for the common case; construct a `Simulation`
/// directly to drive the engine yourself (and, e.g., attach a trace
/// sink with [`Simulation::set_sink`]).
pub struct Simulation {
    cfg: SimConfig,
    nodes: Vec<Node>,
    pm: ProcessManager,
    workload: Workload,
    faults: FaultState,
    metrics: Metrics,
    next_job_id: u64,
    warmup: SimTime,
    /// Optional trace sink (None = zero-cost tracing off).
    sink: Option<Box<dyn TraceSink>>,
    scratch: Scratch,
}

/// Reusable buffers for the arrival/completion hot path. Each user takes
/// a buffer with `mem::take` and puts it back when done, so a re-entrant
/// call (abort cascades can nest) sees an empty default instead of
/// aliasing live contents — at worst it allocates on that rare path.
#[derive(Debug, Default)]
struct Scratch {
    /// Per-node backlog snapshot for placement.
    backlog: Vec<usize>,
    /// Releases produced by one `start_into`/`complete_leaf_into` call.
    releases: Vec<Release>,
    /// Nodes idled by a global-task teardown, to re-dispatch.
    idle_nodes: Vec<usize>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("nodes", &self.nodes.len())
            .field("active_globals", &self.active_globals())
            .field("next_job_id", &self.next_job_id)
            .field("tracing", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation for `cfg`, deriving every random stream from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: SimConfig, seed: u64) -> Result<Simulation, ConfigError> {
        cfg.validate()?;
        let base = Rng::seed_from(seed);
        let workload = Workload::new(&cfg, &base);
        let faults = FaultState::new(cfg.fault, &base);
        let nodes = (0..cfg.nodes)
            .map(|i| {
                Node::new(
                    cfg.scheduler,
                    cfg.node_speeds.get(i).copied().unwrap_or(1.0),
                )
            })
            .collect();
        Ok(Simulation {
            nodes,
            pm: ProcessManager::new(),
            workload,
            faults,
            metrics: Metrics::new(),
            next_job_id: 0,
            warmup: SimTime::from(cfg.warmup),
            sink: None,
            scratch: Scratch::default(),
            cfg,
        })
    }

    /// Attaches a trace sink invoked on every [`TraceEvent`].
    ///
    /// Tracing does not perturb the simulation: the same seed produces
    /// the same run with or without it. Closures of type
    /// `FnMut(SimTime, &TraceEvent) + Send` are sinks too.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the current sink (e.g. to flush and inspect it).
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    #[inline]
    fn emit(&mut self, now: SimTime, event: TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(now, &event);
        }
    }

    /// Schedules the first arrival of every stream. Call once before
    /// running the engine.
    pub fn prime(&mut self, engine: &mut Engine<Ev>) {
        for node in 0..self.cfg.nodes {
            if self.workload.lambda_local[node] > 0.0 {
                let gap = self.workload.next_local_gap(node);
                engine.schedule(SimTime::from(gap), Ev::LocalArrival { node });
            }
        }
        if self.workload.lambda_global > 0.0 {
            let gap = self.workload.next_global_gap();
            engine.schedule(SimTime::from(gap), Ev::GlobalArrival);
        }
        // Crash processes: one per node, primed only when enabled, so a
        // fault-free run schedules exactly the events it always did.
        if self.faults.cfg.crash_enabled() {
            for node in 0..self.cfg.nodes {
                let gap = self.faults.next_failure_gap();
                engine.schedule(SimTime::from(gap), Ev::NodeCrash { node });
            }
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the simulation, returning its metrics and per-node
    /// statistics (busy time, services, local misses, queue length).
    /// The response-time histograms give back the bins they never used.
    pub fn into_results(mut self) -> (Metrics, Vec<NodeStats>) {
        self.metrics.local_response_hist.shrink_to_fit();
        self.metrics.global_response_hist.shrink_to_fit();
        (
            self.metrics,
            self.nodes.into_iter().map(|n| n.stats).collect(),
        )
    }

    /// Number of global tasks currently in flight.
    pub fn active_globals(&self) -> usize {
        self.pm.active()
    }

    fn fresh_job_id(&mut self) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        id
    }

    // ------------------------------------------------------------------
    // Arrivals
    // ------------------------------------------------------------------

    fn on_local_arrival(&mut self, engine: &mut Engine<Ev>, node: usize) {
        let now = engine.now();
        // Draw the next candidate first so stream usage is independent of
        // what this task does.
        let gap = self.workload.next_local_gap(node);
        engine.schedule_after(gap, Ev::LocalArrival { node });
        // ON/OFF thinning (no-op without burstiness).
        if !self.workload.accept_local(node, now) {
            return;
        }

        let draw = self.workload.draw_local(node);
        let dl = now + (draw.ex + draw.slack);
        let id = self.fresh_job_id();
        let timer = match self.cfg.abort {
            AbortPolicy::ProcessManager => {
                Some(engine.schedule(dl, Ev::PmAbortLocal { node, job_id: id }))
            }
            _ => None,
        };
        // Straggler injection inflates the *actual* demand only; the
        // deadline above was assigned from the nominal demand.
        let (ex, straggler) = self.faults.straggler_ex(draw.ex);
        if straggler {
            self.metrics.straggler_inflations += 1;
        }
        let job = Job::Local(LocalJob {
            id,
            ar: now,
            dl,
            ex,
            remaining: ex,
            timer,
            counted: now >= self.warmup,
        });
        self.emit(
            now,
            TraceEvent::LocalArrived {
                node,
                job: id,
                deadline: dl,
            },
        );
        self.enqueue(engine, node, dl, draw.pex, job);
    }

    fn on_global_arrival(&mut self, engine: &mut Engine<Ev>) {
        let now = engine.now();
        let gap = self.workload.next_global_gap();
        engine.schedule_after(gap, Ev::GlobalArrival);
        if !self.workload.accept_global(now) {
            return;
        }

        // Pick the shape and draw executions, predictions and the slack
        // into pooled instance storage (no per-arrival vectors); derive
        // the end-to-end deadline from the critical path (Equation 2).
        let mut g = self.pm.checkout();
        let (spec_idx, slack) =
            self.workload
                .draw_global_into(&self.cfg.shape, &mut g.leaf_ex, &mut g.leaf_pex);
        let leaves = self.workload.spec(spec_idx).simple_count();
        let dl = now + (self.workload.spec(spec_idx).critical_path(&g.leaf_ex) + slack);

        // Place the leaves: subtasks of one parallel composition run at
        // distinct nodes; other leaves are placed per the configured
        // placement policy.
        let mut backlog = std::mem::take(&mut self.scratch.backlog);
        backlog.clear();
        backlog.extend(self.nodes.iter().map(Node::backlog));
        self.workload
            .place_into(spec_idx, &backlog, &mut g.leaf_node);
        self.scratch.backlog = backlog;
        debug_assert_eq!(g.leaf_node.len(), leaves);

        // Rebind the instance's decomposition to the spec's shared
        // template with this arrival's predictions (no tree rebuild).
        g.decomp
            .reset_from(self.workload.template(spec_idx), &g.leaf_pex);

        let slot = self.pm.alloc_slot();
        g.ar = now;
        g.dl = dl;
        g.leaf_state.resize(leaves, LeafState::Unreleased);
        g.leaf_job.resize(leaves, 0);
        g.leaf_resubmitted.resize(leaves, false);
        g.work_done = 0.0;
        g.pm_timer = match self.cfg.abort {
            AbortPolicy::ProcessManager => Some(engine.schedule(dl, Ev::PmAbortGlobal { slot })),
            _ => None,
        };
        g.counted = now >= self.warmup;
        self.pm.install(slot, g);

        self.emit(
            now,
            TraceEvent::GlobalArrived {
                slot,
                leaves,
                deadline: dl,
            },
        );

        // First descent of the SDA recursion (Figure 13).
        let strategy = self.cfg.strategy;
        let mut releases = std::mem::take(&mut self.scratch.releases);
        self.pm
            .get_mut(slot)
            .expect("slot just filled")
            .decomp
            .start_into(now, dl, &strategy, &mut releases);
        self.submit_releases(engine, slot, &releases, false);
        releases.clear();
        self.scratch.releases = releases;
    }

    /// Submits freshly-released leaves to their nodes. `handoff` marks
    /// releases triggered by a predecessor's completion (as opposed to
    /// the first descent at arrival or a fault-delayed re-release) —
    /// only those are eligible for communication-delay injection.
    fn submit_releases(
        &mut self,
        engine: &mut Engine<Ev>,
        slot: usize,
        releases: &[Release],
        handoff: bool,
    ) {
        for &release in releases {
            // Submitting an earlier release can abort the whole task
            // re-entrantly (e.g. a local scheduler that aborts on already-
            // expired virtual deadlines at dispatch, with no resubmission);
            // the remaining releases then belong to a dead task.
            let Some(g) = self.pm.get_mut(slot) else {
                return;
            };
            if handoff {
                let ar_bits = g.ar.value().to_bits();
                if let Some(delay) = self.faults.comm_delay() {
                    // The hand-off message is delayed: the leaf stays
                    // Unreleased until the CommRelease event lands.
                    self.metrics.comm_delays += 1;
                    engine.schedule_after(
                        delay,
                        Ev::CommRelease {
                            slot,
                            leaf: release.leaf,
                            deadline_bits: release.deadline.value().to_bits(),
                            ar_bits,
                        },
                    );
                    continue;
                }
            }
            let id = self.next_job_id;
            self.next_job_id += 1;
            let g = self.pm.get_mut(slot).expect("slot checked live above");
            g.leaf_state[release.leaf] = LeafState::Queued;
            g.leaf_job[release.leaf] = id;
            let (node, nominal_ex, pex) = (
                g.leaf_node[release.leaf],
                g.leaf_ex[release.leaf],
                g.leaf_pex[release.leaf],
            );
            // Straggler injection inflates the actual demand; deadlines
            // and predictions stay nominal.
            let (ex, straggler) = self.faults.straggler_ex(nominal_ex);
            if straggler {
                self.metrics.straggler_inflations += 1;
            }
            let job = Job::Subtask(SubtaskJob {
                id,
                slot,
                leaf: release.leaf,
                ex,
                remaining: ex,
            });
            self.emit(
                engine.now(),
                TraceEvent::SubtaskSubmitted {
                    slot,
                    leaf: release.leaf,
                    node,
                    virtual_deadline: release.deadline,
                },
            );
            self.enqueue(engine, node, release.deadline, pex, job);
        }
    }

    // ------------------------------------------------------------------
    // Node service
    // ------------------------------------------------------------------

    fn enqueue(
        &mut self,
        engine: &mut Engine<Ev>,
        node: usize,
        presented_dl: SimTime,
        pex: f64,
        job: Job,
    ) {
        if self.nodes[node].can_start_directly() {
            // Pushed, the job would be popped straight back by dispatch:
            // serve it directly. If the local scheduler aborts it instead,
            // carry on as dispatch would with its next candidate.
            if !self.start(engine, node, QueuedTask::new(presented_dl, pex, job)) {
                self.dispatch(engine, node);
            }
            return;
        }
        self.nodes[node].enqueue(presented_dl, pex, job);
        if self.nodes[node].is_idle() {
            self.dispatch(engine, node);
        } else if self.cfg.preemptive {
            let preempt = self.nodes[node]
                .current
                .as_ref()
                .is_some_and(|serving| presented_dl < serving.presented_dl);
            if preempt {
                self.preempt(engine, node);
                self.dispatch(engine, node);
            }
        }
    }

    /// Preemptive-resume: moves the job in service back into the ready
    /// queue with its remaining work, freeing the server.
    fn preempt(&mut self, engine: &mut Engine<Ev>, node: usize) {
        let now = engine.now();
        let serving = self
            .interrupt(engine, node)
            .expect("preempting an idle node");
        self.metrics.preemptions += 1;
        self.emit(
            now,
            TraceEvent::Preempted {
                node,
                job: serving.job.id(),
            },
        );
        let speed = self.nodes[node].speed;
        let remaining = serving.work_remaining(now, speed).max(0.0);
        let mut job = serving.job;
        job.set_remaining(remaining);
        if let Job::Subtask(sub) = &job {
            let g = self.pm.get_mut(sub.slot).expect("live global");
            g.leaf_state[sub.leaf] = LeafState::Queued;
        }
        // Re-queue with the original presented deadline; the service
        // estimate becomes the remaining work (only SJF reads it, and
        // shortest-*remaining*-time is the sensible preemptive reading).
        self.nodes[node].enqueue(serving.presented_dl, remaining, job);
    }

    /// Starts serving the next job if the node is idle, applying the local
    /// scheduler's dispatch-time abortion check when enabled.
    ///
    /// Idempotent: safe to call on a busy node (abortion handling and
    /// release submission can re-enter it).
    fn dispatch(&mut self, engine: &mut Engine<Ev>, node: usize) {
        // A crashed node serves nothing until it recovers; its queue
        // keeps accumulating.
        if !self.nodes[node].up || !self.nodes[node].is_idle() {
            return;
        }
        while let Some(entry) = self.nodes[node].queue.pop() {
            if self.start(engine, node, entry) {
                return;
            }
        }
    }

    /// Starts serving `entry` at the idle, up `node`, unless the local
    /// scheduler aborts it at dispatch for an already-expired presented
    /// deadline. Returns whether the node is busy afterwards: `false`
    /// only after such an abort whose resubmission did not refill the
    /// server, and the caller then moves on to its next candidate.
    fn start(&mut self, engine: &mut Engine<Ev>, node: usize, entry: QueuedTask<Job>) -> bool {
        let now = engine.now();
        let local_abort = matches!(self.cfg.abort, AbortPolicy::LocalScheduler { .. });
        if local_abort && entry.deadline < now {
            // Expired while waiting: abort without serving. Resubmission
            // may re-enter dispatch and fill this server.
            let prior_work = entry.item.ex() - entry.item.remaining();
            self.local_scheduler_abort(engine, node, entry.item, prior_work);
            return !self.nodes[node].is_idle();
        }
        let service_time = entry.item.remaining() / self.nodes[node].speed;
        let completion_at = now + service_time;
        let complete = engine.schedule(completion_at, Ev::ServiceComplete { node });
        let abort_timer = (local_abort && entry.deadline > now).then(|| {
            engine.schedule(
                entry.deadline,
                Ev::InServiceDeadline {
                    node,
                    job_id: entry.item.id(),
                },
            )
        });
        if let Job::Subtask(sub) = &entry.item {
            let g = self.pm.get_mut(sub.slot).expect("live global");
            g.leaf_state[sub.leaf] = LeafState::InService;
        }
        self.emit(
            now,
            TraceEvent::ServiceStarted {
                node,
                job: entry.item.id(),
            },
        );
        self.nodes[node].current = Some(InService {
            job: entry.item,
            start: now,
            presented_dl: entry.deadline,
            completion_at,
            complete,
            abort_timer,
        });
        true
    }

    /// Takes the job in service off `node`'s server, if there is one,
    /// and cancels its completion and abort timers: the first step of
    /// every way a service burst ends. Cancelling the timer being handled
    /// is a no-op.
    // Always inlined, like the two below: as calls they slow the completion path.
    #[inline(always)]
    fn interrupt(&mut self, engine: &mut Engine<Ev>, node: usize) -> Option<InService> {
        let serving = self.nodes[node].detach_current(engine.now())?;
        engine.cancel(serving.complete);
        if let Some(timer) = serving.abort_timer {
            engine.cancel(timer);
        }
        Some(serving)
    }

    fn on_service_complete(&mut self, engine: &mut Engine<Ev>, node: usize) {
        let now = engine.now();
        let served = self
            .interrupt(engine, node)
            .expect("service completion with idle node");
        self.nodes[node].stats.record_service();
        self.emit(
            now,
            TraceEvent::ServiceCompleted {
                node,
                job: served.job.id(),
            },
        );
        match served.job {
            Job::Local(job) => self.finish_local(engine, node, job, false, job.ex),
            Job::Subtask(job) => self.on_subtask_complete(engine, job, now),
        }
        self.dispatch(engine, node);
    }

    /// Ends local task `job` of `node`, completed or `aborted` with
    /// `work` performed on it: the one place a local task finishes. An
    /// aborted task counts as missed; only a late completion has a
    /// tardiness.
    #[inline(always)]
    fn finish_local(
        &mut self,
        engine: &mut Engine<Ev>,
        node: usize,
        job: LocalJob,
        aborted: bool,
        work: f64,
    ) {
        let now = engine.now();
        if let Some(timer) = job.timer {
            engine.cancel(timer);
        }
        let missed = aborted || now > job.dl;
        if aborted {
            self.metrics.aborted_locals += 1;
        }
        if job.counted {
            self.metrics.record_local(missed, work, now - job.ar);
            self.nodes[node].stats.record_local(missed);
            if missed && !aborted {
                self.metrics.record_local_tardiness(now - job.dl);
            }
        }
        self.emit(
            now,
            TraceEvent::LocalFinished {
                job: job.id,
                missed,
            },
        );
    }

    /// Ends global task `g`, already taken out of `slot`, completed or
    /// `aborted`: the one place a global task finishes. An aborted task
    /// counts as missed; only a late completion has a tardiness.
    #[inline(always)]
    fn close_global(
        &mut self,
        engine: &mut Engine<Ev>,
        slot: usize,
        g: GlobalInstance,
        aborted: bool,
    ) {
        let now = engine.now();
        if let Some(timer) = g.pm_timer {
            engine.cancel(timer);
        }
        let missed = aborted || now > g.dl;
        if aborted {
            self.metrics.aborted_globals += 1;
        }
        if g.counted {
            self.metrics.record_global(
                g.decomp.leaf_count() as u32,
                missed,
                g.work_done,
                now - g.ar,
            );
            if missed && !aborted {
                self.metrics.record_global_tardiness(now - g.dl);
            }
        }
        self.emit(now, TraceEvent::GlobalFinished { slot, missed });
        self.pm.recycle(g);
    }

    fn on_subtask_complete(&mut self, engine: &mut Engine<Ev>, job: SubtaskJob, now: SimTime) {
        let strategy = self.cfg.strategy;
        let mut releases = std::mem::take(&mut self.scratch.releases);
        let (finished, counted, dl) = {
            let g = self.pm.get_mut(job.slot).expect("live global");
            g.leaf_state[job.leaf] = LeafState::Done;
            g.work_done += job.ex;
            g.decomp
                .complete_leaf_into(job.leaf, now, &strategy, &mut releases);
            (g.decomp.is_finished(), g.counted, g.dl)
        };
        if counted {
            // A subtask's natural deadline is the global deadline (§4).
            self.metrics.record_subtask(now > dl);
        }
        self.submit_releases(engine, job.slot, &releases, true);
        releases.clear();
        self.scratch.releases = releases;
        if finished {
            let g = self.pm.finish(job.slot);
            self.close_global(engine, job.slot, g, false);
        }
    }
}

impl Model for Simulation {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
        match event {
            Ev::LocalArrival { node } => self.on_local_arrival(engine, node),
            Ev::GlobalArrival => self.on_global_arrival(engine),
            Ev::ServiceComplete { node } => self.on_service_complete(engine, node),
            Ev::PmAbortLocal { node, job_id } => self.on_pm_abort_local(engine, node, job_id),
            Ev::PmAbortGlobal { slot } => self.on_pm_abort_global(engine, slot),
            Ev::InServiceDeadline { node, job_id } => {
                self.on_in_service_deadline(engine, node, job_id)
            }
            Ev::NodeCrash { node } => self.on_node_crash(engine, node),
            Ev::NodeRecover { node } => self.on_node_recover(engine, node),
            Ev::CommRelease {
                slot,
                leaf,
                deadline_bits,
                ar_bits,
            } => self.on_comm_release(engine, slot, leaf, deadline_bits, ar_bits),
        }
        // Close the queue-length accounting window at the current time for
        // any node whose queue changed (cheap: k is small, and update is a
        // no-op amortized when the length is unchanged).
        let now = engine.now();
        for node in &mut self.nodes {
            node.observe_queue(now);
        }
    }
}
