//! [`Replay`]: the one fold from trace records to the state of the
//! modelled system, which rejects the first record that cannot happen.

use std::collections::HashMap;
use std::fmt;

use sda_sched::Policy;
use sda_simcore::SimTime;

use super::{TraceEvent, TraceRecord};

/// Whose work a job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A local task.
    Local,
    /// Leaf `leaf` of the global task in `slot`.
    Subtask {
        /// The global task's slot.
        slot: usize,
        /// The leaf index (depth-first order).
        leaf: usize,
    },
}

/// A job the trace announced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Whose work it is.
    pub owner: Owner,
    /// The node it was submitted to.
    pub node: usize,
    /// The deadline its node's scheduler sees: a local's real deadline, a
    /// subtask's virtual one.
    pub deadline: SimTime,
}

/// One node as the trace shows it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// Whether the node is up.
    pub up: bool,
    /// The job in service.
    pub serving: Option<u64>,
    /// The waiting jobs, in the order they entered the queue. A preempted
    /// or crash-requeued job re-enters at the back.
    pub waiting: Vec<u64>,
}

/// One incarnation of a slot: a global task from its arrival to its
/// finish.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotState {
    /// When the task arrived.
    pub arrival: SimTime,
    /// Its end-to-end deadline.
    pub deadline: SimTime,
    /// Its number of simple subtasks.
    pub leaves: usize,
    /// `(leaf, job)` for every submission so far, in order; a
    /// resubmitted leaf appears twice.
    pub submitted: Vec<(usize, u64)>,
}

/// A record that cannot happen in the modelled system, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending record.
    pub record: TraceRecord,
    /// The rule it breaks.
    pub reason: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.record.to_json(), self.reason)
    }
}

impl std::error::Error for Violation {}

/// The state of every node and live global task, folded from a run's
/// trace records.
///
/// [`Replay::apply`] takes the records of one run in order, from its
/// start, and returns the first one that breaks a rule of the model:
///
/// - records never go back in time;
/// - job ids follow announcement order (see [`TraceEvent`]);
/// - a `ServiceStarted` names a job waiting at that node, and the node is
///   up and not serving; under EDF the job is the earliest waiting by
///   presented deadline, then by the order it entered the queue;
/// - `ServiceCompleted` and `Preempted` name the job in service;
/// - each local task and each slot incarnation finishes at most once, and
///   only after it arrived.
///
/// Aborts free a server without a `ServiceCompleted` record: a
/// `LocalFinished` or `GlobalFinished` takes the task's jobs off their
/// servers and queues, and a resubmission replaces the leaf's earlier
/// job. A crash puts the job in service back at the end of the queue; a
/// crash that aborts it says so with its finish record.
///
/// At the horizon, [`Replay::live_slots`] must equal
/// [`crate::Simulation::active_globals`].
///
/// ```
/// use sda_sched::Policy;
/// use sda_sim::trace::Replay;
/// use sda_sim::{RingBufferSink, SimConfig, Simulation};
/// use sda_simcore::{Engine, SimTime};
///
/// let cfg = SimConfig::baseline();
/// let (sink, handle) = RingBufferSink::with_handle(usize::MAX);
/// let mut sim = Simulation::new(cfg.clone(), 1).unwrap();
/// sim.set_sink(Box::new(sink));
/// let mut engine = Engine::new();
/// sim.prime(&mut engine);
/// engine.run_until(&mut sim, SimTime::from(200.0));
///
/// let mut replay = Replay::new(cfg.nodes, cfg.scheduler);
/// for record in handle.records() {
///     replay.apply(&record).unwrap();
/// }
/// assert_eq!(replay.live_slots(), sim.active_globals());
/// ```
#[derive(Debug)]
pub struct Replay {
    edf: bool,
    nodes: Vec<NodeState>,
    slots: HashMap<usize, SlotState>,
    /// Locals until they finish; subtasks until their slot finishes.
    jobs: HashMap<u64, Job>,
    next_job: u64,
    now: SimTime,
}

impl Replay {
    /// The state before the first record of a run on `nodes` nodes served
    /// by `scheduler`: every node up, idle and empty.
    pub fn new(nodes: usize, scheduler: Policy) -> Replay {
        let idle = NodeState {
            up: true,
            serving: None,
            waiting: Vec::new(),
        };
        Replay {
            edf: scheduler == Policy::Edf,
            nodes: vec![idle; nodes],
            slots: HashMap::new(),
            jobs: HashMap::new(),
            next_job: 0,
            now: SimTime::ZERO,
        }
    }

    /// Node `node`.
    ///
    /// # Panics
    ///
    /// Panics if there is no such node.
    pub fn node(&self, node: usize) -> &NodeState {
        &self.nodes[node]
    }

    /// The live global task in `slot`, if any.
    pub fn slot(&self, slot: usize) -> Option<&SlotState> {
        self.slots.get(&slot)
    }

    /// Job `id`, while it is live: a local until it finishes, a subtask
    /// until its global task finishes.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// The number of global tasks in flight.
    pub fn live_slots(&self) -> usize {
        self.slots.len()
    }

    /// Folds `record` into the state.
    ///
    /// # Errors
    ///
    /// Returns the violation if `record` cannot follow the records
    /// applied so far. The state is then unspecified.
    pub fn apply(&mut self, record: &TraceRecord) -> Result<(), Violation> {
        self.step(record).map_err(|reason| Violation {
            record: *record,
            reason,
        })
    }

    fn step(&mut self, record: &TraceRecord) -> Result<(), String> {
        if record.time < self.now {
            return Err(format!("time goes back from {}", self.now.value()));
        }
        self.now = record.time;
        match record.event {
            TraceEvent::LocalArrived {
                node,
                job,
                deadline,
            } => {
                self.check_node(node)?;
                if job != self.next_job {
                    return Err(format!("the next job id is {}", self.next_job));
                }
                self.announce(Owner::Local, node, deadline);
            }
            TraceEvent::GlobalArrived {
                slot,
                leaves,
                deadline,
            } => {
                if self.slots.contains_key(&slot) {
                    return Err(format!("slot {slot} is still live"));
                }
                let task = SlotState {
                    arrival: record.time,
                    deadline,
                    leaves,
                    submitted: Vec::new(),
                };
                self.slots.insert(slot, task);
            }
            TraceEvent::SubtaskSubmitted {
                slot,
                leaf,
                node,
                virtual_deadline,
            } => {
                self.check_node(node)?;
                let task = self
                    .slots
                    .get(&slot)
                    .ok_or(format!("slot {slot} is not live"))?;
                if leaf >= task.leaves {
                    return Err(format!("the task has {} leaves", task.leaves));
                }
                // A resubmission replaces the leaf's earlier job.
                let earlier = task.submitted.iter().rev().find(|&&(l, _)| l == leaf);
                if let Some(&(_, job)) = earlier {
                    self.unqueue(job);
                }
                let job = self.announce(Owner::Subtask { slot, leaf }, node, virtual_deadline);
                let task = self.slots.get_mut(&slot).expect("checked live above");
                task.submitted.push((leaf, job));
            }
            TraceEvent::ServiceStarted { node, job } => {
                self.check_node(node)?;
                let state = &self.nodes[node];
                if !state.up {
                    return Err(format!("node {node} is down"));
                }
                if let Some(serving) = state.serving {
                    return Err(format!("node {node} is serving job {serving}"));
                }
                let pos = state
                    .waiting
                    .iter()
                    .position(|&w| w == job)
                    .ok_or(format!("job {job} is not waiting at node {node}"))?;
                if self.edf {
                    let deadline = |id: &u64| self.jobs[id].deadline.value();
                    let earliest = state
                        .waiting
                        .iter()
                        .map(deadline)
                        .fold(f64::INFINITY, f64::min);
                    let first = state
                        .waiting
                        .iter()
                        .position(|id| deadline(id) == earliest)
                        .expect("the queue is not empty");
                    if first != pos {
                        return Err(format!(
                            "EDF serves job {} first (deadline {earliest})",
                            state.waiting[first]
                        ));
                    }
                }
                let state = &mut self.nodes[node];
                state.waiting.remove(pos);
                state.serving = Some(job);
            }
            TraceEvent::ServiceCompleted { node, job } | TraceEvent::Preempted { node, job } => {
                self.check_node(node)?;
                let state = &mut self.nodes[node];
                if state.serving != Some(job) {
                    return Err(format!("job {job} is not in service at node {node}"));
                }
                state.serving = None;
                if matches!(record.event, TraceEvent::Preempted { .. }) {
                    state.waiting.push(job);
                }
            }
            TraceEvent::LocalFinished { job, .. } => {
                match self.jobs.get(&job) {
                    Some(j) if j.owner == Owner::Local => {}
                    _ => return Err(format!("local {job} is not live")),
                }
                self.unqueue(job);
                self.jobs.remove(&job);
            }
            TraceEvent::GlobalFinished { slot, .. } => {
                let task = self
                    .slots
                    .remove(&slot)
                    .ok_or(format!("slot {slot} is not live"))?;
                for (_, job) in task.submitted {
                    self.unqueue(job);
                    self.jobs.remove(&job);
                }
            }
            TraceEvent::NodeCrashed { node } => {
                self.check_node(node)?;
                let state = &mut self.nodes[node];
                if !state.up {
                    return Err(format!("node {node} is already down"));
                }
                state.up = false;
                if let Some(job) = state.serving.take() {
                    state.waiting.push(job);
                }
            }
            TraceEvent::NodeRecovered { node } => {
                self.check_node(node)?;
                let state = &mut self.nodes[node];
                if state.up {
                    return Err(format!("node {node} is up"));
                }
                state.up = true;
            }
        }
        Ok(())
    }

    fn check_node(&self, node: usize) -> Result<(), String> {
        if node < self.nodes.len() {
            Ok(())
        } else {
            Err(format!("there are {} nodes", self.nodes.len()))
        }
    }

    /// Gives the next job id to a job entering `node`'s queue.
    fn announce(&mut self, owner: Owner, node: usize, deadline: SimTime) -> u64 {
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                owner,
                node,
                deadline,
            },
        );
        self.nodes[node].waiting.push(id);
        id
    }

    /// Takes live job `id` off its node's server or queue, if it is there.
    fn unqueue(&mut self, id: u64) {
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        let state = &mut self.nodes[job.node];
        if state.serving == Some(id) {
            state.serving = None;
        } else {
            state.waiting.retain(|&w| w != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TraceEvent as T;

    fn rec(t: f64, event: TraceEvent) -> TraceRecord {
        TraceRecord::new(SimTime::from(t), event)
    }

    fn local(t: f64, node: usize, job: u64, deadline: f64) -> TraceRecord {
        rec(
            t,
            T::LocalArrived {
                node,
                job,
                deadline: SimTime::from(deadline),
            },
        )
    }

    /// Applies `records` and returns the first violation's reason.
    fn first_violation(scheduler: Policy, records: &[TraceRecord]) -> Option<String> {
        let mut replay = Replay::new(2, scheduler);
        records
            .iter()
            .find_map(|r| replay.apply(r).err())
            .map(|v| v.reason)
    }

    #[test]
    fn a_served_local_leaves_no_state() {
        let mut replay = Replay::new(1, Policy::Edf);
        for r in [
            local(0.0, 0, 0, 5.0),
            rec(0.0, T::ServiceStarted { node: 0, job: 0 }),
            rec(1.0, T::ServiceCompleted { node: 0, job: 0 }),
            rec(
                1.0,
                T::LocalFinished {
                    job: 0,
                    missed: false,
                },
            ),
        ] {
            replay.apply(&r).unwrap();
        }
        assert_eq!(replay.node(0).serving, None);
        assert!(replay.node(0).waiting.is_empty());
        assert!(replay.job(0).is_none());
    }

    #[test]
    fn subtasks_take_the_next_ids_and_die_with_their_slot() {
        let mut replay = Replay::new(2, Policy::Edf);
        let submit = |leaf, node| T::SubtaskSubmitted {
            slot: 3,
            leaf,
            node,
            virtual_deadline: SimTime::from(4.0),
        };
        for r in [
            local(0.0, 1, 0, 9.0),
            rec(
                1.0,
                T::GlobalArrived {
                    slot: 3,
                    leaves: 2,
                    deadline: SimTime::from(8.0),
                },
            ),
            rec(1.0, submit(0, 0)),
            rec(1.0, submit(1, 1)),
            rec(1.0, T::ServiceStarted { node: 0, job: 1 }),
        ] {
            replay.apply(&r).unwrap();
        }
        let owner = Owner::Subtask { slot: 3, leaf: 1 };
        assert_eq!(replay.job(2).map(|j| j.owner), Some(owner));
        assert_eq!(replay.slot(3).unwrap().submitted, [(0, 1), (1, 2)]);
        // An abort tears down the job in service and the waiting one.
        let abort = rec(
            2.0,
            T::GlobalFinished {
                slot: 3,
                missed: true,
            },
        );
        replay.apply(&abort).unwrap();
        assert_eq!(replay.node(0).serving, None);
        assert_eq!(replay.node(1).waiting, [0]);
        assert_eq!(replay.live_slots(), 0);
    }

    #[test]
    fn edf_serves_the_earliest_then_the_first_queued() {
        let trace = [
            local(0.0, 0, 0, 9.0),
            local(0.0, 0, 1, 5.0),
            local(0.0, 0, 2, 5.0),
        ];
        let start = |job| rec(0.0, T::ServiceStarted { node: 0, job });
        assert_eq!(
            first_violation(Policy::Edf, &[&trace[..], &[start(1)]].concat()),
            None
        );
        let reason = first_violation(Policy::Edf, &[&trace[..], &[start(2)]].concat());
        assert_eq!(
            reason.as_deref(),
            Some("EDF serves job 1 first (deadline 5)")
        );
        assert_eq!(
            first_violation(Policy::Fcfs, &[&trace[..], &[start(2)]].concat()),
            None
        );
    }

    #[test]
    fn a_requeued_job_counts_from_its_return() {
        let trace = [
            local(0.0, 0, 0, 5.0),
            rec(0.0, T::ServiceStarted { node: 0, job: 0 }),
            local(1.0, 0, 1, 5.0),
            rec(2.0, T::NodeCrashed { node: 0 }),
            rec(3.0, T::NodeRecovered { node: 0 }),
            rec(3.0, T::ServiceStarted { node: 0, job: 1 }),
        ];
        assert_eq!(first_violation(Policy::Edf, &trace), None);
    }

    #[test]
    fn impossible_records_are_named() {
        let cases: [(&[TraceRecord], &str); 6] = [
            (&[local(0.0, 0, 1, 5.0)], "the next job id is 0"),
            (
                &[
                    local(0.0, 0, 0, 5.0),
                    rec(0.0, T::NodeCrashed { node: 0 }),
                    rec(0.0, T::ServiceStarted { node: 0, job: 0 }),
                ],
                "node 0 is down",
            ),
            (
                &[
                    local(0.0, 0, 0, 5.0),
                    rec(0.0, T::ServiceStarted { node: 1, job: 0 }),
                ],
                "job 0 is not waiting at node 1",
            ),
            (
                &[
                    local(0.0, 0, 0, 5.0),
                    rec(1.0, T::ServiceCompleted { node: 0, job: 0 }),
                ],
                "job 0 is not in service at node 0",
            ),
            (
                &[
                    local(0.0, 0, 0, 5.0),
                    rec(
                        1.0,
                        T::LocalFinished {
                            job: 0,
                            missed: true,
                        },
                    ),
                    rec(
                        1.0,
                        T::LocalFinished {
                            job: 0,
                            missed: true,
                        },
                    ),
                ],
                "local 0 is not live",
            ),
            (
                &[local(2.0, 0, 0, 5.0), local(1.0, 0, 1, 5.0)],
                "time goes back from 2",
            ),
        ];
        for (trace, reason) in cases {
            assert_eq!(first_violation(Policy::Edf, trace).as_deref(), Some(reason));
        }
    }

    #[test]
    fn a_violation_names_its_record() {
        let record = rec(
            1.5,
            T::GlobalFinished {
                slot: 4,
                missed: false,
            },
        );
        let violation = Replay::new(1, Policy::Edf).apply(&record).unwrap_err();
        assert_eq!(
            violation.to_string(),
            r#"{"t":1.5,"event":"global_finished","slot":4,"missed":false}: slot 4 is not live"#
        );
    }
}
