//! A shadow of every node's ready queue, rebuilt from the trace alone,
//! so the traced run can report queue depths the program does not
//! expose. Its time-weighted mean depth per node is checked against the
//! program's own `NodeStats`, which shows the reconstruction is exact.
//!
//! The rules mirror the simulator's EDF nodes: a job joins its node's
//! queue when it arrives or is submitted, and `service_started` takes a
//! local job by id or else the waiting subtask with the earliest
//! (deadline, arrival order). Aborts and crash requeues, which emit no
//! queue event of their own, are inferred from `local_finished`,
//! `global_finished` and `node_crashed`. Preemption is not modelled.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sda_sim::{CrashPolicy, TraceEvent, TraceSink};
use sda_simcore::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    Local(u64),
    Subtask { slot: usize, leaf: usize },
}

impl Job {
    fn of_slot(self, slot: usize) -> bool {
        matches!(self, Job::Subtask { slot: s, .. } if s == slot)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    deadline: f64,
    seq: u64,
    job: Job,
}

#[derive(Debug, Default)]
struct NodeQueue {
    waiting: Vec<Entry>,
    serving: Option<Entry>,
    /// Integral of the waiting count over time, up to `last_t`.
    area: f64,
    last_t: f64,
}

impl NodeQueue {
    /// Closes the depth integral at `t`; call before the queue changes.
    fn advance(&mut self, t: f64) {
        self.area += self.waiting.len() as f64 * (t - self.last_t);
        self.last_t = t;
    }
}

/// The reconstructed queues of every node.
#[derive(Debug)]
pub struct ShadowQueues {
    nodes: Vec<NodeQueue>,
    local_node: HashMap<u64, usize>,
    seq: u64,
    crash_policy: CrashPolicy,
    warmup: f64,
    max_depth: usize,
    inconsistencies: u64,
}

impl ShadowQueues {
    /// Empty queues for `nodes` nodes; depths count towards the maximum
    /// from `warmup` on.
    pub fn new(nodes: usize, warmup: f64, crash_policy: CrashPolicy) -> ShadowQueues {
        ShadowQueues {
            nodes: (0..nodes).map(|_| NodeQueue::default()).collect(),
            local_node: HashMap::new(),
            seq: 0,
            crash_policy,
            warmup,
            max_depth: 0,
            inconsistencies: 0,
        }
    }

    fn push(&mut self, node: usize, t: f64, deadline: f64, job: Job) {
        let seq = self.seq;
        self.seq += 1;
        let queue = &mut self.nodes[node];
        queue.advance(t);
        queue.waiting.push(Entry { deadline, seq, job });
        if t >= self.warmup {
            self.max_depth = self.max_depth.max(queue.waiting.len());
        }
    }

    fn record(&mut self, t: f64, event: &TraceEvent) {
        match *event {
            TraceEvent::LocalArrived {
                node,
                job,
                deadline,
            } => {
                self.local_node.insert(job, node);
                self.push(node, t, deadline.value(), Job::Local(job));
            }
            TraceEvent::SubtaskSubmitted {
                slot,
                leaf,
                node,
                virtual_deadline,
            } => self.push(
                node,
                t,
                virtual_deadline.value(),
                Job::Subtask { slot, leaf },
            ),
            TraceEvent::ServiceStarted { node, job } => {
                let queue = &mut self.nodes[node];
                queue.advance(t);
                let pos = queue
                    .waiting
                    .iter()
                    .position(|e| e.job == Job::Local(job))
                    .or_else(|| {
                        queue
                            .waiting
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| matches!(e.job, Job::Subtask { .. }))
                            .min_by(|(_, a), (_, b)| {
                                a.deadline.total_cmp(&b.deadline).then(a.seq.cmp(&b.seq))
                            })
                            .map(|(i, _)| i)
                    });
                match pos {
                    Some(pos) => queue.serving = Some(queue.waiting.remove(pos)),
                    None => self.inconsistencies += 1,
                }
            }
            TraceEvent::ServiceCompleted { node, .. } => self.nodes[node].serving = None,
            TraceEvent::LocalFinished { job, .. } => {
                // Finished after service, or aborted while waiting or
                // in service.
                if let Some(node) = self.local_node.remove(&job) {
                    let queue = &mut self.nodes[node];
                    if let Some(pos) = queue.waiting.iter().position(|e| e.job == Job::Local(job)) {
                        queue.advance(t);
                        queue.waiting.remove(pos);
                    } else if queue.serving.is_some_and(|e| e.job == Job::Local(job)) {
                        queue.serving = None;
                    }
                }
            }
            TraceEvent::GlobalFinished { slot, .. } => {
                // An abort tears down every waiting and serving subtask.
                for queue in &mut self.nodes {
                    queue.advance(t);
                    queue.waiting.retain(|e| !e.job.of_slot(slot));
                    if queue.serving.is_some_and(|e| e.job.of_slot(slot)) {
                        queue.serving = None;
                    }
                }
            }
            TraceEvent::NodeCrashed { node } => {
                if self.crash_policy == CrashPolicy::RequeueSubtask {
                    if let Some(entry) = self.nodes[node].serving.take() {
                        self.push(node, t, entry.deadline, entry.job);
                    }
                }
            }
            TraceEvent::Preempted { .. } => self.inconsistencies += 1,
            TraceEvent::GlobalArrived { .. } | TraceEvent::NodeRecovered { .. } => {}
        }
    }

    /// Each node's time-weighted mean waiting count over `[0, until]`.
    pub fn mean_depths(&self, until: f64) -> Vec<f64> {
        self.nodes
            .iter()
            .map(|q| (q.area + q.waiting.len() as f64 * (until - q.last_t)) / until)
            .collect()
    }

    /// The largest waiting count any node reached after the warm-up.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Whether every event fitted the model.
    pub fn consistent(&self) -> bool {
        self.inconsistencies == 0
    }
}

/// The trace sink feeding a shared [`ShadowQueues`].
#[derive(Debug)]
pub struct ShadowSink(pub Arc<Mutex<ShadowQueues>>);

impl TraceSink for ShadowSink {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        self.0
            .lock()
            .expect("shadow queues are never poisoned")
            .record(now.value(), event);
    }
}
