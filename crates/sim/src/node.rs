//! The node layer: one local server with its [`ReadyQueue`], the jobs it
//! carries, and per-node accounting ([`NodeStats`]).
//!
//! A [`Node`] is deliberately dumb — it holds the queue, the job in
//! service, and its observables. *When* to dispatch, preempt, or abort
//! is orchestrated by [`crate::Simulation`]; the process-manager state
//! machine lives in [`crate::pm`].

use sda_sched::{Policy, QueuedTask, ReadyQueue};
use sda_simcore::stats::NodeStats;
use sda_simcore::{EventHandle, SimTime};

/// A local task, carried through queues by value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalJob {
    pub id: u64,
    pub ar: SimTime,
    /// The real deadline (locals are never given virtual deadlines).
    pub dl: SimTime,
    /// Total execution requirement (work units).
    pub ex: f64,
    /// Work still to be done (equals `ex` until preemption shrinks it).
    pub remaining: f64,
    /// Process-manager abort timer, if armed.
    pub timer: Option<EventHandle>,
    pub counted: bool,
}

/// A simple subtask of a global task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubtaskJob {
    pub id: u64,
    pub slot: usize,
    pub leaf: usize,
    /// Total execution requirement (work units).
    pub ex: f64,
    /// Work still to be done (equals `ex` until preemption shrinks it).
    pub remaining: f64,
}

/// Anything a node can serve.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Job {
    Local(LocalJob),
    Subtask(SubtaskJob),
}

impl Job {
    pub fn id(&self) -> u64 {
        match self {
            Job::Local(j) => j.id,
            Job::Subtask(j) => j.id,
        }
    }

    pub fn ex(&self) -> f64 {
        match self {
            Job::Local(j) => j.ex,
            Job::Subtask(j) => j.ex,
        }
    }

    pub fn remaining(&self) -> f64 {
        match self {
            Job::Local(j) => j.remaining,
            Job::Subtask(j) => j.remaining,
        }
    }

    pub fn set_remaining(&mut self, remaining: f64) {
        match self {
            Job::Local(j) => j.remaining = remaining,
            Job::Subtask(j) => j.remaining = remaining,
        }
    }
}

/// The job currently being served by a node.
#[derive(Debug)]
pub(crate) struct InService {
    pub job: Job,
    /// When this service burst started (for busy-time accounting).
    pub start: SimTime,
    /// The deadline the job was presented with (preemption compares
    /// against it).
    pub presented_dl: SimTime,
    /// When service will finish if undisturbed.
    pub completion_at: SimTime,
    pub complete: EventHandle,
    /// The local-scheduler mid-service abort timer, if armed.
    pub abort_timer: Option<EventHandle>,
}

impl InService {
    /// Work (in work units, i.e. node-speed-adjusted) performed on this
    /// job so far, across all of its service bursts, as of `now`.
    pub fn work_performed(&self, now: SimTime, speed: f64) -> f64 {
        self.job.ex() - (self.completion_at - now) * speed
    }

    /// Work still owed as of `now`, in work units.
    pub fn work_remaining(&self, now: SimTime, speed: f64) -> f64 {
        (self.completion_at - now) * speed
    }
}

/// One node: a ready queue, at most one job in service, and its
/// observables.
#[derive(Debug)]
pub(crate) struct Node {
    pub queue: ReadyQueue<Job>,
    pub current: Option<InService>,
    /// Service speed in work units per time unit (1.0 in the paper).
    pub speed: f64,
    /// Whether the node is up. Down nodes (crash injection) never
    /// dispatch; their queues keep accumulating until recovery.
    pub up: bool,
    /// Busy time, service counts, local misses, queue length.
    pub stats: NodeStats,
}

impl Node {
    pub fn new(policy: Policy, speed: f64) -> Node {
        Node {
            queue: ReadyQueue::new(policy),
            current: None,
            speed,
            up: true,
            stats: NodeStats::new(SimTime::ZERO),
        }
    }

    /// Whether the server is idle (queue may still be non-empty when the
    /// caller is mid-teardown).
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Whether job `job_id` is the one in service.
    pub fn serves(&self, job_id: u64) -> bool {
        self.current
            .as_ref()
            .is_some_and(|serving| serving.job.id() == job_id)
    }

    /// Whether a newly arriving job would be served at once: the node is
    /// up, idle and has nothing waiting, so pushing the job and
    /// dispatching would pop it straight back.
    pub fn can_start_directly(&self) -> bool {
        self.up && self.current.is_none() && self.queue.is_empty()
    }

    /// Waiting plus in-service count — the backlog least-loaded placement
    /// compares.
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    /// Puts `job` into the ready queue. Unkeyed: abortion, the only
    /// caller that pulls a job out of the middle, finds it by id with
    /// [`Node::remove_job`], which keeps a hash-map update off every push
    /// and pop.
    pub fn enqueue(&mut self, presented_dl: SimTime, service_estimate: f64, job: Job) {
        self.queue
            .push(QueuedTask::new(presented_dl, service_estimate, job));
    }

    /// Removes the waiting job `job_id` from the ready queue, scanning it
    /// (O(queue depth); runs only on abortion).
    pub fn remove_job(&mut self, job_id: u64) -> Option<QueuedTask<Job>> {
        self.queue.remove_by(|job| job.id() == job_id)
    }

    /// Detaches the job in service, crediting its busy time to the node.
    /// The caller cancels whatever timers remain live.
    pub fn detach_current(&mut self, now: SimTime) -> Option<InService> {
        let serving = self.current.take()?;
        self.stats.add_busy(now - serving.start);
        Some(serving)
    }

    /// Records the current queue length at `now`.
    pub fn observe_queue(&mut self, now: SimTime) {
        self.stats.observe_queue(now, self.queue.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, ex: f64) -> Job {
        Job::Local(LocalJob {
            id,
            ar: SimTime::ZERO,
            dl: SimTime::from(10.0),
            ex,
            remaining: ex,
            timer: None,
            counted: true,
        })
    }

    #[test]
    fn backlog_counts_queue_and_server() {
        let mut node = Node::new(Policy::Edf, 1.0);
        assert!(node.is_idle());
        assert_eq!(node.backlog(), 0);
        node.enqueue(SimTime::from(5.0), 1.0, job(1, 1.0));
        node.enqueue(SimTime::from(6.0), 1.0, job(2, 1.0));
        assert_eq!(node.backlog(), 2);
        assert!(node.remove_job(1).is_some(), "removal by id works");
        assert!(node.remove_job(1).is_none(), "the job is gone");
        assert_eq!(node.backlog(), 1);
    }

    #[test]
    fn detach_current_credits_busy_time() {
        let mut node = Node::new(Policy::Edf, 2.0);
        assert!(node.detach_current(SimTime::from(1.0)).is_none());
        let mut engine = sda_simcore::Engine::<()>::new();
        let handle = engine.schedule(SimTime::from(4.0), ());
        node.current = Some(InService {
            job: job(1, 6.0),
            start: SimTime::from(1.0),
            presented_dl: SimTime::from(9.0),
            completion_at: SimTime::from(4.0),
            complete: handle,
            abort_timer: None,
        });
        let serving = node.detach_current(SimTime::from(3.0)).expect("serving");
        assert_eq!(node.stats.busy(), 2.0);
        // Speed 2: of 6 work units, (4-3)*2 = 2 remain at t=3.
        assert_eq!(serving.work_remaining(SimTime::from(3.0), node.speed), 2.0);
        assert_eq!(serving.work_performed(SimTime::from(3.0), node.speed), 4.0);
        assert!(node.is_idle());
    }
}
