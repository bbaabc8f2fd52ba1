//! Ready queues: the service order of one node.
//!
//! A [`ReadyQueue`] is a policy layer over the event calendar
//! ([`Calendar`]): each waiting task is filed at its policy's rank where
//! the calendar files an event at its time. The calendar's
//! `(rank, push order)` key then gives the service order — smallest rank
//! first, ties FIFO, `-0.0` tying `+0.0` — and its handles give O(1)
//! targeted removal.

use std::fmt;

use sda_simcore::event::{Calendar, EventHandle};
use sda_simcore::hash::FastHashMap;
use sda_simcore::SimTime;

/// The local scheduling policy of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Non-preemptive earliest-deadline-first — the paper's policy.
    #[default]
    Edf,
    /// First-come-first-served (deadline-blind baseline).
    Fcfs,
    /// Non-preemptive shortest-job-first on the *service estimate*
    /// (deadline-blind, length-aware baseline).
    Sjf,
    /// Least-laxity-first on the laxity at enqueue time,
    /// `deadline − service_estimate`: like EDF but discounting the
    /// expected service, so long jobs are started earlier. (Static: the
    /// key is fixed at enqueue, the non-preemptive analogue of minimum
    /// laxity scheduling.)
    Llf,
}

impl Policy {
    /// All policies, in presentation order.
    pub const ALL: [Policy; 4] = [Policy::Edf, Policy::Fcfs, Policy::Sjf, Policy::Llf];

    /// Stable uppercase label (used by `Display` and canonical cache
    /// text).
    pub fn label(self) -> &'static str {
        match self {
            Policy::Edf => "EDF",
            Policy::Fcfs => "FCFS",
            Policy::Sjf => "SJF",
            Policy::Llf => "LLF",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One task waiting in a ready queue.
///
/// `deadline` is whatever deadline the task was *presented* with — for
/// subtasks of global tasks this is the virtual deadline chosen by the
/// deadline-assignment strategy, which is the entire point of the paper:
/// the local scheduler cannot tell a virtual deadline from a real one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedTask<T> {
    /// The (possibly virtual) deadline the scheduler orders by under EDF.
    pub deadline: SimTime,
    /// The service-time estimate SJF orders by.
    pub service_estimate: f64,
    /// Caller payload identifying the task.
    pub item: T,
}

impl<T> QueuedTask<T> {
    /// Creates a queue entry.
    pub fn new(deadline: SimTime, service_estimate: f64, item: T) -> QueuedTask<T> {
        QueuedTask {
            deadline,
            service_estimate,
            item,
        }
    }
}

/// A waiting task as the calendar holds it.
struct Entry<T> {
    task: QueuedTask<T>,
    /// The caller-supplied removal key, if the task was pushed keyed.
    key: Option<u64>,
}

/// A ready queue with a pluggable service order.
///
/// The queue does not model execution — it only decides *which waiting task
/// a node serves next*. See the `sda-sim` crate for the node/server logic.
///
/// # Targeted removal
///
/// Abortion (§7.3) pulls specific tasks out of the middle of a queue.
/// Tasks pushed with [`ReadyQueue::push_keyed`] can be removed by key in
/// O(1) via [`ReadyQueue::remove_key`]: the key maps to the task's
/// calendar handle, and the calendar skips the removed task's stale entry
/// when it reaches the front. The predicate form [`ReadyQueue::remove_by`]
/// remains available for callers without a key, at O(n) scan cost.
pub struct ReadyQueue<T> {
    policy: Policy,
    /// Waiting tasks, each filed at its policy's rank.
    tasks: Calendar<Entry<T>>,
    /// Caller key → calendar handle, for O(1) targeted removal. Only live
    /// keyed tasks are present.
    by_key: FastHashMap<u64, EventHandle>,
}

impl<T> ReadyQueue<T> {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: Policy) -> ReadyQueue<T> {
        ReadyQueue {
            policy,
            tasks: Calendar::new(),
            by_key: FastHashMap::default(),
        }
    }

    /// Number of waiting tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Enqueues a task.
    ///
    /// # Panics
    ///
    /// Panics if `task.service_estimate` is NaN (it would poison the SJF
    /// order), or if the policy's rank is NaN: under LLF, an infinite
    /// deadline with an estimate of the same infinity. Also panics after
    /// 2^40 pushes, or with 2^24 tasks waiting at once: the calendar's
    /// key has no room for larger sequence or slot numbers.
    pub fn push(&mut self, task: QueuedTask<T>) {
        self.push_with(None, task);
    }

    /// Enqueues a task under a caller-chosen removal key (e.g. a job id),
    /// enabling O(1) [`ReadyQueue::remove_key`].
    ///
    /// # Panics
    ///
    /// Panics if `task.service_estimate` is NaN or if `key` is already
    /// present in the queue — keys must be unique among waiting tasks.
    pub fn push_keyed(&mut self, key: u64, task: QueuedTask<T>) {
        self.push_with(Some(key), task);
    }

    fn push_with(&mut self, key: Option<u64>, task: QueuedTask<T>) {
        assert!(
            !task.service_estimate.is_nan(),
            "service estimate must not be NaN"
        );
        let rank = match self.policy {
            Policy::Edf => task.deadline.value(),
            Policy::Fcfs => 0.0,
            Policy::Sjf => task.service_estimate,
            Policy::Llf => task.deadline.value() - task.service_estimate,
        };
        // Checked here, not at the next comparison: LLF's difference is
        // NaN for an infinite deadline and an equally infinite estimate.
        assert!(
            !rank.is_nan(),
            "ReadyQueue::push: {} rank must not be NaN (deadline {}, service estimate {})",
            self.policy,
            task.deadline,
            task.service_estimate
        );
        let handle = self.tasks.schedule(SimTime::new(rank), Entry { task, key });
        if let Some(key) = key {
            let prev = self.by_key.insert(key, handle);
            assert!(prev.is_none(), "duplicate queue key {key}");
        }
    }

    /// Drops a task leaving the queue from the key index.
    fn unkey(&mut self, entry: Entry<T>) -> QueuedTask<T> {
        if let Some(key) = entry.key {
            self.by_key.remove(&key);
        }
        entry.task
    }

    /// Dequeues the next task to serve according to the policy.
    pub fn pop(&mut self) -> Option<QueuedTask<T>> {
        let (_, entry) = self.tasks.pop()?;
        Some(self.unkey(entry))
    }

    /// Removes the task pushed under `key` (via
    /// [`ReadyQueue::push_keyed`]) and returns it. O(1).
    pub fn remove_key(&mut self, key: u64) -> Option<QueuedTask<T>> {
        let handle = self.by_key.remove(&key)?;
        let entry = self
            .tasks
            .remove(handle)
            .expect("a keyed task waits until popped or removed");
        Some(entry.task)
    }

    /// Removes the first waiting task whose payload satisfies `pred` and
    /// returns it.
    ///
    /// The scan order is deterministic but unspecified; use a predicate
    /// that matches at most one task (or [`ReadyQueue::remove_key`],
    /// which is O(1) instead of O(n)).
    pub fn remove_by<F>(&mut self, mut pred: F) -> Option<QueuedTask<T>>
    where
        F: FnMut(&T) -> bool,
    {
        let entry = self.tasks.remove_where(|entry| pred(&entry.task.item))?;
        Some(self.unkey(entry))
    }

    /// Drains the queue, returning the remaining tasks in service order.
    pub fn drain_in_order(&mut self) -> Vec<QueuedTask<T>> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(task) = self.pop() {
            out.push(task);
        }
        out
    }
}

impl<T> fmt::Debug for ReadyQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadyQueue")
            .field("policy", &self.policy)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from(v)
    }

    fn entry(dl: f64, svc: f64, id: u32) -> QueuedTask<u32> {
        QueuedTask::new(t(dl), svc, id)
    }

    #[test]
    fn edf_pops_earliest_deadline_first() {
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push(entry(5.0, 1.0, 1));
        q.push(entry(2.0, 9.0, 2));
        q.push(entry(8.0, 0.5, 3));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn edf_ties_break_fifo() {
        let mut q = ReadyQueue::new(Policy::Edf);
        for id in 0..20 {
            q.push(entry(4.0, 1.0, id));
        }
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn fcfs_ignores_deadlines() {
        let mut q = ReadyQueue::new(Policy::Fcfs);
        q.push(entry(9.0, 1.0, 1));
        q.push(entry(1.0, 1.0, 2));
        q.push(entry(5.0, 1.0, 3));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn sjf_orders_by_service_estimate() {
        let mut q = ReadyQueue::new(Policy::Sjf);
        q.push(entry(1.0, 5.0, 1));
        q.push(entry(9.0, 0.5, 2));
        q.push(entry(5.0, 2.0, 3));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn sjf_ties_break_fifo() {
        let mut q = ReadyQueue::new(Policy::Sjf);
        q.push(entry(1.0, 2.0, 10));
        q.push(entry(2.0, 2.0, 11));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![10, 11]);
    }

    #[test]
    fn llf_orders_by_deadline_minus_service() {
        let mut q = ReadyQueue::new(Policy::Llf);
        // Laxities: 10-1=9, 8-6=2, 5-1=4.
        q.push(entry(10.0, 1.0, 1));
        q.push(entry(8.0, 6.0, 2));
        q.push(entry(5.0, 1.0, 3));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![2, 3, 1], "least laxity first");
    }

    #[test]
    fn llf_equals_edf_for_equal_service_estimates() {
        let deadlines = [7.0, 2.0, 9.0, 4.0];
        let mut llf = ReadyQueue::new(Policy::Llf);
        let mut edf = ReadyQueue::new(Policy::Edf);
        for (i, &dl) in deadlines.iter().enumerate() {
            llf.push(entry(dl, 3.0, i as u32));
            edf.push(entry(dl, 3.0, i as u32));
        }
        let l: Vec<u32> = llf.drain_in_order().into_iter().map(|e| e.item).collect();
        let e: Vec<u32> = edf.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(l, e);
    }

    #[test]
    fn negative_virtual_deadlines_sort_first() {
        // The GF strategy produces deadlines shifted by a huge Δ; they must
        // cut ahead of every local task.
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push(entry(0.5, 1.0, 1)); // urgent local
        q.push(QueuedTask::new(t(3.0) - 1e9, 1.0, 2u32)); // GF subtask
        assert_eq!(q.pop().unwrap().item, 2);
    }

    #[test]
    fn signed_zero_ranks_tie_and_break_fifo() {
        // -0.0 == +0.0, so the two are one rank and push order decides.
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push(entry(0.0, 1.0, 1));
        q.push(entry(-0.0, 1.0, 2));
        q.push(entry(0.0, 1.0, 3));
        q.push(entry(-1e-300, 1.0, 4));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![4, 1, 2, 3]);
    }

    #[test]
    fn negative_and_infinite_ranks_order_numerically() {
        let mut q = ReadyQueue::new(Policy::Edf);
        let deadlines = [3.0, -1e9, f64::INFINITY, -2.5, f64::NEG_INFINITY, -1e9, 0.0];
        for (id, &dl) in deadlines.iter().enumerate() {
            q.push(entry(dl, 1.0, id as u32));
        }
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![4, 1, 5, 3, 6, 0, 2]);
    }

    #[test]
    fn remove_by_pulls_specific_task() {
        for policy in Policy::ALL {
            let mut q = ReadyQueue::new(policy);
            q.push(entry(1.0, 1.0, 1));
            q.push(entry(2.0, 2.0, 2));
            q.push(entry(3.0, 3.0, 3));
            let removed = q.remove_by(|&id| id == 2).unwrap();
            assert_eq!(removed.item, 2);
            assert_eq!(q.len(), 2);
            let rest: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
            assert_eq!(rest, vec![1, 3], "policy {policy}");
        }
    }

    #[test]
    fn remove_key_pulls_specific_task() {
        for policy in Policy::ALL {
            let mut q = ReadyQueue::new(policy);
            for id in 1..=3u64 {
                q.push_keyed(id, entry(id as f64, id as f64, id as u32));
            }
            let removed = q.remove_key(2).unwrap();
            assert_eq!(removed.item, 2);
            assert_eq!(q.len(), 2);
            assert!(q.remove_key(2).is_none(), "key is gone after removal");
            let rest: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
            assert_eq!(rest, vec![1, 3], "policy {policy}");
        }
    }

    #[test]
    fn remove_key_missing_returns_none() {
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push_keyed(7, entry(1.0, 1.0, 7));
        assert!(q.remove_key(8).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn keys_can_be_reused_after_pop_or_removal() {
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push_keyed(1, entry(1.0, 1.0, 10));
        assert_eq!(q.pop().unwrap().item, 10);
        q.push_keyed(1, entry(2.0, 1.0, 11)); // same key, new incarnation
        assert_eq!(q.remove_key(1).unwrap().item, 11);
        q.push_keyed(1, entry(3.0, 1.0, 12));
        assert_eq!(q.pop().unwrap().item, 12);
    }

    #[test]
    #[should_panic(expected = "duplicate queue key")]
    fn duplicate_live_key_rejected() {
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push_keyed(1, entry(1.0, 1.0, 1));
        q.push_keyed(1, entry(2.0, 1.0, 2));
    }

    #[test]
    fn remove_by_missing_returns_none_and_preserves_queue() {
        let mut q = ReadyQueue::new(Policy::Edf);
        q.push(entry(2.0, 1.0, 1));
        q.push(entry(1.0, 1.0, 2));
        assert!(q.remove_by(|&id| id == 99).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().item, 2);
    }

    #[test]
    fn remove_by_preserves_edf_order() {
        let mut q = ReadyQueue::new(Policy::Edf);
        for id in 0..50u32 {
            q.push(entry(f64::from(id % 10), 1.0, id));
        }
        q.remove_by(|&id| id == 25);
        let drained = q.drain_in_order();
        let deadlines: Vec<f64> = drained.iter().map(|e| e.deadline.value()).collect();
        let mut sorted = deadlines.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(deadlines, sorted);
        assert_eq!(drained.len(), 49);
    }

    #[test]
    fn removal_storm_keeps_order_and_bounds_memory() {
        // Remove most of a large queue by key, then check the survivors
        // still drain in EDF order (stale entries are skipped).
        let mut q = ReadyQueue::new(Policy::Edf);
        for id in 0..1000u64 {
            q.push_keyed(id, entry((id % 97) as f64, 1.0, id as u32));
        }
        for id in 0..1000u64 {
            if id % 5 != 0 {
                assert!(q.remove_key(id).is_some());
            }
        }
        assert_eq!(q.len(), 200);
        let drained = q.drain_in_order();
        assert_eq!(drained.len(), 200);
        assert_eq!(drained[0].deadline, t(0.0));
        for pair in drained.windows(2) {
            assert!(pair[0].deadline <= pair[1].deadline);
        }
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = ReadyQueue::new(Policy::Fcfs);
        assert!(q.is_empty());
        q.push(entry(1.0, 1.0, 1));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_service_estimate_rejected() {
        let mut q = ReadyQueue::new(Policy::Sjf);
        q.push(entry(1.0, f64::NAN, 1));
    }

    #[test]
    #[should_panic(expected = "ReadyQueue::push: LLF rank must not be NaN")]
    fn nan_llf_rank_rejected_at_the_push_that_makes_it() {
        // Regression: ∞ − ∞ used to be accepted here and panic in the
        // heap comparison of the *next* push instead.
        let mut q = ReadyQueue::new(Policy::Llf);
        q.push(QueuedTask::new(SimTime::INFINITY, f64::INFINITY, 1u32));
    }

    #[test]
    fn infinite_deadlines_with_finite_estimates_are_ranked() {
        let mut q = ReadyQueue::new(Policy::Llf);
        q.push(QueuedTask::new(SimTime::INFINITY, 1.0, 1u32));
        q.push(entry(5.0, f64::INFINITY, 2));
        q.push(entry(5.0, 1.0, 3));
        let order: Vec<u32> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        assert_eq!(order, vec![2, 3, 1], "laxities -inf, 4, +inf");
    }

    #[test]
    fn policy_display() {
        assert_eq!(Policy::Edf.to_string(), "EDF");
        assert_eq!(Policy::Fcfs.to_string(), "FCFS");
        assert_eq!(Policy::Sjf.to_string(), "SJF");
        assert_eq!(Policy::default(), Policy::Edf);
    }
}
