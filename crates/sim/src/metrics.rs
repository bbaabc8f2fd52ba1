//! Run metrics: per-class missed-deadline fractions and supporting
//! statistics.

use std::collections::BTreeMap;

use sda_simcore::stats::{Histogram, MissCounter, WeightedMiss, Welford};

/// Response-time histogram resolution: quarter of a mean service time.
const RESPONSE_BIN: f64 = 0.25;
/// Response-time histogram cap, in mean service times.
const RESPONSE_MAX: f64 = 200.0;

/// Statistics collected during one simulation run.
///
/// Counting conventions (matching the paper):
///
/// * a task is **missed** if it finishes after its *real* deadline or is
///   aborted;
/// * `MD_subtask` counts each simple subtask against the enclosing global
///   task's real end-to-end deadline (its "natural deadline", §4);
/// * **missed work** is the work *performed* on tasks that missed, over
///   all work performed (§6.1's "fraction of missed work") — partial work
///   on aborted tasks counts;
/// * tasks arriving during the warm-up window, and tasks still in flight
///   when the horizon is reached, are not counted.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Missed-deadline counter for local tasks.
    pub local_md: MissCounter,
    /// Missed-deadline counter for simple subtasks of global tasks.
    pub subtask_md: MissCounter,
    /// Missed-deadline counters for global tasks, keyed by subtask count.
    pub global_md: BTreeMap<u32, MissCounter>,
    /// Fraction-of-missed-work accumulator (all task classes).
    pub missed_work: WeightedMiss,
    /// Response times (completion − arrival) of counted local tasks.
    pub local_response: Welford,
    /// Response times of counted global tasks.
    pub global_response: Welford,
    /// Response-time histogram of local tasks (bin 0.25, cap 200 mean
    /// service times) for tail quantiles.
    pub local_response_hist: Histogram,
    /// Response-time histogram of global tasks.
    pub global_response_hist: Histogram,
    /// Tardiness (completion − deadline) of local tasks that *completed*
    /// late. Aborted tasks are excluded (their eventual completion time
    /// is censored).
    pub local_tardiness: Welford,
    /// Tardiness of global tasks that completed late.
    pub global_tardiness: Welford,
    /// Local tasks aborted (by either abortion mechanism).
    pub aborted_locals: u64,
    /// Global tasks aborted.
    pub aborted_globals: u64,
    /// Subtasks aborted by a local scheduler.
    pub local_scheduler_aborts: u64,
    /// Subtasks resubmitted after a local-scheduler abort.
    pub resubmissions: u64,
    /// Preemptions performed (preemptive-EDF extension only).
    pub preemptions: u64,
    /// Node crashes injected (fault extension).
    pub node_crashes: u64,
    /// Jobs aborted because their node crashed (AbortTask policy).
    pub crash_aborts: u64,
    /// Subtasks requeued from scratch after their node crashed
    /// (RequeueSubtask policy).
    pub crash_requeues: u64,
    /// Jobs whose service demand was inflated by straggler injection.
    pub straggler_inflations: u64,
    /// Hand-off releases delayed by communication-fault injection.
    pub comm_delays: u64,
}

/// An empty response-time histogram, in the shape every run records
/// into.
pub(crate) fn response_histogram() -> Histogram {
    Histogram::new(RESPONSE_BIN, RESPONSE_MAX)
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            local_md: MissCounter::new(),
            subtask_md: MissCounter::new(),
            global_md: BTreeMap::new(),
            missed_work: WeightedMiss::new(),
            local_response: Welford::new(),
            global_response: Welford::new(),
            local_response_hist: response_histogram(),
            global_response_hist: response_histogram(),
            local_tardiness: Welford::new(),
            global_tardiness: Welford::new(),
            aborted_locals: 0,
            aborted_globals: 0,
            local_scheduler_aborts: 0,
            resubmissions: 0,
            preemptions: 0,
            node_crashes: 0,
            crash_aborts: 0,
            crash_requeues: 0,
            straggler_inflations: 0,
            comm_delays: 0,
        }
    }
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records a completed (or aborted) local task.
    ///
    /// `work` is clamped at zero: partial-work reconstruction
    /// (`ex - remaining`, `work_performed`) can cancel to a few negative
    /// ulps when a job is torn down right after a preemption.
    pub fn record_local(&mut self, missed: bool, work: f64, response: f64) {
        self.local_md.record(missed);
        self.missed_work.record(work.max(0.0), missed);
        self.local_response.push(response);
        self.local_response_hist.record(response.max(0.0));
    }

    /// Records a completed (or aborted) global task of `n` subtasks.
    ///
    /// `work` is clamped at zero, as in [`Metrics::record_local`].
    pub fn record_global(&mut self, n: u32, missed: bool, work: f64, response: f64) {
        self.global_md.entry(n).or_default().record(missed);
        self.missed_work.record(work.max(0.0), missed);
        self.global_response.push(response);
        self.global_response_hist.record(response.max(0.0));
    }

    /// Records the tardiness of a local task that completed after its
    /// deadline (call in addition to [`Metrics::record_local`]).
    pub fn record_local_tardiness(&mut self, tardiness: f64) {
        debug_assert!(tardiness > 0.0, "tardiness only for late completions");
        self.local_tardiness.push(tardiness);
    }

    /// Records the tardiness of a global task that completed after its
    /// deadline.
    pub fn record_global_tardiness(&mut self, tardiness: f64) {
        debug_assert!(tardiness > 0.0, "tardiness only for late completions");
        self.global_tardiness.push(tardiness);
    }

    /// The `q`-quantile of local-task response time.
    pub fn local_response_quantile(&self, q: f64) -> f64 {
        self.local_response_hist.quantile(q)
    }

    /// The `q`-quantile of global-task response time.
    pub fn global_response_quantile(&self, q: f64) -> f64 {
        self.global_response_hist.quantile(q)
    }

    /// Records a finished (or never-to-finish) simple subtask.
    pub fn record_subtask(&mut self, missed: bool) {
        self.subtask_md.record(missed);
    }

    /// `MD_local`: fraction of local tasks that missed.
    pub fn md_local(&self) -> f64 {
        self.local_md.rate()
    }

    /// `MD_subtask`: fraction of simple subtasks that missed their natural
    /// deadline.
    pub fn md_subtask(&self) -> f64 {
        self.subtask_md.rate()
    }

    /// `MD_global` over all global classes combined.
    pub fn md_global(&self) -> f64 {
        let mut all = MissCounter::new();
        for counter in self.global_md.values() {
            all.merge(counter);
        }
        all.rate()
    }

    /// `MD_global` for tasks with exactly `n` subtasks (0 if none seen).
    pub fn md_global_n(&self, n: u32) -> f64 {
        self.global_md.get(&n).map_or(0.0, MissCounter::rate)
    }

    /// Fraction of performed work that belonged to missed tasks (§6.1).
    pub fn missed_work_fraction(&self) -> f64 {
        self.missed_work.fraction()
    }

    /// Total number of counted local tasks.
    pub fn local_count(&self) -> u64 {
        self.local_md.total()
    }

    /// Total number of counted global tasks (all classes).
    pub fn global_count(&self) -> u64 {
        self.global_md.values().map(MissCounter::total).sum()
    }

    /// Merges another run's metrics into this one (for pooled estimates).
    pub fn merge(&mut self, other: &Metrics) {
        self.local_md.merge(&other.local_md);
        self.subtask_md.merge(&other.subtask_md);
        for (n, counter) in &other.global_md {
            self.global_md.entry(*n).or_default().merge(counter);
        }
        self.missed_work.merge(&other.missed_work);
        self.local_response.merge(&other.local_response);
        self.global_response.merge(&other.global_response);
        self.local_response_hist.merge(&other.local_response_hist);
        self.global_response_hist.merge(&other.global_response_hist);
        self.local_tardiness.merge(&other.local_tardiness);
        self.global_tardiness.merge(&other.global_tardiness);
        self.aborted_locals += other.aborted_locals;
        self.aborted_globals += other.aborted_globals;
        self.local_scheduler_aborts += other.local_scheduler_aborts;
        self.resubmissions += other.resubmissions;
        self.preemptions += other.preemptions;
        self.node_crashes += other.node_crashes;
        self.crash_aborts += other.crash_aborts;
        self.crash_requeues += other.crash_requeues;
        self.straggler_inflations += other.straggler_inflations;
        self.comm_delays += other.comm_delays;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Missed deadlines in number, locals + globals.
    fn missed_count(m: &Metrics) -> u64 {
        m.local_md.missed() + m.global_md.values().map(MissCounter::missed).sum::<u64>()
    }

    #[test]
    fn md_accessors() {
        let mut m = Metrics::new();
        m.record_local(true, 1.0, 2.0);
        m.record_local(false, 1.0, 1.0);
        m.record_global(4, true, 4.0, 6.0);
        m.record_global(4, false, 4.0, 5.0);
        m.record_global(4, false, 4.0, 5.0);
        m.record_global(2, false, 2.0, 3.0);
        m.record_subtask(true);
        m.record_subtask(false);

        assert_eq!(m.md_local(), 0.5);
        assert_eq!(m.md_subtask(), 0.5);
        assert!((m.md_global_n(4) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.md_global_n(2), 0.0);
        assert_eq!(m.md_global_n(9), 0.0, "unseen class");
        assert!((m.md_global() - 0.25).abs() < 1e-12);
        assert_eq!(m.local_count(), 2);
        assert_eq!(m.global_count(), 4);
        assert_eq!(missed_count(&m), 2);
    }

    #[test]
    fn missed_work_weighs_by_work() {
        let mut m = Metrics::new();
        m.record_local(true, 3.0, 3.0);
        m.record_global(4, false, 9.0, 4.0);
        assert_eq!(m.missed_work_fraction(), 0.25);
    }

    #[test]
    fn merge_pools_counters() {
        let mut a = Metrics::new();
        a.record_local(true, 1.0, 1.0);
        a.record_global(4, true, 4.0, 4.0);
        a.aborted_globals = 1;
        let mut b = Metrics::new();
        b.record_local(false, 1.0, 1.0);
        b.record_global(4, false, 4.0, 4.0);
        b.record_global(6, true, 6.0, 6.0);
        b.resubmissions = 2;
        a.merge(&b);
        assert_eq!(a.md_local(), 0.5);
        assert_eq!(a.md_global_n(4), 0.5);
        assert_eq!(a.md_global_n(6), 1.0);
        assert_eq!(a.global_count(), 3);
        assert_eq!(a.aborted_globals, 1);
        assert_eq!(a.resubmissions, 2);
        assert_eq!(a.local_response.count(), 2);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.md_local(), 0.0);
        assert_eq!(m.md_global(), 0.0);
        assert_eq!(m.missed_work_fraction(), 0.0);
        assert_eq!(missed_count(&m), 0);
        assert_eq!(m.local_response_quantile(0.99), 0.0);
    }

    #[test]
    fn response_quantiles_track_recordings() {
        let mut m = Metrics::new();
        for i in 1..=100 {
            m.record_local(false, 1.0, f64::from(i) * 0.5);
        }
        let p50 = m.local_response_quantile(0.5);
        assert!((p50 - 25.0).abs() < 1.0, "p50 was {p50}");
        let p99 = m.local_response_quantile(0.99);
        assert!(p99 > 45.0, "p99 was {p99}");
        assert_eq!(m.global_response_quantile(0.5), 0.0, "no globals recorded");
    }
}
