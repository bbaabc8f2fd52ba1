//! Abortion handling (§7.3): process-manager timers tearing down tardy
//! tasks, and local-scheduler in-service deadline aborts with optional
//! resubmission. Split out of [`super`] (the orchestration layer) — same
//! `impl Simulation`, privacy-wise a child of `simulation`.

use super::*;

impl Simulation {
    // ------------------------------------------------------------------
    // Abortion — process manager (§7.3 case 1)
    // ------------------------------------------------------------------

    pub(super) fn on_pm_abort_local(&mut self, engine: &mut Engine<Ev>, node: usize, job_id: u64) {
        let now = engine.now();
        // In service?
        let in_service = self.nodes[node]
            .current
            .as_ref()
            .is_some_and(|serving| serving.job.id() == job_id);
        if in_service {
            let serving = self.nodes[node].detach_current(now).expect("checked above");
            engine.cancel(serving.complete);
            if let Some(timer) = serving.abort_timer {
                engine.cancel(timer);
            }
            let work = serving.work_performed(now, self.nodes[node].speed);
            if let Job::Local(job) = serving.job {
                self.metrics.aborted_locals += 1;
                if job.counted {
                    self.metrics.record_local(true, work, now - job.ar);
                    self.nodes[node].stats.record_local(true);
                }
                self.emit(
                    now,
                    TraceEvent::LocalFinished {
                        job: job.id,
                        missed: true,
                    },
                );
            } else {
                unreachable!("PmAbortLocal timer armed for a subtask");
            }
            self.dispatch(engine, node);
            return;
        }
        // Still queued?
        if let Some(entry) = self.nodes[node].remove_job(job_id) {
            if let Job::Local(job) = entry.item {
                self.metrics.aborted_locals += 1;
                if job.counted {
                    // Work done in earlier bursts, if it was ever preempted.
                    let work = job.ex - job.remaining;
                    self.metrics.record_local(true, work, now - job.ar);
                    self.nodes[node].stats.record_local(true);
                }
                self.emit(
                    now,
                    TraceEvent::LocalFinished {
                        job: job.id,
                        missed: true,
                    },
                );
            }
        }
        // Otherwise the task completed and its timer was cancelled; a
        // same-instant race is benign.
    }

    pub(super) fn on_pm_abort_global(&mut self, engine: &mut Engine<Ev>, slot: usize) {
        if !self.pm.is_live(slot) {
            return; // completed at the same instant
        }
        self.abort_global(engine, slot);
    }

    /// Tears down a global task: every unfinished subtask is removed from
    /// its queue or cancelled mid-service; the task records as missed.
    /// Also reached from the crash-injection path ([`super::faults`]).
    pub(super) fn abort_global(&mut self, engine: &mut Engine<Ev>, slot: usize) {
        let now = engine.now();
        let mut g = self.pm.finish(slot);
        if let Some(timer) = g.pm_timer.take() {
            engine.cancel(timer);
        }
        // Taken, not borrowed: the dispatch loop below can abort another
        // global re-entrantly, which would need this buffer again.
        let mut idle_nodes = std::mem::take(&mut self.scratch.idle_nodes);
        idle_nodes.clear();
        for leaf in 0..g.leaves() {
            match g.leaf_state[leaf] {
                LeafState::Done | LeafState::Failed => {}
                LeafState::Unreleased => {
                    g.leaf_state[leaf] = LeafState::Failed;
                }
                LeafState::Queued => {
                    let node = g.leaf_node[leaf];
                    let removed = self.nodes[node].remove_job(g.leaf_job[leaf]);
                    debug_assert!(removed.is_some(), "queued leaf must be in its queue");
                    if let Some(entry) = removed {
                        // Preemption may have left partial work behind.
                        g.work_done += entry.item.ex() - entry.item.remaining();
                    }
                    g.leaf_state[leaf] = LeafState::Failed;
                    if g.counted {
                        self.metrics.record_subtask(true);
                    }
                }
                LeafState::InService => {
                    let node = g.leaf_node[leaf];
                    let serving = self.nodes[node]
                        .detach_current(now)
                        .expect("in-service leaf must be serving");
                    debug_assert!(
                        matches!(serving.job, Job::Subtask(s) if s.slot == slot && s.leaf == leaf),
                        "in-service leaf mismatch"
                    );
                    engine.cancel(serving.complete);
                    if let Some(timer) = serving.abort_timer {
                        engine.cancel(timer);
                    }
                    g.work_done += serving.work_performed(now, self.nodes[node].speed);
                    g.leaf_state[leaf] = LeafState::Failed;
                    if g.counted {
                        self.metrics.record_subtask(true);
                    }
                    idle_nodes.push(node);
                }
            }
        }
        self.metrics.aborted_globals += 1;
        if g.counted {
            self.metrics
                .record_global(g.decomp.leaf_count() as u32, true, g.work_done, now - g.ar);
        }
        self.emit(now, TraceEvent::GlobalFinished { slot, missed: true });
        self.pm.recycle(g);
        for &node in &idle_nodes {
            self.dispatch(engine, node);
        }
        idle_nodes.clear();
        self.scratch.idle_nodes = idle_nodes;
    }

    // ------------------------------------------------------------------
    // Abortion — local scheduler (§7.3 case 2)
    // ------------------------------------------------------------------

    pub(super) fn on_in_service_deadline(
        &mut self,
        engine: &mut Engine<Ev>,
        node: usize,
        job_id: u64,
    ) {
        let now = engine.now();
        let current_matches = self.nodes[node]
            .current
            .as_ref()
            .is_some_and(|serving| serving.job.id() == job_id);
        if !current_matches {
            return; // the job finished, or a different job is serving now
        }
        let serving = self.nodes[node].detach_current(now).expect("checked above");
        engine.cancel(serving.complete);
        let work = serving.work_performed(now, self.nodes[node].speed);
        self.local_scheduler_abort(engine, node, serving.job, work);
        self.dispatch(engine, node);
    }

    /// Handles a job the local scheduler just aborted, with `partial`
    /// work (in work units, across all service bursts) wasted on it.
    /// At dispatch-time aborts the caller passes the pre-abort progress
    /// (zero unless the job had been preempted mid-service earlier).
    pub(super) fn local_scheduler_abort(
        &mut self,
        engine: &mut Engine<Ev>,
        node: usize,
        job: Job,
        partial: f64,
    ) {
        let now = engine.now();
        self.metrics.local_scheduler_aborts += 1;
        match job {
            Job::Local(local) => {
                // A local's presented deadline is its real deadline: the
                // task has definitively missed. No resubmission.
                self.metrics.aborted_locals += 1;
                if local.counted {
                    self.metrics.record_local(true, partial, now - local.ar);
                    self.nodes[node].stats.record_local(true);
                }
                self.emit(
                    now,
                    TraceEvent::LocalFinished {
                        job: local.id,
                        missed: true,
                    },
                );
            }
            Job::Subtask(sub) => {
                let resubmit = match self.cfg.abort {
                    AbortPolicy::LocalScheduler { resubmit } => resubmit,
                    _ => unreachable!("local abort outside LocalScheduler mode"),
                };
                let (can_resubmit, real_dl, pex, node_of_leaf) = {
                    let g = self.pm.get_mut(sub.slot).expect("live global");
                    g.work_done += partial;
                    let can = matches!(resubmit, ResubmitPolicy::OnceWithRealDeadline)
                        && !g.leaf_resubmitted[sub.leaf]
                        && now < g.dl;
                    (can, g.dl, g.leaf_pex[sub.leaf], g.leaf_node[sub.leaf])
                };
                if can_resubmit {
                    let id = self.fresh_job_id();
                    let g = self.pm.get_mut(sub.slot).expect("live global");
                    g.leaf_resubmitted[sub.leaf] = true;
                    g.leaf_state[sub.leaf] = LeafState::Queued;
                    g.leaf_job[sub.leaf] = id;
                    self.metrics.resubmissions += 1;
                    // Resubmitted with the real end-to-end deadline: most
                    // of the slack is gone (§7.3), but the subtask gets one
                    // more chance. It restarts from scratch — whatever was
                    // executed before the abort is wasted.
                    let job = Job::Subtask(SubtaskJob {
                        id,
                        remaining: sub.ex,
                        ..sub
                    });
                    self.enqueue(engine, node_of_leaf, real_dl, pex, job);
                } else {
                    // The subtask is dropped; the global task can never
                    // complete — the process manager tears it down.
                    let g = self.pm.get_mut(sub.slot).expect("live global");
                    g.leaf_state[sub.leaf] = LeafState::Failed;
                    if g.counted {
                        self.metrics.record_subtask(true);
                    }
                    self.abort_global(engine, sub.slot);
                }
            }
        }
    }
}
