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
        let in_service = self.nodes[node].serves(job_id);
        let (job, work) = if in_service {
            let serving = self.interrupt(engine, node).expect("checked above");
            let work = serving.work_performed(now, self.nodes[node].speed);
            (serving.job, work)
        } else if let Some(entry) = self.nodes[node].remove_job(job_id) {
            // Work done in earlier bursts, if it was ever preempted.
            (entry.item, entry.item.ex() - entry.item.remaining())
        } else {
            // The task completed and its timer was cancelled; a
            // same-instant race is benign.
            return;
        };
        let Job::Local(job) = job else {
            unreachable!("PmAbortLocal timer armed for a subtask");
        };
        self.finish_local(engine, node, job, true, work);
        if in_service {
            self.dispatch(engine, node);
        }
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
        // Taken, not borrowed: the dispatch loop below can abort another
        // global re-entrantly, which would need this buffer again.
        let mut idle_nodes = std::mem::take(&mut self.scratch.idle_nodes);
        idle_nodes.clear();
        for leaf in 0..g.leaves() {
            let node = g.leaf_node[leaf];
            match g.leaf_state[leaf] {
                LeafState::Done | LeafState::Failed => continue,
                LeafState::Unreleased => {
                    g.leaf_state[leaf] = LeafState::Failed;
                    continue;
                }
                LeafState::Queued => {
                    let removed = self.nodes[node].remove_job(g.leaf_job[leaf]);
                    debug_assert!(removed.is_some(), "queued leaf must be in its queue");
                    if let Some(entry) = removed {
                        // Preemption may have left partial work behind.
                        g.work_done += entry.item.ex() - entry.item.remaining();
                    }
                }
                LeafState::InService => {
                    let serving = self
                        .interrupt(engine, node)
                        .expect("in-service leaf must be serving");
                    debug_assert!(
                        matches!(serving.job, Job::Subtask(s) if s.slot == slot && s.leaf == leaf),
                        "in-service leaf mismatch"
                    );
                    g.work_done += serving.work_performed(now, self.nodes[node].speed);
                    idle_nodes.push(node);
                }
            }
            g.leaf_state[leaf] = LeafState::Failed;
            if g.counted {
                self.metrics.record_subtask(true);
            }
        }
        self.close_global(engine, slot, g, true);
        for &node in &idle_nodes {
            self.dispatch(engine, node);
        }
        idle_nodes.clear();
        self.scratch.idle_nodes = idle_nodes;
    }

    /// Ends `job`, already taken off `node`'s server or queue, as missed
    /// with `partial` work (in work units, across all service bursts)
    /// wasted on it: a local task finishes; a subtask fails its leaf and
    /// tears down its whole global task.
    pub(super) fn abort_job(
        &mut self,
        engine: &mut Engine<Ev>,
        node: usize,
        job: Job,
        partial: f64,
    ) {
        match job {
            Job::Local(local) => self.finish_local(engine, node, local, true, partial),
            Job::Subtask(sub) => {
                // The slot is necessarily live: a task holds at most one
                // active leaf per node, and a dead task's queued leaves
                // were already removed from every queue.
                let g = self.pm.get_mut(sub.slot).expect("live global");
                g.work_done += partial;
                // Fail this leaf first so the teardown skips it (it is
                // already out of the queue or server).
                g.leaf_state[sub.leaf] = LeafState::Failed;
                if g.counted {
                    self.metrics.record_subtask(true);
                }
                self.abort_global(engine, sub.slot);
            }
        }
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
        if !self.nodes[node].serves(job_id) {
            return; // the job finished, or a different job is serving now
        }
        let serving = self.interrupt(engine, node).expect("checked above");
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
        let AbortPolicy::LocalScheduler { resubmit } = self.cfg.abort else {
            unreachable!("local abort outside LocalScheduler mode");
        };
        // A local's presented deadline is its real deadline: the task has
        // definitively missed. No resubmission.
        let Job::Subtask(sub) = job else {
            return self.abort_job(engine, node, job, partial);
        };
        let g = self.pm.get_mut(sub.slot).expect("live global");
        let can_resubmit = matches!(resubmit, ResubmitPolicy::OnceWithRealDeadline)
            && !g.leaf_resubmitted[sub.leaf]
            && now < g.dl;
        if !can_resubmit {
            // The subtask is dropped; the global task can never complete —
            // the process manager tears it down.
            return self.abort_job(engine, node, job, partial);
        }
        let id = self.fresh_job_id();
        let g = self.pm.get_mut(sub.slot).expect("live global");
        g.work_done += partial;
        g.leaf_resubmitted[sub.leaf] = true;
        g.leaf_state[sub.leaf] = LeafState::Queued;
        g.leaf_job[sub.leaf] = id;
        let (real_dl, pex, node_of_leaf) = (g.dl, g.leaf_pex[sub.leaf], g.leaf_node[sub.leaf]);
        self.metrics.resubmissions += 1;
        // Resubmitted with the real end-to-end deadline: most of the slack
        // is gone (§7.3), but the subtask gets one more chance. It restarts
        // from scratch — whatever was executed before the abort is wasted.
        let job = Job::Subtask(SubtaskJob {
            id,
            remaining: sub.ex,
            ..sub
        });
        self.enqueue(engine, node_of_leaf, real_dl, pex, job);
    }
}
