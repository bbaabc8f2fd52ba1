//! The recursive SDA algorithm of Figure 13, as an incremental runtime.
//!
//! The paper's `SDA(X, D)` pseudo-code breaks an end-to-end deadline `D`
//! down to the *executable* simple subtasks (those not preceded by any
//! other). Because assignment is **on-line**, the recursion cannot run once
//! up front: when a serial stage completes, its successor's deadline is
//! computed *then*, from the actual completion time. [`Decomposition`]
//! packages that statefulness: it walks the serial-parallel tree, emitting
//! a [`Release`] (leaf + virtual deadline) whenever a simple subtask
//! becomes executable.
//!
//! # Template / instance split
//!
//! A task *spec* describes a tree shape shared by every arrival of that
//! task type, while the predicted execution times (`pex`) are drawn per
//! arrival (the estimation model). The state is therefore split in two:
//!
//! * [`DecompTemplate`] — the immutable per-spec part: arena layout,
//!   children lists (one flat array, sliced by range), leaf order. Built
//!   once per spec and shared by every instance through an [`Arc`];
//! * [`Decomposition`] — the small mutable per-instance part: activation
//!   flags, serial/parallel progress counters, assigned deadlines, and
//!   the per-instance `pex` aggregates (`subtree_pex` per node, plus the
//!   per-serial-stage slices the SSP strategies consume, laid out
//!   contiguously so a stage's "remaining pex" is a borrow, not a copy).
//!
//! An instance's buffers survive [`Decomposition::reset_from`], so a pool
//! can recycle completed instances and the steady-state arrival path
//! performs no heap allocation (see `sda-sim`'s process manager).

use std::fmt;
use std::sync::Arc;

use sda_model::TaskSpec;
use sda_simcore::SimTime;

use crate::psp::PspStrategy;
use crate::ssp::SspStrategy;

/// A combined deadline-assignment strategy: SSP for serial compositions,
/// PSP for parallel compositions (Table 2's combination space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdaStrategy {
    /// Applied at every serial composition.
    pub ssp: SspStrategy,
    /// Applied at every parallel composition.
    pub psp: PspStrategy,
}

impl SdaStrategy {
    /// `UD-UD`: no decomposition anywhere (the paper's base case).
    pub fn ud_ud() -> SdaStrategy {
        SdaStrategy {
            ssp: SspStrategy::Ud,
            psp: PspStrategy::Ud,
        }
    }

    /// `UD-DIV1`: PSP only.
    pub fn ud_div1() -> SdaStrategy {
        SdaStrategy {
            ssp: SspStrategy::Ud,
            psp: PspStrategy::div(1.0),
        }
    }

    /// `EQF-UD`: SSP only.
    pub fn eqf_ud() -> SdaStrategy {
        SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::Ud,
        }
    }

    /// `EQF-DIV1`: both (the paper's winning combination).
    pub fn eqf_div1() -> SdaStrategy {
        SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::div(1.0),
        }
    }

    /// The Table 2 combinations, in the paper's order.
    pub fn table2() -> [SdaStrategy; 4] {
        [
            SdaStrategy::ud_ud(),
            SdaStrategy::ud_div1(),
            SdaStrategy::eqf_ud(),
            SdaStrategy::eqf_div1(),
        ]
    }

    /// A label like `EQF-DIV1` matching the paper's Table 2 naming: the
    /// SSP label, a dash, and the PSP label without its dash.
    pub fn label(&self) -> String {
        format!("{}-{}", self.ssp.label(), self.psp.label().replace('-', ""))
    }
}

impl fmt::Display for SdaStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A simple subtask that has just become executable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Release {
    /// Index of the simple subtask in depth-first leaf order (the same
    /// order as [`TaskSpec::critical_path`] consumes execution times).
    pub leaf: usize,
    /// The virtual deadline the subtask should be submitted with.
    pub deadline: SimTime,
}

/// A `[start, start + len)` slice of [`DecompTemplate::children`].
#[derive(Debug, Clone, Copy)]
struct ChildRange {
    start: u32,
    len: u32,
}

#[derive(Debug, Clone, Copy)]
enum TemplateKind {
    Leaf {
        leaf_index: u32,
    },
    Serial {
        children: ChildRange,
        /// Offset of this node's stage-pex slice in
        /// [`Decomposition::stage_pex`].
        stage_start: u32,
    },
    Parallel {
        children: ChildRange,
    },
}

#[derive(Debug, Clone, Copy)]
struct TemplateNode {
    /// Arena index of the parent; `None` for the root. Parents always
    /// precede children in the arena (depth-first build order).
    parent: Option<u32>,
    kind: TemplateKind,
}

/// The immutable, per-spec part of a decomposition: tree shape, children
/// lists, and leaf order.
///
/// Built once per [`TaskSpec`] (the simulator caches one per spec in its
/// workload table) and shared by every in-flight instance through an
/// [`Arc`], so a task arrival constructs no tree — it only rebinds
/// instance state with [`Decomposition::reset_from`].
#[derive(Debug)]
pub struct DecompTemplate {
    nodes: Vec<TemplateNode>,
    /// Children of all internal nodes, concatenated; each internal node
    /// owns a [`ChildRange`] into this array.
    children: Vec<u32>,
    /// Maps leaf index (depth-first order) to arena node.
    leaf_nodes: Vec<u32>,
    root: usize,
    /// Total length of the per-instance `stage_pex` buffer (the summed
    /// arity of all serial nodes).
    stage_pex_len: usize,
}

impl DecompTemplate {
    /// Builds the shape template for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`TaskSpec::validate`].
    pub fn new(spec: &TaskSpec) -> DecompTemplate {
        spec.validate().expect("invalid task spec");
        let mut t = DecompTemplate {
            nodes: Vec::new(),
            children: Vec::new(),
            leaf_nodes: Vec::new(),
            root: 0,
            stage_pex_len: 0,
        };
        t.root = t.build(spec, None);
        t
    }

    /// Number of simple subtasks.
    pub fn leaf_count(&self) -> usize {
        self.leaf_nodes.len()
    }

    /// A placeholder template (a single simple task), for default-
    /// constructed pool slots that will be [`Decomposition::reset_from`]
    /// before first use.
    fn placeholder() -> Arc<DecompTemplate> {
        Arc::new(DecompTemplate::new(&TaskSpec::simple()))
    }

    /// Builds the arena depth-first, returning the subtree root's index.
    fn build(&mut self, spec: &TaskSpec, parent: Option<u32>) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(TemplateNode {
            parent,
            kind: TemplateKind::Leaf { leaf_index: 0 }, // overwritten below
        });
        match spec {
            TaskSpec::Simple => {
                let leaf_index = self.leaf_nodes.len() as u32;
                self.nodes[idx].kind = TemplateKind::Leaf { leaf_index };
                self.leaf_nodes.push(idx as u32);
            }
            TaskSpec::Serial(children) => {
                let range = self.build_children(children, idx);
                let stage_start = self.stage_pex_len as u32;
                self.stage_pex_len += range.len as usize;
                self.nodes[idx].kind = TemplateKind::Serial {
                    children: range,
                    stage_start,
                };
            }
            TaskSpec::Parallel(children) => {
                let range = self.build_children(children, idx);
                self.nodes[idx].kind = TemplateKind::Parallel { children: range };
            }
        }
        idx
    }

    /// Builds the child subtrees of node `parent` and appends their root
    /// indices to the flat `children` array (grandchildren land *before*
    /// the range, keeping each node's children contiguous).
    fn build_children(&mut self, specs: &[TaskSpec], parent: usize) -> ChildRange {
        // The recursion interleaves grandchildren into `self.children`,
        // so gather this node's direct children first. Template
        // construction is per-spec setup, not the arrival hot path, so
        // the temporary is fine.
        let idxs: Vec<u32> = specs
            .iter()
            .map(|c| self.build(c, Some(parent as u32)) as u32)
            .collect();
        let start = self.children.len() as u32;
        let len = idxs.len() as u32;
        self.children.extend_from_slice(&idxs);
        ChildRange { start, len }
    }

    fn children_of(&self, range: ChildRange) -> &[u32] {
        &self.children[range.start as usize..(range.start + range.len) as usize]
    }
}

/// Per-node mutable state of one instance.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// The (virtual) deadline assigned when this node was activated.
    deadline: SimTime,
    /// Serial: index of the next stage to release. Parallel: number of
    /// completed children.
    progress: u32,
    activated: bool,
    done: bool,
}

/// The runtime state of one global task's deadline decomposition.
///
/// ```
/// use sda_core::{Decomposition, SdaStrategy};
/// use sda_model::TaskSpec;
/// use sda_simcore::SimTime;
///
/// // [T1 [T2 || T3]] with EQF-DIV1 and unit predictions.
/// let spec = TaskSpec::serial(vec![TaskSpec::simple(), TaskSpec::parallel_simple(2)]);
/// let mut d = Decomposition::new(&spec, vec![1.0, 1.0, 1.0]);
/// let strategy = SdaStrategy::eqf_div1();
///
/// let first = d.start(SimTime::ZERO, SimTime::from(10.0), &strategy);
/// assert_eq!(first.len(), 1); // only T1 is executable
///
/// // T1 finishes at time 2: the parallel stage is released.
/// let next = d.complete_leaf(first[0].leaf, SimTime::from(2.0), &strategy);
/// assert_eq!(next.len(), 2);
/// for r in &next {
///     d.complete_leaf(r.leaf, SimTime::from(5.0), &strategy);
/// }
/// assert!(d.is_finished());
/// ```
///
/// On the simulator's hot path, instances come from a pool: call
/// [`Decomposition::reset_from`] with a cached [`DecompTemplate`] and the
/// freshly drawn predictions, then [`Decomposition::start_into`] /
/// [`Decomposition::complete_leaf_into`] with a reused scratch buffer —
/// none of which allocate once the buffers reach capacity. The
/// `new`/`start`/`complete_leaf` forms are convenience wrappers over the
/// same machinery.
#[derive(Debug)]
pub struct Decomposition {
    template: Arc<DecompTemplate>,
    state: Vec<NodeState>,
    /// Critical-path predicted execution time of each subtree (sum over
    /// serial children, max over parallel children): the `pex(Tj)` the SSP
    /// strategies consume when a stage is itself a complex subtask.
    /// Indexed like `template.nodes`.
    subtree_pex: Vec<f64>,
    /// The children's `subtree_pex`, per serial node, in stage order —
    /// laid out contiguously so "the pex of stages `s..`" is a slice
    /// borrow at SSP-assignment time.
    stage_pex: Vec<f64>,
    finished: bool,
    started: bool,
}

impl Default for Decomposition {
    /// Placeholder storage for a pool slot; [`Decomposition::reset_from`]
    /// must run before use.
    fn default() -> Decomposition {
        Decomposition::from_template(DecompTemplate::placeholder(), &[0.0])
    }
}

impl Decomposition {
    /// Builds the runtime for `spec`, with one predicted execution time
    /// per simple subtask in depth-first leaf order.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`TaskSpec::validate`] or `leaf_pex` does not
    /// have exactly one entry per simple subtask.
    pub fn new(spec: &TaskSpec, leaf_pex: Vec<f64>) -> Decomposition {
        Decomposition::from_template(Arc::new(DecompTemplate::new(spec)), &leaf_pex)
    }

    /// Builds an instance over a shared template.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_pex` does not have exactly one entry per simple
    /// subtask.
    pub fn from_template(template: Arc<DecompTemplate>, leaf_pex: &[f64]) -> Decomposition {
        let mut d = Decomposition {
            template,
            state: Vec::new(),
            subtree_pex: Vec::new(),
            stage_pex: Vec::new(),
            finished: false,
            started: false,
        };
        d.bind(leaf_pex);
        d
    }

    /// Rebinds this instance to `template` with fresh predictions,
    /// reusing its buffers (the pool-recycling path: no allocation when
    /// the buffers already fit the template).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_pex` does not have exactly one entry per simple
    /// subtask.
    pub fn reset_from(&mut self, template: &Arc<DecompTemplate>, leaf_pex: &[f64]) {
        if !Arc::ptr_eq(&self.template, template) {
            self.template = Arc::clone(template);
        }
        self.bind(leaf_pex);
    }

    /// (Re)initialises all instance state from the current template and
    /// `leaf_pex`: clears flags, then recomputes the pex aggregates with
    /// one reverse arena scan (every child precedes its parent in that
    /// direction).
    fn bind(&mut self, leaf_pex: &[f64]) {
        let tpl = &self.template;
        assert_eq!(
            leaf_pex.len(),
            tpl.leaf_count(),
            "need one pex per simple subtask"
        );
        self.finished = false;
        self.started = false;
        self.state.clear();
        self.state.resize(tpl.nodes.len(), NodeState::default());
        self.subtree_pex.clear();
        self.subtree_pex.resize(tpl.nodes.len(), 0.0);
        self.stage_pex.clear();
        self.stage_pex.resize(tpl.stage_pex_len, 0.0);
        for idx in (0..tpl.nodes.len()).rev() {
            match tpl.nodes[idx].kind {
                TemplateKind::Leaf { leaf_index } => {
                    self.subtree_pex[idx] = leaf_pex[leaf_index as usize];
                }
                TemplateKind::Serial {
                    children,
                    stage_start,
                } => {
                    let mut sum = 0.0;
                    for (stage, &c) in tpl.children_of(children).iter().enumerate() {
                        let pex = self.subtree_pex[c as usize];
                        self.stage_pex[stage_start as usize + stage] = pex;
                        sum += pex;
                    }
                    self.subtree_pex[idx] = sum;
                }
                TemplateKind::Parallel { children } => {
                    self.subtree_pex[idx] = tpl
                        .children_of(children)
                        .iter()
                        .map(|&c| self.subtree_pex[c as usize])
                        .fold(0.0, f64::max);
                }
            }
        }
    }

    /// The shared shape template this instance runs over.
    pub fn template(&self) -> &Arc<DecompTemplate> {
        &self.template
    }

    /// Number of simple subtasks.
    pub fn leaf_count(&self) -> usize {
        self.template.leaf_count()
    }

    /// Whether every simple subtask has completed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Starts the task at `now` with end-to-end deadline `deadline`,
    /// returning the initially executable subtasks (Figure 13's first
    /// descent).
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(
        &mut self,
        now: SimTime,
        deadline: SimTime,
        strategy: &SdaStrategy,
    ) -> Vec<Release> {
        let mut out = Vec::new();
        self.start_into(now, deadline, strategy, &mut out);
        out
    }

    /// [`Decomposition::start`], writing the releases into `out`
    /// (cleared first) instead of allocating a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start_into(
        &mut self,
        now: SimTime,
        deadline: SimTime,
        strategy: &SdaStrategy,
        out: &mut Vec<Release>,
    ) {
        assert!(!self.started, "decomposition already started");
        self.started = true;
        out.clear();
        let root = self.template.root;
        self.walk().activate(root, now, deadline, strategy, out);
    }

    /// Records that simple subtask `leaf` completed at `now`, returning
    /// any subtasks that become executable as a result.
    ///
    /// # Panics
    ///
    /// Panics if the leaf index is out of range, the leaf was never
    /// released, or it already completed.
    pub fn complete_leaf(
        &mut self,
        leaf: usize,
        now: SimTime,
        strategy: &SdaStrategy,
    ) -> Vec<Release> {
        let mut out = Vec::new();
        self.complete_leaf_into(leaf, now, strategy, &mut out);
        out
    }

    /// [`Decomposition::complete_leaf`], writing the releases into `out`
    /// (cleared first) instead of allocating a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the leaf index is out of range, the leaf was never
    /// released, or it already completed.
    pub fn complete_leaf_into(
        &mut self,
        leaf: usize,
        now: SimTime,
        strategy: &SdaStrategy,
        out: &mut Vec<Release>,
    ) {
        let node_idx = *self
            .template
            .leaf_nodes
            .get(leaf)
            .unwrap_or_else(|| panic!("leaf {leaf} out of range")) as usize;
        {
            let node = &mut self.state[node_idx];
            assert!(node.activated, "leaf {leaf} completed before release");
            assert!(!node.done, "leaf {leaf} completed twice");
            node.done = true;
        }
        out.clear();
        self.walk().bubble_completion(node_idx, now, strategy, out);
    }

    /// Splits the instance into disjoint borrows for the recursive walk
    /// (shared template and pex slices, mutable node state).
    fn walk(&mut self) -> Walk<'_> {
        Walk {
            tpl: &self.template,
            state: &mut self.state,
            stage_pex: &self.stage_pex,
            finished: &mut self.finished,
        }
    }
}

/// The borrow bundle for one activation/completion walk: the shape is
/// read through `tpl`, only `state` (and the `finished` flag) mutate, so
/// no per-step cloning of children lists is needed.
struct Walk<'a> {
    tpl: &'a DecompTemplate,
    state: &'a mut [NodeState],
    stage_pex: &'a [f64],
    finished: &'a mut bool,
}

impl Walk<'_> {
    fn activate(
        &mut self,
        idx: usize,
        now: SimTime,
        deadline: SimTime,
        strategy: &SdaStrategy,
        out: &mut Vec<Release>,
    ) {
        {
            let node = &mut self.state[idx];
            node.deadline = deadline;
            node.activated = true;
        }
        match self.tpl.nodes[idx].kind {
            TemplateKind::Leaf { leaf_index } => {
                out.push(Release {
                    leaf: leaf_index as usize,
                    deadline,
                });
            }
            TemplateKind::Serial {
                children,
                stage_start,
            } => {
                debug_assert_eq!(self.state[idx].progress, 0, "fresh serial node");
                self.activate_serial_stage(idx, children, stage_start, 0, now, strategy, out);
            }
            TemplateKind::Parallel { children } => {
                let n = children.len as usize;
                let child_dl = strategy.psp.assign(now, deadline, n);
                for i in 0..n {
                    let child = self.tpl.children[children.start as usize + i] as usize;
                    self.activate(child, now, child_dl, strategy, out);
                }
            }
        }
    }

    /// Applies the SSP strategy to stage `stage` of serial node `idx` and
    /// activates it.
    #[allow(clippy::too_many_arguments)]
    fn activate_serial_stage(
        &mut self,
        idx: usize,
        children: ChildRange,
        stage_start: u32,
        stage: usize,
        now: SimTime,
        strategy: &SdaStrategy,
        out: &mut Vec<Release>,
    ) {
        let deadline = self.state[idx].deadline;
        let lo = stage_start as usize + stage;
        let hi = stage_start as usize + children.len as usize;
        let stage_dl = strategy.ssp.assign(now, deadline, &self.stage_pex[lo..hi]);
        let child = self.tpl.children[children.start as usize + stage] as usize;
        self.activate(child, now, stage_dl, strategy, out);
    }

    fn bubble_completion(
        &mut self,
        idx: usize,
        now: SimTime,
        strategy: &SdaStrategy,
        out: &mut Vec<Release>,
    ) {
        let Some(parent) = self.tpl.nodes[idx].parent else {
            *self.finished = true;
            return;
        };
        let parent = parent as usize;
        match self.tpl.nodes[parent].kind {
            TemplateKind::Serial {
                children,
                stage_start,
            } => {
                self.state[parent].progress += 1;
                let stage = self.state[parent].progress as usize;
                if stage < children.len as usize {
                    self.activate_serial_stage(
                        parent,
                        children,
                        stage_start,
                        stage,
                        now,
                        strategy,
                        out,
                    );
                } else {
                    self.state[parent].done = true;
                    self.bubble_completion(parent, now, strategy, out);
                }
            }
            TemplateKind::Parallel { children } => {
                self.state[parent].progress += 1;
                if self.state[parent].progress == children.len {
                    self.state[parent].done = true;
                    self.bubble_completion(parent, now, strategy, out);
                }
            }
            TemplateKind::Leaf { .. } => unreachable!("a leaf cannot be a parent"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from(v)
    }

    /// The critical-path predicted execution time of the whole task.
    fn total_pex(d: &Decomposition) -> f64 {
        d.subtree_pex[d.template.root]
    }

    #[test]
    fn pure_parallel_matches_figure4() {
        // [T1 || T2 || T3], deadline 9, DIV-1: every release at dl 3.
        let spec = TaskSpec::parallel_simple(3);
        let mut d = Decomposition::new(&spec, vec![1.0; 3]);
        let strategy = SdaStrategy::ud_div1();
        let releases = d.start(t(0.0), t(9.0), &strategy);
        assert_eq!(releases.len(), 3);
        for r in &releases {
            assert_eq!(r.deadline, t(3.0));
        }
        let leaves: Vec<usize> = releases.iter().map(|r| r.leaf).collect();
        assert_eq!(leaves, vec![0, 1, 2]);
    }

    #[test]
    fn ud_ud_passes_the_deadline_through_everywhere() {
        let spec = TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)]);
        let n = spec.simple_count();
        let mut d = Decomposition::new(&spec, vec![1.0; n]);
        let strategy = SdaStrategy::ud_ud();
        let dl = t(50.0);
        let mut pending = d.start(t(0.0), dl, &strategy);
        let mut seen = 0;
        let mut now = 0.0;
        while let Some(r) = pending.pop() {
            assert_eq!(r.deadline, dl, "UD-UD must never tighten a deadline");
            seen += 1;
            now += 1.0;
            pending.extend(d.complete_leaf(r.leaf, t(now), &strategy));
        }
        assert_eq!(seen, n);
        assert!(d.is_finished());
    }

    #[test]
    fn serial_pipeline_with_eqf_recomputes_per_stage() {
        // [T1 T2] with pex [2, 2], dl = 10.
        let spec = TaskSpec::pipeline(2);
        let mut d = Decomposition::new(&spec, vec![2.0, 2.0]);
        let strategy = SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::Ud,
        };
        let first = d.start(t(0.0), t(10.0), &strategy);
        assert_eq!(first.len(), 1);
        // slack_left = 10 - 4 = 6; stage 1: 0 + 2 + 6 * (2/4) = 5.
        assert_eq!(first[0].deadline, t(5.0));
        // Stage 1 actually finishes at 7 (late): stage 2 still gets the
        // real end-to-end deadline.
        let second = d.complete_leaf(first[0].leaf, t(7.0), &strategy);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].leaf, 1);
        assert_eq!(second[0].deadline, t(10.0));
        let done = d.complete_leaf(1, t(9.0), &strategy);
        assert!(done.is_empty());
        assert!(d.is_finished());
    }

    #[test]
    fn figure14_walkthrough_with_eqf_div1() {
        // 5 stages; stages 1 and 3 (0-based) have fan-out 4; pex all 1.
        let spec = TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)]);
        let mut d = Decomposition::new(&spec, vec![1.0; 11]);
        let strategy = SdaStrategy::eqf_div1();
        // Critical-path pex: 1 + 1 + 1 + 1 + 1 = 5 (parallel stages count
        // as their max branch = 1).
        assert_eq!(total_pex(&d), 5.0);

        let dl = t(25.0);
        let s1 = d.start(t(0.0), dl, &strategy);
        assert_eq!(s1.len(), 1, "stage 1 is a single simple subtask");
        // EQF at stage 1: slack_left = 25 - 5 = 20, share = 1/5 => dl 0+1+4 = 5.
        assert_eq!(s1[0].deadline, t(5.0));

        // Stage 1 completes exactly at its virtual deadline.
        let s2 = d.complete_leaf(s1[0].leaf, t(5.0), &strategy);
        assert_eq!(s2.len(), 4, "stage 2 fans out to 4 parallel subtasks");
        // EQF for stage 2 at now = 5: remaining pex [1,1,1,1] -> slack_left
        // = 25 - 5 - 4 = 16, share 1/4 -> stage dl = 5 + 1 + 4 = 10.
        // DIV-1 inside: (10 - 5) / 4 + 5 = 6.25.
        for r in &s2 {
            assert_eq!(r.deadline, t(6.25));
        }

        // Finish the 4 parallel subtasks at different times; only the last
        // completion releases stage 3.
        let mut released = Vec::new();
        for (i, r) in s2.iter().enumerate() {
            let finish = t(6.0 + i as f64);
            released = d.complete_leaf(r.leaf, finish, &strategy);
            if i < 3 {
                assert!(released.is_empty(), "stage 3 must wait for all of stage 2");
            }
        }
        assert_eq!(released.len(), 1, "stage 3 is simple");
        assert!(!d.is_finished());
    }

    #[test]
    fn serial_inside_parallel() {
        // [[A B] || C]: A and C are executable initially; B only after A.
        let spec = TaskSpec::parallel(vec![TaskSpec::pipeline(2), TaskSpec::simple()]);
        let mut d = Decomposition::new(&spec, vec![1.0, 1.0, 1.0]);
        let strategy = SdaStrategy::ud_ud();
        let first = d.start(t(0.0), t(10.0), &strategy);
        let mut leaves: Vec<usize> = first.iter().map(|r| r.leaf).collect();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 2], "A (leaf 0) and C (leaf 2) start");
        let after_a = d.complete_leaf(0, t(1.0), &strategy);
        assert_eq!(after_a.len(), 1);
        assert_eq!(after_a[0].leaf, 1, "B becomes executable after A");
        assert!(d.complete_leaf(2, t(2.0), &strategy).is_empty());
        assert!(!d.is_finished());
        assert!(d.complete_leaf(1, t(3.0), &strategy).is_empty());
        assert!(d.is_finished());
    }

    #[test]
    fn complex_stage_pex_is_max_of_branches() {
        // [[A || B] C]: branch pex 3 and 5 -> stage pex 5; EQF sees [5, 2].
        let spec = TaskSpec::serial(vec![TaskSpec::parallel_simple(2), TaskSpec::simple()]);
        let mut d = Decomposition::new(&spec, vec![3.0, 5.0, 2.0]);
        assert_eq!(total_pex(&d), 7.0);
        let strategy = SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::Ud,
        };
        // dl = 14: slack_left = 14 - 7 = 7; stage 1 share 5/7 -> dl = 5 + 5 = 10.
        let first = d.start(t(0.0), t(14.0), &strategy);
        assert_eq!(first.len(), 2);
        for r in &first {
            assert_eq!(r.deadline, t(10.0));
        }
    }

    #[test]
    fn single_simple_task() {
        let mut d = Decomposition::new(&TaskSpec::simple(), vec![1.0]);
        let strategy = SdaStrategy::eqf_div1();
        let releases = d.start(t(0.0), t(3.0), &strategy);
        assert_eq!(
            releases,
            vec![Release {
                leaf: 0,
                deadline: t(3.0)
            }]
        );
        d.complete_leaf(0, t(1.0), &strategy);
        assert!(d.is_finished());
    }

    #[test]
    fn shared_template_instances_are_independent() {
        // Two instances over ONE template, different predictions: each
        // must see its own pex, and progress must not bleed across.
        let spec = TaskSpec::serial(vec![TaskSpec::parallel_simple(2), TaskSpec::simple()]);
        let tpl = Arc::new(DecompTemplate::new(&spec));
        let strategy = SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::Ud,
        };
        let mut a = Decomposition::from_template(Arc::clone(&tpl), &[3.0, 5.0, 2.0]);
        let mut b = Decomposition::from_template(Arc::clone(&tpl), &[1.0, 1.0, 1.0]);
        assert_eq!(total_pex(&a), 7.0);
        assert_eq!(total_pex(&b), 2.0);
        // Same walkthrough as `complex_stage_pex_is_max_of_branches`.
        let first = a.start(t(0.0), t(14.0), &strategy);
        for r in &first {
            assert_eq!(r.deadline, t(10.0));
        }
        // b is untouched by a's progress.
        let first_b = b.start(t(0.0), t(14.0), &strategy);
        assert_eq!(first_b.len(), 2);
        for r in &first_b {
            // slack_left = 14 - 2 = 12; stage 1 share 1/2 -> dl = 1 + 6 = 7.
            assert_eq!(r.deadline, t(7.0));
        }
    }

    #[test]
    fn reset_from_reuses_an_instance() {
        // Run an instance to completion, reset it over a *different*
        // template, and check it behaves exactly like a fresh build.
        let strategy = SdaStrategy::eqf_div1();
        let spec1 = TaskSpec::parallel_simple(3);
        let mut d = Decomposition::new(&spec1, vec![1.0; 3]);
        for r in d.start(t(0.0), t(9.0), &strategy) {
            d.complete_leaf(r.leaf, t(1.0), &strategy);
        }
        assert!(d.is_finished());

        let spec2 = TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)]);
        let tpl2 = Arc::new(DecompTemplate::new(&spec2));
        d.reset_from(&tpl2, &[1.0; 11]);
        assert!(!d.is_finished());
        assert_eq!(d.leaf_count(), 11);
        assert_eq!(total_pex(&d), 5.0);
        let mut out = Vec::new();
        d.start_into(t(0.0), t(25.0), &strategy, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].deadline, t(5.0), "same walkthrough as figure 14");

        // Reset again with the SAME template (the pool fast path).
        d.reset_from(&tpl2, &[2.0; 11]);
        assert_eq!(total_pex(&d), 10.0);
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut d = Decomposition::new(&TaskSpec::simple(), vec![1.0]);
        let s = SdaStrategy::ud_ud();
        d.start(t(0.0), t(1.0), &s);
        d.start(t(0.0), t(1.0), &s);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut d = Decomposition::new(&TaskSpec::simple(), vec![1.0]);
        let s = SdaStrategy::ud_ud();
        d.start(t(0.0), t(1.0), &s);
        d.complete_leaf(0, t(0.5), &s);
        d.complete_leaf(0, t(0.6), &s);
    }

    #[test]
    #[should_panic(expected = "before release")]
    fn complete_unreleased_panics() {
        let spec = TaskSpec::pipeline(2);
        let mut d = Decomposition::new(&spec, vec![1.0, 1.0]);
        let s = SdaStrategy::ud_ud();
        d.start(t(0.0), t(4.0), &s);
        d.complete_leaf(1, t(0.5), &s); // stage 2 hasn't been released
    }

    #[test]
    #[should_panic(expected = "one pex per simple subtask")]
    fn wrong_pex_arity_panics() {
        Decomposition::new(&TaskSpec::pipeline(3), vec![1.0]);
    }

    #[test]
    fn strategy_labels_match_table2() {
        let labels: Vec<String> = SdaStrategy::table2().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["UD-UD", "UD-DIV1", "EQF-UD", "EQF-DIV1"]);
        assert_eq!(SdaStrategy::eqf_div1().to_string(), "EQF-DIV1");
    }

    #[test]
    fn labels_join_the_ssp_and_psp_labels() {
        let mut labels = Vec::new();
        for ssp in [
            SspStrategy::Ud,
            SspStrategy::Ed,
            SspStrategy::Eqs,
            SspStrategy::Eqf,
        ] {
            for psp in [PspStrategy::Ud, PspStrategy::div(1.0), PspStrategy::gf()] {
                labels.push(SdaStrategy { ssp, psp }.label());
            }
        }
        let want = [
            "UD-UD", "UD-DIV1", "UD-GF", "ED-UD", "ED-DIV1", "ED-GF", "EQS-UD", "EQS-DIV1",
            "EQS-GF", "EQF-UD", "EQF-DIV1", "EQF-GF",
        ];
        assert_eq!(labels, want);
        let odd = SdaStrategy {
            ssp: SspStrategy::Eqf,
            psp: PspStrategy::div(2.5),
        };
        assert_eq!(odd.label(), "EQF-DIV2.5");
    }
}
