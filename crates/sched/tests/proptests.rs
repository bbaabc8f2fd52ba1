//! Property-based tests of the ready queues.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::prelude::*;

use sda_sched::{Policy, QueuedTask, ReadyQueue};
use sda_simcore::SimTime;

/// Deadlines across every region the simulator presents: ordinary
/// positive times, GF's virtual deadlines shifted near −1e9, both signed
/// zeros, both infinities, and a few exact values that collide often.
fn deadline_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1e4,
        -1e4f64..1e4,
        -1e9 - 50.0..-1e9 + 50.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (0u8..4).prop_map(f64::from),
        (0u8..4).prop_map(|i| -1e9 - f64::from(i)),
    ]
}

/// Service estimates: finite (an infinite one would make LLF's rank NaN
/// against an infinite deadline), with signed zeros and exact ties.
fn estimate_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..100.0,
        Just(0.0),
        Just(-0.0),
        (0u8..4).prop_map(f64::from),
    ]
}

fn tasks_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    // (deadline, service estimate) pairs.
    prop::collection::vec((deadline_strategy(), estimate_strategy()), 1..200)
}

/// The policy's rank of a task, with `-0.0` folded onto `+0.0`: the two
/// compare equal, so the queue must tie them and fall back to FIFO.
fn model_rank(policy: Policy, dl: f64, svc: f64) -> f64 {
    let rank = match policy {
        Policy::Edf => dl,
        Policy::Fcfs => 0.0,
        Policy::Sjf => svc,
        Policy::Llf => dl - svc,
    };
    if rank == 0.0 {
        0.0
    } else {
        rank
    }
}

/// Reference model of the ready-queue semantics: the pop order is a
/// stable sort of the insertion sequence by the policy's rank, which is
/// exactly what the original eager-removal BinaryHeap implementation
/// produced. The lazy-deletion rewrite must match it item for item.
fn reference_order(policy: Policy, tasks: &[(f64, f64)]) -> Vec<usize> {
    let mut indexed: Vec<(f64, usize)> = tasks
        .iter()
        .enumerate()
        .map(|(i, &(dl, svc))| (model_rank(policy, dl, svc), i))
        .collect();
    indexed.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep FIFO order
    indexed.into_iter().map(|(_, i)| i).collect()
}

proptest! {
    #[test]
    fn edf_drains_in_deadline_order(tasks in tasks_strategy()) {
        let mut q = ReadyQueue::new(Policy::Edf);
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push(QueuedTask::new(SimTime::from(dl), svc, i));
        }
        let drained = q.drain_in_order();
        prop_assert_eq!(drained.len(), tasks.len());
        for pair in drained.windows(2) {
            prop_assert!(pair[0].deadline <= pair[1].deadline);
        }
    }

    #[test]
    fn sjf_drains_in_service_order(tasks in tasks_strategy()) {
        let mut q = ReadyQueue::new(Policy::Sjf);
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push(QueuedTask::new(SimTime::from(dl), svc, i));
        }
        let drained = q.drain_in_order();
        for pair in drained.windows(2) {
            prop_assert!(pair[0].service_estimate <= pair[1].service_estimate);
        }
    }

    #[test]
    fn fcfs_preserves_insertion_order(tasks in tasks_strategy()) {
        let mut q = ReadyQueue::new(Policy::Fcfs);
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push(QueuedTask::new(SimTime::from(dl), svc, i));
        }
        let order: Vec<usize> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        prop_assert_eq!(order, (0..tasks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn every_policy_preserves_the_item_multiset(
        tasks in tasks_strategy(),
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::ALL[policy_idx];
        let mut q = ReadyQueue::new(policy);
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push(QueuedTask::new(SimTime::from(dl), svc, i));
        }
        let mut items: Vec<usize> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        items.sort_unstable();
        prop_assert_eq!(items, (0..tasks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn remove_by_then_drain_equals_drain_minus_target(
        tasks in tasks_strategy(),
        target_frac in 0.0f64..1.0,
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::ALL[policy_idx];
        let target = ((tasks.len() as f64) * target_frac) as usize % tasks.len();
        let fill = || {
            let mut q = ReadyQueue::new(policy);
            for (i, &(dl, svc)) in tasks.iter().enumerate() {
                q.push(QueuedTask::new(SimTime::from(dl), svc, i));
            }
            q
        };
        let mut with_removal = fill();
        let removed = with_removal.remove_by(|&id| id == target);
        prop_assert_eq!(removed.map(|e| e.item), Some(target));
        let after: Vec<usize> = with_removal
            .drain_in_order()
            .into_iter()
            .map(|e| e.item)
            .collect();
        let mut full = fill();
        let reference: Vec<usize> = full
            .drain_in_order()
            .into_iter()
            .map(|e| e.item)
            .filter(|&i| i != target)
            .collect();
        prop_assert_eq!(after, reference, "removal must not disturb relative order");
    }

    #[test]
    fn pop_order_matches_reference_model_under_every_policy(
        tasks in tasks_strategy(),
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::ALL[policy_idx];
        let mut q = ReadyQueue::new(policy);
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push(QueuedTask::new(SimTime::from(dl), svc, i));
        }
        let order: Vec<usize> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        prop_assert_eq!(order, reference_order(policy, &tasks));
    }

    #[test]
    fn remove_key_agrees_with_remove_by(
        tasks in tasks_strategy(),
        removals in prop::collection::vec(0usize..200, 0..50),
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::ALL[policy_idx];
        let fill = || {
            let mut q = ReadyQueue::new(policy);
            for (i, &(dl, svc)) in tasks.iter().enumerate() {
                q.push_keyed(i as u64, QueuedTask::new(SimTime::from(dl), svc, i));
            }
            q
        };
        let mut keyed = fill();
        let mut scanned = fill();
        for &r in &removals {
            let target = r % tasks.len();
            let a = keyed.remove_key(target as u64).map(|e| e.item);
            let b = scanned.remove_by(|&id| id == target).map(|e| e.item);
            prop_assert_eq!(a, b);
            prop_assert_eq!(keyed.len(), scanned.len());
        }
        let ka: Vec<usize> = keyed.drain_in_order().into_iter().map(|e| e.item).collect();
        let kb: Vec<usize> = scanned.drain_in_order().into_iter().map(|e| e.item).collect();
        prop_assert_eq!(ka, kb, "keyed and predicate removal must leave the same order");
    }

    #[test]
    fn keyed_removals_leave_reference_pop_order(
        tasks in tasks_strategy(),
        removals in prop::collection::vec(0usize..200, 0..100),
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::ALL[policy_idx];
        let mut q = ReadyQueue::new(policy);
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push_keyed(i as u64, QueuedTask::new(SimTime::from(dl), svc, i));
        }
        let mut gone = std::collections::HashSet::new();
        for &r in &removals {
            let target = r % tasks.len();
            if q.remove_key(target as u64).is_some() {
                gone.insert(target);
            }
        }
        let order: Vec<usize> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        let expected: Vec<usize> = reference_order(policy, &tasks)
            .into_iter()
            .filter(|i| !gone.contains(i))
            .collect();
        prop_assert_eq!(order, expected);
    }

    #[test]
    fn edf_pop_order_is_deadline_monotone_with_interleaved_ops(
        tasks in tasks_strategy(),
        pop_every in 2usize..6,
    ) {
        // Interleave pushes with pops: each pop serves the least deadline
        // waiting at the time, and the final drain is monotone.
        let mut q = ReadyQueue::new(Policy::Edf);
        let mut waiting: Vec<SimTime> = Vec::new();
        for (i, &(dl, svc)) in tasks.iter().enumerate() {
            q.push(QueuedTask::new(SimTime::from(dl), svc, i));
            waiting.push(SimTime::from(dl));
            if i % pop_every == 0 {
                let least = (0..waiting.len())
                    .min_by(|&a, &b| waiting[a].partial_cmp(&waiting[b]).expect("no NaN"))
                    .expect("just pushed");
                let popped = q.pop().unwrap();
                prop_assert_eq!(popped.deadline, waiting.swap_remove(least));
            }
        }
        let drained = q.drain_in_order();
        for pair in drained.windows(2) {
            prop_assert!(pair[0].deadline <= pair[1].deadline);
        }
    }

    #[test]
    fn ties_break_fifo_under_every_policy(
        n in 1usize..100,
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::ALL[policy_idx];
        let mut q = ReadyQueue::new(policy);
        for i in 0..n {
            q.push(QueuedTask::new(SimTime::from(7.0), 3.0, i));
        }
        let order: Vec<usize> = q.drain_in_order().into_iter().map(|e| e.item).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }
}

/// A rank ordered by `f64::total_cmp`, for the model's `BTreeMap` key;
/// the model folds `-0.0` before wrapping, so the order is the numeric one.
#[derive(Debug, Clone, Copy)]
struct Rank(f64);

impl PartialEq for Rank {
    fn eq(&self, other: &Rank) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Rank) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Rank) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One step of the interleaved differential test.
#[derive(Debug, Clone)]
enum Op {
    Push(f64, f64),
    /// Push under a removal key; skipped while the key is waiting, so the
    /// few keys are reused after pops and removals.
    PushKeyed(f64, f64, u64),
    Pop,
    /// Remove the task pushed `n`-th (mod the pushes so far), if waiting.
    RemoveBy(usize),
    /// Remove the task pushed under the key, if waiting.
    RemoveKey(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (deadline_strategy(), estimate_strategy()).prop_map(|(dl, svc)| Op::Push(dl, svc)),
        (deadline_strategy(), estimate_strategy()).prop_map(|(dl, svc)| Op::Push(dl, svc)),
        (deadline_strategy(), estimate_strategy(), 0u64..8)
            .prop_map(|(dl, svc, key)| Op::PushKeyed(dl, svc, key)),
        Just(Op::Pop),
        (0usize..1000).prop_map(Op::RemoveBy),
        (0u64..8).prop_map(Op::RemoveKey),
    ];
    prop::collection::vec(op, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interleaved_ops_match_a_btreemap_model_under_every_policy(ops in ops_strategy()) {
        for policy in Policy::ALL {
            let mut q = ReadyQueue::new(policy);
            // (rank, push index) -> removal key: the model's first entry
            // is the next to serve.
            let mut model: BTreeMap<(Rank, usize), Option<u64>> = BTreeMap::new();
            let mut pushed: Vec<(Rank, usize)> = Vec::new();
            // Removal key -> model entry, for the keyed tasks waiting.
            let mut keyed: BTreeMap<u64, (Rank, usize)> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Push(dl, svc) => {
                        let id = pushed.len();
                        let entry = (Rank(model_rank(policy, dl, svc)), id);
                        q.push(QueuedTask::new(SimTime::from(dl), svc, id));
                        model.insert(entry, None);
                        pushed.push(entry);
                    }
                    Op::PushKeyed(dl, svc, key) => {
                        if keyed.contains_key(&key) {
                            continue;
                        }
                        let id = pushed.len();
                        let entry = (Rank(model_rank(policy, dl, svc)), id);
                        q.push_keyed(key, QueuedTask::new(SimTime::from(dl), svc, id));
                        model.insert(entry, Some(key));
                        keyed.insert(key, entry);
                        pushed.push(entry);
                    }
                    Op::Pop => {
                        let got = q.pop().map(|t| t.item);
                        let want = model.pop_first().map(|((_, id), key)| {
                            if let Some(key) = key {
                                keyed.remove(&key);
                            }
                            id
                        });
                        prop_assert_eq!(got, want, "{} pop", policy);
                    }
                    Op::RemoveBy(n) => {
                        if pushed.is_empty() {
                            continue;
                        }
                        let entry = pushed[n % pushed.len()];
                        let got = q.remove_by(|&id| id == entry.1).map(|t| t.item);
                        let want = model.remove(&entry).map(|key| {
                            if let Some(key) = key {
                                keyed.remove(&key);
                            }
                            entry.1
                        });
                        prop_assert_eq!(got, want, "{} remove_by", policy);
                    }
                    Op::RemoveKey(key) => {
                        let got = q.remove_key(key).map(|t| t.item);
                        let want = keyed.remove(&key).map(|entry| {
                            model.remove(&entry);
                            entry.1
                        });
                        prop_assert_eq!(got, want, "{} remove_key", policy);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            let rest: Vec<usize> = q.drain_in_order().into_iter().map(|t| t.item).collect();
            let want: Vec<usize> = model.keys().map(|&(_, id)| id).collect();
            prop_assert_eq!(rest, want, "{} drain", policy);
        }
    }
}
