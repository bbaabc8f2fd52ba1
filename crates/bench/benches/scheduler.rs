//! Micro-benchmarks of the local ready queues: push–pop churn under every
//! policy from a single waiting task to thousands, with random deadlines
//! and with deadlines trailing a clock as the simulator's do, and the
//! targeted removals used by abortion.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use sda_sched::{Policy, QueuedTask, ReadyQueue};
use sda_simcore::dist::{Exp, Sample, Uniform};
use sda_simcore::rng::Rng;
use sda_simcore::SimTime;

fn filled_queue(policy: Policy, n: usize, seed: u64) -> ReadyQueue<u64> {
    let mut rng = Rng::seed_from(seed);
    let mut q = ReadyQueue::new(policy);
    for i in 0..n as u64 {
        q.push(QueuedTask::new(
            SimTime::from(rng.next_f64() * 1000.0),
            rng.next_f64() * 4.0,
            i,
        ));
    }
    q
}

/// Steady-state churn: push one, pop one, at a given queue depth.
fn queue_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_churn");
    for policy in Policy::ALL {
        for depth in [1usize, 16, 256, 4096] {
            group.bench_with_input(
                BenchmarkId::new(policy.to_string(), depth),
                &depth,
                |b, &depth| {
                    let mut q = filled_queue(policy, depth, 42);
                    let mut rng = Rng::seed_from(43);
                    let mut i = depth as u64;
                    b.iter(|| {
                        q.push(QueuedTask::new(
                            SimTime::from(rng.next_f64() * 1000.0),
                            rng.next_f64() * 4.0,
                            i,
                        ));
                        i += 1;
                        black_box(q.pop());
                    });
                },
            );
        }
    }
    group.finish();
}

/// Tasks the way the simulator makes them: the clock advances by Exp(1)
/// per task, and each deadline trails it by U[1.25, 5] (Table 1's local
/// slack), so a new task mostly ranks behind the ones already waiting.
struct TrailingClock {
    rng: Rng,
    clock: f64,
    gap: Exp,
    slack: Uniform,
}

impl TrailingClock {
    fn new(seed: u64) -> TrailingClock {
        TrailingClock {
            rng: Rng::seed_from(seed),
            clock: 0.0,
            gap: Exp::new(1.0),
            slack: Uniform::new(1.25, 5.0),
        }
    }

    fn task(&mut self, id: u64) -> QueuedTask<u64> {
        self.clock += self.gap.sample(&mut self.rng);
        let deadline = self.clock + self.slack.sample(&mut self.rng);
        QueuedTask::new(SimTime::from(deadline), self.rng.next_f64() * 4.0, id)
    }
}

/// `queue_churn` with deadlines trailing a clock: the same policies and
/// depths, on the simulator's pattern.
fn queue_churn_trailing(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_churn_trailing");
    for policy in Policy::ALL {
        for depth in [1usize, 16, 256, 4096] {
            group.bench_with_input(
                BenchmarkId::new(policy.to_string(), depth),
                &depth,
                |b, &depth| {
                    let mut tasks = TrailingClock::new(42);
                    let mut q = ReadyQueue::new(policy);
                    for i in 0..depth as u64 {
                        q.push(tasks.task(i));
                    }
                    let mut i = depth as u64;
                    b.iter(|| {
                        q.push(tasks.task(i));
                        i += 1;
                        black_box(q.pop());
                    });
                },
            );
        }
    }
    group.finish();
}

/// Targeted removal (the abortion path) at several queue depths.
fn queue_remove_by(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_remove_by");
    for depth in [16usize, 256, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter_batched(
                || filled_queue(Policy::Edf, depth, 44),
                |mut q| {
                    let target = (depth / 2) as u64;
                    black_box(q.remove_by(|&id| id == target));
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Keyed O(1) removal (what the abortion path uses now) at the same
/// depths as `queue_remove_by` — the numbers should stay flat as the
/// queue deepens.
fn queue_remove_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_remove_key");
    for depth in [16usize, 256, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter_batched(
                || {
                    let mut rng = Rng::seed_from(44);
                    let mut q = ReadyQueue::new(Policy::Edf);
                    for i in 0..depth as u64 {
                        q.push_keyed(
                            i,
                            QueuedTask::new(
                                SimTime::from(rng.next_f64() * 1000.0),
                                rng.next_f64() * 4.0,
                                i,
                            ),
                        );
                    }
                    q
                },
                |mut q| {
                    black_box(q.remove_key((depth / 2) as u64));
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    queue_churn,
    queue_churn_trailing,
    queue_remove_by,
    queue_remove_key
);
criterion_main!(benches);
