//! Micro-benchmarks of the discrete-event engine (the DeNet substitute):
//! calendar churn, cancellation, and a closed-form M/M/1 model.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use sda_simcore::dist::{Exp, Sample};
use sda_simcore::event::Calendar;
use sda_simcore::rng::Rng;
use sda_simcore::{Engine, Model, SimTime};

/// Hold-model churn: keep `pending` events in the calendar, repeatedly
/// popping the earliest and scheduling a replacement — the classic DES
/// calendar benchmark.
fn calendar_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar_churn");
    for pending in [64usize, 1024, 16_384] {
        group.bench_with_input(
            BenchmarkId::from_parameter(pending),
            &pending,
            |b, &pending| {
                let mut rng = Rng::seed_from(1);
                let exp = Exp::new(1.0);
                b.iter_batched(
                    || {
                        let mut cal = Calendar::new();
                        for i in 0..pending {
                            cal.schedule(SimTime::from(i as f64), i);
                        }
                        cal
                    },
                    |mut cal| {
                        for _ in 0..pending {
                            let (t, e) = cal.pop().expect("pending events");
                            cal.schedule(t + exp.sample(&mut rng), e);
                        }
                        black_box(cal.len());
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Hold-model churn with a process-manager-style timer: each step also
/// schedules one far-future timer and cancels the previous one, so
/// cancelled entries pile up behind the live events until the clock
/// reaches them — the large-calendar case a sorted structure handles
/// worst.
fn calendar_churn_tombstones(c: &mut Criterion) {
    let mut group = c.benchmark_group("calendar_churn_tombstones");
    for pending in [64usize, 1024, 16_384] {
        group.bench_with_input(
            BenchmarkId::from_parameter(pending),
            &pending,
            |b, &pending| {
                let mut rng = Rng::seed_from(1);
                let exp = Exp::new(1.0);
                b.iter_batched(
                    || {
                        let mut cal = Calendar::new();
                        for i in 0..pending {
                            cal.schedule(SimTime::from(i as f64), i);
                        }
                        let timer = cal.schedule(SimTime::from(1e9), usize::MAX);
                        (cal, timer)
                    },
                    |(mut cal, mut timer)| {
                        for _ in 0..pending {
                            let (t, e) = cal.pop().expect("pending events");
                            cal.schedule(t + exp.sample(&mut rng), e);
                            cal.cancel(timer);
                            timer = cal.schedule(t + 1e6, usize::MAX);
                        }
                        black_box(cal.len());
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn calendar_cancellation(c: &mut Criterion) {
    c.bench_function("calendar_cancel_half", |b| {
        b.iter_batched(
            || {
                let mut cal = Calendar::new();
                let handles: Vec<_> = (0..1024)
                    .map(|i| cal.schedule(SimTime::from(i as f64), i))
                    .collect();
                (cal, handles)
            },
            |(mut cal, handles)| {
                for h in handles.iter().step_by(2) {
                    cal.cancel(*h);
                }
                while cal.pop().is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
}

/// An M/M/1 queue as an engine model: measures end-to-end event dispatch
/// overhead including model logic.
struct Mm1 {
    rng: Rng,
    arrival: Exp,
    service: Exp,
    queue: usize,
    served: u64,
}

#[derive(Debug)]
enum Mm1Ev {
    Arrive,
    Depart,
}

impl Model for Mm1 {
    type Event = Mm1Ev;
    fn handle(&mut self, engine: &mut Engine<Mm1Ev>, event: Mm1Ev) {
        match event {
            Mm1Ev::Arrive => {
                let gap = self.arrival.sample(&mut self.rng);
                engine.schedule_after(gap, Mm1Ev::Arrive);
                self.queue += 1;
                if self.queue == 1 {
                    let s = self.service.sample(&mut self.rng);
                    engine.schedule_after(s, Mm1Ev::Depart);
                }
            }
            Mm1Ev::Depart => {
                self.queue -= 1;
                self.served += 1;
                if self.queue > 0 {
                    let s = self.service.sample(&mut self.rng);
                    engine.schedule_after(s, Mm1Ev::Depart);
                }
            }
        }
    }
}

fn mm1_model(c: &mut Criterion) {
    c.bench_function("engine_mm1_100k_units", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            let mut model = Mm1 {
                rng: Rng::seed_from(7),
                arrival: Exp::new(0.8),
                service: Exp::new(1.0),
                queue: 0,
                served: 0,
            };
            engine.schedule(SimTime::ZERO, Mm1Ev::Arrive);
            engine.run_until(&mut model, SimTime::from(100_000.0));
            black_box(model.served)
        });
    });
}

fn rng_and_distributions(c: &mut Criterion) {
    c.bench_function("rng_next_f64_1M", |b| {
        let mut rng = Rng::seed_from(3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000_000 {
                acc += rng.next_f64();
            }
            black_box(acc)
        });
    });
    c.bench_function("exp_sample_1M", |b| {
        let mut rng = Rng::seed_from(3);
        let exp = Exp::new(1.0);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1_000_000 {
                acc += exp.sample(&mut rng);
            }
            black_box(acc)
        });
    });
}

criterion_group!(
    benches,
    calendar_churn,
    calendar_churn_tombstones,
    calendar_cancellation,
    mm1_model,
    rng_and_distributions
);
criterion_main!(benches);
