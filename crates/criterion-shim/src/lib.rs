//! # criterion (offline shim)
//!
//! A self-contained stand-in for the [`criterion`](https://docs.rs/criterion)
//! benchmark harness, implementing the API subset this workspace's
//! benches use. The build environment has no crates.io access, so the
//! real crate cannot be resolved; this keeps `cargo bench` working with
//! plain wall-clock measurements (median of `sample_size` samples, each
//! auto-scaled to a minimum batch duration) instead of criterion's full
//! statistical machinery.
//!
//! Supported surface: `Criterion::bench_function` / `benchmark_group`,
//! groups with `sample_size` / `bench_function` / `bench_with_input` /
//! `finish`, `Bencher::iter` / `iter_batched`,
//! `BatchSize`, `BenchmarkId`, `black_box`, `criterion_group!`,
//! `criterion_main!`.

use std::fmt;
use std::time::{Duration, Instant};

pub use core::hint::black_box;

/// Minimum measured time per sample; iterations scale up until a single
/// sample takes at least this long.
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(20);

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Runs one benchmark under `id`.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size: 10,
        }
    }
}

/// A named collection of benchmarks with shared settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(&format!("{}/{}", self.name, id), self.sample_size, &mut f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            &mut |b| f(b, input),
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Identifies a benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// A two-part id, `name/parameter`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId(s.to_string())
    }
}

/// How batched inputs are sized; accepted for compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Passed to each benchmark closure; records the timed routine.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Nanoseconds per iteration measured for the current sample.
    sample_nanos: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, auto-scaling iteration counts.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        let sample_size = self.sample_size;
        for _ in 0..sample_size {
            let mut iters = 1u64;
            loop {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                let elapsed = start.elapsed();
                if elapsed >= MIN_SAMPLE_TIME || iters >= 1 << 20 {
                    self.sample_nanos
                        .push(elapsed.as_nanos() as f64 / iters as f64);
                    break;
                }
                iters = iters.saturating_mul(4);
            }
        }
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let sample_size = self.sample_size;
        for _ in 0..sample_size {
            let mut iters = 1u64;
            loop {
                let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
                let start = Instant::now();
                for input in inputs {
                    black_box(routine(input));
                }
                let elapsed = start.elapsed();
                if elapsed >= MIN_SAMPLE_TIME || iters >= 1 << 20 {
                    self.sample_nanos
                        .push(elapsed.as_nanos() as f64 / iters as f64);
                    break;
                }
                iters = iters.saturating_mul(4);
            }
        }
    }
}

fn run_one<F>(id: &str, sample_size: usize, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        sample_nanos: Vec::new(),
        sample_size: sample_size.clamp(2, 10),
    };
    f(&mut bencher);
    if bencher.sample_nanos.is_empty() {
        println!("bench {id:<50} (no measurement recorded)");
        return;
    }
    bencher
        .sample_nanos
        .sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let median = bencher.sample_nanos[bencher.sample_nanos.len() / 2];
    let (lo, hi) = (
        bencher.sample_nanos[0],
        bencher.sample_nanos[bencher.sample_nanos.len() - 1],
    );
    println!(
        "bench {id:<50} {:>14} /iter  [{} .. {}]",
        format_nanos(median),
        format_nanos(lo),
        format_nanos(hi)
    );
}

fn format_nanos(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_prints() {
        let mut c = Criterion::default();
        c.bench_function("shim_smoke", |b| b.iter(|| black_box(3u64 * 7)));
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.bench_with_input(BenchmarkId::new("sum", 8), &8u64, |b, &n| {
            b.iter_batched(
                || (0..n).collect::<Vec<u64>>(),
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("a", 3).to_string(), "a/3");
        assert_eq!(BenchmarkId::from_parameter(42).to_string(), "42");
    }
}
