//! Output statistics: running moments, miss-rate counters, time-weighted
//! averages, and confidence intervals across replications.
//!
//! The paper reports each data point as the average of two independent
//! one-million-time-unit runs with a 95% confidence interval of ±0.35
//! percentage points on miss rates. We reproduce the methodology:
//! per-replication point estimates are combined with a Student-t interval
//! by [`Estimate::from_values`].

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable single-pass accumulation of arbitrary observations
/// (response times, slack values, ...).
///
/// ```
/// use sda_simcore::stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// let (_, _, m2, _, _) = w.to_parts();
/// assert!((m2 - 32.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Welford {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw accumulator state `(count, mean, m2, min, max)`, for
    /// exact serialization (pair with [`Welford::from_parts`]).
    pub fn to_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from [`Welford::to_parts`] output. The
    /// round-trip is bit-exact; no invariants are re-derived, so only
    /// feed this values produced by `to_parts`.
    pub fn from_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Welford {
        Welford {
            count,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A missed-deadline counter: a ratio estimator `missed / total`.
///
/// This is the paper's `MD` metric for one task class in one run.
///
/// ```
/// use sda_simcore::stats::MissCounter;
/// let mut md = MissCounter::new();
/// md.record(true);
/// md.record(false);
/// md.record(false);
/// md.record(false);
/// assert_eq!(md.rate(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissCounter {
    missed: u64,
    total: u64,
}

impl MissCounter {
    /// Creates an empty counter.
    pub fn new() -> MissCounter {
        MissCounter::default()
    }

    /// Records the completion (or abortion) of one task; `missed` is true
    /// if the task failed to meet its deadline.
    #[inline]
    pub fn record(&mut self, missed: bool) {
        self.total += 1;
        if missed {
            self.missed += 1;
        }
    }

    /// Number of missed deadlines.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Number of tasks observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fraction of missed deadlines (0 if no tasks were observed).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.missed as f64 / self.total as f64
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &MissCounter) {
        self.missed += other.missed;
        self.total += other.total;
    }

    /// Rebuilds a counter from its raw `(missed, total)` state, for
    /// exact serialization round-trips.
    ///
    /// # Panics
    ///
    /// Panics if `missed > total`.
    pub fn from_parts(missed: u64, total: u64) -> MissCounter {
        assert!(missed <= total, "missed {missed} exceeds total {total}");
        MissCounter { missed, total }
    }
}

/// Accumulates an amount-weighted miss fraction, e.g. the paper's
/// *fraction of missed work* (§6.1): work done on tardy tasks over all work.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WeightedMiss {
    missed_amount: f64,
    total_amount: f64,
}

impl WeightedMiss {
    /// Creates an empty accumulator.
    pub fn new() -> WeightedMiss {
        WeightedMiss::default()
    }

    /// Records `amount` units of work belonging to a task that
    /// missed (`missed = true`) or met its deadline.
    pub fn record(&mut self, amount: f64, missed: bool) {
        debug_assert!(amount >= 0.0, "negative work amount {amount:e}");
        self.total_amount += amount;
        if missed {
            self.missed_amount += amount;
        }
    }

    /// The missed fraction (0 if nothing recorded).
    pub fn fraction(&self) -> f64 {
        if self.total_amount == 0.0 {
            0.0
        } else {
            self.missed_amount / self.total_amount
        }
    }

    /// Total amount recorded.
    pub fn total(&self) -> f64 {
        self.total_amount
    }

    /// Amount recorded against missed tasks.
    pub fn missed_amount(&self) -> f64 {
        self.missed_amount
    }

    /// Rebuilds an accumulator from its raw `(missed_amount,
    /// total_amount)` state, for exact serialization round-trips.
    pub fn from_parts(missed_amount: f64, total_amount: f64) -> WeightedMiss {
        WeightedMiss {
            missed_amount,
            total_amount,
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &WeightedMiss) {
        self.missed_amount += other.missed_amount;
        self.total_amount += other.total_amount;
    }
}

/// Two-sided 95% Student-t critical values, indexed by degrees of freedom
/// (1-based up to 30, then the normal approximation 1.96).
const T_95: [f64; 31] = [
    f64::NAN, // df = 0 is undefined
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

/// The two-sided 95% Student-t critical value for `df` degrees of freedom.
///
/// Exact table values for df ≤ 30, the normal value 1.96 beyond.
///
/// # Panics
///
/// Panics if `df == 0`.
pub fn t_critical_95(df: u64) -> f64 {
    assert!(df > 0, "t distribution needs at least 1 degree of freedom");
    if df <= 30 {
        T_95[df as usize]
    } else {
        1.96
    }
}

/// Means smaller than this (in absolute value) are treated as zero when
/// forming relative CI widths; see [`Estimate::width_ratio`].
const MEAN_EPS: f64 = 1e-9;

/// A point estimate with a symmetric 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate (mean across replications).
    pub mean: f64,
    /// The 95% confidence half-width (0 for a single replication).
    pub half_width: f64,
}

impl Estimate {
    /// Combines per-replication point estimates into their mean ± 95%
    /// Student-t half-width: the paper's methodology, where each data
    /// point averages independent simulation runs.
    ///
    /// With a single value the half-width is reported as 0 (unknown);
    /// with none, the estimate is 0 ± 0.
    ///
    /// ```
    /// use sda_simcore::stats::Estimate;
    /// let e = Estimate::from_values(&[0.24, 0.26]);
    /// assert!((e.mean - 0.25).abs() < 1e-12);
    /// assert!(e.half_width > 0.0);
    /// ```
    pub fn from_values(values: &[f64]) -> Estimate {
        let (mean, _, half_width) = mean_var_half_width(values);
        Estimate { mean, half_width }
    }

    /// The CI width relative to the mean: `(hi - lo) / |mean|`.
    ///
    /// For means at (or indistinguishable from) zero the ratio would
    /// blow up on noise alone, so the *absolute* width is returned
    /// instead — the convergence criterion then reads "the interval
    /// itself is narrower than the target", which is the conventional
    /// fallback for zero-mean metrics.
    pub fn width_ratio(&self) -> f64 {
        let width = 2.0 * self.half_width;
        if self.mean.abs() > MEAN_EPS {
            width / self.mean.abs()
        } else {
            width
        }
    }
}

impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

/// The mean, the sample (n−1) variance and the Student-t 95% half-width
/// `t * sqrt(var / n)` of `values`: the one place a confidence interval
/// is computed. The variance and half-width are 0 with fewer than two
/// values; all three are 0 with none.
fn mean_var_half_width(values: &[f64]) -> (f64, f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0, 0.0);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    let half_width = t_critical_95((n - 1) as u64) * (var / n as f64).sqrt();
    (mean, var, half_width)
}

/// The full descriptive statistics of one metric across replications —
/// one entry of a `stats.json` file.
///
/// The schema (documented in the repository README) is:
/// `mean`, `stddev` (sample, n−1), `stderr` (`stddev / sqrt(samples)`),
/// `min`, `max`, `samples`, `confidence_interval_95` (`[lo, hi]`,
/// Student-t), and `ci_width_ratio` (`(hi − lo) / |mean|`, or the
/// absolute width when the mean is ≈ 0 — see [`Estimate::width_ratio`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 below two samples).
    pub stddev: f64,
    /// Standard error of the mean, `stddev / sqrt(samples)`.
    pub stderr: f64,
    /// Smallest sample (0 if empty).
    pub min: f64,
    /// Largest sample (0 if empty).
    pub max: f64,
    /// Number of samples.
    pub samples: u64,
    /// Lower bound of the 95% confidence interval.
    pub ci_lo: f64,
    /// Upper bound of the 95% confidence interval.
    pub ci_hi: f64,
    /// Relative CI width used for convergence decisions.
    pub ci_width_ratio: f64,
}

impl Summary {
    /// Summarizes a set of per-replication values.
    pub fn from_values(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                mean: 0.0,
                stddev: 0.0,
                stderr: 0.0,
                min: 0.0,
                max: 0.0,
                samples: 0,
                ci_lo: 0.0,
                ci_hi: 0.0,
                ci_width_ratio: 0.0,
            };
        }
        let (mean, var, half_width) = mean_var_half_width(values);
        let est = Estimate { mean, half_width };
        Summary {
            mean,
            stddev: var.sqrt(),
            stderr: (var / values.len() as f64).sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.len() as u64,
            ci_lo: mean - half_width,
            ci_hi: mean + half_width,
            ci_width_ratio: est.width_ratio(),
        }
    }

    /// The point estimate with its 95% half-width.
    pub fn estimate(&self) -> Estimate {
        Estimate {
            mean: self.mean,
            half_width: self.ci_hi - self.mean,
        }
    }

    /// Whether the CI width ratio meets `target` (needs ≥ 2 samples —
    /// a single replication has no measurable uncertainty).
    pub fn converged(&self, target: f64) -> bool {
        self.samples >= 2 && self.ci_width_ratio <= target
    }

    /// Renders this summary as a `stats.json` metric object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mean\": {}, \"stddev\": {}, \"stderr\": {}, \"min\": {}, \"max\": {}, \
             \"samples\": {}, \"confidence_interval_95\": [{}, {}], \"ci_width_ratio\": {}}}",
            json_f64(self.mean),
            json_f64(self.stddev),
            json_f64(self.stderr),
            json_f64(self.min),
            json_f64(self.max),
            self.samples,
            json_f64(self.ci_lo),
            json_f64(self.ci_hi),
            json_f64(self.ci_width_ratio),
        )
    }
}

/// Formats an `f64` as a JSON number (JSON has no NaN/∞, so non-finite
/// values render as `null`).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A fixed-bin histogram over `[0, max)` with an overflow bin, for
/// response-time tails.
///
/// Quantiles are estimated by linear interpolation within the containing
/// bin; values at or above `max` land in the overflow bin and report as
/// `max` (a lower bound). Deterministic and mergeable — suitable for the
/// replication workflow.
///
/// Only the used prefix of the bins is stored: up to the last non-zero
/// bin, so an empty histogram holds no bins at all. The prefix never ends
/// in a zero bin, which keeps the derived equality a comparison of
/// contents.
///
/// ```
/// use sda_simcore::stats::Histogram;
/// let mut h = Histogram::new(1.0, 10.0);
/// for x in [1.5, 2.5, 3.5, 4.5] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// let median = h.quantile(0.5);
/// assert!((2.0..=4.0).contains(&median));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    /// The number of bins covering `[0, max)`.
    len: usize,
    /// The used prefix of the bins: never longer than `len`, and never
    /// ending in a zero bin.
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram with bins of `bin_width` covering
    /// `[0, max)`. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < bin_width <= max` and both are finite.
    pub fn new(bin_width: f64, max: f64) -> Histogram {
        assert!(
            bin_width.is_finite() && max.is_finite() && bin_width > 0.0 && bin_width <= max,
            "invalid histogram shape: bin_width {bin_width}, max {max}"
        );
        Histogram {
            bin_width,
            len: (max / bin_width).ceil() as usize,
            bins: Vec::new(),
            overflow: 0,
            count: 0,
        }
    }

    /// Records one non-negative observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or NaN.
    pub fn record(&mut self, x: f64) {
        assert!(x >= 0.0, "histogram observations must be non-negative");
        let idx = (x / self.bin_width) as usize;
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin += 1;
        } else {
            self.record_past_prefix(idx);
        }
        self.count += 1;
    }

    /// Records an observation beyond the used prefix: it grows the prefix
    /// to `idx`, or lands in the overflow bin. The first growth reserves
    /// all `len` bins, so a histogram allocates at most once while it
    /// records.
    #[cold]
    fn record_past_prefix(&mut self, idx: usize) {
        if idx >= self.len {
            self.overflow += 1;
            return;
        }
        if self.bins.capacity() < self.len {
            self.bins.reserve_exact(self.len - self.bins.len());
        }
        self.bins.resize(idx, 0);
        self.bins.push(1);
    }

    /// Number of observations (including overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0 < q <= 1`), linearly interpolated within the
    /// containing bin. Returns 0 for an empty histogram; quantiles that
    /// fall into the overflow bin return the histogram's upper bound (a
    /// lower bound on the true quantile).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q <= 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if seen + c >= target {
                let into = (target - seen) as f64 / c.max(1) as f64;
                return (i as f64 + into) * self.bin_width;
            }
            seen += c;
        }
        self.len as f64 * self.bin_width
    }

    /// Frees the capacity reserved past the used prefix. A finished
    /// histogram then holds only the bins it used.
    pub fn shrink_to_fit(&mut self) {
        self.bins.shrink_to_fit();
    }

    /// The raw state `(bin_width, len, bins, overflow, count)`, for exact
    /// serialization (pair with [`Histogram::from_parts`]). `bins` is the
    /// used prefix: at most `len` bins, the last of them non-zero.
    pub fn to_parts(&self) -> (f64, usize, &[u64], u64, u64) {
        (
            self.bin_width,
            self.len,
            &self.bins,
            self.overflow,
            self.count,
        )
    }

    /// Rebuilds a histogram from [`Histogram::to_parts`] output.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not finite and positive, if `bins` is
    /// longer than `len` or ends in a zero bin, or if `count` disagrees
    /// with the sum of `bins` and `overflow`.
    pub fn from_parts(
        bin_width: f64,
        len: usize,
        bins: Vec<u64>,
        overflow: u64,
        count: u64,
    ) -> Histogram {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "invalid bin width {bin_width}"
        );
        assert!(
            bins.len() <= len && bins.last() != Some(&0),
            "histogram bins are not a used prefix of {len} bins"
        );
        assert_eq!(
            bins.iter().sum::<u64>() + overflow,
            count,
            "histogram count disagrees with its bins"
        );
        Histogram {
            bin_width,
            len,
            bins,
            overflow,
            count,
        }
    }

    /// Merges another histogram with identical shape into this one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.bin_width == other.bin_width && self.len == other.len,
            "cannot merge differently-shaped histograms"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

/// A time-weighted average of a piecewise-constant signal, e.g. queue
/// length or server utilization.
///
/// ```
/// use sda_simcore::stats::TimeWeighted;
/// use sda_simcore::SimTime;
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.update(SimTime::from(2.0), 1.0); // value 0 for 2 units
/// tw.update(SimTime::from(4.0), 0.0); // value 1 for 2 units
/// assert_eq!(tw.average(SimTime::from(4.0)), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    area: f64,
    last_time: crate::time::SimTime,
    last_value: f64,
    start: crate::time::SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial `value`.
    pub fn new(start: crate::time::SimTime, value: f64) -> TimeWeighted {
        TimeWeighted {
            area: 0.0,
            last_time: start,
            last_value: value,
            start,
        }
    }

    /// Records that the signal changed to `value` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous update.
    #[inline]
    pub fn update(&mut self, at: crate::time::SimTime, value: f64) {
        assert!(
            at >= self.last_time,
            "time-weighted updates must be ordered"
        );
        self.area += self.last_value * (at - self.last_time);
        self.last_time = at;
        self.last_value = value;
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The time-weighted average over `[start, until]`.
    ///
    /// Returns the current value if the window is empty.
    pub fn average(&self, until: crate::time::SimTime) -> f64 {
        let tail = self.last_value * until.saturating_since(self.last_time);
        let span = until - self.start;
        if span <= 0.0 {
            self.last_value
        } else {
            (self.area + tail) / span
        }
    }

    /// The raw state `(area, last_time, last_value, start)`, for exact
    /// serialization (pair with [`TimeWeighted::from_parts`]).
    pub fn to_parts(&self) -> (f64, crate::time::SimTime, f64, crate::time::SimTime) {
        (self.area, self.last_time, self.last_value, self.start)
    }

    /// Rebuilds an accumulator from [`TimeWeighted::to_parts`] output.
    /// The round-trip is bit-exact.
    pub fn from_parts(
        area: f64,
        last_time: crate::time::SimTime,
        last_value: f64,
        start: crate::time::SimTime,
    ) -> TimeWeighted {
        TimeWeighted {
            area,
            last_time,
            last_value,
            start,
        }
    }
}

/// Per-node observables of one simulation run: busy time, served count,
/// local deadline misses, and the time-weighted queue length.
///
/// The simulation feeds this during the run; ratios are taken against a
/// measurement span the caller supplies (typically `duration - warmup`),
/// so the accumulator itself stays clock-free.
///
/// ```
/// use sda_simcore::stats::NodeStats;
/// use sda_simcore::SimTime;
/// let mut n = NodeStats::new(SimTime::ZERO);
/// n.observe_queue(SimTime::from(1.0), 2.0);
/// n.add_busy(3.0);
/// n.record_service();
/// n.record_local(false);
/// assert_eq!(n.utilization(4.0), 0.75);
/// assert_eq!(n.local_miss_rate(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    busy: f64,
    served: u64,
    local: MissCounter,
    queue: TimeWeighted,
}

impl NodeStats {
    /// Starts tracking at `start` with an empty queue.
    pub fn new(start: crate::time::SimTime) -> NodeStats {
        NodeStats {
            busy: 0.0,
            served: 0,
            local: MissCounter::new(),
            queue: TimeWeighted::new(start, 0.0),
        }
    }

    /// Adds `amount` of busy (serving) time.
    #[inline]
    pub fn add_busy(&mut self, amount: f64) {
        self.busy += amount;
    }

    /// Counts one completed service (local job or subtask).
    #[inline]
    pub fn record_service(&mut self) {
        self.served += 1;
    }

    /// Counts one finished *local* job and whether it missed its deadline.
    #[inline]
    pub fn record_local(&mut self, missed: bool) {
        self.local.record(missed);
    }

    /// Records the queue length at time `at`.
    #[inline]
    pub fn observe_queue(&mut self, at: crate::time::SimTime, len: f64) {
        self.queue.update(at, len);
    }

    /// Total busy time accumulated.
    pub fn busy(&self) -> f64 {
        self.busy
    }

    /// Number of services completed.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of `span` the node spent serving.
    pub fn utilization(&self, span: f64) -> f64 {
        if span <= 0.0 {
            0.0
        } else {
            self.busy / span
        }
    }

    /// Time-weighted mean ready-queue length up to `until`.
    pub fn mean_queue_len(&self, until: crate::time::SimTime) -> f64 {
        self.queue.average(until)
    }

    /// Local-job deadline miss rate at this node (0 when no locals finished).
    pub fn local_miss_rate(&self) -> f64 {
        self.local.rate()
    }

    /// The local-task miss counter (for exact serialization).
    pub fn local_counter(&self) -> &MissCounter {
        &self.local
    }

    /// The time-weighted queue-length accumulator (for exact
    /// serialization).
    pub fn queue_stats(&self) -> &TimeWeighted {
        &self.queue
    }

    /// Rebuilds node statistics from their component accumulators, for
    /// exact serialization round-trips.
    pub fn from_parts(
        busy: f64,
        served: u64,
        local: MissCounter,
        queue: TimeWeighted,
    ) -> NodeStats {
        NodeStats {
            busy,
            served,
            local,
            queue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn welford_known_dataset() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 5);
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!(
            (w.to_parts().2 - 10.0).abs() < 1e-12,
            "sum of squared deviations"
        );
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 5.0);
    }

    #[test]
    fn welford_empty_is_benign() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.to_parts().2, 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.731).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.to_parts().2 - whole.to_parts().2).abs() < 1e-8);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn miss_counter_rate() {
        let mut md = MissCounter::new();
        assert_eq!(md.rate(), 0.0);
        for i in 0..100 {
            md.record(i % 4 == 0);
        }
        assert_eq!(md.total(), 100);
        assert_eq!(md.missed(), 25);
        assert_eq!(md.rate(), 0.25);
    }

    #[test]
    fn miss_counter_merge() {
        let mut a = MissCounter::new();
        a.record(true);
        let mut b = MissCounter::new();
        b.record(false);
        b.record(false);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.missed(), 2);
        assert_eq!(a.rate(), 0.5);
    }

    #[test]
    fn weighted_miss_fraction() {
        // The §6.1 computation: 0.75·0.117 + 0.25·0.13 ≈ 0.12.
        let mut wm = WeightedMiss::new();
        wm.record(3.0, true);
        wm.record(1.0, false);
        assert_eq!(wm.fraction(), 0.75);
        assert_eq!(wm.total(), 4.0);
        let mut other = WeightedMiss::new();
        other.record(4.0, false);
        wm.merge(&other);
        assert_eq!(wm.fraction(), 3.0 / 8.0);
    }

    #[test]
    fn t_table_values() {
        assert!((t_critical_95(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_95(2) - 4.303).abs() < 1e-9);
        assert!((t_critical_95(30) - 2.042).abs() < 1e-9);
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 1 degree")]
    fn t_table_df_zero_panics() {
        t_critical_95(0);
    }

    #[test]
    fn estimate_from_values_matches_hand_computation() {
        // Two replications x1, x2: hw = t(1) * s / sqrt(2),
        // s = |x1 - x2| / sqrt(2)  =>  hw = 12.706 * |x1-x2| / 2.
        let e = Estimate::from_values(&[0.10, 0.14]);
        assert!((e.mean - 0.12).abs() < 1e-12);
        assert!((e.half_width - 12.706 * 0.04 / 2.0).abs() < 1e-9);
        assert!((0.12 - e.mean).abs() <= e.half_width);
        let e = Estimate::from_values(&[1.0, 2.0, 3.0]);
        assert!((e.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_from_one_or_no_values_has_zero_width() {
        assert_eq!(
            Estimate::from_values(&[0.3]),
            Estimate {
                mean: 0.3,
                half_width: 0.0
            }
        );
        assert_eq!(
            Estimate::from_values(&[]),
            Estimate {
                mean: 0.0,
                half_width: 0.0
            }
        );
    }

    #[test]
    fn summary_matches_hand_computation() {
        // n = 3: mean 2, sample variance 1, stderr 1/sqrt(3),
        // half-width t(2) * stderr = 4.303 / sqrt(3).
        let s = Summary::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.samples, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert!((s.stderr - 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        let hw = 4.303 / 3.0f64.sqrt();
        assert!((s.ci_lo - (2.0 - hw)).abs() < 1e-9);
        assert!((s.ci_hi - (2.0 + hw)).abs() < 1e-9);
        assert!((s.ci_width_ratio - 2.0 * hw / 2.0).abs() < 1e-9);
        assert!((s.estimate().half_width - hw).abs() < 1e-9);
        assert!(!s.converged(0.1));
        assert!(s.converged(10.0));
    }

    #[test]
    fn summary_degenerate_sizes() {
        let empty = Summary::from_values(&[]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.min, 0.0);
        assert!(!empty.converged(1.0), "no samples can never be converged");
        let one = Summary::from_values(&[0.7]);
        assert_eq!(one.samples, 1);
        assert_eq!(one.mean, 0.7);
        assert_eq!(one.stddev, 0.0);
        assert_eq!(one.ci_lo, 0.7);
        assert_eq!(one.ci_hi, 0.7);
        assert!(
            !one.converged(1.0),
            "one replication has unknown uncertainty"
        );
    }

    #[test]
    fn width_ratio_falls_back_to_absolute_near_zero() {
        let wide = Estimate {
            mean: 0.5,
            half_width: 0.05,
        };
        assert!((wide.width_ratio() - 0.2).abs() < 1e-12);
        let zeroish = Estimate {
            mean: 0.0,
            half_width: 0.01,
        };
        assert!((zeroish.width_ratio() - 0.02).abs() < 1e-12);
        // Identical replications: zero width, always converged.
        let s = Summary::from_values(&[0.0, 0.0, 0.0]);
        assert_eq!(s.ci_width_ratio, 0.0);
        assert!(s.converged(0.1));
    }

    #[test]
    fn summary_json_is_schema_shaped() {
        let s = Summary::from_values(&[0.24, 0.26]);
        let json = s.to_json();
        for key in [
            "\"mean\"",
            "\"stddev\"",
            "\"stderr\"",
            "\"min\"",
            "\"max\"",
            "\"samples\"",
            "\"confidence_interval_95\"",
            "\"ci_width_ratio\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"samples\": 2"));
        // Non-finite values must render as null, not break the JSON.
        let mut bad = s;
        bad.min = f64::NEG_INFINITY;
        assert!(bad.to_json().contains("\"min\": null"));
    }

    #[test]
    fn estimate_display() {
        let e = Estimate {
            mean: 0.25,
            half_width: 0.0035,
        };
        assert_eq!(format!("{e}"), "0.2500 ± 0.0035");
    }

    #[test]
    fn histogram_quantiles_on_uniform_grid() {
        let mut h = Histogram::new(1.0, 100.0);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 100);
        // Median of 0.5..99.5 should be near 50.
        assert!((h.quantile(0.5) - 50.0).abs() <= 1.0);
        assert!((h.quantile(0.95) - 95.0).abs() <= 1.0);
        assert!((h.quantile(1.0) - 100.0).abs() <= 1.0);
        assert!(h.quantile(0.01) <= 2.0);
    }

    #[test]
    fn histogram_overflow_reports_lower_bound() {
        let mut h = Histogram::new(1.0, 10.0);
        h.record(5.0);
        h.record(500.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), 10.0, "overflow quantile is the cap");
    }

    #[test]
    fn histogram_empty_quantile_is_zero() {
        let h = Histogram::new(0.5, 5.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_pools_counts() {
        let mut a = Histogram::new(1.0, 10.0);
        a.record(1.5);
        let mut b = Histogram::new(1.0, 10.0);
        b.record(8.5);
        b.record(20.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn histogram_stores_only_its_used_prefix() {
        let mut h = Histogram::new(1.0, 10.0);
        assert_eq!(h.bins.capacity(), 0, "new allocates nothing");
        h.record(2.5);
        assert_eq!(h.to_parts().2, [0, 0, 1]);
        assert!(
            h.bins.capacity() >= 10,
            "the first growth reserves every bin"
        );
        let reserved = h.bins.as_ptr();
        for x in [0.5, 9.5, 4.0, 12.0] {
            h.record(x);
        }
        assert_eq!(h.bins.as_ptr(), reserved, "later growth reuses it");
        assert_eq!(
            h.to_parts(),
            (1.0, 10, &[1, 0, 1, 0, 1, 0, 0, 0, 0, 1][..], 1, 5)
        );
        let mut prefix = Histogram::new(1.0, 10.0);
        prefix.record(1.0);
        prefix.shrink_to_fit();
        assert!(prefix.bins.capacity() < 10, "the unused bins are freed");
    }

    #[test]
    fn histogram_merge_extends_the_prefix() {
        let mut a = Histogram::new(1.0, 10.0);
        let mut b = Histogram::new(1.0, 10.0);
        b.record(3.5);
        a.merge(&b);
        assert_eq!(a, b);
        a.record(0.5);
        b.merge(&Histogram::new(1.0, 10.0));
        a.merge(&b);
        assert_eq!(a.to_parts().2, [1, 0, 0, 2]);
        let parts = a.to_parts();
        let back = Histogram::from_parts(parts.0, parts.1, parts.2.to_vec(), parts.3, parts.4);
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "not a used prefix")]
    fn histogram_from_parts_rejects_a_trailing_zero_bin() {
        Histogram::from_parts(1.0, 10, vec![1, 0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "not a used prefix")]
    fn histogram_from_parts_rejects_bins_past_len() {
        Histogram::from_parts(1.0, 2, vec![1, 1, 1], 0, 3);
    }

    #[test]
    #[should_panic(expected = "differently-shaped")]
    fn histogram_merge_len_mismatch_panics() {
        let mut a = Histogram::new(1.0, 10.0);
        a.merge(&Histogram::new(1.0, 20.0));
    }

    #[test]
    #[should_panic(expected = "differently-shaped")]
    fn histogram_merge_shape_mismatch_panics() {
        let mut a = Histogram::new(1.0, 10.0);
        a.merge(&Histogram::new(2.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn histogram_rejects_negative() {
        Histogram::new(1.0, 10.0).record(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid histogram shape")]
    fn histogram_rejects_zero_bin_width() {
        Histogram::new(0.0, 10.0);
    }

    #[test]
    fn time_weighted_piecewise_signal() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.update(SimTime::from(1.0), 4.0);
        tw.update(SimTime::from(3.0), 0.0);
        // [0,1): 2, [1,3): 4, [3,5): 0 => (2 + 8 + 0) / 5 = 2.0
        assert!((tw.average(SimTime::from(5.0)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_empty_window_returns_current() {
        let tw = TimeWeighted::new(SimTime::from(5.0), 7.0);
        assert_eq!(tw.average(SimTime::from(5.0)), 7.0);
    }

    #[test]
    fn node_stats_accumulates_ratios() {
        let mut n = NodeStats::new(SimTime::ZERO);
        n.observe_queue(SimTime::from(2.0), 3.0); // len 0 for 2 units
        n.observe_queue(SimTime::from(4.0), 0.0); // len 3 for 2 units
        n.add_busy(1.0);
        n.add_busy(2.0);
        n.record_service();
        n.record_service();
        n.record_local(true);
        n.record_local(false);
        n.record_local(false);
        assert_eq!(n.busy(), 3.0);
        assert_eq!(n.served(), 2);
        assert_eq!(n.utilization(6.0), 0.5);
        assert_eq!(n.utilization(0.0), 0.0);
        assert!((n.mean_queue_len(SimTime::from(4.0)) - 1.5).abs() < 1e-12);
        assert!((n.local_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(n.local_counter().total(), 3);
    }
}
