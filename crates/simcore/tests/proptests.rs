//! Property-based tests of the engine substrate: calendar ordering,
//! statistics algebra, and distribution invariants.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::prelude::*;

use sda_simcore::dist::{Exp, Sample, Uniform};
use sda_simcore::event::{Calendar, EventHandle};
use sda_simcore::rng::Rng;
use sda_simcore::stats::{Estimate, Histogram, Welford};
use sda_simcore::SimTime;

/// Any time a simulation can hold: arbitrary non-NaN bit patterns
/// (subnormals and extremes included), ordinary values, ±0.0 and ±∞.
fn any_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_nan() {
                -0.0
            } else {
                x
            }
        }),
        -10.0f64..10.0,
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn simtime_operators_agree_with_cmp(a in any_time(), b in any_time()) {
        let (a, b) = (SimTime::from(a), SimTime::from(b));
        // Both orders, an exact tie, and a against its negation (a ±0.0
        // tie when a is zero).
        for (x, y) in [(a, b), (b, a), (a, a), (a, SimTime::from(-a.value()))] {
            let order = x.cmp(&y);
            prop_assert_eq!(x < y, order == Ordering::Less);
            prop_assert_eq!(x <= y, order != Ordering::Greater);
            prop_assert_eq!(x > y, order == Ordering::Greater);
            prop_assert_eq!(x >= y, order != Ordering::Less);
            prop_assert_eq!(x.partial_cmp(&y), Some(order));
        }
    }
}

proptest! {
    #[test]
    fn calendar_pops_in_nondecreasing_time_order(
        times in prop::collection::vec(0.0f64..1e6, 1..200),
    ) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from(t), i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut seen = 0;
        while let Some((t, _)) = cal.pop() {
            prop_assert!(t.value() >= last);
            last = t.value();
            seen += 1;
        }
        prop_assert_eq!(seen, times.len());
    }

    #[test]
    fn calendar_cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0.0f64..1e3, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut cal = Calendar::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, cal.schedule(SimTime::from(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, handle) in &handles {
            let cancel = cancel_mask.get(*i).copied().unwrap_or(false);
            if cancel {
                prop_assert!(cal.cancel(*handle));
            } else {
                expect.push(*i);
            }
        }
        prop_assert_eq!(cal.len(), expect.len());
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, e)) = cal.pop() {
            popped.push(e);
        }
        popped.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    #[test]
    fn welford_merge_is_order_independent(
        a in prop::collection::vec(-100.0f64..100.0, 1..50),
        b in prop::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let fill = |xs: &[f64]| {
            let mut w = Welford::new();
            for &x in xs {
                w.push(x);
            }
            w
        };
        let mut ab = fill(&a);
        ab.merge(&fill(&b));
        let mut ba = fill(&b);
        ba.merge(&fill(&a));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        let n = (ab.count() - 1) as f64;
        prop_assert!((ab.to_parts().2 - ba.to_parts().2).abs() < 1e-7 * n);
        // And equals the sequential fill.
        let joint: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let whole = fill(&joint);
        prop_assert!((ab.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_monotone_in_q(
        xs in prop::collection::vec(0.0f64..50.0, 1..200),
    ) {
        let mut h = Histogram::new(0.5, 60.0);
        for &x in &xs {
            h.record(x);
        }
        let mut last = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn replication_interval_covers_the_mean_of_its_inputs(
        values in prop::collection::vec(0.0f64..1.0, 2..20),
    ) {
        let e = Estimate::from_values(&values);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((e.mean - mean).abs() < 1e-12);
        prop_assert!((mean - e.mean).abs() <= e.half_width);
        prop_assert!(e.half_width >= 0.0);
    }

    #[test]
    fn exponential_samples_are_positive_finite(seed in any::<u64>(), mean in 0.01f64..100.0) {
        let mut rng = Rng::seed_from(seed);
        let d = Exp::with_mean(mean);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    #[test]
    fn uniform_samples_stay_in_bounds(
        seed in any::<u64>(),
        lo in -100.0f64..100.0,
        width in 0.0f64..100.0,
    ) {
        let mut rng = Rng::seed_from(seed);
        let d = Uniform::new(lo, lo + width);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= lo + width);
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), id in any::<u64>()) {
        let base = Rng::seed_from(seed);
        let mut a = base.stream(id);
        let mut b = base.stream(id);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn choose_distinct_is_a_partial_permutation(
        seed in any::<u64>(),
        population in 1usize..64,
        take_frac in 0.0f64..=1.0,
    ) {
        let count = ((population as f64) * take_frac) as usize;
        let mut rng = Rng::seed_from(seed);
        let mut picks = Vec::new();
        rng.choose_distinct_into(population, count, &mut picks);
        prop_assert_eq!(picks.len(), count);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), count, "picks must be distinct");
        prop_assert!(picks.iter().all(|&p| p < population));
    }
}

/// Schedule times: a small table, so exact ties are common, with both
/// zeros (which must tie and stay FIFO) and both infinities.
const TIMES: [f64; 10] = [
    f64::NEG_INFINITY,
    -1.5,
    -0.0,
    0.0,
    0.25,
    1.0,
    1.0 + f64::EPSILON,
    3.0,
    1e300,
    f64::INFINITY,
];

/// A time from the table or, for larger `x`, from a coarse grid that
/// still ties often.
fn time_of(x: usize) -> SimTime {
    let x = x % 40;
    SimTime::from(TIMES.get(x).copied().unwrap_or(x as f64 * 0.5 - 8.0))
}

/// The reference calendar: entries keyed by `(time, seq)` in a
/// `BTreeMap`, whose order is by definition the one the calendar must
/// pop in (`SimTime`'s order, with `-0.0 == +0.0`, then FIFO).
#[derive(Default)]
struct Model {
    pending: BTreeMap<(SimTime, u64), usize>,
}

impl Model {
    fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, usize)> {
        let (&(time, seq), _) = self.pending.first_key_value()?;
        if time > limit {
            return None;
        }
        let payload = self.pending.remove(&(time, seq)).expect("first key");
        Some((time, payload))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of every calendar operation agree with the
    /// reference model step for step: popped events, cancel results,
    /// removed payloads (each returned once, then `None` like a popped
    /// or cancelled entry's) and `len()`. The schedule-heavy mix grows
    /// the calendar past the sorted run's capacity, so both levels and
    /// the refills between them are exercised, and the final drain
    /// empties it again.
    #[test]
    fn calendar_matches_a_btreemap_reference(
        ops in prop::collection::vec((0u8..100, 0usize..4096), 1..900),
    ) {
        let mut cal = Calendar::new();
        let mut model = Model::default();
        // Every handle ever issued, with its model key: cancels and
        // removals pick from these, so they hit live, popped, cancelled
        // (double) and slot-reused handles alike.
        let mut handles: Vec<(EventHandle, (SimTime, u64))> = Vec::new();
        for (step, &(kind, x)) in ops.iter().enumerate() {
            match kind {
                0..=54 => {
                    let time = time_of(x);
                    let payload = handles.len();
                    let handle = cal.schedule(time, payload);
                    model.pending.insert((time, payload as u64), payload);
                    handles.push((handle, (time, payload as u64)));
                }
                55..=61 if !handles.is_empty() => {
                    let (handle, key) = handles[x % handles.len()];
                    let expect = model.pending.remove(&key).is_some();
                    prop_assert_eq!(cal.cancel(handle), expect, "cancel at step {}", step);
                }
                62..=65 if !handles.is_empty() => {
                    let (handle, key) = handles[x % handles.len()];
                    let expect = model.pending.remove(&key);
                    prop_assert_eq!(cal.remove(handle), expect, "remove at step {}", step);
                }
                66..=69 if !handles.is_empty() => {
                    let (_, key) = handles[x % handles.len()];
                    let expect = model.pending.remove(&key);
                    let got = cal.remove_where(|&payload| payload as u64 == key.1);
                    prop_assert_eq!(got, expect, "remove_where at step {}", step);
                }
                70..=81 => {
                    let expect = model.pop_before(SimTime::INFINITY);
                    prop_assert_eq!(cal.pop(), expect, "pop at step {}", step);
                }
                _ => {
                    let limit = if x % 5 == 0 { SimTime::INFINITY } else { time_of(x / 5) };
                    let expect = model.pop_before(limit);
                    prop_assert_eq!(cal.pop_before(limit), expect, "pop_before at step {}", step);
                }
            }
            prop_assert_eq!(cal.len(), model.pending.len(), "len after step {}", step);
        }
        while let Some(expect) = model.pop_before(SimTime::INFINITY) {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert!(cal.is_empty());
    }

    /// Timers scheduled far ahead and cancelled one step later (the
    /// process manager's pattern) leave tombstones behind the live
    /// events, in the run and in the heap; none of them may ever pop.
    #[test]
    fn cancelled_far_timers_never_pop(
        pending in 1usize..300,
        steps in 1usize..400,
        seed in any::<u64>(),
    ) {
        let mut rng = sda_simcore::rng::Rng::seed_from(seed);
        let mut cal = Calendar::new();
        let mut model = Model::default();
        let mut seq = 0u64;
        let mut schedule = |cal: &mut Calendar<usize>, model: &mut Model, time: SimTime| {
            let handle = cal.schedule(time, seq as usize);
            model.pending.insert((time, seq), seq as usize);
            seq += 1;
            (handle, (time, seq - 1))
        };
        for i in 0..pending {
            schedule(&mut cal, &mut model, SimTime::from(i as f64));
        }
        let mut timer: Option<(EventHandle, (SimTime, u64))> = None;
        for _ in 0..steps {
            let (now, _) = model.pop_before(SimTime::INFINITY).expect("hold model");
            prop_assert_eq!(cal.pop().map(|(t, _)| t), Some(now));
            schedule(&mut cal, &mut model, now + rng.next_f64() * pending as f64);
            let far = schedule(&mut cal, &mut model, now + 1e6);
            if let Some((handle, key)) = timer.replace(far) {
                model.pending.remove(&key);
                prop_assert!(cal.cancel(handle));
            }
            prop_assert_eq!(cal.len(), model.pending.len());
        }
        while let Some(expect) = model.pop_before(SimTime::INFINITY) {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
    }
}

/// The reference histogram: every bin of `[0, len × width)` stored,
/// zeros included.
#[derive(Clone)]
struct DenseHistogram {
    width: f64,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl DenseHistogram {
    fn new(width: f64, len: usize) -> DenseHistogram {
        DenseHistogram {
            width,
            bins: vec![0; len],
            overflow: 0,
            count: 0,
        }
    }

    fn record(&mut self, x: f64) {
        match self.bins.get_mut((x / self.width) as usize) {
            Some(bin) => *bin += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
    }

    fn merge(&mut self, other: &DenseHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if seen + c >= target {
                let into = (target - seen) as f64 / c.max(1) as f64;
                return (i as f64 + into) * self.width;
            }
            seen += c;
        }
        self.bins.len() as f64 * self.width
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random sequences of records and merges give a prefix histogram
    /// that answers exactly like a dense one: the same counts, overflow
    /// and used bins, and every percentile bit for bit. Its parts never
    /// end in a zero bin and rebuild an equal histogram.
    #[test]
    fn prefix_histogram_matches_a_dense_reference(
        steps in prop::collection::vec(
            (0u8..4, prop::collection::vec(0.0f64..12.0, 0..16)),
            1..24,
        ),
    ) {
        // 20 bins of 0.5 over [0, 10): observations up to 12 overflow.
        let (width, max, len) = (0.5, 10.0, 20);
        let mut h = Histogram::new(width, max);
        let mut dense = DenseHistogram::new(width, len);
        for (kind, xs) in &steps {
            if *kind == 0 {
                // Merge a histogram filled separately.
                let mut other = Histogram::new(width, max);
                let mut other_dense = DenseHistogram::new(width, len);
                for &x in xs {
                    other.record(x);
                    other_dense.record(x);
                }
                h.merge(&other);
                dense.merge(&other_dense);
            } else {
                for &x in xs {
                    h.record(x);
                    dense.record(x);
                }
            }
            let (bin_width, parts_len, bins, overflow, count) = h.to_parts();
            prop_assert_eq!((bin_width, parts_len), (width, len));
            prop_assert_eq!((overflow, count), (dense.overflow, dense.count));
            prop_assert!(bins.last() != Some(&0), "prefix ends in a zero bin: {:?}", bins);
            let used = dense.bins.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
            prop_assert_eq!(bins, &dense.bins[..used]);
            for k in 1..=100 {
                let q = f64::from(k) / 100.0;
                prop_assert_eq!(h.quantile(q).to_bits(), dense.quantile(q).to_bits());
            }
            let back = Histogram::from_parts(bin_width, parts_len, bins.to_vec(), overflow, count);
            prop_assert_eq!(&back, &h);
        }
    }
}
