//! Simulation time.
//!
//! The paper measures everything in multiples of the mean local-task
//! execution time (`1/mu_local = 1`), so simulation time is a plain `f64`
//! wrapped in a newtype that enforces the one invariant the event calendar
//! relies on: **time is never NaN**, which makes the ordering total.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time.
///
/// `SimTime` is a thin wrapper around `f64` providing a *total* order
/// (construction panics on NaN), so it can be used as a key in the event
/// calendar and in scheduler queues.
///
/// ```
/// use sda_simcore::SimTime;
/// let t = SimTime::from(1.5) + 2.0;
/// assert_eq!(t, SimTime::from(3.5));
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every time reachable in a simulation.
    ///
    /// Useful as a sentinel "never" deadline.
    pub const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// A time earlier than every reachable time (used by the GF strategy,
    /// which shifts deadlines by a huge constant).
    pub const NEG_INFINITY: SimTime = SimTime(f64::NEG_INFINITY);

    /// Creates a `SimTime` from a raw `f64` value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN: the event calendar requires a total order.
    #[inline]
    pub fn new(value: f64) -> SimTime {
        assert!(!value.is_nan(), "SimTime cannot be NaN");
        SimTime(value)
    }

    /// Returns the raw `f64` value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if this time is finite (neither ±∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Saturating difference `self - earlier`, clamped at zero.
    ///
    /// Handy for "remaining slack" computations where a deadline may have
    /// already passed.
    ///
    /// ```
    /// use sda_simcore::SimTime;
    /// let dl = SimTime::from(5.0);
    /// assert_eq!(dl.saturating_since(SimTime::from(7.0)), 0.0);
    /// assert_eq!(dl.saturating_since(SimTime::from(2.0)), 3.0);
    /// ```
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for SimTime {}

// The operators compare the `f64`s directly: with NaN excluded they
// agree with `cmp` (±0.0 compare equal either way), and they skip the
// `Ordering` round trip and its never-taken panic.
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &SimTime) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn lt(&self, other: &SimTime) -> bool {
        self.0 < other.0
    }

    #[inline]
    fn le(&self, other: &SimTime) -> bool {
        self.0 <= other.0
    }

    #[inline]
    fn gt(&self, other: &SimTime) -> bool {
        self.0 > other.0
    }

    #[inline]
    fn ge(&self, other: &SimTime) -> bool {
        self.0 >= other.0
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &SimTime) -> Ordering {
        // Invariant: never NaN, so partial_cmp always succeeds.
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is never NaN by construction")
    }
}

impl From<f64> for SimTime {
    #[inline]
    fn from(value: f64) -> SimTime {
        SimTime::new(value)
    }
}

impl From<SimTime> for f64 {
    #[inline]
    fn from(value: SimTime) -> f64 {
        value.0
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, delay: f64) -> SimTime {
        SimTime::new(self.0 + delay)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, delay: f64) {
        *self = *self + delay;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl Sub<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, delay: f64) -> SimTime {
        SimTime::new(self.0 - delay)
    }
}

/// Maps a value to a `u64` whose unsigned order is the value's order:
/// the sign-flip transform of the IEEE-754 bits (set the sign bit of a
/// non-negative value, invert every bit of a negative one). `-0.0` is
/// folded onto `+0.0` first, because the two compare equal and must tie.
///
/// The event calendar keys times by it and the ready queue its ranks, so
/// ordering either is one integer comparison. The value must not be NaN,
/// which has no place in the order: a [`SimTime`] cannot hold it, and the
/// ready queue rejects a NaN rank at push.
///
/// ```
/// use sda_simcore::time::order_key;
/// assert!(order_key(-1e9) < order_key(-1.0));
/// assert!(order_key(-1.0) < order_key(0.5));
/// assert_eq!(order_key(-0.0), order_key(0.0));
/// assert!(order_key(1e300) < order_key(f64::INFINITY));
/// ```
#[inline]
pub fn order_key(value: f64) -> u64 {
    debug_assert!(!value.is_nan(), "order_key of NaN");
    let bits = if value == 0.0 { 0 } else { value.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_on_finite_values() {
        let a = SimTime::from(1.0);
        let b = SimTime::from(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_is_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from(10.0);
        assert_eq!((t + 5.0).value(), 15.0);
        assert_eq!(t - SimTime::from(4.0), 6.0);
        assert_eq!((t - 4.0).value(), 6.0);
        let mut u = t;
        u += 1.0;
        assert_eq!(u.value(), 11.0);
    }

    #[test]
    fn saturating_since_clamps() {
        let dl = SimTime::from(3.0);
        assert_eq!(dl.saturating_since(SimTime::from(10.0)), 0.0);
        assert_eq!(dl.saturating_since(SimTime::ZERO), 3.0);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from(1.0);
        let b = SimTime::from(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn order_key_orders_as_partial_cmp() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1e9,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            1e9,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn infinities_order_correctly() {
        assert!(SimTime::NEG_INFINITY < SimTime::ZERO);
        assert!(SimTime::ZERO < SimTime::INFINITY);
        assert!(!SimTime::INFINITY.is_finite());
        assert!(SimTime::ZERO.is_finite());
    }
}
