//! Statistical distributions used by the workload generators.
//!
//! The paper's model needs exactly three continuous families — exponential
//! (interarrival and execution times), uniform (slack), and constants (for
//! deterministic ablations). The discrete draw of §7.4, the number of
//! subtasks of a global task from `[2..6]`, is [`Rng::next_range`].

use crate::rng::Rng;

/// A sampleable distribution over `f64`.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The theoretical mean of the distribution.
    fn mean(&self) -> f64;
}

/// The exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// ```
/// use sda_simcore::dist::{Exp, Sample};
/// use sda_simcore::rng::Rng;
/// let service = Exp::with_mean(1.0); // mu = 1 as in the paper's Table 1
/// let mut rng = Rng::seed_from(1);
/// assert!(service.sample(&mut rng) >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    rate: f64,
}

impl Exp {
    /// Creates an exponential distribution with the given rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Exp {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be finite and positive, got {rate}"
        );
        Exp { rate }
    }

    /// Creates an exponential distribution with the given mean `1/lambda`.
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Exp {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be finite and positive, got {mean}"
        );
        Exp { rate: 1.0 / mean }
    }

    /// The rate parameter `lambda`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Sample for Exp {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse-CDF on an open-(0,1) uniform: never takes ln(0).
        -rng.next_f64_open().ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

/// The continuous uniform distribution on `[lo, hi]`.
///
/// Used for task slack: the paper's baseline draws slack from
/// `U[1.25, 5.0]` (Table 1) and the §8 experiment from `U[6.25, 25]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Uniform {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid uniform bounds [{lo}, {hi}]"
        );
        Uniform { lo, hi }
    }

    /// The lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// The upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Scales both bounds by `factor` (e.g. the §8 experiment scales the
    /// baseline slack by the number of serial stages).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Uniform {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Uniform::new(self.lo * factor, self.hi * factor)
    }
}

impl Sample for Uniform {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// A degenerate distribution that always returns the same value.
///
/// Useful for deterministic ablations (e.g. constant service times turn a
/// node into an M/D/1 queue) and in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Sample for Constant {
    #[inline]
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }

    fn mean(&self) -> f64 {
        self.0
    }
}

/// A dynamically-dispatched distribution, for configuration structs that
/// hold "some distribution" chosen at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Exponential.
    Exp(Exp),
    /// Continuous uniform.
    Uniform(Uniform),
    /// Constant.
    Constant(Constant),
}

impl Sample for Dist {
    #[inline]
    fn sample(&self, rng: &mut Rng) -> f64 {
        match self {
            Dist::Exp(d) => d.sample(rng),
            Dist::Uniform(d) => d.sample(rng),
            Dist::Constant(d) => d.sample(rng),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Dist::Exp(d) => d.mean(),
            Dist::Uniform(d) => d.mean(),
            Dist::Constant(d) => d.mean(),
        }
    }
}

impl From<Exp> for Dist {
    fn from(d: Exp) -> Dist {
        Dist::Exp(d)
    }
}

impl From<Uniform> for Dist {
    fn from(d: Uniform) -> Dist {
        Dist::Uniform(d)
    }
}

impl From<Constant> for Dist {
    fn from(d: Constant) -> Dist {
        Dist::Constant(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exp::with_mean(2.0);
        let m = empirical_mean(&d, 1, 200_000);
        assert!((m - 2.0).abs() < 0.03, "mean was {m}");
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.rate(), 0.5);
    }

    #[test]
    fn exponential_is_nonnegative_and_memoryless_tail() {
        let d = Exp::new(1.0);
        let mut rng = Rng::seed_from(2);
        let n = 100_000;
        let mut over_1 = 0usize;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            if x > 1.0 {
                over_1 += 1;
            }
        }
        // P(X > 1) = e^-1 ≈ 0.3679.
        let p = over_1 as f64 / n as f64;
        assert!((p - 0.3679).abs() < 0.01, "tail prob was {p}");
    }

    #[test]
    #[should_panic(expected = "rate must be finite and positive")]
    fn exponential_rejects_zero_rate() {
        Exp::new(0.0);
    }

    #[test]
    #[should_panic(expected = "mean must be finite and positive")]
    fn exponential_rejects_negative_mean() {
        Exp::with_mean(-1.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        // The paper's baseline slack distribution.
        let d = Uniform::new(1.25, 5.0);
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((1.25..=5.0).contains(&x));
        }
        let m = empirical_mean(&d, 4, 100_000);
        assert!((m - 3.125).abs() < 0.02, "mean was {m}");
    }

    #[test]
    fn uniform_scaled_matches_section8_slack() {
        // §8: local slack [1.25, 5] scaled by 5 stages -> [6.25, 25].
        let local = Uniform::new(1.25, 5.0);
        let global = local.scaled(5.0);
        assert_eq!(global.lo(), 6.25);
        assert_eq!(global.hi(), 25.0);
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_rejects_inverted_bounds() {
        Uniform::new(2.0, 1.0);
    }

    #[test]
    fn constant_always_same() {
        let d = Constant(7.5);
        let mut rng = Rng::seed_from(5);
        assert_eq!(d.sample(&mut rng), 7.5);
        assert_eq!(d.sample(&mut rng), 7.5);
        assert_eq!(d.mean(), 7.5);
    }

    #[test]
    fn dist_enum_dispatches() {
        let mut rng = Rng::seed_from(6);
        let d: Dist = Exp::with_mean(1.0).into();
        assert!(d.sample(&mut rng) >= 0.0);
        assert_eq!(d.mean(), 1.0);
        let u: Dist = Uniform::new(0.0, 2.0).into();
        assert_eq!(u.mean(), 1.0);
        let c: Dist = Constant(3.0).into();
        assert_eq!(c.sample(&mut rng), 3.0);
    }
}
