//! Reproducible pseudo-random number generation.
//!
//! The simulator must be *deterministic*: a run is identified by a single
//! experiment seed, and every stochastic source (each node's local-task
//! stream, the global-task stream, execution times, slack draws, node
//! selection, ...) derives its own independent stream from that seed. We
//! implement xoshiro256++ (Blackman & Vigna) seeded through splitmix64 —
//! both are public-domain algorithms, small enough to own outright, which
//! keeps the whole reproduction self-contained and bit-stable across
//! dependency upgrades.

/// The splitmix64 mixing function.
///
/// Used to expand a single `u64` seed into the 256-bit xoshiro state, and to
/// derive independent sub-stream seeds from (seed, stream-id) pairs.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `index`-th replication seed from an experiment's base
/// seed via the splitmix64 stream.
///
/// This is the seed-derivation contract of the experiment runner: the
/// seed of replication `i` depends only on `(base, i)`, so results are
/// bit-identical however the replications are scheduled across worker
/// threads, and appending replications never perturbs earlier ones.
/// Unlike the naive `base + i * c` scheme it replaces, nearby base
/// seeds cannot collide with each other's replication streams (the
/// output is a bijective 64-bit mix of a non-overlapping counter).
///
/// The stream is part of the repository's stability guarantee: values
/// for a given `(base, index)` must never change across releases, or
/// archived experiment results stop being reproducible. Covered by a
/// golden-value test.
///
/// ```
/// use sda_simcore::rng::derive_seed;
/// assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
/// assert_ne!(derive_seed(42, 0), derive_seed(42, 1));
/// assert_ne!(derive_seed(42, 1), derive_seed(43, 0), "streams do not collide");
/// ```
pub fn derive_seed(base: u64, index: u64) -> u64 {
    // The splitmix64 counter advances by a large odd constant per step;
    // seeding the counter at `base + (index+1) * step` makes the whole
    // map a bijection of (base, index) mixed through the finalizer.
    let mut state = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// ```
/// use sda_simcore::rng::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded through splitmix64, so seeds `0`, `1`, `2`, ...
    /// produce well-decorrelated streams.
    pub fn seed_from(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent stream for a named substream.
    ///
    /// `stream(id)` applied to the same base generator with different `id`s
    /// yields decorrelated generators; the base generator is not advanced.
    /// This is how one experiment seed fans out to "arrivals at node 3",
    /// "global execution times", etc.
    ///
    /// ```
    /// use sda_simcore::rng::Rng;
    /// let base = Rng::seed_from(7);
    /// let mut a = base.stream(0);
    /// let mut b = base.stream(1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// ```
    pub fn stream(&self, id: u64) -> Rng {
        // Mix the current state with the stream id through splitmix64.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ id.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Returns the next 64 uniformly distributed random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits, the standard construction that fills the full
    /// double-precision mantissa.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the *open* interval `(0, 1)`.
    ///
    /// Never returns exactly 0, so it is safe to feed into `ln()` when
    /// sampling exponentials.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's method: unbiased and fast.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only entered with probability < bound / 2^64.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        lo + self.next_below(hi - lo + 1)
    }

    /// Chooses `count` distinct indices uniformly from `[0, population)`,
    /// in random order (a partial Fisher–Yates shuffle, one
    /// [`Rng::next_below`] per chosen item).
    ///
    /// The paper assigns the `n` parallel subtasks of a global task to `n`
    /// *different* nodes; this is that draw. The indices go into a
    /// caller-provided buffer, so a hot loop can reuse one allocation
    /// across draws: `pool` is overwritten and left holding exactly the
    /// `count` chosen indices.
    ///
    /// # Panics
    ///
    /// Panics if `count > population`.
    pub fn choose_distinct_into(&mut self, population: usize, count: usize, pool: &mut Vec<usize>) {
        assert!(
            count <= population,
            "cannot choose {count} distinct items from {population}"
        );
        pool.clear();
        pool.extend(0..population);
        for i in 0..count {
            let j = i + self.next_below((population - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_across_releases() {
        // Golden values: archived experiment results depend on this exact
        // stream, so these constants must never change.
        assert_eq!(derive_seed(0, 0), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(derive_seed(0, 1), 0x06c4_5d18_8009_454f);
        assert_eq!(derive_seed(42, 0), 0x28ef_e333_b266_f103);
        assert_eq!(derive_seed(42, 1), 0x4752_6757_130f_9f52);
        assert_eq!(derive_seed(42, 2), 0x581c_e1ff_0e4a_e394);
        assert_eq!(derive_seed(1000, 0), 0xd07a_9d82_d4f4_bbaf);
    }

    #[test]
    fn derived_seeds_are_pairwise_distinct() {
        // Within one base, and across nearby bases (the failure mode of the
        // old `base + i * 7919` scheme: base 42 rep 1 == base 7961 rep 0).
        let mut all: Vec<u64> = Vec::new();
        for base in [0, 1, 42, 43, 1000, 7919, 7961] {
            all.extend((0..64).map(|i| derive_seed(base, i)));
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "derived seeds must be pairwise distinct");
    }

    #[test]
    fn derive_seeds_matches_derive_seed() {
        // Consecutive indices are consecutive outputs of one splitmix64
        // counter, seeded one step past `base` for index 0.
        let mut state = 7_u64.wrapping_add(0x9E37_79B9_7F4A_7C15);
        for i in 0..5 {
            assert_eq!(derive_seed(7, i), splitmix64(&mut state));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from(123);
        let mut b = Rng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_decorrelated_and_reproducible() {
        let base = Rng::seed_from(99);
        let mut s0 = base.stream(0);
        let mut s0_again = base.stream(0);
        let mut s1 = base.stream(1);
        assert_eq!(s0.next_u64(), s0_again.next_u64());
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..10_000 {
            assert!(rng.next_f64_open() > 0.0);
        }
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut rng = Rng::seed_from(17);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_range_inclusive() {
        let mut rng = Rng::seed_from(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = rng.next_range(2, 6);
            assert!((2..=6).contains(&v));
            saw_lo |= v == 2;
            saw_hi |= v == 6;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Rng::seed_from(0).next_below(0);
    }

    #[test]
    fn choose_distinct_returns_distinct_in_bounds() {
        let mut rng = Rng::seed_from(11);
        let mut picks = Vec::new();
        for _ in 0..200 {
            rng.choose_distinct_into(6, 4, &mut picks);
            assert_eq!(picks.len(), 4);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "indices must be distinct");
            assert!(picks.iter().all(|&p| p < 6));
        }
    }

    #[test]
    fn choose_distinct_full_population_is_permutation() {
        let mut rng = Rng::seed_from(11);
        let mut picks = Vec::new();
        rng.choose_distinct_into(5, 5, &mut picks);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "cannot choose")]
    fn choose_distinct_overdraw_panics() {
        Rng::seed_from(0).choose_distinct_into(3, 4, &mut Vec::new());
    }

    #[test]
    fn choose_distinct_is_roughly_uniform() {
        // Each of 6 nodes should receive a 4-subtask global with p = 4/6.
        let mut rng = Rng::seed_from(21);
        let trials = 30_000;
        let mut counts = [0u32; 6];
        let mut picks = Vec::new();
        for _ in 0..trials {
            rng.choose_distinct_into(6, 4, &mut picks);
            for &p in &picks {
                counts[p] += 1;
            }
        }
        let expected = trials as f64 * 4.0 / 6.0;
        for (node, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.02, "node {node}: count {c} vs expected {expected}");
        }
    }
}
