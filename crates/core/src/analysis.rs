//! Closed-form helpers for the miss-rate amplification argument of §4.
//!
//! The paper motivates the parallel subtask problem with the observation
//! that if an average node misses a fraction `p` of deadlines, a global
//! task of `n` independent parallel subtasks misses
//! `1 − (1 − p)^n` — e.g. `p = 5%`, `n = 6` gives 26.5% (§4), and the
//! baseline experiment's `p ≈ 7.1%`, `n = 4` predicts ≈ 25.5% against a
//! measured 25% (§6.1). These helpers let the harness print predicted
//! next to measured.

/// The probability that a global task of `n` parallel subtasks misses its
/// deadline, assuming each subtask independently misses with probability
/// `subtask_miss`.
///
/// ```
/// use sda_core::analysis::global_miss_probability;
/// // §4's example: 5% per-node miss rate, 6 parallel subtasks.
/// let p = global_miss_probability(0.05, 6);
/// assert!((p - 0.265).abs() < 0.001);
/// ```
///
/// # Panics
///
/// Panics unless `subtask_miss` is a probability in `[0, 1]`.
pub fn global_miss_probability(subtask_miss: f64, n: u32) -> f64 {
    assert!(
        (0.0..=1.0).contains(&subtask_miss),
        "miss probability must be in [0, 1], got {subtask_miss}"
    );
    1.0 - (1.0 - subtask_miss).powi(n as i32)
}

/// The amplification factor `MD_global / MD_subtask` implied by the
/// independence model: how many times likelier an `n`-wide global task is
/// to miss than a single subtask.
///
/// Approaches `n` as the subtask miss rate goes to zero.
///
/// # Panics
///
/// Panics unless `subtask_miss` is in `(0, 1]`.
pub fn amplification(subtask_miss: f64, n: u32) -> f64 {
    assert!(
        subtask_miss > 0.0 && subtask_miss <= 1.0,
        "subtask miss probability must be in (0, 1], got {subtask_miss}"
    );
    global_miss_probability(subtask_miss, n) / subtask_miss
}

/// Closed-form M/M/1 results used to validate the simulator.
///
/// With a single node, only local tasks, and FCFS service, the paper's
/// system model *is* an M/M/1 queue; these formulas give the exact
/// steady-state answers the simulator must match (see
/// `tests/mm1_sanity.rs`).
pub mod mm1 {
    /// Mean sojourn (response) time `1/(μ − λ)` at utilization
    /// `rho = λ/μ`, with `μ` normalized to 1.
    ///
    /// # Panics
    ///
    /// Panics unless `rho` is in `[0, 1)`.
    pub fn mean_response(rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "utilization must be in [0, 1)");
        1.0 / (1.0 - rho)
    }

    /// Miss probability of an FCFS M/M/1 task whose slack is uniform on
    /// `[s_lo, s_hi]`: a task misses iff its waiting time exceeds its
    /// slack (its own service time cancels out of `dl = ar + ex + sl`),
    /// so `P(miss) = E_S[P(W > S)]` in closed form.
    ///
    /// # Panics
    ///
    /// Panics unless `rho ∈ (0, 1)` and `0 ≤ s_lo < s_hi`.
    pub fn miss_probability_uniform_slack(rho: f64, s_lo: f64, s_hi: f64) -> f64 {
        assert!(rho > 0.0 && rho < 1.0, "utilization must be in (0, 1)");
        assert!(
            0.0 <= s_lo && s_lo < s_hi,
            "need 0 <= s_lo < s_hi, got [{s_lo}, {s_hi}]"
        );
        let rate = 1.0 - rho;
        rho * ((-rate * s_lo).exp() - (-rate * s_hi).exp()) / (rate * (s_hi - s_lo))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mean_response_known_points() {
            assert_eq!(mean_response(0.0), 1.0);
            assert_eq!(mean_response(0.5), 2.0);
            assert!((mean_response(0.9) - 10.0).abs() < 1e-12);
        }

        #[test]
        fn miss_probability_matches_numeric_integration() {
            let (rho, lo, hi) = (0.5, 1.25, 5.0);
            // FCFS waiting-time tail P(W > s) = ρ·e^{−(1−ρ)s} (μ = 1).
            let waiting_tail = |s: f64| rho * (-(1.0 - rho) * s).exp();
            let steps = 100_000;
            let mut acc = 0.0;
            for i in 0..steps {
                let s = lo + (hi - lo) * (i as f64 + 0.5) / steps as f64;
                acc += waiting_tail(s);
            }
            acc /= steps as f64;
            let closed = miss_probability_uniform_slack(rho, lo, hi);
            assert!((acc - closed).abs() < 1e-6, "{acc} vs {closed}");
        }

        #[test]
        #[should_panic(expected = "in (0, 1)")]
        fn miss_probability_rejects_saturated() {
            miss_probability_uniform_slack(1.0, 1.0, 2.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section4_example() {
        // 1 - (1 - 0.05)^6 = 26.49%.
        let p = global_miss_probability(0.05, 6);
        assert!((p - 0.2649).abs() < 1e-3);
    }

    #[test]
    fn section6_baseline_checkpoint() {
        // §6.1: p = 7.1%, n = 4 => about 25.5%.
        let p = global_miss_probability(0.071, 4);
        assert!((p - 0.255).abs() < 5e-3, "got {p}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(global_miss_probability(0.0, 10), 0.0);
        assert_eq!(global_miss_probability(1.0, 3), 1.0);
        assert_eq!(global_miss_probability(0.5, 1), 0.5);
        assert_eq!(
            global_miss_probability(0.3, 0),
            0.0,
            "empty task never misses"
        );
    }

    #[test]
    fn monotone_in_n_and_p() {
        assert!(global_miss_probability(0.1, 4) > global_miss_probability(0.1, 2));
        assert!(global_miss_probability(0.2, 4) > global_miss_probability(0.1, 4));
    }

    #[test]
    fn amplification_approaches_n_at_low_miss_rates() {
        let a = amplification(1e-6, 4);
        assert!((a - 4.0).abs() < 1e-3, "got {a}");
        // §6.1: at p ≈ 7.1% and n = 4, globals miss about 3x as often as
        // a single subtask (25.5 / 7.1 ≈ 3.6; vs locals at 8.9% it is ~2.9x).
        let mid = amplification(0.071, 4);
        assert!(mid > 3.0 && mid < 4.0, "got {mid}");
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn bad_probability_panics() {
        global_miss_probability(1.5, 2);
    }
}
