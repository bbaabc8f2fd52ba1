//! Strategies for the serial subtask problem (§8, and the companion paper
//! Kao & Garcia-Molina, ICDCS 1993, which §8 summarizes).

use std::fmt;

use sda_simcore::SimTime;

/// A deadline-assignment strategy for *serial* subtasks.
///
/// Consider a global task `T = [T1 T2 … Tm]` with end-to-end deadline
/// `dl(T)`. When stage `Ti` becomes executable at time `ar(Ti)` (= the
/// completion time of `Ti−1`), the strategy chooses the virtual deadline
/// `dl(Ti)` it is submitted with, consuming the *predicted* execution
/// times `pex(Tj)` of the remaining stages `j = i..m`:
///
/// * **UD** — `dl(Ti) = dl(T)`: the scheduler mistakes the time reserved
///   for later stages as slack of `Ti` (the problem §8 opens with);
/// * **ED** (effective deadline) — `dl(Ti) = dl(T) − Σ_{j>i} pex(Tj)`:
///   reserve exactly the predicted execution time of the remaining
///   stages, giving `Ti` all the slack;
/// * **EQS** (equal slack) — split the remaining slack *evenly* among the
///   remaining stages:
///   `dl(Ti) = ar(Ti) + pex(Ti) + [dl(T) − ar(Ti) − Σ_{j≥i} pex(Tj)]/(m−i+1)`;
/// * **EQF** (equal flexibility) — split the remaining slack
///   *proportionally to predicted execution time*, so every stage gets the
///   same slack-to-execution-time ratio (the §8 formula):
///   `dl(Ti) = ar(Ti) + pex(Ti) + [dl(T) − ar(Ti) − Σ_{j≥i} pex(Tj)] · pex(Ti)/Σ_{j≥i} pex(Tj)`.
///
/// For the last stage, UD and ED return the *real* deadline exactly; EQS
/// and EQF compute `now + pex + slack_left`, which equals it only up to
/// floating-point rounding and can land an ulp above it. All four
/// recompute from the actual stage start time, so estimation error in
/// earlier stages is absorbed rather than compounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SspStrategy {
    /// Ultimate deadline (no decomposition).
    #[default]
    Ud,
    /// Effective deadline: subtract the predicted execution of the
    /// remaining stages.
    Ed,
    /// Equal slack: remaining slack divided evenly among remaining stages.
    Eqs,
    /// Equal flexibility: remaining slack divided proportionally to
    /// predicted execution times (the strategy evaluated in §8).
    Eqf,
}

impl SspStrategy {
    /// Computes the virtual deadline of the stage now becoming executable.
    ///
    /// * `now` — the stage's submission time `ar(Ti)`;
    /// * `dl` — the enclosing serial task's (possibly virtual) deadline;
    /// * `remaining_pex` — predicted execution times of this stage and all
    ///   later stages, in order: `remaining_pex[0] = pex(Ti)`,
    ///   `remaining_pex[1] = pex(Ti+1)`, ….
    ///
    /// If every remaining `pex` is zero, EQF's proportional split is
    /// undefined; it degrades to EQS's even split (both then reduce to
    /// dividing the raw window evenly).
    ///
    /// ```
    /// use sda_core::SspStrategy;
    /// use sda_simcore::SimTime;
    ///
    /// // Three stages left, predictions [1, 2, 3], 10 units of slack:
    /// // EQF gives stage 1 a 1/6 share of the slack.
    /// let dl = SspStrategy::Eqf.assign(SimTime::ZERO, SimTime::from(16.0), &[1.0, 2.0, 3.0]);
    /// assert!((dl.value() - (1.0 + 10.0 / 6.0)).abs() < 1e-12);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `remaining_pex` is empty or contains a negative or
    /// non-finite prediction.
    pub fn assign(&self, now: SimTime, dl: SimTime, remaining_pex: &[f64]) -> SimTime {
        assert!(
            !remaining_pex.is_empty(),
            "at least the current stage must remain"
        );
        assert!(
            remaining_pex.iter().all(|p| p.is_finite() && *p >= 0.0),
            "predicted execution times must be finite and non-negative"
        );
        let m = remaining_pex.len();
        let pex_i = remaining_pex[0];
        let pex_total: f64 = remaining_pex.iter().sum();
        let pex_rest = pex_total - pex_i;
        match self {
            SspStrategy::Ud => dl,
            SspStrategy::Ed => dl - pex_rest,
            SspStrategy::Eqs => {
                let slack_left = dl - now - pex_total;
                now + pex_i + slack_left / m as f64
            }
            SspStrategy::Eqf => {
                let slack_left = dl - now - pex_total;
                if pex_total > 0.0 {
                    now + pex_i + slack_left * (pex_i / pex_total)
                } else {
                    // All-zero predictions: fall back to an even split.
                    now + slack_left / m as f64
                }
            }
        }
    }

    /// All strategies, in presentation order.
    pub const ALL: [SspStrategy; 4] = [
        SspStrategy::Ud,
        SspStrategy::Ed,
        SspStrategy::Eqs,
        SspStrategy::Eqf,
    ];

    /// A short label (`UD`, `ED`, `EQS`, `EQF`).
    pub fn label(&self) -> &'static str {
        match self {
            SspStrategy::Ud => "UD",
            SspStrategy::Ed => "ED",
            SspStrategy::Eqs => "EQS",
            SspStrategy::Eqf => "EQF",
        }
    }
}

impl fmt::Display for SspStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from(v)
    }

    #[test]
    fn ud_is_identity() {
        assert_eq!(
            SspStrategy::Ud.assign(t(2.0), t(20.0), &[1.0, 2.0, 3.0]),
            t(20.0)
        );
    }

    #[test]
    fn ed_reserves_remaining_pex() {
        // dl = 20, later stages predicted 2 + 3 => dl(Ti) = 15.
        assert_eq!(
            SspStrategy::Ed.assign(t(2.0), t(20.0), &[1.0, 2.0, 3.0]),
            t(15.0)
        );
    }

    #[test]
    fn eqs_divides_slack_evenly() {
        // now = 0, dl = 16, pex = [2, 2, 2]: slack = 16 - 6 = 10,
        // stage 1 gets 2 + 10/3.
        let got = SspStrategy::Eqs.assign(t(0.0), t(16.0), &[2.0, 2.0, 2.0]);
        assert!((got.value() - (2.0 + 10.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn eqf_divides_slack_proportionally() {
        // §8 formula, hand computation: now = 0, dl = 16, pex = [1, 2, 3]:
        // slack_left = 16 - 6 = 10, fraction = 1/6,
        // dl(T1) = 0 + 1 + 10/6.
        let got = SspStrategy::Eqf.assign(t(0.0), t(16.0), &[1.0, 2.0, 3.0]);
        assert!((got.value() - (1.0 + 10.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn eqf_equal_pex_reduces_to_eqs() {
        let pex = [2.0, 2.0, 2.0, 2.0];
        let eqf = SspStrategy::Eqf.assign(t(3.0), t(30.0), &pex);
        let eqs = SspStrategy::Eqs.assign(t(3.0), t(30.0), &pex);
        assert!((eqf.value() - eqs.value()).abs() < 1e-12);
    }

    #[test]
    fn every_strategy_gives_last_stage_the_real_deadline() {
        // With one remaining stage there is nothing to reserve: the
        // end-to-end deadline must pass through unchanged (EQS/EQF give
        // now + pex + all remaining slack = dl).
        for s in SspStrategy::ALL {
            let got = s.assign(t(7.0), t(19.0), &[4.0]);
            assert!(
                (got.value() - 19.0).abs() < 1e-12,
                "{s} gave {got} instead of the real deadline"
            );
        }
    }

    #[test]
    fn all_strategies_no_later_than_ud_with_slack() {
        // With non-negative slack, decomposition can only tighten.
        let pex = [1.5, 2.5, 1.0];
        for s in SspStrategy::ALL {
            let got = s.assign(t(0.0), t(20.0), &pex);
            assert!(got <= t(20.0), "{s} exceeded the end-to-end deadline");
        }
    }

    #[test]
    fn negative_slack_is_shared_not_hidden() {
        // dl is already infeasible: EQS/EQF shift the lateness forward so
        // the current stage still sees an urgent deadline.
        let pex = [2.0, 2.0];
        let eqs = SspStrategy::Eqs.assign(t(0.0), t(3.0), &pex);
        // slack_left = 3 - 4 = -1, stage gets 2 - 0.5 = 1.5.
        assert!((eqs.value() - 1.5).abs() < 1e-12);
        let eqf = SspStrategy::Eqf.assign(t(0.0), t(3.0), &pex);
        assert!((eqf.value() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn eqf_zero_pex_falls_back_to_even_split() {
        let got = SspStrategy::Eqf.assign(t(0.0), t(10.0), &[0.0, 0.0]);
        assert!((got.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn recomputation_absorbs_earlier_delays() {
        // Stage 1 assigned at time 0, but it finishes late (time 8 instead
        // of the predicted 2 + share). Stage 2's assignment at its *actual*
        // start time sees the reduced slack.
        let dl = t(16.0);
        let early = SspStrategy::Eqf.assign(t(0.0), dl, &[2.0, 2.0]);
        let late_start = t(8.0);
        let stage2 = SspStrategy::Eqf.assign(late_start, dl, &[2.0]);
        assert!(stage2 > early);
        assert_eq!(stage2, dl, "last stage still gets the real deadline");
    }

    #[test]
    #[should_panic(expected = "at least the current stage")]
    fn empty_remaining_panics() {
        SspStrategy::Eqf.assign(t(0.0), t(1.0), &[]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_pex_panics() {
        SspStrategy::Eqf.assign(t(0.0), t(1.0), &[1.0, -2.0]);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(SspStrategy::Ud.label(), "UD");
        assert_eq!(SspStrategy::Ed.to_string(), "ED");
        assert_eq!(SspStrategy::Eqs.to_string(), "EQS");
        assert_eq!(SspStrategy::Eqf.to_string(), "EQF");
        assert_eq!(SspStrategy::default(), SspStrategy::Ud);
    }
}
