//! Real-time task attributes (§3.1).

use sda_simcore::SimTime;

/// The real-time attributes of a task (local task, simple subtask, or
/// global task), as defined in §3.1 of the paper:
///
/// ```text
/// ar(X)  = arrival (or submission) time of X
/// dl(X)  = deadline of X
/// sl(X)  = slack of X
/// ex(X)  = real execution time of X
/// pex(X) = predicted execution time of X
/// ```
///
/// related by `dl(X) = ar(X) + ex(X) + sl(X)`.
///
/// `ex` is known to the *workload generator* (it draws it) but not to the
/// schedulers; strategies may only consult `pex`, the estimate.
///
/// ```
/// use sda_model::Attrs;
/// use sda_simcore::SimTime;
///
/// let a = Attrs {
///     ar: SimTime::from(0.0),
///     dl: SimTime::from(6.0),
///     ex: 4.0,
///     pex: 4.0,
/// };
/// assert_eq!(a.slack(), 2.0); // dl − ar − ex
/// assert_eq!(a.window(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attrs {
    /// Arrival (submission) time.
    pub ar: SimTime,
    /// Deadline. For subtasks this may be a *virtual* deadline assigned by
    /// a deadline-assignment strategy; the end-to-end deadline of the
    /// enclosing global task is tracked separately by the process manager.
    pub dl: SimTime,
    /// Real execution time (drawn by the generator; hidden from schedulers).
    pub ex: f64,
    /// Predicted execution time (the estimate strategies may use).
    pub pex: f64,
}

impl Attrs {
    /// The slack `sl(X) = dl(X) − ar(X) − ex(X)`.
    ///
    /// May be negative if the deadline is infeasibly tight.
    pub fn slack(&self) -> f64 {
        self.dl - self.ar - self.ex
    }

    /// The total window `dl(X) − ar(X)` the task has to complete.
    pub fn window(&self) -> f64 {
        self.dl - self.ar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from(v)
    }

    fn attrs(ar: f64, dl: f64, ex: f64) -> Attrs {
        Attrs {
            ar: t(ar),
            dl: t(dl),
            ex,
            pex: ex,
        }
    }

    #[test]
    fn identity_dl_eq_ar_plus_ex_plus_sl() {
        let a = attrs(10.0, 15.0, 2.0);
        assert!((a.slack() - 3.0).abs() < 1e-12);
        assert!((a.window() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_deadline_slack_can_be_negative() {
        let a = attrs(0.0, 1.0, 4.0);
        assert!((a.slack() + 3.0).abs() < 1e-12);
    }
}
