//! Deterministic, seeded fault injection: node crash/recovery, straggler
//! subtasks, and communication delays on serial hand-offs.
//!
//! The paper evaluates SDA strategies on a fault-free system; this module
//! adds the three fault classes that matter most for the soft real-time
//! claims of §6–§8, while keeping every run bit-reproducible:
//!
//! * **Node crashes** — each node alternates between up and down phases
//!   with exponential mean time to failure ([`FaultConfig::mttf`]) and
//!   mean time to repair ([`FaultConfig::mttr`]). What happens to work
//!   resident on a crashing node is set by [`CrashPolicy`].
//! * **Stragglers** — with probability [`FaultConfig::straggler_prob`], a
//!   subtask's *actual* service demand is inflated by
//!   [`FaultConfig::straggler_factor`]. Deadlines are still assigned from
//!   the nominal demand, so a straggler models a mis-estimated subtask.
//! * **Communication delays** — with probability
//!   [`FaultConfig::comm_delay_prob`], the hand-off that releases a
//!   successor stage after a serial predecessor completes is delayed by
//!   an exponential time with mean [`FaultConfig::comm_delay_mean`].
//!
//! # RNG stream layout
//!
//! Fault draws come from three dedicated streams of the replication's
//! base generator — stream 3 (crash/recovery), stream 4 (stragglers),
//! stream 5 (communication delays) — disjoint from the workload streams
//! (1 = global arrivals, 2 = placement, `100 + i` = node-local
//! arrivals; see the `workload` module). Fault sequences are therefore
//! independent of the workload sequence and identical at every `--jobs`
//! level, and enabling one fault class does not perturb the others.
//!
//! # Disabled faults are byte-identical
//!
//! Every draw helper short-circuits **before** touching its generator
//! when its fault class is disabled (rate or probability zero), and no
//! crash events are primed when `mttf == 0`. A configuration with all
//! fault rates zero therefore consumes exactly the same random numbers
//! and schedules exactly the same events as a build without this module,
//! which is pinned by the golden determinism fixtures.

use sda_simcore::dist::{Exp, Sample};
use sda_simcore::rng::Rng;

/// What a crashing node does with the subtasks resident on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPolicy {
    /// Abort the whole global task of every resident subtask (and count
    /// resident local tasks as missed). Models a system without
    /// checkpoint/restart: losing one subtask kills its task.
    #[default]
    AbortTask,
    /// Requeue each resident subtask on its node from scratch (work
    /// performed so far is lost, the deadline is unchanged). Models
    /// restartable subtasks; queued work simply waits out the outage.
    RequeueSubtask,
}

/// Fault-injection rates and policies. All rates default to zero
/// (disabled); see the [module docs](self) for the semantics of each
/// fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Mean time to failure of each node (exponential). `0.0` disables
    /// crashes entirely.
    pub mttf: f64,
    /// Mean time to repair of a crashed node (exponential). Must be
    /// positive when crashes are enabled.
    pub mttr: f64,
    /// What happens to subtasks resident on a crashing node.
    pub crash_policy: CrashPolicy,
    /// Probability that a subtask (or local task) is a straggler. `0.0`
    /// disables straggler injection.
    pub straggler_prob: f64,
    /// Multiplicative service-demand inflation applied to stragglers
    /// (must be ≥ 1 when stragglers are enabled).
    pub straggler_factor: f64,
    /// Probability that a serial hand-off release is delayed. `0.0`
    /// disables communication-delay injection.
    pub comm_delay_prob: f64,
    /// Mean of the exponential hand-off delay (must be positive when
    /// communication delays are enabled).
    pub comm_delay_mean: f64,
}

impl FaultConfig {
    /// The fault-free configuration: every class disabled.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            mttf: 0.0,
            mttr: 0.0,
            crash_policy: CrashPolicy::AbortTask,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            comm_delay_prob: 0.0,
            comm_delay_mean: 0.0,
        }
    }

    /// Whether node crash/recovery processes run.
    pub fn crash_enabled(&self) -> bool {
        self.mttf > 0.0
    }

    /// Whether straggler inflation can occur.
    fn straggler_enabled(&self) -> bool {
        self.straggler_prob > 0.0
    }

    /// Whether hand-off communication delays can occur.
    fn comm_enabled(&self) -> bool {
        self.comm_delay_prob > 0.0
    }

    /// Whether any fault class is enabled.
    pub fn any_enabled(&self) -> bool {
        self.crash_enabled() || self.straggler_enabled() || self.comm_enabled()
    }

    /// Checks internal consistency; the message names the offending
    /// field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mttf >= 0.0 && self.mttf.is_finite()) {
            return Err(format!("mttf must be finite and >= 0, got {}", self.mttf));
        }
        if self.crash_enabled() && !(self.mttr > 0.0 && self.mttr.is_finite()) {
            return Err(format!(
                "mttr must be finite and > 0 when crashes are enabled, got {}",
                self.mttr
            ));
        }
        if !(0.0..=1.0).contains(&self.straggler_prob) {
            return Err(format!(
                "straggler_prob must be in [0, 1], got {}",
                self.straggler_prob
            ));
        }
        if self.straggler_enabled()
            && !(self.straggler_factor >= 1.0 && self.straggler_factor.is_finite())
        {
            return Err(format!(
                "straggler_factor must be finite and >= 1 when stragglers are enabled, got {}",
                self.straggler_factor
            ));
        }
        if !(0.0..=1.0).contains(&self.comm_delay_prob) {
            return Err(format!(
                "comm_delay_prob must be in [0, 1], got {}",
                self.comm_delay_prob
            ));
        }
        if self.comm_enabled() && !(self.comm_delay_mean > 0.0 && self.comm_delay_mean.is_finite())
        {
            return Err(format!(
                "comm_delay_mean must be finite and > 0 when comm delays are enabled, got {}",
                self.comm_delay_mean
            ));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::disabled()
    }
}

/// Per-replication fault state: the configuration plus the three
/// dedicated generators (see the [module docs](self) for the stream
/// layout).
#[derive(Debug)]
pub(crate) struct FaultState {
    pub cfg: FaultConfig,
    crash_rng: Rng,
    straggler_rng: Rng,
    comm_rng: Rng,
}

impl FaultState {
    /// Builds the fault streams from the replication's base generator
    /// (`base.stream(..)` does not advance `base`, so the workload
    /// streams are untouched).
    pub fn new(cfg: FaultConfig, base: &Rng) -> FaultState {
        FaultState {
            cfg,
            crash_rng: base.stream(3),
            straggler_rng: base.stream(4),
            comm_rng: base.stream(5),
        }
    }

    /// Time until the next crash of a currently-up node.
    pub fn next_failure_gap(&mut self) -> f64 {
        debug_assert!(self.cfg.crash_enabled());
        Exp::with_mean(self.cfg.mttf).sample(&mut self.crash_rng)
    }

    /// Time until a crashed node comes back up.
    pub fn next_repair_gap(&mut self) -> f64 {
        debug_assert!(self.cfg.crash_enabled());
        Exp::with_mean(self.cfg.mttr).sample(&mut self.crash_rng)
    }

    /// The actual service demand of a job with nominal demand `ex`, and
    /// whether it was inflated. Draws nothing when stragglers are
    /// disabled.
    pub fn straggler_ex(&mut self, ex: f64) -> (f64, bool) {
        if !self.cfg.straggler_enabled() {
            return (ex, false);
        }
        let p = self.cfg.straggler_prob;
        if p >= 1.0 || self.straggler_rng.next_f64() < p {
            (ex * self.cfg.straggler_factor, true)
        } else {
            (ex, false)
        }
    }

    /// The injected delay for one hand-off release, if any. Draws
    /// nothing when communication delays are disabled.
    pub fn comm_delay(&mut self) -> Option<f64> {
        if !self.cfg.comm_enabled() {
            return None;
        }
        let p = self.cfg.comm_delay_prob;
        if p >= 1.0 || self.comm_rng.next_f64() < p {
            Some(Exp::with_mean(self.cfg.comm_delay_mean).sample(&mut self.comm_rng))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_validates_and_reports_everything_off() {
        let f = FaultConfig::disabled();
        assert!(f.validate().is_ok());
        assert!(!f.any_enabled());
        assert_eq!(f, FaultConfig::default());
    }

    #[test]
    fn validation_names_the_offending_field() {
        let bad = |f: FaultConfig, field: &str| {
            let msg = f.validate().expect_err("must fail");
            assert!(msg.contains(field), "{msg:?} should mention {field}");
        };
        bad(
            FaultConfig {
                mttf: -1.0,
                ..FaultConfig::disabled()
            },
            "mttf",
        );
        bad(
            FaultConfig {
                mttf: 100.0,
                mttr: 0.0,
                ..FaultConfig::disabled()
            },
            "mttr",
        );
        bad(
            FaultConfig {
                straggler_prob: 1.5,
                ..FaultConfig::disabled()
            },
            "straggler_prob",
        );
        bad(
            FaultConfig {
                straggler_prob: 0.1,
                straggler_factor: 0.5,
                ..FaultConfig::disabled()
            },
            "straggler_factor",
        );
        bad(
            FaultConfig {
                comm_delay_prob: -0.1,
                ..FaultConfig::disabled()
            },
            "comm_delay_prob",
        );
        bad(
            FaultConfig {
                comm_delay_prob: 0.2,
                comm_delay_mean: 0.0,
                ..FaultConfig::disabled()
            },
            "comm_delay_mean",
        );
    }

    #[test]
    fn disabled_draw_helpers_touch_no_generator_state() {
        let base = Rng::seed_from(7);
        let mut faults = FaultState::new(FaultConfig::disabled(), &base);
        assert_eq!(faults.straggler_ex(3.0), (3.0, false));
        assert_eq!(faults.comm_delay(), None);
        // The streams are untouched: they still agree with fresh copies.
        let mut fresh = base.stream(4);
        assert_eq!(faults.straggler_rng.next_u64(), fresh.next_u64());
        let mut fresh = base.stream(5);
        assert_eq!(faults.comm_rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn fault_streams_are_independent_of_each_other() {
        let base = Rng::seed_from(42);
        let cfg = FaultConfig {
            mttf: 100.0,
            mttr: 10.0,
            straggler_prob: 0.5,
            straggler_factor: 4.0,
            comm_delay_prob: 0.5,
            comm_delay_mean: 2.0,
            ..FaultConfig::disabled()
        };
        let mut a = FaultState::new(cfg, &base);
        let mut b = FaultState::new(cfg, &base);
        // Drain one stream on `a` only; the other streams stay aligned.
        for _ in 0..10 {
            a.next_failure_gap();
        }
        assert_eq!(a.straggler_ex(1.0), b.straggler_ex(1.0));
        assert_eq!(a.comm_delay(), b.comm_delay());
    }

    #[test]
    fn straggler_inflation_multiplies_the_nominal_demand() {
        let base = Rng::seed_from(9);
        let cfg = FaultConfig {
            straggler_prob: 1.0,
            straggler_factor: 8.0,
            ..FaultConfig::disabled()
        };
        let mut faults = FaultState::new(cfg, &base);
        assert_eq!(faults.straggler_ex(2.0), (16.0, true));
    }
}
