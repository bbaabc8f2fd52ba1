//! Experiment scale: how long and how many replications per data point.

use std::fmt;

/// The size of each experiment data point.
///
/// The paper ran 2 × 1,000,000 time units per point ([`Scale::Paper`]);
/// the smaller presets trade confidence-interval width for wall-clock
/// time with no other change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2 × 20,000 time units — smoke-test sized (benches, CI).
    Quick,
    /// 2 × 200,000 time units — tight enough to see every paper effect.
    Default,
    /// 2 × 1,000,000 time units — the paper's methodology.
    Paper,
}

impl Scale {
    /// Simulated duration per replication.
    pub fn duration(self) -> f64 {
        match self {
            Scale::Quick => 20_000.0,
            Scale::Default => 200_000.0,
            Scale::Paper => 1_000_000.0,
        }
    }

    /// Warm-up discarded at the start of each replication (1%).
    pub fn warmup(self) -> f64 {
        self.duration() * 0.01
    }

    /// Number of independent replications per data point (the paper: 2).
    pub fn replications(self) -> usize {
        2
    }

    /// Parses a CLI argument (`quick` / `default` / `paper`).
    ///
    /// # Errors
    ///
    /// Returns the offending string if it names no scale.
    pub fn parse(arg: &str) -> Result<Scale, String> {
        match arg.to_ascii_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "default" => Ok(Scale::Default),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "unknown scale {other:?}: expected quick, default, or paper"
            )),
        }
    }

    /// Applies this scale's duration/warm-up to a configuration.
    pub fn apply(self, cfg: sda_sim::SimConfig) -> sda_sim::SimConfig {
        sda_sim::SimConfig {
            duration: self.duration(),
            warmup: self.warmup(),
            ..cfg
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Paper => "paper",
        };
        write!(
            f,
            "{name} ({} replications x {} time units)",
            self.replications(),
            self.duration()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_ordered() {
        assert!(Scale::Quick.duration() < Scale::Default.duration());
        assert!(Scale::Default.duration() < Scale::Paper.duration());
        assert_eq!(Scale::Paper.duration(), 1_000_000.0);
        assert_eq!(Scale::Paper.replications(), 2);
    }

    #[test]
    fn parse_accepts_names_case_insensitively() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Ok(Scale::Paper));
        assert_eq!(Scale::parse("Default"), Ok(Scale::Default));
        assert!(Scale::parse("huge").is_err());
    }

    #[test]
    fn apply_sets_horizon() {
        let cfg = Scale::Quick.apply(sda_sim::SimConfig::baseline());
        assert_eq!(cfg.duration, 20_000.0);
        assert_eq!(cfg.warmup, 200.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn display_is_informative() {
        let s = Scale::Paper.to_string();
        assert!(s.contains("paper"));
        assert!(s.contains("1000000"));
    }
}
