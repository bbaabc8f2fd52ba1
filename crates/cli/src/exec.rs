//! The two ways an `sda` command fails.

use std::fmt;

use sda_sim::SweepError;

/// Why an `sda` command failed; the kind selects the exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A bad command, flag, key, value or file: exit status 2.
    Usage(String),
    /// A replication failed (panicked or used up its event budget): exit
    /// status 1. The message names the point, replication and seed.
    Run(String),
}

impl CliError {
    /// The process exit status for this error.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Run(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Run(message) => f.write_str(message),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::Usage(message.to_string())
    }
}

/// A point the sweep rejects (its configuration or stop rule) is a
/// [`CliError::Usage`]; a failed replication is a [`CliError::Run`]
/// naming the first failed point (in point order), its replication and
/// its seed.
impl From<SweepError> for CliError {
    fn from(error: SweepError) -> CliError {
        match error {
            SweepError::Config(error) => CliError::Usage(error.to_string()),
            SweepError::Run(error) => CliError::Run(format!("replication failed: {error}")),
        }
    }
}
