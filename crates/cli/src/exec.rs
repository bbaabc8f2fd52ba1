//! Running a sweep for the `sda` tool, and the two ways a command fails.

use std::fmt;
use std::sync::Arc;

use sda_sim::{MultiRun, Sweep};

/// Why an `sda` command failed; the kind selects the exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A bad command, flag, key, value or file: exit status 2.
    Usage(String),
    /// A replication failed (panicked or blew its event budget): exit
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

/// Executes `sweep`, returning every point's result in point order.
///
/// # Errors
///
/// A configuration the sweep rejects is a [`CliError::Usage`]. A failed
/// replication is a [`CliError::Run`] naming the first failed point (in
/// point order), its replication and its seed.
pub fn execute(sweep: &Sweep) -> Result<Vec<Arc<MultiRun>>, CliError> {
    sweep
        .try_execute()
        .map_err(|e| CliError::Usage(e.to_string()))?
        .into_iter()
        .map(|point| point.map_err(|e| CliError::Run(format!("replication failed: {e}"))))
        .collect()
}
