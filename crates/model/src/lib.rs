//! # sda-model — serial-parallel task and system model
//!
//! Types for the task model of §3 of Kao & Garcia-Molina (ICDCS 1994):
//!
//! * [`TaskSpec`] — the recursive class of serial-parallel global tasks
//!   (rules GT1–GT3), with a parser and printer for the paper's bracket
//!   notation, e.g. `"[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]"` (Figure 1).
//!
//! ```
//! use sda_model::TaskSpec;
//!
//! // The Figure 14 task graph: 5 serial stages, stages 2 and 4 are
//! // parallel complex subtasks with 4 simple subtasks each.
//! let spec = TaskSpec::pipeline_with_fanout(5, &[(1, 4), (3, 4)]);
//! assert_eq!(spec.stage_count(), 5);
//! assert_eq!(spec.simple_count(), 11);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod parse;
mod spec;

pub use parse::{parse_spec, ParseSpecError};
pub use spec::{SpecValidationError, TaskSpec};
