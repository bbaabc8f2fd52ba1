//! Identities for nodes, tasks, and metric classes.

use std::fmt;

/// Identifies one processing component (node) of the distributed system.
///
/// Nodes are numbered `0..k`. Per the paper's model, each node is *unique*:
/// a subtask destined for a node must run there (no load balancing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Uniquely identifies a task instance (local task or global task) within
/// one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    /// The raw counter value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The metric class a completed task is accounted under.
///
/// The paper reports `MD_local`, `MD_subtask`, and `MD_global`; §7.4
/// additionally breaks globals down by their number of subtasks
/// ("six classes of tasks: locals + 5 classes of globals").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaskClass {
    /// A local task (generated at, and executed on, a single node).
    Local,
    /// A global task with the given number of simple subtasks.
    Global {
        /// Number of simple subtasks in the whole task graph.
        subtasks: u32,
    },
}

impl fmt::Display for TaskClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskClass::Local => write!(f, "local"),
            TaskClass::Global { subtasks } => write!(f, "global(n={subtasks})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(TaskId(17).to_string(), "T17");
        assert_eq!(TaskClass::Local.to_string(), "local");
        assert_eq!(TaskClass::Global { subtasks: 4 }.to_string(), "global(n=4)");
    }

    #[test]
    fn accessors() {
        assert_eq!(NodeId(2).index(), 2);
        assert_eq!(TaskId(9).value(), 9);
    }

    #[test]
    fn classes_are_ordered_locals_first() {
        let mut classes = vec![
            TaskClass::Global { subtasks: 6 },
            TaskClass::Local,
            TaskClass::Global { subtasks: 2 },
        ];
        classes.sort();
        assert_eq!(
            classes,
            vec![
                TaskClass::Local,
                TaskClass::Global { subtasks: 2 },
                TaskClass::Global { subtasks: 6 },
            ]
        );
    }
}
