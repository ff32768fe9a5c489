//! Error types for the accelerator simulator.

use std::fmt;

use crate::task::{Resource, TaskId};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SimError>;

/// Errors produced by graph construction and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A task depends on a task id that has not been added to the graph.
    UnknownDependency {
        /// The task whose dependency is unknown.
        task: TaskId,
        /// The missing dependency id.
        dependency: TaskId,
    },
    /// The task graph contains a cycle and cannot be scheduled.
    CyclicGraph {
        /// Number of tasks that could not be scheduled when progress stopped.
        unscheduled: usize,
    },
    /// A task references a resource that does not exist on the configured
    /// hardware (e.g. core index out of range).
    UnknownResource {
        /// The offending resource.
        resource: Resource,
        /// Number of cores on the configured device.
        cores: usize,
    },
    /// A hardware configuration parameter is invalid (zero cores, zero
    /// bandwidth, ...).
    InvalidConfig {
        /// Description of the invalid parameter.
        reason: String,
    },
    /// The simulation produced an empty schedule (no tasks).
    EmptyGraph,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownDependency { task, dependency } => {
                write!(f, "task {task} depends on unknown task {dependency}")
            }
            SimError::CyclicGraph { unscheduled } => write!(
                f,
                "task graph contains a dependency cycle ({unscheduled} tasks left unscheduled)"
            ),
            SimError::UnknownResource { resource, cores } => write!(
                f,
                "task requires resource {resource} but the device has only {cores} cores"
            ),
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid hardware configuration: {reason}")
            }
            SimError::EmptyGraph => write!(f, "task graph is empty"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::UnknownResource {
            resource: Resource::Mac { core: 5 },
            cores: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("MAC5"), "{msg}");
        assert!(msg.contains("only 4 cores"), "{msg}");
        let e = SimError::UnknownDependency {
            task: TaskId(3),
            dependency: TaskId(7),
        };
        let msg = e.to_string();
        assert!(msg.contains("#3") && msg.contains("#7"), "{msg}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
