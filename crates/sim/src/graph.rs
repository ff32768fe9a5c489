//! Dependency graphs of tasks.
//!
//! A [`TaskGraph`] is an append-only DAG: tasks are added in program order
//! with explicit dependency edges, the way the dataflow builders in
//! `mas-dataflow` lower Algorithm 1's rounds into MAC-stream and VEC-stream
//! work items. The executor schedules a graph without mutating it, so one
//! graph can be simulated under several hardware configurations.
//!
//! Adding a task allocates nothing of its own: the task's label is stored
//! unrendered ([`Label`]) and its dependencies are appended to one flat
//! array shared by the whole graph (compressed sparse rows). Tasks are read
//! back as borrowed [`Task`] views.

use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};
use crate::task::{Label, Resource, Task, TaskId, TaskKind, TrackKind, TRACK_COUNT};

/// What the graph stores per task besides its dependencies.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    label: Label,
    resource: Resource,
    kind: TaskKind,
}

/// An append-only directed acyclic graph of tasks.
///
/// Dependencies are stored in compressed sparse rows: task `i` depends on
/// `deps[offsets[i]..offsets[i + 1]]`, in the order they were given, where
/// `deps` holds every task's dependencies back to back and `offsets[0]` is
/// 0.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    deps: Vec<TaskId>,
    offsets: Vec<usize>,
}

impl Default for TaskGraph {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            deps: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl TaskGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    ///
    /// `label` is a [`Label`], a `&'static str` or an owned `String`; a
    /// [`Label`] template is not rendered here. Dependencies on ids not yet
    /// in the graph are allowed at insertion time (they are validated by
    /// [`TaskGraph::validate`] and by the executor), but by construction the
    /// dataflow builders only reference earlier tasks, which also
    /// guarantees acyclicity.
    pub fn add_task(
        &mut self,
        label: impl Into<Label>,
        resource: Resource,
        kind: TaskKind,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(self.nodes.len());
        self.nodes.push(Node {
            label: label.into(),
            resource,
            kind,
        });
        self.deps.extend_from_slice(deps);
        self.offsets.push(self.deps.len());
        id
    }

    /// Appends a per-tile stage pipeline: for each stage, one task per
    /// present track kind placed on that track's resource
    /// ([`TrackKind::resource`]), dependency-chained in dataflow order
    /// within the stage (DMA-in → MAC → VEC → writeback). Across stages the
    /// only ordering is per-resource FIFO (program order), which is exactly
    /// what lets stage `k+1`'s DMA run under stage `k`'s compute — this is
    /// the cycle-level lowering of the continuous-time track executor
    /// (`DeviceTracks::plan`), and the two agree on the makespan when issue
    /// and fill/drain overheads are zero.
    ///
    /// Returns the ids of the appended tasks in insertion order.
    pub fn stage_pipeline(
        &mut self,
        label_prefix: &str,
        stages: &[[Option<TaskKind>; TRACK_COUNT]],
    ) -> Vec<TaskId> {
        let mut ids = Vec::new();
        for (k, stage) in stages.iter().enumerate() {
            let mut prev: Option<TaskId> = None;
            for (t, kind) in stage.iter().enumerate() {
                let Some(kind) = kind else { continue };
                let track = TrackKind::ALL[t];
                let id = self.add_task(
                    format!("{label_prefix}/s{k}-{track}"),
                    track.resource(),
                    *kind,
                    prev.as_slice(),
                );
                prev = Some(id);
                ids.push(id);
            }
        }
        ids
    }

    /// Number of tasks in the graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over tasks in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Task<'_>> {
        self.nodes
            .iter()
            .zip(self.offsets.windows(2))
            .enumerate()
            .map(|(i, (node, range))| {
                Task::new(
                    TaskId(i),
                    &node.label,
                    node.resource,
                    node.kind,
                    &self.deps[range[0]..range[1]],
                )
            })
    }

    /// Returns the task with the given id, if present.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<Task<'_>> {
        let node = self.nodes.get(id.0)?;
        Some(Task::new(
            id,
            &node.label,
            node.resource,
            node.kind,
            &self.deps[self.offsets[id.0]..self.offsets[id.0 + 1]],
        ))
    }

    /// Total bytes read from DRAM across all tasks.
    #[must_use]
    pub fn dram_read_bytes(&self) -> u64 {
        self.nodes.iter().map(|t| t.kind.dram_read_bytes()).sum()
    }

    /// Total bytes written to DRAM across all tasks.
    #[must_use]
    pub fn dram_write_bytes(&self) -> u64 {
        self.nodes.iter().map(|t| t.kind.dram_write_bytes()).sum()
    }

    /// Total multiply-accumulate operations across all tasks.
    #[must_use]
    pub fn total_mac_ops(&self) -> u64 {
        self.nodes.iter().map(|t| t.kind.mac_ops()).sum()
    }

    /// Total VEC-lane operations across all tasks for a given softmax cost.
    #[must_use]
    pub fn total_vec_ops(&self, softmax_ops_per_element: usize) -> u64 {
        self.nodes
            .iter()
            .map(|t| t.kind.vec_ops(softmax_ops_per_element))
            .sum()
    }

    /// Validates that every dependency refers to an existing task and that
    /// the graph is acyclic.
    ///
    /// When every dependency points to an earlier task — always the case
    /// for the dataflow builders' graphs — each names an existing task and
    /// no cycle can close, so this returns `Ok` after one pass over the
    /// dependency array that allocates nothing. Any other graph is checked
    /// in full with Kahn's algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] for the first dependency, in
    /// insertion order, that names no task, or else [`SimError::CyclicGraph`]
    /// if some tasks lie on or behind a cycle.
    pub fn validate(&self) -> Result<()> {
        let backward = self
            .offsets
            .windows(2)
            .enumerate()
            .all(|(i, range)| self.deps[range[0]..range[1]].iter().all(|dep| dep.0 < i));
        if backward {
            return Ok(());
        }
        for task in self.iter() {
            for dep in task.deps() {
                if dep.0 >= self.len() {
                    return Err(SimError::UnknownDependency {
                        task: task.id,
                        dependency: *dep,
                    });
                }
            }
        }
        // Kahn's algorithm to detect cycles.
        let n = self.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for task in self.iter() {
            for dep in task.deps() {
                indegree[task.id.0] += 1;
                dependents[dep.0].push(task.id.0);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(i) = queue.pop() {
            visited += 1;
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if visited != n {
            return Err(SimError::CyclicGraph {
                unscheduled: n - visited,
            });
        }
        Ok(())
    }

    /// The length (in tasks) of the longest dependency chain. Barrier tasks
    /// count like any other node; this is a structural measure used by tests,
    /// not a timing quantity.
    #[must_use]
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        for task in self.iter() {
            let d = task
                .deps()
                .iter()
                .filter_map(|dep| depth.get(dep.0))
                .copied()
                .max()
                .unwrap_or(0);
            depth[task.id.0] = d + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm(m: usize) -> TaskKind {
        TaskKind::MatMul { m, k: 4, n: 4 }
    }

    #[test]
    fn empty_graph_properties() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.critical_path_len(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn add_and_lookup_tasks() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm(4), &[]);
        let b = g.add_task("b", Resource::Vec { core: 0 }, TaskKind::Barrier, &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(*g.get(a).unwrap().label, "a");
        assert_eq!(g.get(b).unwrap().deps(), [a]);
        assert!(g.get(TaskId(5)).is_none());
    }

    #[test]
    fn traffic_and_op_totals() {
        let mut g = TaskGraph::new();
        g.add_task(
            "ld",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 100 },
            &[],
        );
        g.add_task(
            "st",
            Resource::DmaOut,
            TaskKind::DramStore { bytes: 40 },
            &[],
        );
        g.add_task("mm", Resource::Mac { core: 0 }, mm(2), &[]);
        g.add_task(
            "sm",
            Resource::Vec { core: 0 },
            TaskKind::Softmax { rows: 2, cols: 4 },
            &[],
        );
        assert_eq!(g.dram_read_bytes(), 100);
        assert_eq!(g.dram_write_bytes(), 40);
        assert_eq!(g.total_mac_ops(), 2 * 4 * 4);
        assert_eq!(g.total_vec_ops(10), 80);
    }

    #[test]
    fn validate_rejects_unknown_dependency() {
        let mut g = TaskGraph::new();
        g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[TaskId(7)]);
        assert!(matches!(
            g.validate(),
            Err(SimError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn validate_rejects_cycles() {
        // Construct a cycle by hand: task 0 depends on task 1, task 1 on task 0.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[TaskId(1)]);
        let _b = g.add_task("b", Resource::Mac { core: 0 }, mm(1), &[a]);
        assert!(matches!(g.validate(), Err(SimError::CyclicGraph { .. })));
    }

    #[test]
    fn validate_accepts_acyclic_forward_dependencies() {
        // Task 0 waits on the later task 1: not the builders' shape, but a
        // valid DAG, checked by the full algorithm.
        let mut g = TaskGraph::new();
        g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[TaskId(1)]);
        g.add_task("b", Resource::Mac { core: 0 }, mm(1), &[]);
        g.validate().unwrap();
        g.add_task("c", Resource::Mac { core: 0 }, mm(1), &[TaskId(2)]);
        assert!(matches!(
            g.validate(),
            Err(SimError::CyclicGraph { unscheduled: 1 })
        ));
    }

    #[test]
    fn critical_path_counts_longest_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm(1), &[]);
        let b = g.add_task("b", Resource::Mac { core: 0 }, mm(1), &[a]);
        let _c = g.add_task("c", Resource::Mac { core: 0 }, mm(1), &[b]);
        let _d = g.add_task("d", Resource::Vec { core: 0 }, TaskKind::Barrier, &[a]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.add_task(format!("t{i}"), Resource::Mac { core: 0 }, mm(1), &[]);
        }
        let labels: Vec<_> = g.iter().map(|t| t.label.to_string()).collect();
        assert_eq!(labels, vec!["t0", "t1", "t2", "t3", "t4"]);
    }
}
