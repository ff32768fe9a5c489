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
//! array shared by the whole graph (compressed sparse rows). Each distinct
//! resource and kind is stored once, and a task keeps its index, so a
//! simulation reads four bytes of a task where the label lives apart.
//! Tasks are read back as borrowed [`Task`] views.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};
use crate::task::{Label, Resource, Task, TaskId, TaskKind, TrackKind, TRACK_COUNT};

/// A resource and a kind of task: the graph stores each distinct pair
/// once, and each task as an index into them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Work {
    pub(crate) resource: Resource,
    pub(crate) kind: TaskKind,
}

/// An append-only directed acyclic graph of tasks.
///
/// Dependencies are stored in compressed sparse rows: task `i` depends on
/// `deps[offsets[i]..offsets[i + 1]]`, in the order they were given, where
/// `deps` holds every task's dependencies back to back and `offsets[0]` is
/// 0.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskGraph {
    labels: Vec<Label>,
    /// Each task's index into `works`.
    work: Vec<u32>,
    /// The distinct works, in order of first use.
    works: Vec<Work>,
    /// Open-addressing index into `works` by [`work_hash`] (0 is empty),
    /// rebuilt on demand.
    #[serde(skip)]
    index: Vec<u32>,
    deps: Vec<TaskId>,
    offsets: Vec<usize>,
}

/// A dropped graph's per-task arrays, emptied.
type Spare = (Vec<Label>, Vec<u32>, Vec<TaskId>, Vec<usize>);

thread_local! {
    /// The arrays of the largest graph this thread has dropped. The next
    /// graph reuses them, so a sweep that builds and drops graph after
    /// graph stops faulting in fresh pages for each one.
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl Default for TaskGraph {
    fn default() -> Self {
        let (labels, work, deps, mut offsets) = SPARE.take().unwrap_or_default();
        offsets.push(0);
        Self {
            labels,
            work,
            works: Vec::new(),
            index: Vec::new(),
            deps,
            offsets,
        }
    }
}

impl Drop for TaskGraph {
    fn drop(&mut self) {
        let mut mine = (
            std::mem::take(&mut self.labels),
            std::mem::take(&mut self.work),
            std::mem::take(&mut self.deps),
            std::mem::take(&mut self.offsets),
        );
        SPARE.with(|spare| {
            let kept = match spare.take() {
                Some(other) if other.0.capacity() >= mine.0.capacity() => other,
                _ => {
                    mine.0.clear();
                    mine.1.clear();
                    mine.2.clear();
                    mine.3.clear();
                    mine
                }
            };
            spare.set(Some(kept));
        });
    }
}

/// A hash of a resource and a task kind.
fn work_hash(work: Work) -> u64 {
    let place = match work.resource {
        Resource::DmaIn => 0,
        Resource::DmaOut => 1,
        Resource::Mac { core } => (core as u64).wrapping_mul(2).wrapping_add(2),
        Resource::Vec { core } => (core as u64).wrapping_mul(2).wrapping_add(3),
    };
    let (tag, a, b, c) = match work.kind {
        TaskKind::MatMul { m, k, n } => (0, m, k, n),
        TaskKind::Softmax { rows, cols } => (1, rows, cols, 0),
        TaskKind::VecOp { elements, passes } => (2, elements, passes, 0),
        TaskKind::DramLoad { bytes } => (3, bytes, 0, 0),
        TaskKind::DramStore { bytes } => (4, bytes, 0, 0),
        TaskKind::Barrier => (5, 0, 0, 0),
    };
    let mut h = place.wrapping_mul(8).wrapping_add(tag);
    for x in [a, b, c] {
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(x as u64);
    }
    h ^ (h >> 29)
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
        let id = TaskId(self.work.len());
        let work = self.intern(Work { resource, kind });
        self.labels.push(label.into());
        self.work.push(work);
        self.deps.extend_from_slice(deps);
        self.offsets.push(self.deps.len());
        id
    }

    /// The index of `work` in `works`, added if new. Builders emit runs
    /// of equal work, so the previous task's work is tried first.
    fn intern(&mut self, work: Work) -> u32 {
        if let Some(&last) = self.work.last() {
            if self.works[last as usize] == work {
                return last;
            }
        }
        if 2 * (self.works.len() + 1) > self.index.len() {
            let size = (4 * (self.works.len() + 1)).next_power_of_two().max(64);
            self.index = vec![0; size];
            for (id, &w) in self.works.iter().enumerate() {
                let mut at = work_hash(w) as usize & (size - 1);
                while self.index[at] != 0 {
                    at = (at + 1) & (size - 1);
                }
                self.index[at] = id as u32 + 1;
            }
        }
        let mask = self.index.len() - 1;
        let mut at = work_hash(work) as usize & mask;
        loop {
            match self.index[at] {
                0 => {
                    self.works.push(work);
                    self.index[at] = self.works.len() as u32;
                    return self.works.len() as u32 - 1;
                }
                e if self.works[e as usize - 1] == work => return e - 1,
                _ => at = (at + 1) & mask,
            }
        }
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
        self.work.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// Iterates over tasks in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Task<'_>> {
        self.work
            .iter()
            .zip(&self.labels)
            .zip(self.offsets.windows(2))
            .enumerate()
            .map(|(i, ((&work, label), range))| {
                let work = self.works[work as usize];
                Task::new(
                    TaskId(i),
                    label,
                    work.resource,
                    work.kind,
                    &self.deps[range[0]..range[1]],
                )
            })
    }

    /// Returns the task with the given id, if present.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<Task<'_>> {
        let work = self.works[*self.work.get(id.0)? as usize];
        Some(Task::new(
            id,
            &self.labels[id.0],
            work.resource,
            work.kind,
            &self.deps[self.offsets[id.0]..self.offsets[id.0 + 1]],
        ))
    }

    /// Task `i`'s dependencies, without reading the rest of the task.
    pub(crate) fn deps_of(&self, i: usize) -> &[TaskId] {
        &self.deps[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Each task's index into [`TaskGraph::works`]; equal indices mean
    /// equal work.
    pub(crate) fn work_ids(&self) -> &[u32] {
        &self.work
    }

    /// The graph's distinct works.
    pub(crate) fn works(&self) -> &[Work] {
        &self.works
    }

    /// The sum over tasks of `f` of each task's kind.
    fn total(&self, f: impl Fn(&TaskKind) -> u64) -> u64 {
        self.work
            .iter()
            .map(|&w| f(&self.works[w as usize].kind))
            .sum()
    }

    /// Total bytes read from DRAM across all tasks.
    #[must_use]
    pub fn dram_read_bytes(&self) -> u64 {
        self.total(TaskKind::dram_read_bytes)
    }

    /// Total bytes written to DRAM across all tasks.
    #[must_use]
    pub fn dram_write_bytes(&self) -> u64 {
        self.total(TaskKind::dram_write_bytes)
    }

    /// Total multiply-accumulate operations across all tasks.
    #[must_use]
    pub fn total_mac_ops(&self) -> u64 {
        self.total(TaskKind::mac_ops)
    }

    /// Total VEC-lane operations across all tasks for a given softmax cost.
    #[must_use]
    pub fn total_vec_ops(&self, softmax_ops_per_element: usize) -> u64 {
        self.total(|kind| kind.vec_ops(softmax_ops_per_element))
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
