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
//! Tasks are read back as [`Task`] views.
//!
//! # Repeated periods
//!
//! A builder's rounds repeat: round `i + 1` does the work of round `i`,
//! waits on the tasks one round later and carries labels whose round
//! arguments moved on by one. [`TaskGraph::repeat`] stores such a stretch
//! once. The caller adds one period of tasks twice, back to back, and asks
//! for `times` more instances of the second; the graph keeps the second
//! instance as the *template* and a repeat count, and every further
//! instance exists only as a program-index range. What a repeat
//! guarantees:
//!
//! - **A checked first copy.** `repeat` compares the two instances the
//!   caller added, task by task, and refuses (returning `None`, storing nothing)
//!   unless each task of the second does the same work on the same
//!   resource as its counterpart in the first, its label is the same
//!   template (or text) with each argument moved by a fixed step, and each
//!   dependency is either *shifted* — the counterpart's dependency one
//!   period later, reaching back at most one period and never forward — or
//!   *fixed* — the very same task, stored before both instances and outside
//!   every earlier repeat.
//! - **Trusted later instances.** Nothing checks instances 1 and on
//!   against what the caller would have added: that each further period
//!   is one more copy is the caller's claim. A dataflow builder makes it
//!   through the rounds it calls regular (a ragged last round is not), and
//!   only its tests, which build each graph both ways and compare them
//!   task by task, check that claim.
//! - **Exact expansion.** Instance `k` of template task `t` has program
//!   index `first + k·len + t`, the label arguments of `t` plus `k` steps,
//!   each shifted dependency moved `k·len` on and each fixed one kept.
//!   [`TaskGraph::len`], [`TaskGraph::iter`] and [`TaskGraph::get`] read the
//!   graph in that expanded form, and [`TaskGraph::expand`] writes it out
//!   as a graph with no repeats; a builder that repeats its rounds and one
//!   that adds every round describe the same graph.
//! - **Tasks added later** get program indices after the last instance,
//!   and may depend on any instance by its program index.

use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;

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

/// One repeated period ([`TaskGraph::repeat`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Repeat {
    /// The stored index of the template's first task.
    pub(crate) stored: usize,
    /// The program index of the first task of instance 0.
    pub(crate) first: usize,
    /// Tasks per instance.
    pub(crate) len: usize,
    /// Instances, at least 2.
    pub(crate) count: usize,
    /// Tasks this and every earlier repeat add beyond their template.
    pub(crate) extra: usize,
    /// Where the template's label steps start in `TaskGraph::deltas`.
    delta_at: usize,
}

impl Repeat {
    /// One past the program index of the last instance's last task.
    pub(crate) fn end(&self) -> usize {
        self.first + self.count * self.len
    }

    /// Whether dependency `dep` of a template task is shifted with its
    /// instance rather than fixed: shifted dependencies reach back at most
    /// one period, fixed ones lie before that.
    pub(crate) fn shifts(&self, dep: usize) -> bool {
        dep + self.len >= self.first
    }
}

/// Where a program index lives in the stored form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum At {
    /// A task stored as it is, at this stored index.
    Plain(usize),
    /// Instance `instance` of the template task stored at `stored`, in
    /// repeat `repeat`.
    Repeated {
        repeat: usize,
        stored: usize,
        instance: usize,
    },
}

/// An append-only directed acyclic graph of tasks.
///
/// Dependencies are stored in compressed sparse rows: stored task `i`
/// depends on `deps[offsets[i]..offsets[i + 1]]`, in the order they were
/// given, where `deps` holds every stored task's dependencies back to back
/// and `offsets[0]` is 0. A repeated period stores one instance (module
/// docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskGraph {
    labels: Vec<Label>,
    /// Each stored task's index into `works`.
    work: Vec<u32>,
    /// The distinct works, in order of first use.
    works: Vec<Work>,
    /// Open-addressing index into `works` by [`work_hash`] (0 is empty),
    /// rebuilt on demand.
    #[serde(skip)]
    index: Vec<u32>,
    deps: Vec<TaskId>,
    offsets: Vec<usize>,
    /// The repeated periods, in program order.
    repeats: Vec<Repeat>,
    /// Each template task's label step per instance.
    deltas: Vec<[usize; 4]>,
    /// Tasks the repeats add beyond their templates.
    extra: usize,
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
            repeats: Vec::new(),
            deltas: Vec::new(),
            extra: 0,
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
        let id = TaskId(self.len());
        let work = self.intern(Work { resource, kind });
        self.labels.push(label.into());
        self.work.push(work);
        self.deps.extend_from_slice(deps);
        self.offsets.push(self.deps.len());
        id
    }

    /// Repeats the period that starts at `start`: the tasks from `start` to
    /// the end of the graph (`len` of them, instance 0) must be a copy of
    /// the `len` tasks before `start` (instance −1) in the sense of the
    /// module docs, and `times` more instances of it are appended without
    /// being stored. Returns the period length `len`, so that instance `k`
    /// of a task with id `t` in instance 0 has id `t + k·len`; tasks added
    /// afterwards follow the last instance.
    ///
    /// Returns `None` and changes nothing when the two instances are not
    /// such copies, when either overlaps an earlier repeat, or when the
    /// program indices would overflow; the caller then adds the rounds
    /// itself. Only instance 0 is compared with instance −1: that the
    /// `times` instances after it are what the caller would have added is
    /// the caller's claim, unchecked here.
    pub fn repeat(&mut self, start: TaskId, times: usize) -> Option<usize> {
        let first = start.0;
        let len = self.len().checked_sub(first).filter(|&len| len > 0)?;
        let tail = self.repeats.last().map_or(0, Repeat::end);
        if first < tail + len {
            return None;
        }
        if times == 0 {
            return Some(len);
        }
        let total = self.len().checked_add(times.checked_mul(len)?)?;
        let stored = first - self.extra;
        let delta_at = self.deltas.len();
        for t in 0..len {
            let (x, y) = (stored - len + t, stored + t);
            let copy = self.work[x] == self.work[y] && {
                let (dx, dy) = (self.stored_deps(x), self.stored_deps(y));
                dx.len() == dy.len()
                    && dx.iter().zip(dy).all(|(d, e)| {
                        let shifted = e.0 == d.0 + len && e.0 + len >= first && e.0 < first + t;
                        let fixed =
                            e == d && e.0 + len < first && matches!(self.locate(e.0), At::Plain(_));
                        shifted || fixed
                    })
            };
            match self.labels[y].delta_from(&self.labels[x]) {
                Some(delta) if copy => self.deltas.push(delta),
                _ => {
                    self.deltas.truncate(delta_at);
                    return None;
                }
            }
        }
        self.extra = total - self.work.len();
        self.repeats.push(Repeat {
            stored,
            first,
            len,
            count: times + 1,
            extra: self.extra,
            delta_at,
        });
        Some(len)
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

    /// The id the next added task gets.
    #[must_use]
    pub fn next_id(&self) -> TaskId {
        TaskId(self.len())
    }

    /// Number of tasks in the graph, every instance of a repeated period
    /// counted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.work.len() + self.extra
    }

    /// Number of tasks the graph stores: a repeated period's template is
    /// stored once, however many instances it has.
    #[must_use]
    pub fn stored_len(&self) -> usize {
        self.work.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.work.is_empty()
    }

    /// Iterates over tasks in insertion order, every instance of a
    /// repeated period expanded.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Task<'_>> {
        (0..self.len()).map(|i| self.get(TaskId(i)).expect("index in range"))
    }

    /// Returns the task with the given id, if present.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<Task<'_>> {
        if id.0 >= self.len() {
            return None;
        }
        let at = self.locate(id.0);
        let (At::Plain(stored) | At::Repeated { stored, .. }) = at;
        let work = self.works[self.work[stored] as usize];
        let (label, deps) = match at {
            At::Repeated { instance, .. } if instance > 0 => (
                Cow::Owned(self.label(at)),
                Cow::Owned(self.deps_at(at).collect()),
            ),
            _ => (
                Cow::Borrowed(&self.labels[stored]),
                Cow::Borrowed(self.stored_deps(stored)),
            ),
        };
        Some(Task::new(id, label, work.resource, work.kind, deps))
    }

    /// The graph with every instance of every repeated period stored: the
    /// same tasks, labels and dependencies in the same order, and no
    /// repeats.
    #[must_use]
    pub fn expand(&self) -> TaskGraph {
        let mut graph = TaskGraph::new();
        for task in self.iter() {
            graph.add_task(
                Label::clone(&task.label),
                task.resource,
                task.kind,
                task.deps(),
            );
        }
        graph
    }

    /// Where program index `i` (below [`TaskGraph::len`]) is stored.
    pub(crate) fn locate(&self, i: usize) -> At {
        let after = self.repeats.partition_point(|r| r.first <= i);
        let Some(r) = after.checked_sub(1).map(|k| (k, &self.repeats[k])) else {
            return At::Plain(i);
        };
        match r {
            (repeat, rep) if i < rep.end() => At::Repeated {
                repeat,
                stored: rep.stored + (i - rep.first) % rep.len,
                instance: (i - rep.first) / rep.len,
            },
            (_, rep) => At::Plain(i - rep.extra),
        }
    }

    /// Stored task `s`'s dependencies; a template task's are those of its
    /// instance 0.
    pub(crate) fn stored_deps(&self, s: usize) -> &[TaskId] {
        &self.deps[self.offsets[s]..self.offsets[s + 1]]
    }

    /// The number of dependencies of each of the stored tasks `stored`.
    pub(crate) fn deps_counts(&self, stored: Range<usize>) -> impl Iterator<Item = u32> + '_ {
        let offsets = &self.offsets[stored.start..=stored.end];
        offsets.windows(2).map(|w| (w[1] - w[0]) as u32)
    }

    /// Each stored task's index into [`TaskGraph::works`]; equal indices
    /// mean equal work.
    pub(crate) fn work_ids(&self) -> &[u32] {
        &self.work
    }

    /// The graph's distinct works.
    pub(crate) fn works(&self) -> &[Work] {
        &self.works
    }

    /// The repeated periods, in program order.
    pub(crate) fn repeats(&self) -> &[Repeat] {
        &self.repeats
    }

    /// The dependencies of the task at `at`, each shifted dependency moved
    /// to its instance.
    pub(crate) fn deps_at(&self, at: At) -> impl Iterator<Item = TaskId> + '_ {
        let (stored, shift) = match at {
            At::Plain(s) => (s, None),
            At::Repeated {
                repeat,
                stored,
                instance,
            } => (stored, Some((self.repeats[repeat], instance))),
        };
        self.stored_deps(stored).iter().map(move |&d| match shift {
            Some((r, k)) if r.shifts(d.0) => TaskId(d.0 + k * r.len),
            _ => d,
        })
    }

    /// The label of the task stored at `at`.
    pub(crate) fn label(&self, at: At) -> Label {
        match at {
            At::Plain(s) => self.labels[s].clone(),
            At::Repeated {
                repeat,
                stored,
                instance,
            } => {
                let r = &self.repeats[repeat];
                self.labels[stored].advanced(&self.deltas[r.delta_at + stored - r.stored], instance)
            }
        }
    }

    /// Calls `f(stored, first, repeat)` for every stored task in order,
    /// with the program index of its first instance and, for a template
    /// task, the repeat it belongs to.
    #[inline(always)]
    pub(crate) fn for_each_stored(&self, mut f: impl FnMut(usize, usize, Option<&Repeat>)) {
        let mut s = 0;
        let mut extra = 0;
        for r in &self.repeats {
            for s in s..r.stored {
                f(s, s + extra, None);
            }
            for t in 0..r.len {
                f(r.stored + t, r.first + t, Some(r));
            }
            s = r.stored + r.len;
            extra = r.extra;
        }
        for s in s..self.work.len() {
            f(s, s + extra, None);
        }
    }

    /// The sum over tasks of `f` of each task's kind.
    fn total(&self, f: impl Fn(&TaskKind) -> u64) -> u64 {
        let mut sum = 0;
        self.for_each_stored(|s, _, repeat| {
            let instances = repeat.map_or(1, |r| r.count) as u64;
            sum += instances * f(&self.works[self.work[s] as usize].kind);
        });
        sum
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
    /// for the dataflow builders' graphs, and for every repeated period by
    /// construction ([`TaskGraph::repeat`]) — each names an existing task
    /// and no cycle can close, so this returns `Ok` after one pass over the
    /// stored dependency array that allocates nothing. Any other graph is
    /// checked in full with Kahn's algorithm, over every task.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] for the first dependency, in
    /// insertion order, that names no task, or else [`SimError::CyclicGraph`]
    /// if some tasks lie on or behind a cycle.
    pub fn validate(&self) -> Result<()> {
        let mut backward = true;
        self.for_each_stored(|s, first, _| {
            backward &= self.stored_deps(s).iter().all(|dep| dep.0 < first);
        });
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

    /// A preload, then `rounds` rounds of a load and a product that waits
    /// on it, on the preload and on the previous round's product.
    fn rounds(g: &mut TaskGraph, rounds: std::ops::Range<usize>, gate: &mut Option<TaskId>) {
        let preload = TaskId(0);
        for r in rounds {
            let load = g.add_task(
                Label::new("r{0}: load", [r]),
                Resource::DmaIn,
                TaskKind::DramLoad { bytes: 64 },
                &[],
            );
            let mut deps = vec![load, preload];
            deps.extend(*gate);
            *gate = Some(g.add_task(
                Label::new("r{0}: mm", [r]),
                Resource::Mac { core: 0 },
                mm(4),
                &deps,
            ));
        }
    }

    #[test]
    fn a_repeat_reads_like_every_round_added() {
        let mut plain = TaskGraph::new();
        plain.add_task(
            "preload",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 8 },
            &[],
        );
        rounds(&mut plain, 0..10, &mut None);

        let mut g = TaskGraph::new();
        g.add_task(
            "preload",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 8 },
            &[],
        );
        let mut gate = None;
        rounds(&mut g, 0..2, &mut gate);
        let start = g.next_id();
        rounds(&mut g, 2..3, &mut gate);
        assert_eq!(g.repeat(start, 6), Some(2));
        // Round 2's product, moved on to round 8's.
        let mut gate = gate.map(|id| id.later(6 * 2));
        rounds(&mut g, 9..10, &mut gate);

        assert_eq!((g.len(), g.stored_len()), (21, 9));
        g.validate().unwrap();
        assert_eq!(g.dram_read_bytes(), plain.dram_read_bytes());
        assert_eq!(g.total_mac_ops(), plain.total_mac_ops());
        assert_eq!(g.critical_path_len(), plain.critical_path_len());
        let expanded = g.expand();
        assert_eq!(expanded.stored_len(), 21);
        for ((a, b), c) in g.iter().zip(plain.iter()).zip(expanded.iter()) {
            assert_eq!(
                (a.id, a.label.to_string(), a.deps()),
                (b.id, b.label.to_string(), b.deps())
            );
            assert_eq!(
                (c.id, c.label.to_string(), c.deps()),
                (b.id, b.label.to_string(), b.deps())
            );
        }
        assert_eq!(*g.get(TaskId(14)).unwrap().label, "r6: mm");
        assert!(g.get(TaskId(21)).is_none());
    }

    #[test]
    fn repeat_refuses_periods_that_are_not_copies() {
        let fresh = || {
            let mut g = TaskGraph::new();
            g.add_task(
                "preload",
                Resource::DmaIn,
                TaskKind::DramLoad { bytes: 8 },
                &[],
            );
            g
        };
        // Different work in the second instance.
        let mut g = fresh();
        let mut gate = None;
        rounds(&mut g, 0..2, &mut gate);
        let start = g.next_id();
        g.add_task(
            Label::new("r{0}: load", [2]),
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 64 },
            &[],
        );
        g.add_task(
            Label::new("r{0}: mm", [2]),
            Resource::Mac { core: 0 },
            mm(8),
            &[TaskId(5), TaskId(0), gate.unwrap()],
        );
        assert_eq!(g.repeat(start, 3), None);
        // Another label template.
        let mut g = fresh();
        let mut gate = None;
        rounds(&mut g, 0..2, &mut gate);
        let start = g.next_id();
        g.add_task(
            Label::new("r{0}: Load", [2]),
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 64 },
            &[],
        );
        g.add_task(
            Label::new("r{0}: mm", [2]),
            Resource::Mac { core: 0 },
            mm(4),
            &[TaskId(5), TaskId(0), gate.unwrap()],
        );
        assert_eq!(g.repeat(start, 3), None);
        // A dependency two periods back.
        let mut g = fresh();
        let mut gate = None;
        rounds(&mut g, 0..3, &mut gate);
        let start = g.next_id();
        g.add_task(
            Label::new("r{0}: load", [3]),
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 64 },
            &[],
        );
        g.add_task(
            Label::new("r{0}: mm", [3]),
            Resource::Mac { core: 0 },
            mm(4),
            &[TaskId(7), TaskId(0), TaskId(2)],
        );
        assert_eq!(g.repeat(start, 3), None);
        // Nothing before the period to compare with.
        let mut g = fresh();
        rounds(&mut g, 0..1, &mut None);
        assert_eq!(g.repeat(TaskId(1), 3), None);
        assert_eq!(g.len(), 3);
        assert!(g.repeats.is_empty() && g.deltas.is_empty());
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
