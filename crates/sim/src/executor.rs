//! Event-driven list-scheduling executor.
//!
//! The executor assigns each task of a [`TaskGraph`] to its required
//! [`Resource`] as soon as (a) every dependency has finished and (b) the
//! resource is idle, breaking ties by program order (insertion order). This
//! mirrors how the paper's dataflows are issued on the device: each compute
//! unit processes its stream of tiled tasks in order, and the semi-synchronous
//! dependencies between the MAC and VEC streams are expressed as edges in the
//! graph.
//!
//! The result is a [`SimReport`] containing the makespan, energy breakdown,
//! DRAM traffic, per-resource busy time and MAC/VEC overlap.
//!
//! # Scheduling contract
//!
//! [`Executor::run`] keeps each of these, and every simulated cycle, energy
//! figure and trace in the repository depends on them:
//!
//! - **Start passes.** At each instant the executor visits the resources
//!   the graph uses in display-name order (`DMA-in`, `DMA-out`, `MAC0`, …,
//!   `VEC0`, …), starts at most one task per idle resource per pass, and
//!   repeats the pass until none starts. A zero-cycle task therefore frees
//!   its resource for the next pass at the same instant.
//! - **Ready order.** Each resource serves its ready tasks in ascending
//!   `(priority, program index)` order. A compute task's priority is its
//!   program index.
//! - **Demand-driven DMA.** A DMA task's priority is the program index of
//!   its earliest consumer, so transfers follow the compute streams. A
//!   transfer nothing depends on ranks after every consumed one, in program
//!   order.
//! - **Completions.** All tasks ending at the next completion instant are
//!   retired together, in `(end, program index)` order, before the next
//!   start pass.
//! - **Accounting.** Energy accumulates, and trace entries are recorded, in
//!   start order.
//!
//! The per-run state is dense: resources become slots numbered once, each
//! slot has a binary-heap ready queue, dependents are one CSR array, and
//! busy time is a `u64` per slot. Each start and each completion costs
//! `O(log n)` heap work for `n` tasks, and each start pass costs `O(r)` for
//! the `r` resources in use (at most `2 + 2·cores`), so a run costs
//! `O((n + e) + n log n + passes · r)` for `e` dependency edges. Dependency
//! ids are checked while the CSR table is built, and a cycle is found when
//! the schedule stalls, so the graph is not validated a second time; the
//! errors are still those of [`TaskGraph::validate`], reported before an
//! unknown core.
//!
//! # Track scheduling (continuous time)
//!
//! Alongside the cycle-level list scheduler, this module hosts the
//! continuous-time *track executor* used by the serve engine's
//! overlap-aware device model: [`DeviceTracks`], a set of per-queue clocks
//! ([`TrackKind`]: DMA-in, MAC, VEC, writeback) over which a launch's
//! per-tile stage demands are flow-shop scheduled. Its invariants:
//!
//! - **Ready rule.** Stage `k`'s work on track `t` starts no earlier than
//!   (a) the launch's ready time, (b) the completion of stage `k`'s work on
//!   track `t − 1` (dataflow order: a tile must be streamed in before it is
//!   multiplied, reduced before it is written back), and (c) the track's own
//!   clock.
//! - **Per-track FIFO.** Each track serializes the work placed on it in
//!   placement order; placements never reorder and never preempt. Spans on
//!   one track therefore never overlap, while spans on *different* tracks
//!   of the same device may — that is the overlap the scalar model forbids.
//! - **Overlap bound.** A placement's makespan is at least the largest
//!   single-track total (no queue can be beaten) and at most the sum of all
//!   stage durations (the fully serialized schedule); it is monotone in
//!   every stage duration. The degenerate fused single-track configuration
//!   reproduces the serialized upper bound, which is exactly the scalar
//!   `max`-bound service model — see [`TrackConfig::degenerate`].
//! - **Scalar clamp.** Callers compare the flow-shop completion against the
//!   scalar service model's completion and commit whichever is earlier
//!   ([`DeviceTracks::barrier`] re-serializes the clocks when the scalar
//!   candidate wins), so track-scheduled makespans are never worse than the
//!   scalar model's on any launch sequence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::HardwareConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{Result, SimError};
use crate::graph::TaskGraph;
use crate::report::SimReport;
use crate::task::{Resource, TaskId, TrackKind, TRACK_COUNT};
use crate::timing::TimingModel;
use crate::trace::{Trace, TraceEntry};

/// Simulates task graphs on a configured device.
#[derive(Debug, Clone)]
pub struct Executor {
    timing: TimingModel,
    energy: EnergyModel,
    record_trace: bool,
}

impl Executor {
    /// Creates an executor for the given hardware and energy model.
    #[must_use]
    pub fn new(hw: HardwareConfig, energy: EnergyModel) -> Self {
        Self {
            timing: TimingModel::new(hw),
            energy,
            record_trace: true,
        }
    }

    /// Creates an executor with the default edge device and energy model.
    #[must_use]
    pub fn edge_default() -> Self {
        Self::new(HardwareConfig::edge_default(), EnergyModel::edge_16nm())
    }

    /// Disables trace recording (saves memory for very large sweeps).
    #[must_use]
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// The hardware configuration used by this executor.
    #[must_use]
    pub fn hardware(&self) -> &HardwareConfig {
        self.timing.hardware()
    }

    /// The timing model used by this executor.
    #[must_use]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Runs a task graph to completion under the scheduling contract in the
    /// module docs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyGraph`] for an empty graph, graph validation
    /// errors ([`SimError::UnknownDependency`], [`SimError::CyclicGraph`])
    /// exactly as [`TaskGraph::validate`] reports them,
    /// [`SimError::UnknownResource`] if a task names a core the device does
    /// not have, or [`SimError::InvalidConfig`] for a bad configuration.
    pub fn run(&self, graph: &TaskGraph) -> Result<SimReport> {
        let hw = self.timing.hardware();
        hw.validate()?;
        if graph.is_empty() {
            return Err(SimError::EmptyGraph);
        }
        let n = graph.len();

        // Dependents in CSR form: `dependents[offsets[i]..offsets[i + 1]]`
        // lists the tasks waiting on task `i` in program order, once per
        // dependency edge (a repeated dependency is counted twice on both
        // sides). Dependency ids are checked while counting.
        let mut offsets = vec![0usize; n + 1];
        let mut unknown_core = None;
        let mut max_core = 0;
        for task in graph.iter() {
            for dep in &task.deps {
                if dep.index() >= n {
                    return Err(SimError::UnknownDependency {
                        task: task.id,
                        dependency: *dep,
                    });
                }
                offsets[dep.index() + 1] += 1;
            }
            if let Some(core) = task.resource.core() {
                if core >= hw.cores {
                    unknown_core.get_or_insert(task.resource);
                }
                max_core = max_core.max(core);
            }
        }
        if let Some(resource) = unknown_core {
            // A cycle is reported before an unknown core; only this error
            // path pays for a separate validation pass.
            graph.validate()?;
            return Err(SimError::UnknownResource {
                resource,
                cores: hw.cores,
            });
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut dependents = vec![0usize; offsets[n]];
        let mut cursor = offsets.clone();
        let mut remaining_deps = vec![0usize; n];
        for task in graph.iter() {
            let i = task.id.index();
            remaining_deps[i] = task.deps.len();
            for dep in &task.deps {
                dependents[cursor[dep.index()]] = i;
                cursor[dep.index()] += 1;
            }
        }
        let dependents_of = |i: usize| &dependents[offsets[i]..offsets[i + 1]];

        // Resources become dense slots in display-name order, the order
        // every start pass visits them. `dense` numbers every resource a
        // checked graph can name: DMA-in, DMA-out, then MAC and VEC per core.
        let dense = |resource: Resource| match resource {
            Resource::DmaIn => 0,
            Resource::DmaOut => 1,
            Resource::Mac { core } => 2 + 2 * core,
            Resource::Vec { core } => 3 + 2 * core,
        };
        let mut seen = vec![false; 4 + 2 * max_core];
        let mut resources = Vec::new();
        for task in graph.iter() {
            let d = dense(task.resource);
            if !seen[d] {
                seen[d] = true;
                resources.push(task.resource);
            }
        }
        resources.sort_by_cached_key(Resource::to_string);
        let mut slot_of = vec![0; seen.len()];
        for (slot, &resource) in resources.iter().enumerate() {
            slot_of[dense(resource)] = slot;
        }
        let slot: Vec<usize> = graph
            .iter()
            .map(|task| slot_of[dense(task.resource)])
            .collect();

        // Scheduling priority. Compute units issue their stream in program
        // order (the order the dataflow intends). DMA channels are
        // demand-driven: transfers whose consumer comes earliest in program
        // order are served first, which models double-buffered prefetching
        // that follows the compute streams instead of blindly following the
        // order requests were queued.
        let priority: Vec<usize> = graph
            .iter()
            .map(|task| {
                let i = task.id.index();
                match task.resource {
                    Resource::DmaIn | Resource::DmaOut => dependents_of(i)
                        .iter()
                        .copied()
                        .min()
                        .unwrap_or(usize::MAX - n + i),
                    _ => i,
                }
            })
            .collect();

        // Min-heaps: ready tasks per slot by (priority, program index), and
        // running tasks by (end cycle, program index).
        let mut ready: Vec<BinaryHeap<Reverse<(usize, usize)>>> =
            vec![BinaryHeap::new(); resources.len()];
        for (i, &deps) in remaining_deps.iter().enumerate() {
            if deps == 0 {
                ready[slot[i]].push(Reverse((priority[i], i)));
            }
        }
        let mut running: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut busy_until = vec![0u64; resources.len()];
        let mut busy_cycles = vec![0u64; resources.len()];
        let mut trace = Trace::new();
        let mut energy = EnergyBreakdown::zero();
        let mut completed = 0usize;
        let mut now: u64 = 0;
        let mut mac_intervals: Vec<(u64, u64)> = Vec::new();
        let mut vec_intervals: Vec<(u64, u64)> = Vec::new();

        while completed < n {
            // Start every task that can start at the current time: one per
            // idle slot per pass, until a pass starts nothing.
            let mut started_any = true;
            while started_any {
                started_any = false;
                for (s, queue) in ready.iter_mut().enumerate() {
                    if busy_until[s] > now {
                        continue;
                    }
                    let Some(Reverse((_, index))) = queue.pop() else {
                        continue;
                    };
                    let task = graph.get(TaskId(index)).expect("task exists");
                    let duration = self.timing.task_cycles(&task.kind);
                    let end = now + duration;
                    busy_until[s] = end;
                    busy_cycles[s] += duration;
                    running.push(Reverse((end, index)));
                    energy.accumulate(&self.energy.task_energy(
                        &task.kind,
                        hw.element_bytes,
                        hw.softmax_ops_per_element,
                    ));
                    if duration > 0 {
                        match task.resource {
                            Resource::Mac { .. } => mac_intervals.push((now, end)),
                            Resource::Vec { .. } => vec_intervals.push((now, end)),
                            _ => {}
                        }
                    }
                    if self.record_trace {
                        trace.push(TraceEntry {
                            task: task.id,
                            label: task.label.clone(),
                            resource: task.resource,
                            start_cycle: now,
                            end_cycle: end,
                        });
                    }
                    started_any = true;
                }
            }

            // Advance time to the next completion and retire every task
            // ending then before the next start pass.
            let Some(&Reverse((next_end, _))) = running.peek() else {
                // Nothing runs and nothing could start: every remaining
                // task waits, directly or not, on a dependency cycle.
                return Err(SimError::CyclicGraph {
                    unscheduled: n - completed,
                });
            };
            now = next_end;
            while let Some(&Reverse((end, index))) = running.peek() {
                if end > now {
                    break;
                }
                running.pop();
                completed += 1;
                for &waiting in dependents_of(index) {
                    remaining_deps[waiting] -= 1;
                    if remaining_deps[waiting] == 0 {
                        ready[slot[waiting]].push(Reverse((priority[waiting], waiting)));
                    }
                }
            }
        }

        let total_cycles = busy_until.iter().copied().max().unwrap_or(0);
        let overlap = interval_overlap(&mut mac_intervals, &mut vec_intervals);
        let busy_cycles = resources
            .iter()
            .zip(busy_cycles)
            .map(|(resource, cycles)| (resource.to_string(), cycles))
            .collect();

        Ok(SimReport {
            total_cycles,
            total_seconds: hw.cycles_to_seconds(total_cycles),
            energy,
            dram_read_bytes: graph.dram_read_bytes(),
            dram_write_bytes: graph.dram_write_bytes(),
            mac_ops: graph.total_mac_ops(),
            vec_ops: graph.total_vec_ops(hw.softmax_ops_per_element),
            busy_cycles,
            tasks_executed: n,
            mac_vec_overlap_cycles: overlap,
            trace: if self.record_trace { Some(trace) } else { None },
        })
    }
}

/// Computes the number of cycles covered by both interval sets (union of set A
/// intersected with union of set B).
fn interval_overlap(a: &mut [(u64, u64)], b: &mut [(u64, u64)]) -> u64 {
    let merged_a = merge_intervals(a);
    let merged_b = merge_intervals(b);
    let mut i = 0;
    let mut j = 0;
    let mut total = 0u64;
    while i < merged_a.len() && j < merged_b.len() {
        let (sa, ea) = merged_a[i];
        let (sb, eb) = merged_b[j];
        let start = sa.max(sb);
        let end = ea.min(eb);
        if end > start {
            total += end - start;
        }
        if ea < eb {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn merge_intervals(v: &mut [(u64, u64)]) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for &(s, e) in v.iter() {
        if let Some(last) = out.last_mut() {
            if s <= last.1 {
                last.1 = last.1.max(e);
                continue;
            }
        }
        out.push((s, e));
    }
    out
}

/// Configuration of the overlap-aware track executor: how a launch's
/// demand is tiled into pipeline stages and whether the per-queue tracks
/// are actually split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackConfig {
    /// Number of pipeline stages (tiles) a launch's demand is split into.
    /// More stages expose more cross-stage overlap (tile `k+1`'s DMA under
    /// tile `k`'s compute) at zero modeled cost; clamped to ≥ 1.
    pub stages: usize,
    /// Fuse all four queues into one serial track. With one fused track the
    /// flow-shop degenerates to the sum of all stage durations, which the
    /// scalar clamp then always beats — the bit-identical degenerate case
    /// the regression suite pins.
    pub fused_queue: bool,
}

impl TrackConfig {
    /// The degenerate single-track configuration: one stage, fused queues.
    /// Scheduling with this configuration commits exactly the scalar model's
    /// spans on every launch.
    #[must_use]
    pub fn degenerate() -> Self {
        Self {
            stages: 1,
            fused_queue: true,
        }
    }
}

impl Default for TrackConfig {
    /// Four pipeline stages over split queues: enough tiling to hide the
    /// issue/stream latencies without fragmenting the trace.
    fn default() -> Self {
        Self {
            stages: 4,
            fused_queue: false,
        }
    }
}

/// One scheduled stage span of a committed track placement, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpan {
    /// The queue the span occupies.
    pub track: TrackKind,
    /// Pipeline stage index, `0..stages`.
    pub stage: usize,
    /// Span start time (seconds).
    pub start_s: f64,
    /// Span end time (seconds).
    pub end_s: f64,
}

/// The flow-shop schedule of one launch over a device's tracks, produced by
/// [`DeviceTracks::plan`] and applied by [`DeviceTracks::commit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackPlacement {
    /// When the launch's first stage begins (≥ the launch ready time).
    pub start_s: f64,
    /// When the launch's last stage ends — the DAG makespan.
    pub completion_s: f64,
    /// Track clocks after the placement (what `commit` installs).
    clocks_after: [f64; TRACK_COUNT],
    /// Per-track busy seconds this placement adds.
    busy_added: [f64; TRACK_COUNT],
    /// Every non-empty stage span, in schedule order.
    pub stages: Vec<StageSpan>,
}

/// Per-device continuous-time track state: one FIFO clock per queue plus
/// busy accounting. See the module docs for the scheduling invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceTracks {
    /// Next-free time of each track (seconds).
    clocks: [f64; TRACK_COUNT],
    /// Cumulative busy seconds per track.
    busy_s: [f64; TRACK_COUNT],
    /// Launches committed through the flow-shop (overlap won the clamp).
    pub overlap_launches: u64,
    /// Launches committed through the scalar model (barrier'd).
    pub scalar_launches: u64,
}

impl Default for DeviceTracks {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceTracks {
    /// A device with all tracks idle at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            clocks: [0.0; TRACK_COUNT],
            busy_s: [0.0; TRACK_COUNT],
            overlap_launches: 0,
            scalar_launches: 0,
        }
    }

    /// The track clocks (next-free times), indexed by [`TrackKind::index`].
    #[must_use]
    pub fn clocks(&self) -> [f64; TRACK_COUNT] {
        self.clocks
    }

    /// Cumulative work seconds attributed to each track, indexed by
    /// [`TrackKind::index`]. Flow-shop-committed launches add their
    /// scheduled span durations ([`DeviceTracks::commit`]);
    /// scalar-committed launches add their demand profile's per-track
    /// seconds ([`DeviceTracks::attribute`]) — so the figure answers
    /// "which queue is this workload loading?" for *every* launch, and
    /// the busiest track exposes the memory-bound/compute-bound regime
    /// per queue regardless of which candidate won the clamp.
    #[must_use]
    pub fn busy_s(&self) -> [f64; TRACK_COUNT] {
        self.busy_s
    }

    /// Flow-shop schedules `stage_s` (per stage, per track, seconds) onto
    /// this device's tracks for a launch ready at `ready_s`, without
    /// mutating any state. Stage `k`'s span on track `t` starts at
    /// `max(track clock, ready, completion of stage k on track t−1)` —
    /// with `fused` queues every span instead chains on one serial clock.
    /// Returns the placement; apply it with [`DeviceTracks::commit`].
    #[must_use]
    pub fn plan(
        &self,
        ready_s: f64,
        stage_s: &[[f64; TRACK_COUNT]],
        fused: bool,
    ) -> TrackPlacement {
        let mut clocks = self.clocks;
        if fused {
            // One serial queue: collapse the clocks to their max once, then
            // chain every span on track 0's clock.
            let serial = clocks.iter().copied().fold(0.0f64, f64::max);
            clocks = [serial; TRACK_COUNT];
        }
        let mut busy_added = [0.0; TRACK_COUNT];
        let mut stages = Vec::new();
        let mut start_s = f64::INFINITY;
        let mut completion_s = ready_s;
        for (k, durs) in stage_s.iter().enumerate() {
            // The dataflow dependency: this stage's span on track t waits
            // for its own span on track t-1 (stream → mac → vec → write).
            let mut dep_done = ready_s;
            for t in 0..TRACK_COUNT {
                let d = durs[t];
                if d <= 0.0 {
                    // No span to place; the dependency time passes through
                    // so e.g. a vec-free stage chains mac → writeback
                    // directly.
                    continue;
                }
                let track = if fused { 0 } else { t };
                let s = clocks[track].max(dep_done);
                let e = s + d;
                clocks[track] = e;
                if fused {
                    clocks = [e; TRACK_COUNT];
                }
                busy_added[t] += d;
                start_s = start_s.min(s);
                completion_s = completion_s.max(e);
                dep_done = e;
                stages.push(StageSpan {
                    track: TrackKind::ALL[t],
                    stage: k,
                    start_s: s,
                    end_s: e,
                });
            }
        }
        if !start_s.is_finite() {
            // All-empty demand: a zero-length span at the ready point.
            start_s = ready_s;
        }
        TrackPlacement {
            start_s,
            completion_s,
            clocks_after: clocks,
            busy_added,
            stages,
        }
    }

    /// Applies a placement produced by [`DeviceTracks::plan`]: installs the
    /// post-placement clocks and accounts the busy time.
    pub fn commit(&mut self, placement: &TrackPlacement) {
        self.clocks = placement.clocks_after;
        for t in 0..TRACK_COUNT {
            self.busy_s[t] += placement.busy_added[t];
        }
        self.overlap_launches += 1;
    }

    /// Re-serializes the device behind a scalar-model commitment: every
    /// track is busy until `until_s` (a launch scheduled by the scalar
    /// model occupies the whole device), so no later overlap placement can
    /// start under it.
    pub fn barrier(&mut self, until_s: f64) {
        for c in &mut self.clocks {
            *c = c.max(until_s);
        }
        self.scalar_launches += 1;
    }

    /// Accounts a scalar-committed launch's per-track demand seconds
    /// without occupying any clock. The launch ran under the whole-device
    /// scalar model ([`DeviceTracks::barrier`]), but its work still
    /// belongs to specific queues for utilization attribution
    /// ([`DeviceTracks::busy_s`]).
    pub fn attribute(&mut self, seconds: [f64; TRACK_COUNT]) {
        for (busy, s) in self.busy_s.iter_mut().zip(seconds) {
            *busy += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;

    fn executor() -> Executor {
        Executor::new(HardwareConfig::edge_default(), EnergyModel::edge_16nm())
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = TaskGraph::new();
        assert!(matches!(executor().run(&g), Err(SimError::EmptyGraph)));
    }

    #[test]
    fn single_task_makespan_matches_timing_model() {
        let mut g = TaskGraph::new();
        let kind = TaskKind::MatMul {
            m: 64,
            k: 64,
            n: 64,
        };
        g.add_task("mm", Resource::Mac { core: 0 }, kind, &[]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        assert_eq!(report.total_cycles, exec.timing().task_cycles(&kind));
        assert_eq!(report.tasks_executed, 1);
        assert!(report.total_seconds > 0.0);
    }

    #[test]
    fn independent_tasks_on_different_resources_overlap() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 64,
            k: 512,
            n: 64,
        };
        let sm = TaskKind::Softmax {
            rows: 64,
            cols: 512,
        };
        g.add_task("mm", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("sm", Resource::Vec { core: 0 }, sm, &[]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        let mm_cycles = exec.timing().task_cycles(&mm);
        let sm_cycles = exec.timing().task_cycles(&sm);
        assert_eq!(report.total_cycles, mm_cycles.max(sm_cycles));
        assert_eq!(report.mac_vec_overlap_cycles, mm_cycles.min(sm_cycles));
    }

    #[test]
    fn dependent_tasks_serialize() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 64,
            k: 512,
            n: 64,
        };
        let sm = TaskKind::Softmax {
            rows: 64,
            cols: 512,
        };
        let a = g.add_task("mm", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("sm", Resource::Vec { core: 0 }, sm, &[a]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        let expected = exec.timing().task_cycles(&mm) + exec.timing().task_cycles(&sm);
        assert_eq!(report.total_cycles, expected);
        assert_eq!(report.mac_vec_overlap_cycles, 0);
    }

    #[test]
    fn same_resource_tasks_serialize_even_without_deps() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 64,
            k: 64,
            n: 64,
        };
        g.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("b", Resource::Mac { core: 0 }, mm, &[]);
        let exec = executor();
        let report = exec.run(&g).unwrap();
        assert_eq!(report.total_cycles, 2 * exec.timing().task_cycles(&mm));
    }

    #[test]
    fn two_cores_double_throughput() {
        let mm = TaskKind::MatMul {
            m: 64,
            k: 64,
            n: 64,
        };
        let mut one_core = TaskGraph::new();
        one_core.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        one_core.add_task("b", Resource::Mac { core: 0 }, mm, &[]);
        let mut two_cores = TaskGraph::new();
        two_cores.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        two_cores.add_task("b", Resource::Mac { core: 1 }, mm, &[]);
        let exec = executor();
        let serial = exec.run(&one_core).unwrap();
        let parallel = exec.run(&two_cores).unwrap();
        assert_eq!(serial.total_cycles, 2 * parallel.total_cycles);
    }

    #[test]
    fn unknown_core_is_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(
            "mm",
            Resource::Mac { core: 9 },
            TaskKind::MatMul { m: 1, k: 1, n: 1 },
            &[],
        );
        assert!(matches!(
            executor().run(&g),
            Err(SimError::UnknownResource { .. })
        ));
    }

    #[test]
    fn unknown_dependency_is_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(
            "a",
            Resource::Mac { core: 0 },
            TaskKind::MatMul { m: 1, k: 1, n: 1 },
            &[],
        );
        g.add_task(
            "b",
            Resource::Vec { core: 0 },
            TaskKind::Barrier,
            &[TaskId(5)],
        );
        assert_eq!(
            executor().run(&g).unwrap_err(),
            SimError::UnknownDependency {
                task: TaskId(1),
                dependency: TaskId(5),
            }
        );
    }

    #[test]
    fn cycle_reports_every_task_it_blocks() {
        // `a` and `e` run; `b` and `c` wait on each other and `d` on `c`.
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul { m: 4, k: 4, n: 4 };
        let a = g.add_task("a", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("b", Resource::Mac { core: 0 }, mm, &[TaskId(2)]);
        g.add_task(
            "c",
            Resource::Vec { core: 0 },
            TaskKind::Barrier,
            &[TaskId(1)],
        );
        g.add_task(
            "d",
            Resource::DmaOut,
            TaskKind::DramStore { bytes: 64 },
            &[TaskId(2)],
        );
        g.add_task("e", Resource::DmaIn, TaskKind::DramLoad { bytes: 64 }, &[a]);
        let err = executor().run(&g).unwrap_err();
        assert_eq!(err, SimError::CyclicGraph { unscheduled: 3 });
        assert_eq!(g.validate().unwrap_err(), err);
    }

    #[test]
    fn graph_errors_precede_an_unknown_core() {
        let far = Resource::Mac { core: 9 };
        let mm = TaskKind::MatMul { m: 1, k: 1, n: 1 };
        let mut dangling = TaskGraph::new();
        dangling.add_task("far", far, mm, &[]);
        dangling.add_task(
            "x",
            Resource::Vec { core: 0 },
            TaskKind::Barrier,
            &[TaskId(7)],
        );
        assert_eq!(
            executor().run(&dangling).unwrap_err(),
            SimError::UnknownDependency {
                task: TaskId(1),
                dependency: TaskId(7),
            }
        );
        let mut cyclic = TaskGraph::new();
        cyclic.add_task("far", far, mm, &[]);
        cyclic.add_task(
            "x",
            Resource::Vec { core: 0 },
            TaskKind::Barrier,
            &[TaskId(2)],
        );
        cyclic.add_task(
            "y",
            Resource::Vec { core: 0 },
            TaskKind::Barrier,
            &[TaskId(1)],
        );
        assert_eq!(
            executor().run(&cyclic).unwrap_err(),
            SimError::CyclicGraph { unscheduled: 2 }
        );
    }

    #[test]
    fn dram_traffic_and_energy_are_reported() {
        let mut g = TaskGraph::new();
        let ld = g.add_task(
            "ld",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 4096 },
            &[],
        );
        let mm = g.add_task(
            "mm",
            Resource::Mac { core: 0 },
            TaskKind::MatMul {
                m: 16,
                k: 16,
                n: 16,
            },
            &[ld],
        );
        g.add_task(
            "st",
            Resource::DmaOut,
            TaskKind::DramStore { bytes: 512 },
            &[mm],
        );
        let report = executor().run(&g).unwrap();
        assert_eq!(report.dram_read_bytes, 4096);
        assert_eq!(report.dram_write_bytes, 512);
        assert!(report.energy.dram_pj > 0.0);
        assert!(report.energy.mac_pe_pj > 0.0);
        assert_eq!(report.mac_ops, 16 * 16 * 16);
    }

    #[test]
    fn trace_can_be_disabled() {
        let mut g = TaskGraph::new();
        g.add_task(
            "mm",
            Resource::Mac { core: 0 },
            TaskKind::MatMul { m: 4, k: 4, n: 4 },
            &[],
        );
        let with = executor().run(&g).unwrap();
        let without = executor().without_trace().run(&g).unwrap();
        assert!(with.trace.is_some());
        assert!(without.trace.is_none());
        assert_eq!(with.total_cycles, without.total_cycles);
    }

    #[test]
    fn program_order_breaks_ties_on_a_resource() {
        let mut g = TaskGraph::new();
        let mm = TaskKind::MatMul {
            m: 16,
            k: 16,
            n: 16,
        };
        g.add_task("first", Resource::Mac { core: 0 }, mm, &[]);
        g.add_task("second", Resource::Mac { core: 0 }, mm, &[]);
        let report = executor().run(&g).unwrap();
        let trace = report.trace.unwrap();
        let entries = trace.on_resource(Resource::Mac { core: 0 });
        assert_eq!(entries[0].label, "first");
        assert_eq!(entries[1].label, "second");
    }

    #[test]
    fn interval_overlap_helper() {
        let mut a = vec![(0u64, 10u64), (20, 30)];
        let mut b = vec![(5u64, 25u64)];
        assert_eq!(interval_overlap(&mut a, &mut b), 10);
        let mut c = vec![(0u64, 5u64), (3, 8)];
        let mut d = vec![(0u64, 8u64)];
        assert_eq!(interval_overlap(&mut c, &mut d), 8);
    }

    // ---- track executor ----

    /// Two equal stages: [dma 1s, mac 1s, vec 0, wb 1s] each.
    fn two_stage_demo() -> Vec<[f64; TRACK_COUNT]> {
        vec![[1.0, 1.0, 0.0, 1.0]; 2]
    }

    #[test]
    fn flow_shop_overlaps_successive_stages() {
        let dev = DeviceTracks::new();
        let p = dev.plan(0.0, &two_stage_demo(), false);
        // Stage 0: dma 0-1, mac 1-2, wb 2-3. Stage 1: dma 1-2 (hides under
        // stage 0's mac), mac 2-3, wb 3-4. Serial would be 6.
        assert_eq!(p.start_s, 0.0);
        assert_eq!(p.completion_s, 4.0);
        assert_eq!(p.stages.len(), 6);
        let dma1 = p
            .stages
            .iter()
            .find(|s| s.track == TrackKind::DmaIn && s.stage == 1)
            .unwrap();
        assert_eq!((dma1.start_s, dma1.end_s), (1.0, 2.0));
    }

    #[test]
    fn fused_queue_serializes_to_the_sum() {
        let dev = DeviceTracks::new();
        let p = dev.plan(0.5, &two_stage_demo(), true);
        assert_eq!(p.start_s, 0.5);
        assert_eq!(p.completion_s, 0.5 + 6.0);
        // Spans keep their logical track attribution but chain serially:
        // each starts exactly where the previous one ended.
        for pair in p.stages.windows(2) {
            assert_eq!(pair[1].start_s, pair[0].end_s);
        }
    }

    #[test]
    fn placement_bounds_and_monotonicity() {
        let dev = DeviceTracks::new();
        let stages = vec![[3.0, 2.0, 1.0, 0.5], [1.0, 4.0, 0.0, 0.25]];
        let p = dev.plan(0.0, &stages, false);
        let per_track: Vec<f64> = (0..TRACK_COUNT)
            .map(|t| stages.iter().map(|s| s[t]).sum())
            .collect();
        let max_track = per_track.iter().copied().fold(0.0f64, f64::max);
        let total: f64 = per_track.iter().sum();
        assert!(p.completion_s >= max_track);
        assert!(p.completion_s <= total);
        // Growing any one duration never shrinks the makespan.
        for k in 0..stages.len() {
            for t in 0..TRACK_COUNT {
                let mut grown = stages.clone();
                grown[k][t] += 0.5;
                assert!(dev.plan(0.0, &grown, false).completion_s >= p.completion_s);
            }
        }
    }

    #[test]
    fn commit_installs_clocks_and_busy_time() {
        let mut dev = DeviceTracks::new();
        let p = dev.plan(0.0, &two_stage_demo(), false);
        dev.commit(&p);
        assert_eq!(dev.overlap_launches, 1);
        let busy = dev.busy_s();
        assert_eq!(busy[TrackKind::DmaIn.index()], 2.0);
        assert_eq!(busy[TrackKind::Mac.index()], 2.0);
        assert_eq!(busy[TrackKind::Vec.index()], 0.0);
        assert_eq!(busy[TrackKind::Writeback.index()], 2.0);
        // The next launch's DMA can start at the dma clock (2.0), well
        // before the previous completion (4.0) — cross-launch overlap.
        assert_eq!(dev.clocks()[TrackKind::DmaIn.index()], 2.0);
        let next = dev.plan(0.0, &two_stage_demo(), false);
        assert!(next.start_s < p.completion_s);
    }

    #[test]
    fn barrier_serializes_all_tracks() {
        let mut dev = DeviceTracks::new();
        dev.barrier(7.0);
        assert_eq!(dev.scalar_launches, 1);
        assert!(dev.clocks().iter().all(|&c| c == 7.0));
        let p = dev.plan(0.0, &two_stage_demo(), false);
        assert_eq!(p.start_s, 7.0);
    }

    #[test]
    fn empty_demand_places_a_zero_span_at_ready() {
        let dev = DeviceTracks::new();
        let p = dev.plan(3.0, &[[0.0; TRACK_COUNT]], false);
        assert_eq!(p.start_s, 3.0);
        assert_eq!(p.completion_s, 3.0);
        assert!(p.stages.is_empty());
    }

    #[test]
    fn track_recurrence_matches_the_cycle_executor() {
        // The continuous-time flow-shop and the event-driven cycle-level
        // list scheduler agree exactly on a stage pipeline when issue and
        // fill/drain overheads are zeroed (the continuous model prices
        // those separately).
        let mut hw = HardwareConfig::tiny_test();
        hw.issue_overhead_cycles = 0;
        hw.mac_fill_drain_cycles = 0;
        let bpc = hw.dram_bytes_per_cycle() as usize;
        // Per-stage durations in whole cycles; tiny_test has a 4×4 MAC
        // array and 8 VEC lanes, so construct kinds with exact cycle costs.
        let stage_cycles: [[usize; TRACK_COUNT]; 3] = [[6, 9, 2, 3], [4, 12, 1, 2], [8, 3, 5, 1]];
        let stages: Vec<[Option<TaskKind>; TRACK_COUNT]> = stage_cycles
            .iter()
            .map(|cyc| {
                [
                    Some(TaskKind::DramLoad {
                        bytes: cyc[0] * bpc,
                    }),
                    Some(TaskKind::MatMul {
                        m: 4,
                        k: cyc[1],
                        n: 4,
                    }),
                    Some(TaskKind::VecOp {
                        elements: cyc[2] * 8,
                        passes: 1,
                    }),
                    Some(TaskKind::DramStore {
                        bytes: cyc[3] * bpc,
                    }),
                ]
            })
            .collect();
        let mut g = TaskGraph::new();
        let ids = g.stage_pipeline("pipe", &stages);
        assert_eq!(ids.len(), 3 * TRACK_COUNT);
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let report = exec.run(&g).unwrap();
        // The closed-form flow-shop recurrence agrees with the event-driven
        // list scheduler on the lowered graph...
        assert_eq!(
            report.total_cycles,
            exec.timing().pipeline_makespan_cycles(&stages)
        );
        // ...and the continuous-time planner agrees with both.
        let stage_s: Vec<[f64; TRACK_COUNT]> = stage_cycles
            .iter()
            .map(|cyc| {
                let mut s = [0.0; TRACK_COUNT];
                for t in 0..TRACK_COUNT {
                    s[t] = hw.cycles_to_seconds(cyc[t] as u64);
                }
                s
            })
            .collect();
        let p = DeviceTracks::new().plan(0.0, &stage_s, false);
        let expect_cycles = (p.completion_s * hw.frequency_hz).round() as u64;
        assert_eq!(report.total_cycles, expect_cycles);
    }
}
