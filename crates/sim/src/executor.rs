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
//! # Reading the stored form
//!
//! A graph stores each repeated period once ([`TaskGraph::repeat`]), and a
//! run reads it in that form. Resources become slots numbered once, each
//! slot has a binary-heap ready queue keyed by one word (priority, then
//! program index), and busy time is a `u64` per slot. The graph stores each
//! distinct resource and kind once, so a run prices each of them once: a
//! start reads its cycles and energy from a small table. Dependents are
//! inverted from the stored dependency array, one row per stored task:
//!
//! - a plain task's row lists its dependents' program indices, in program
//!   order; the instances of a template task that wait on it as a fixed
//!   dependency (a resident `K`/`V` preload, say) are one arithmetic span;
//! - a template task's row lists how far after it each dependent lies,
//!   the same for every instance, valid while that stays inside its
//!   repeat; the few tasks added after a repeat that wait on one of its
//!   instances are listed apart.
//!
//! A graph with no repeats gets the per-task rows of a plain CSR inversion,
//! indexed by program index: read through the stored-form path above, a
//! repeat-free graph simulates ~10–20% slower. What a run still keeps per
//! task, instance or not, is its dependency count and its end cycle. A
//! template task with no dependencies has every instance ready from the
//! start; only its next instance waits in the ready queue, and starting it
//! readies the one after. Each
//! start and each completion costs `O(log n)` heap work for `n` tasks, and
//! each start pass costs `O(r)` for the `r` resources in use (at most
//! `2 + 2·cores`). The per-run arrays are kept per thread and reused by the
//! next run.
//!
//! The executor does not call [`TaskGraph::validate`]. A repeat's
//! dependencies were checked when it was made (they point backwards and
//! name existing tasks); the plain tasks' dependency ids are checked while
//! the rows are built, and a cycle is found when the schedule stalls. The
//! errors are still exactly those `validate` reports, and come before an
//! unknown core; only a graph naming an unknown core pays for a `validate`
//! call, to rank a cycle first.
//!
//! # Steady-state fast-forward
//!
//! Once a schedule settles, each period of it is the previous one shifted
//! by `P` cycles and `S` tasks. [`Executor::run`] notices this and replays
//! such periods instead of simulating them. Its results do not change:
//! every report field, every energy bit and every trace entry equals
//! event-by-event simulation of the expanded graph ([`TaskGraph::expand`]),
//! traced or not, and there is nothing to turn on or off. Only instances of
//! a repeated period are ever skipped, so a graph with no repeats is
//! simulated event by event and never looked at.
//!
//! - **Looks.** The executor looks only where a skip can begin: at the
//!   first visit of an instant at which the lowest incomplete task (`lo`)
//!   has entered a new instance of a repeat. A look hashes the running
//!   tasks as `(end − now, index − lo)` and the ready-queue lengths, and
//!   keeps the state in a map keyed by that hash until the next skip or
//!   until `lo` leaves the repeat. A repeat-free graph is never looked at.
//! - **The repeat rule.** When a look `B` hashes like an earlier `A`, with
//!   `P = now_B − now_A` and `S = lo_B − lo_A`, the executor checks that `B`
//!   is `A` shifted. The tasks running at `B` ran at `A`, `S` lower, with
//!   as long to go. Every task the period started is an instance of a
//!   repeat whose period divides `S`, and every fixed dependency of that
//!   repeat was complete at `A`. Each ready task was ready at `A`, `S`
//!   lower, or was ready at `A` itself and outranks everything the skipped
//!   periods pop on its slot. The instances of each template task start in
//!   order (the executor tracks the next one to start, and stops looking
//!   for good if any starts out of turn), so a repeat's state is which
//!   instance of each template task starts next plus the running tasks:
//!   the state at `B` is the state at `A` shifted wherever each template
//!   task started `S / len` instances in the period.
//! - **How far.** The skip covers `m` whole periods: as long as the tasks
//!   the periods reach stay before their repeat's end, before the first
//!   instance a task added after the repeat waits on, before the first
//!   instance of a template task that did not start `S / len` instances
//!   in the period (a transfer prefetched far ahead, say), and below every
//!   ready task that does not move with the period.
//! - **What a skip does.** The running tasks and the ready tasks that move
//!   with the period are shifted `m·P` cycles and `m·S` tasks on. Each
//!   repeat's tasks below its new lowest incomplete task are complete (a
//!   range of tasks no end cycle is written for), and only the window
//!   above, up to what the period reaches, takes the end cycles and
//!   dependency counts of the tasks `m` periods before it. Busy cycles add
//!   `m` times the period's, and the MAC/VEC overlap adds `m` times the
//!   period's. What a skip still does per skipped task is add its energy,
//!   in start order, so every `f64` sum is bit-identical, and record its
//!   trace entry on a traced run.
//! - **Cost.** A look costs a hash and a map lookup per instance of a
//!   repeat; checking a repeat costs the period's starts and the ready
//!   tasks, and a skip the window plus one energy sum per skipped task.
//!   A graph whose state never repeats is simulated event by event.
//!
//! # Streams
//!
//! A template task with no dependencies is a stream, like the query rows
//! the DMA prefetches: every instance is ready from the start, and only
//! the next one waits in its slot's queue. While the task that ends next
//! is an instance of a stream, ends alone, readies nothing and is followed
//! at the head of its slot's queue by the stream's next instance, the
//! executor starts that instance at once. No other slot can start a task
//! before the next other task ends, so a start pass would start exactly
//! that one. Such a stretch still costs, per task, its dependents' counts,
//! its end cycle, its energy (in start order) and its trace entry, but no
//! start pass and no heap work. It stops at the first end that readies a
//! task, before the next end of any other task, and before an instance
//! that another task ready on the slot outranks. A stretch does not need
//! the schedule to repeat: the naive MAS-Attention graphs stream every
//! query row before their schedules settle.
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

use std::cell::Cell;
use std::cmp::Reverse;

use std::collections::{BinaryHeap, HashMap};

use crate::config::HardwareConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::error::{Result, SimError};
use crate::graph::{At, TaskGraph, Work};
use crate::report::SimReport;
use crate::task::{Resource, TaskId, TaskKind, TrackKind, TRACK_COUNT};
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
    /// not have, or [`SimError::InvalidConfig`] for a bad configuration or a
    /// graph of 2³¹ tasks or more.
    pub fn run(&self, graph: &TaskGraph) -> Result<SimReport> {
        self.simulate(graph).map(|(report, _)| report)
    }

    /// [`Executor::run`], also returning how many tasks the event loop
    /// started through its start passes; the steady-state fast-forward
    /// skipped the others, or a stream's stretch started them (module
    /// docs). The report is the one [`Executor::run`] returns.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn simulate(&self, graph: &TaskGraph) -> Result<(SimReport, usize)> {
        let hw = self.timing.hardware();
        hw.validate()?;
        if graph.is_empty() {
            return Err(SimError::EmptyGraph);
        }
        let n = graph.len();
        // Task indices are kept in 32 bits, and priorities below `2n`.
        if n > (u32::MAX >> 1) as usize {
            return Err(SimError::InvalidConfig {
                reason: format!("{n} tasks exceed the executor's 31-bit task index"),
            });
        }

        // Each distinct work's cost: its slot once the slots are numbered,
        // its cycles and its energy, computed once per run.
        let works = graph.works();
        let ids = graph.work_ids();
        let mut costs: Vec<Cost> = works
            .iter()
            .map(|w| Cost {
                resource: w.resource,
                slot: 0,
                dma: !w.resource.is_compute(),
                cycles: self.timing.task_cycles(&w.kind),
                energy: self.energy.task_energy(
                    &w.kind,
                    hw.element_bytes,
                    hw.softmax_ops_per_element,
                ),
            })
            .collect();

        // Dependents are read from the stored form (`Links`); dependency
        // ids are checked while it is built. Each work's tasks are counted
        // for the report's traffic and operation totals.
        let mut spare = SPARE.take();
        let links = Links::new(graph, &mut spare)?;
        let Arrays {
            remaining_deps,
            mut end_at,
            mut next_of,
            mut order,
            ..
        } = spare;
        let mut uses = vec![0u64; works.len()];
        graph.for_each_stored(|s, _, repeat| {
            uses[ids[s] as usize] += repeat.map_or(1, |r| r.count) as u64;
        });
        let unknown = |w: &Work| w.resource.core().is_some_and(|core| core >= hw.cores);
        if works.iter().any(unknown) {
            // A cycle is reported before an unknown core, which is the
            // first one in program order; only this error path pays for a
            // separate validation pass.
            graph.validate()?;
            let first = ids
                .iter()
                .find(|&&w| unknown(&works[w as usize]))
                .expect("a task has the work");
            return Err(SimError::UnknownResource {
                resource: works[*first as usize].resource,
                cores: hw.cores,
            });
        }
        let total = |f: &dyn Fn(&TaskKind) -> u64| -> u64 {
            works.iter().zip(&uses).map(|(w, &u)| u * f(&w.kind)).sum()
        };

        // Resources become slots in display-name order, the order every
        // start pass visits them.
        let mut resources: Vec<Resource> = Vec::new();
        for (w, &u) in works.iter().zip(&uses) {
            if u > 0 && !resources.contains(&w.resource) {
                resources.push(w.resource);
            }
        }
        resources.sort_by_cached_key(Resource::to_string);
        for cost in &mut costs {
            cost.slot = resources
                .iter()
                .position(|&r| r == cost.resource)
                .unwrap_or(0);
        }

        end_at.clear();
        end_at.resize(n, u64::MAX);
        next_of.clear();
        order.clear();
        if !links.meta.is_empty() {
            next_of.resize(graph.stored_len(), 0);
            graph.for_each_stored(|s, first, repeat| {
                if repeat.is_some() {
                    next_of[s] = first as u32;
                }
            });
        }
        let mut run = Run {
            links: &links,
            work: ids,
            stored_of: &links.stored_of,
            remaining_deps,
            costs,
            ready: vec![BinaryHeap::new(); resources.len()],
            running: BinaryHeap::new(),
            busy_until: vec![0; resources.len()],
            busy_cycles: vec![0; resources.len()],
            trace: self.record_trace.then(|| Trace::with_capacity(n)),
            energy: EnergyBreakdown::zero(),
            mac_spans: Vec::new(),
            vec_spans: Vec::new(),
            overlap_before: 0,
            completed: 0,
            now: 0,
            end_at,
            next_of,
            ordered: true,
            started: 0,
            order,
            order_base: 0,
            lo: 0,
            look_at: graph.repeats().first().map_or(usize::MAX, |r| r.first),
            done: Vec::new(),
            marks: HashMap::new(),
            marks_in: usize::MAX,
            replayed: 0,
            stretched: 0,
        };
        // A template task with no dependencies readies its chained
        // instances one at a time (`Meta::chain_end`).
        graph.for_each_stored(|s, first, repeat| {
            if graph.stored_deps(s).is_empty() {
                let (count, step) = repeat.map_or((1, 0), |r| (r.count, r.len));
                let chain_end = links.meta.get(s).map_or(0, |m| m.chain_end as usize);
                for k in 0..count {
                    let x = first + k * step;
                    if k == 0 || x >= chain_end {
                        run.make_ready(x);
                    }
                }
            }
        });
        run.event_loop()?;

        let total_cycles = run.busy_until.iter().copied().max().unwrap_or(0);
        let busy_cycles = resources
            .iter()
            .zip(&run.busy_cycles)
            .map(|(resource, &cycles)| (resource.to_string(), cycles))
            .collect();
        let report = SimReport {
            total_cycles,
            total_seconds: hw.cycles_to_seconds(total_cycles),
            energy: run.energy,
            dram_read_bytes: total(&TaskKind::dram_read_bytes),
            dram_write_bytes: total(&TaskKind::dram_write_bytes),
            mac_ops: total(&TaskKind::mac_ops),
            vec_ops: total(&|kind| kind.vec_ops(hw.softmax_ops_per_element)),
            busy_cycles,
            tasks_executed: n,
            mac_vec_overlap_cycles: run.overlap_before + overlap(&run.mac_spans, &run.vec_spans),
            trace: run.trace.take(),
        };
        let loop_starts = n - run.replayed - run.stretched;
        let (remaining_deps, end_at, next_of, order) =
            (run.remaining_deps, run.end_at, run.next_of, run.order);
        SPARE.set(links.into_arrays(remaining_deps, end_at, next_of, order));
        Ok((report, loop_starts))
    }
}

/// The per-task and per-stored-task arrays of a run. Each thread keeps its
/// last run's arrays for its next run, so a sweep of runs reuses their
/// memory instead of faulting in fresh pages for every graph.
#[derive(Debug, Default)]
struct Arrays {
    stored_of: Vec<u32>,
    offsets: Vec<usize>,
    dependents: Vec<u32>,
    meta: Vec<Meta>,
    remaining_deps: Vec<u32>,
    end_at: Vec<u64>,
    next_of: Vec<u32>,
    order: Vec<u32>,
}

/// What starting a task of one work costs: the slot it occupies, whether
/// that slot is a DMA channel, and its cycles and energy.
#[derive(Debug, Clone, Copy)]
struct Cost {
    resource: Resource,
    slot: usize,
    dma: bool,
    cycles: u64,
    energy: EnergyBreakdown,
}

thread_local! {
    static SPARE: Cell<Arrays> = Cell::new(Arrays::default());
}

/// Every instance of a template task that waits on the same fixed task:
/// instances `first`, `first + step`, … (`count` of them).
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The stored index of the fixed task they wait on.
    target: usize,
    first: usize,
    count: usize,
    step: usize,
}

/// A graph's dependency structure as a run reads it, built from the stored
/// form ([`TaskGraph`]): a stored task's dependents are listed once, however
/// many instances it has.
///
/// - A plain task's row lists its dependents' program indices; the
///   instances of a template task that wait on it as a fixed dependency
///   are one [`Span`].
/// - A template task's row lists how far after it each dependent lies
///   (the same for every instance), valid while that stays inside its
///   repeat; tasks added after the repeat that wait on a particular
///   instance are `extras`.
struct Links<'g> {
    graph: &'g TaskGraph,
    /// Each task's stored index; empty for a graph with no repeats, where
    /// it is the program index.
    stored_of: Vec<u32>,
    offsets: Vec<usize>,
    dependents: Vec<u32>,
    meta: Vec<Meta>,
    /// Sorted by target.
    spans: Vec<Span>,
    /// `(instance, dependent)` pairs, sorted.
    extras: Vec<(usize, usize)>,
    /// `(repeat, task)` pairs, sorted and distinct: the fixed tasks each
    /// repeat's template waits on, by program index.
    fixed: Vec<(usize, usize)>,
}

/// What a run reads of a stored task besides its row; a graph with no
/// repeats has none.
#[derive(Debug, Clone, Copy, Default)]
struct Meta {
    /// For a template task, one past its repeat's last task; 0 for a
    /// plain task.
    bound: u32,
    /// For a template task, its repeat's period length; 0 for a plain
    /// task.
    len: u32,
    /// For a template task with no dependencies, one past its last
    /// instance whose priority follows the instance before it: starting
    /// one of these readies the next (the others are readied up front).
    /// Every instance is then ready from the start, and the ready queue
    /// pops them in order either way, so only the first waits in it.
    chain_end: u32,
    /// Whether spans (of a plain task) or extras (of a template task's
    /// instances) list more dependents.
    more: bool,
}

impl<'g> Links<'g> {
    /// Builds the links of `graph` in the arrays of `spare`, and each
    /// task's dependency count in `spare.remaining_deps`, or reports the
    /// first dependency, in program order, that names no task.
    fn new(graph: &'g TaskGraph, spare: &mut Arrays) -> Result<Self> {
        let m = graph.stored_len();
        let repeats = graph.repeats();
        let mut stored_of = std::mem::take(&mut spare.stored_of);
        let counts = &mut spare.remaining_deps;
        stored_of.clear();
        counts.clear();
        let mut s = 0;
        for r in repeats {
            stored_of.extend(s as u32..r.stored as u32);
            counts.extend(graph.deps_counts(s..r.stored));
            for _ in 0..r.count {
                stored_of.extend(r.stored as u32..(r.stored + r.len) as u32);
                counts.extend(graph.deps_counts(r.stored..r.stored + r.len));
            }
            s = r.stored + r.len;
        }
        counts.extend(graph.deps_counts(s..m));
        if repeats.is_empty() {
            return Self::plain(graph, spare, stored_of);
        }
        stored_of.extend(s as u32..m as u32);
        // Row `t`'s entries are counted at `offsets[t + 2]`; after the
        // prefix sum `offsets[t + 1]` is the row's start, and filling moves
        // it to the row's end, so rows list dependents in program order of
        // their first instances.
        let mut offsets = std::mem::take(&mut spare.offsets);
        offsets.clear();
        offsets.resize(m + 2, 0);
        let mut meta = std::mem::take(&mut spare.meta);
        meta.clear();
        meta.resize(m, Meta::default());
        let mut fixed = Vec::new();
        for (k, r) in repeats.iter().enumerate() {
            let template = r.stored..r.stored + r.len;
            for (t, m) in template.clone().zip(&mut meta[template]) {
                m.bound = r.end() as u32;
                m.len = r.len as u32;
                let deps = graph.stored_deps(t).iter().map(|d| d.index());
                fixed.extend(deps.filter(|&d| !r.shifts(d)).map(|d| (k, d)));
            }
        }
        fixed.sort_unstable();
        fixed.dedup();
        let mut spans = Vec::new();
        let mut extras = Vec::new();
        let mut unknown = None;
        edges(graph, |edge| match edge {
            Edge::Row(t, _) => offsets[t + 2] += 1,
            Edge::Span(span) => spans.push(span),
            Edge::Extra(x, dependent) => extras.push((x, dependent)),
            Edge::Unknown(task, dependency) => {
                unknown.get_or_insert(SimError::UnknownDependency { task, dependency });
            }
        });
        if let Some(e) = unknown {
            spare.stored_of = stored_of;
            spare.offsets = offsets;
            spare.meta = meta;
            return Err(e);
        }
        for t in 2..m + 2 {
            offsets[t] += offsets[t - 1];
        }
        let mut dependents = std::mem::take(&mut spare.dependents);
        dependents.clear();
        dependents.resize(offsets[m + 1], 0);
        edges(graph, |edge| {
            if let Edge::Row(t, value) = edge {
                dependents[offsets[t + 1]] = value as u32;
                offsets[t + 1] += 1;
            }
        });
        offsets.pop();
        for r in repeats {
            for t in r.stored..r.stored + r.len {
                if !graph.stored_deps(t).is_empty() {
                    continue;
                }
                let first = r.first + t - r.stored;
                let work = graph.works()[graph.work_ids()[t] as usize];
                let row = &dependents[offsets[t]..offsets[t + 1]];
                // A DMA task ranks by its nearest dependent in the repeat
                // (`Links::first_dependent`), which for instance `k` lies
                // `k·len` after instance 0's, while before the repeat's end.
                let chained = if work.resource.is_compute() {
                    r.count
                } else {
                    nearest_in_repeat(row, first, r.end())
                        .map_or(0, |y| (r.end() - y).div_ceil(r.len))
                };
                meta[t].chain_end = (first + chained.min(r.count) * r.len) as u32;
            }
        }
        spans.sort_unstable_by_key(|span: &Span| span.target);
        for span in &spans {
            meta[span.target].more = true;
        }
        extras.sort_unstable();
        for &(x, _) in &extras {
            meta[stored_of[x] as usize].more = true;
        }
        Ok(Self {
            graph,
            stored_of,
            offsets,
            dependents,
            meta,
            spans,
            extras,
            fixed,
        })
    }

    /// [`Links::new`] for a graph with no repeats, whose rows are indexed
    /// by program index: each row lists its dependents in program order.
    /// Read through the stored-form rows instead (a stored index per task,
    /// a bound and a flag per row), the heuristic Table 1 sweep, which has
    /// no repeats, simulated ~10–20% slower.
    fn plain(graph: &'g TaskGraph, spare: &mut Arrays, stored_of: Vec<u32>) -> Result<Self> {
        let n = graph.len();
        let mut offsets = std::mem::take(&mut spare.offsets);
        offsets.clear();
        offsets.resize(n + 1, 0);
        for i in 0..n {
            for dep in graph.stored_deps(i) {
                if dep.index() >= n {
                    spare.offsets = offsets;
                    spare.stored_of = stored_of;
                    return Err(SimError::UnknownDependency {
                        task: TaskId(i),
                        dependency: *dep,
                    });
                }
                offsets[dep.index()] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // Filled back to front, which leaves each offset at its row's start.
        let mut dependents = std::mem::take(&mut spare.dependents);
        dependents.clear();
        dependents.resize(offsets[n], 0);
        for i in (0..n).rev() {
            for dep in graph.stored_deps(i).iter().rev() {
                offsets[dep.index()] -= 1;
                dependents[offsets[dep.index()]] = i as u32;
            }
        }
        let mut meta = std::mem::take(&mut spare.meta);
        meta.clear();
        Ok(Self {
            graph,
            stored_of,
            offsets,
            dependents,
            meta,
            spans: Vec::new(),
            extras: Vec::new(),
            fixed: Vec::new(),
        })
    }

    /// The stored index of the task at program index `x`.
    fn stored(&self, x: usize) -> usize {
        stored_index(&self.stored_of, x)
    }

    /// Calls `f` with each task waiting on task `x`, once per dependency
    /// edge.
    #[inline]
    fn for_each_dependent(&self, x: usize, mut f: impl FnMut(usize)) {
        if self.meta.is_empty() {
            let row = &self.dependents[self.offsets[x]..self.offsets[x + 1]];
            return row.iter().for_each(|&d| f(d as usize));
        }
        let s = self.stored(x);
        let meta = self.meta[s];
        let row = &self.dependents[self.offsets[s]..self.offsets[s + 1]];
        match meta.bound as usize {
            0 => row.iter().for_each(|&d| f(d as usize)),
            bound => {
                for &d in row {
                    let y = x + d as usize;
                    if y < bound {
                        f(y);
                    }
                }
            }
        }
        if meta.more {
            let (spans, extras) = self.more(s, x);
            for span in spans {
                (0..span.count).for_each(|k| f(span.first + k * span.step));
            }
            extras.iter().for_each(|e| f(e.1));
        }
    }

    /// Hands the arrays back for the next run.
    fn into_arrays(
        self,
        remaining_deps: Vec<u32>,
        end_at: Vec<u64>,
        next_of: Vec<u32>,
        order: Vec<u32>,
    ) -> Arrays {
        Arrays {
            stored_of: self.stored_of,
            offsets: self.offsets,
            dependents: self.dependents,
            meta: self.meta,
            remaining_deps,
            end_at,
            next_of,
            order,
        }
    }

    /// The spans of plain task `s`, or the extras of instance `x` of
    /// template task `s`.
    fn more(&self, s: usize, x: usize) -> (&[Span], &[(usize, usize)]) {
        if self.meta[s].bound == 0 {
            let from = self.spans.partition_point(|span| span.target < s);
            let to = from + self.spans[from..].partition_point(|span| span.target == s);
            (&self.spans[from..to], &[])
        } else {
            let from = self.extras.partition_point(|e| e.0 < x);
            let to = from + self.extras[from..].partition_point(|e| e.0 == x);
            (&[], &self.extras[from..to])
        }
    }

    /// The earliest task waiting on task `x`, if any. A plain task's row
    /// is in program order; a template task's nearest dependent in its
    /// repeat comes before any added after it.
    fn first_dependent(&self, x: usize) -> Option<usize> {
        if self.meta.is_empty() {
            return self.dependents[self.offsets[x]..self.offsets[x + 1]]
                .first()
                .map(|&d| d as usize);
        }
        let s = self.stored(x);
        let meta = self.meta[s];
        let row = &self.dependents[self.offsets[s]..self.offsets[s + 1]];
        match meta.bound as usize {
            0 => {
                let first = row.first().map(|&d| d as usize);
                match meta.more {
                    false => first,
                    true => first
                        .into_iter()
                        .chain(self.more(s, x).0.iter().map(|span| span.first))
                        .min(),
                }
            }
            bound => nearest_in_repeat(row, x, bound)
                .or_else(|| meta.more.then(|| self.more(s, x).1.first().map(|e| e.1))?),
        }
    }

    /// Task `x`'s dependencies, in the order they were given.
    fn deps(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        self.graph.deps_at(self.graph.locate(x)).map(TaskId::index)
    }
}

/// The nearest dependent of instance `x` of a template task whose row is
/// `row` (distances) that lies before its repeat's end `bound`.
fn nearest_in_repeat(row: &[u32], x: usize, bound: usize) -> Option<usize> {
    row.iter()
        .map(|&d| x + d as usize)
        .min()
        .filter(|&y| y < bound)
}

/// The stored index of the task at program index `x`, given each task's
/// stored index (`Links::stored_of`, empty for a graph with no repeats).
fn stored_index(stored_of: &[u32], x: usize) -> usize {
    if stored_of.is_empty() {
        x
    } else {
        stored_of[x] as usize
    }
}

/// One dependency edge of a graph as [`Links`] stores it.
enum Edge {
    /// An entry of stored task `.0`'s row: a dependent's program index, or
    /// for a template task its distance.
    Row(usize, usize),
    /// The instances of a template task waiting on a fixed task.
    Span(Span),
    /// Task `.1`, added after a repeat, waits on instance `.0`.
    Extra(usize, usize),
    /// Task `.0` names task `.1`, which does not exist.
    Unknown(TaskId, TaskId),
}

/// Calls `f` with every dependency edge of `graph`'s stored form, in
/// program order of the waiting tasks' first instances.
#[inline(always)]
fn edges(graph: &TaskGraph, mut f: impl FnMut(Edge)) {
    let n = graph.len();
    // Each repeat follows a stretch of plain tasks, stored `extra` places
    // before their program indices; the last stretch follows no repeat.
    let (mut s, mut extra) = (0, 0);
    for r in graph.repeats().iter().map(Some).chain([None]) {
        let tail = s + extra;
        for s in s..r.map_or(graph.stored_len(), |r| r.stored) {
            let first = s + extra;
            for dep in graph.stored_deps(s) {
                let d = dep.index();
                if (tail..first).contains(&d) {
                    f(Edge::Row(d - extra, first));
                } else if d >= n {
                    f(Edge::Unknown(TaskId(first), *dep));
                } else {
                    match graph.locate(d) {
                        At::Plain(t) => f(Edge::Row(t, first)),
                        At::Repeated { .. } => f(Edge::Extra(d, first)),
                    }
                }
            }
        }
        let Some(r) = r else { break };
        // Instance 0 starts `r.first - r.stored` places after its stored
        // index, and so does the plain stretch before it.
        let at = r.first - r.stored;
        for t in r.stored..r.stored + r.len {
            let first = t + at;
            for d in graph.stored_deps(t).iter().map(|d| d.index()) {
                if !r.shifts(d) {
                    let At::Plain(target) = graph.locate(d) else {
                        unreachable!("a fixed dependency is a plain task");
                    };
                    f(Edge::Span(Span {
                        target,
                        first,
                        count: r.count,
                        step: r.len,
                    }));
                } else if d >= r.first {
                    f(Edge::Row(d - at, first - d));
                } else {
                    // A task of instance −1 is stored as it is; its
                    // counterpart in the template serves instances 1 on.
                    f(Edge::Row(d - at, first));
                    f(Edge::Row(d + r.len - at, first - d));
                }
            }
        }
        (s, extra) = (r.stored + r.len, r.extra);
    }
}

/// [`Run::status`] of a task not started, and of a complete one.
const WAITING: u64 = u64::MAX;
const DONE: u64 = u64::MAX - 1;

/// The executor's state at a look (module docs), as the fast-forward
/// compares it; kept in a map keyed by a hash of the running tasks and
/// queue lengths relative to `(now, lo)`.
#[derive(Debug, Clone, Copy)]
struct Mark {
    now: u64,
    lo: usize,
    /// Tasks running at the look.
    running: usize,
    /// Tasks started before the look (the length of the start order).
    started: usize,
    completed: usize,
}

/// What a fast-forward reads of one repeat the period touched.
#[derive(Debug, Clone)]
struct Touched {
    repeat: usize,
    /// The highest task the period reads or writes, counted before the
    /// shift.
    reach: usize,
    /// One past the highest task that can be relied on to be a copy.
    end: usize,
    /// The lowest incomplete task of the repeat now.
    lo: usize,
    /// How many instances of each template task the period started.
    count: Vec<u32>,
}

/// One simulation in progress: the dense state the scheduling contract
/// needs, plus the start record the steady-state fast-forward reads back.
struct Run<'a> {
    links: &'a Links<'a>,
    /// Each stored task's work, and `links`' stored index of each task:
    /// read here, the cost lookup of every start skips a load through
    /// `links` (reading it through `links` made runs ~6% slower).
    work: &'a [u32],
    stored_of: &'a [u32],
    /// Dependency counts are stored as `u32`.
    remaining_deps: Vec<u32>,
    /// Each work's cost ([`TaskGraph`] numbers the works).
    costs: Vec<Cost>,
    /// Ready tasks per slot by (priority, program index).
    ready: Vec<BinaryHeap<Reverse<u64>>>,
    /// Running tasks by (end cycle, program index).
    running: BinaryHeap<Reverse<(u64, usize)>>,
    busy_until: Vec<u64>,
    busy_cycles: Vec<u64>,
    trace: Option<Trace>,
    energy: EnergyBreakdown,
    /// The union of MAC and of VEC busy time from the last fast-forward
    /// on, as disjoint ascending spans, and their overlap before it.
    mac_spans: Vec<(u64, u64)>,
    vec_spans: Vec<(u64, u64)>,
    overlap_before: u64,
    completed: usize,
    now: u64,
    /// Each task's end cycle (`MAX` before it starts). A fast-forward
    /// writes it only past the new `lo` of each repeat it skips in; the
    /// tasks below are in `done`.
    end_at: Vec<u64>,
    /// For each template task, the program index of its next instance to
    /// start; instances start in order while `ordered` holds.
    next_of: Vec<u32>,
    ordered: bool,
    /// Tasks started so far.
    started: usize,
    /// The tasks the event loop started since the last fast-forward, in
    /// start order; the first had place `order_base` in it. Kept only for
    /// a graph with repeats.
    order: Vec<u32>,
    order_base: usize,
    /// Every task below `lo` is complete.
    lo: usize,
    /// The next look happens once `lo` reaches this index (`MAX`: never).
    look_at: usize,
    /// Ranges of tasks a fast-forward completed without writing their end
    /// cycles, ascending, each above `lo`.
    done: Vec<(usize, usize)>,
    /// The looks since the last fast-forward in the repeat `lo` is in.
    marks: HashMap<u64, Mark>,
    marks_in: usize,
    /// Tasks started by the fast-forward rather than the event loop.
    replayed: usize,
    /// Tasks started by a stream's stretch rather than a start pass.
    stretched: usize,
}

impl Run<'_> {
    fn cost(&self, i: usize) -> &Cost {
        &self.costs[self.work[stored_index(self.stored_of, i)] as usize]
    }

    /// Task `i`'s scheduling priority. Compute units issue their stream in
    /// program order (the order the dataflow intends). DMA channels are
    /// demand-driven: transfers whose consumer comes earliest in program
    /// order are served first, which models double-buffered prefetching
    /// that follows the compute streams instead of blindly following the
    /// order requests were queued. A transfer nothing consumes ranks after
    /// every consumed one.
    fn priority(&self, i: usize) -> usize {
        if !self.cost(i).dma {
            return i;
        }
        self.links
            .first_dependent(i)
            .unwrap_or(self.remaining_deps.len() + i)
    }

    fn make_ready(&mut self, i: usize) {
        let entry = Reverse(ready_key(self.priority(i), i));
        let slot = self.cost(i).slot;
        self.ready[slot].push(entry);
    }

    fn event_loop(&mut self) -> Result<()> {
        let n = self.remaining_deps.len();
        let links = self.links;
        let mut visited = u64::MAX;
        while self.completed < n {
            // The first visit of an instant at which `lo` has entered a
            // new instance of a repeat is a look, which may skip whole
            // periods ahead.
            if self.now != visited {
                visited = self.now;
                if self.look_at != usize::MAX {
                    self.advance_lo();
                    if self.lo >= self.look_at && self.look() {
                        continue;
                    }
                }
            }

            // Start every task that can start at the current time: one per
            // idle slot per pass, until a pass starts nothing.
            let mut started_any = true;
            while started_any {
                started_any = false;
                for s in 0..self.ready.len() {
                    if self.busy_until[s] > self.now {
                        continue;
                    }
                    let Some(Reverse(key)) = self.ready[s].pop() else {
                        continue;
                    };
                    let index = ready_index(key);
                    self.start(s, index);
                    started_any = true;
                }
            }

            // Advance time to the next completion and retire every task
            // ending then before the next start pass.
            let Some(&Reverse((next_end, _))) = self.running.peek() else {
                // Nothing runs and nothing could start: every remaining
                // task waits, directly or not, on a dependency cycle.
                return Err(SimError::CyclicGraph {
                    unscheduled: n - self.completed,
                });
            };
            if self.stretch() {
                continue;
            }
            self.now = next_end;
            while let Some(&Reverse((end, index))) = self.running.peek() {
                if end > self.now {
                    break;
                }
                self.running.pop();
                self.completed += 1;
                links.for_each_dependent(index, |waiting| {
                    self.remaining_deps[waiting] -= 1;
                    if self.remaining_deps[waiting] == 0 {
                        self.make_ready(waiting);
                    }
                });
            }
        }
        Ok(())
    }

    /// Starts ready task `index` on idle slot `s` at the current time
    /// ([`Run::begin`]), and readies the next instance of a chained
    /// template task (`Meta::chain_end`).
    fn start(&mut self, s: usize, index: usize) {
        let end = self.begin(s, index);
        self.running.push(Reverse((end, index)));
        if let Some(next) = self.chained(index) {
            self.make_ready(next);
        }
    }

    /// What starting task `index` on slot `s` at the current time records:
    /// its end, which it returns, its slot's busy time, its energy, the
    /// MAC/VEC spans and its trace entry. An instance of a template task
    /// also moves its template's next instance on.
    #[inline]
    fn begin(&mut self, s: usize, index: usize) -> u64 {
        let stored = stored_index(self.stored_of, index);
        let cost = self.costs[self.work[stored] as usize];
        let (start, end) = (self.now, self.now + cost.cycles);
        self.busy_until[s] = end;
        self.busy_cycles[s] += cost.cycles;
        self.energy.accumulate(&cost.energy);
        self.end_at[index] = end;
        self.started += 1;
        if end > start {
            match cost.resource {
                Resource::Mac { .. } => add_span(&mut self.mac_spans, start, end),
                Resource::Vec { .. } => add_span(&mut self.vec_spans, start, end),
                _ => {}
            }
        }
        if let Some(trace) = &mut self.trace {
            let graph = self.links.graph;
            trace.push(TraceEntry {
                task: TaskId(index),
                label: graph.label(graph.locate(index)),
                resource: cost.resource,
                start_cycle: start,
                end_cycle: end,
            });
        }
        if let Some(meta) = self.links.meta.get(stored) {
            self.order.push(index as u32);
            if meta.len > 0 {
                self.ordered &= self.next_of[stored] as usize == index;
                self.next_of[stored] = (index + meta.len as usize) as u32;
            }
        }
        end
    }

    /// The instance after `index` when starting `index` readies it: both
    /// are chained instances of a template task with no dependencies.
    fn chained(&self, index: usize) -> Option<usize> {
        let meta = self.links.meta.get(stored_index(self.stored_of, index))?;
        let next = index + meta.len as usize;
        (meta.len > 0 && next < meta.chain_end as usize).then_some(next)
    }

    /// A stream's stretch (module docs): while the task ending next is a
    /// chained instance that ends alone, readies nothing and is followed
    /// at the head of its slot's queue by the next instance, retires it
    /// and starts that instance without a start pass or heap work. Returns
    /// whether it retired a task.
    fn stretch(&mut self) -> bool {
        let links = self.links;
        let heap = self.running.as_slice();
        let Some(&Reverse((end, mut x))) = heap.first() else {
            return false;
        };
        let Some(next) = self.chained(x) else {
            return false;
        };
        let after = heap[1..heap.len().min(3)]
            .iter()
            .map(|&Reverse((end, _))| end)
            .min()
            .unwrap_or(u64::MAX);
        let cost = *self.cost(x);
        let queue = &mut self.ready[cost.slot];
        if end >= after || queue.peek().map(|r| ready_index(r.0)) != Some(next) {
            return false;
        }
        let Some(Reverse(mut head)) = queue.pop() else {
            return false;
        };
        // The other tasks ready on the slot rank from `rest` on, and no
        // other slot has a ready task it could start.
        let rest = queue.peek().map_or(u64::MAX, |r| r.0);
        self.running.pop();
        self.now = end;
        loop {
            // `x` ends now, alone; `head` is the next instance's key.
            self.completed += 1;
            let mut readied = false;
            links.for_each_dependent(x, |waiting| {
                self.remaining_deps[waiting] -= 1;
                if self.remaining_deps[waiting] == 0 {
                    self.make_ready(waiting);
                    readied = true;
                }
            });
            if readied || head > rest {
                self.ready[cost.slot].push(Reverse(head));
                return true;
            }
            let y = ready_index(head);
            let end = self.begin(cost.slot, y);
            self.stretched += 1;
            match self.chained(y) {
                Some(following) if end < after => {
                    head = ready_key(self.priority(following), following);
                    (x, self.now) = (y, end);
                }
                following => {
                    self.running.push(Reverse((end, y)));
                    if let Some(following) = following {
                        self.make_ready(following);
                    }
                    return true;
                }
            }
        }
    }

    /// Moves `lo` past the complete tasks.
    fn advance_lo(&mut self) {
        let n = self.end_at.len();
        while self.lo < n {
            match self.done.first() {
                Some(&(from, to)) if from <= self.lo => {
                    self.lo = self.lo.max(to);
                    self.done.remove(0);
                }
                _ if self.end_at[self.lo] <= self.now => self.lo += 1,
                _ => break,
            }
        }
    }

    /// Task `x`'s state at mark `a`: [`WAITING`], [`DONE`] or running for
    /// that many more cycles.
    fn status(&self, x: usize, a: &Mark) -> u64 {
        if x < a.lo || self.done.iter().any(|&(from, to)| (from..to).contains(&x)) {
            return DONE;
        }
        let end = self.end_at[x];
        if end == u64::MAX || end - self.cost(x).cycles >= a.now {
            WAITING
        } else if end <= a.now {
            DONE
        } else {
            end - a.now
        }
    }

    /// Whether task `x` was ready at mark `a`: waiting, with every
    /// dependency complete.
    fn ready_at(&self, x: usize, a: &Mark) -> bool {
        self.status(x, a) == WAITING && self.links.deps(x).all(|d| self.status(d, a) == DONE)
    }

    /// The repeat task `x` is an instance of, if any.
    fn repeat_of(&self, x: usize) -> Option<usize> {
        let repeats = self.links.graph.repeats();
        let k = repeats.partition_point(|r| r.first <= x).checked_sub(1)?;
        (x < repeats[k].end()).then_some(k)
    }

    /// The index `lo` must reach for the next look: the start of the next
    /// instance of a repeat.
    fn next_look(&self) -> usize {
        let repeats = self.links.graph.repeats();
        let k = repeats.partition_point(|r| r.first <= self.lo);
        match k.checked_sub(1).map(|k| repeats[k]) {
            Some(r) if self.lo < r.end() => {
                let next = r.first + ((self.lo - r.first) / r.len + 1) * r.len;
                if next < r.end() {
                    return next;
                }
                repeats.get(k).map_or(usize::MAX, |r| r.first)
            }
            _ => repeats.get(k).map_or(usize::MAX, |r| r.first),
        }
    }

    /// A look: keeps the state now, or fast-forwards when an earlier look
    /// in the same repeat had the same state (module docs) and returns
    /// whether it did.
    fn look(&mut self) -> bool {
        self.look_at = if self.ordered {
            self.next_look()
        } else {
            usize::MAX
        };
        let Some(repeat) = self.repeat_of(self.lo).filter(|_| self.ordered) else {
            return false;
        };
        // Which slots are busy, and until when, follows from the running
        // tasks: a slot is busy exactly while its last task runs. The
        // queue lengths only sharpen the key.
        let mut key = self.running.len() as u64;
        for &Reverse((end, index)) in self.running.iter() {
            let relative = (((index - self.lo) as u64) << 32) ^ (end - self.now);
            key = key.wrapping_add(mix(relative));
        }
        for queue in &self.ready {
            key = key.rotate_left(7) ^ queue.len() as u64;
        }
        if self.marks_in != repeat {
            self.marks.clear();
            self.marks_in = repeat;
        }
        if let Some(a) = self.marks.get(&key).copied() {
            if self.fast_forward(&a) {
                self.marks.clear();
                self.look_at = self.next_look();
                return true;
            }
        }
        self.marks.insert(
            key,
            Mark {
                now: self.now,
                lo: self.lo,
                running: self.running.len(),
                started: self.started,
                completed: self.completed,
            },
        );
        false
    }

    /// Skips whole periods when the state now (`B`) is the state at the
    /// earlier look `a` shifted by `P` cycles and `S` tasks, and returns
    /// whether it did (module docs).
    fn fast_forward(&mut self, a: &Mark) -> bool {
        let links = self.links;
        let repeats = links.graph.repeats();
        let (period, shift) = (self.now - a.now, self.lo - a.lo);
        if self.running.len() != a.running {
            return false;
        }
        let mut touched: Vec<Touched> = Vec::new();
        let mut touch = |run: &Self, x: usize| -> bool {
            let Some(k) = run.repeat_of(x) else {
                return false;
            };
            let r = repeats[k];
            match touched.iter_mut().find(|t| t.repeat == k) {
                Some(t) => t.reach = t.reach.max(x + 2 * r.len),
                None => {
                    if !shift.is_multiple_of(r.len) {
                        return false;
                    }
                    touched.push(Touched {
                        repeat: k,
                        reach: x + 2 * r.len,
                        end: r.end(),
                        lo: 0,
                        count: Vec::new(),
                    });
                }
            }
            true
        };

        // The tasks running now ran at `a`, `S` lower, with as long to go.
        for &Reverse((end, y)) in self.running.iter() {
            let Some(x) = y.checked_sub(shift) else {
                return false;
            };
            if self.repeat_of(y) != self.repeat_of(x)
                || self.status(x, a) != end - self.now
                || !touch(self, x)
            {
                return false;
            }
        }

        // The period's starts in order, each an instance of a repeat, and
        // per slot the largest priority it popped and the cycles it added.
        let mut starts = Vec::with_capacity(self.started - a.started);
        let mut top = vec![None; self.ready.len()];
        let mut added = vec![0u64; self.ready.len()];
        for &x in &self.order[a.started - self.order_base..] {
            let x = x as usize;
            if !touch(self, x) {
                return false;
            }
            let cost = *self.cost(x);
            let s = cost.slot;
            top[s] = top[s].max(Some(self.priority(x)));
            added[s] += cost.cycles;
            starts.push((x, self.end_at[x] - cost.cycles, cost));
        }
        if starts.is_empty() {
            return false;
        }

        // Each task ready now was ready at `a`, `S` lower (it is in the
        // copied range and moves with it), or was ready at `a` itself and
        // outranks everything the skipped periods pop on its slot.
        let mut matched = Vec::new();
        let mut far: Vec<(usize, usize, usize)> = Vec::new();
        for (s, queue) in self.ready.iter().enumerate() {
            for &Reverse(key) in queue.iter() {
                let (p, y) = ((key >> 32) as usize, ready_index(key));
                let was = y.checked_sub(shift).filter(|&x| {
                    self.repeat_of(x).is_some()
                        && self.repeat_of(x) == self.repeat_of(y)
                        && self.ready_at(x, a)
                });
                match (was, top[s]) {
                    (Some(x), _) => {
                        if !touch(self, x) {
                            return false;
                        }
                        matched.push(y);
                    }
                    (None, Some(top)) if self.ready_at(y, a) => far.push((y, p, top)),
                    _ => return false,
                }
            }
        }

        // How far each touched repeat stays a copy: before its end, before
        // the first instance with a dependent added after the repeat,
        // before a template task whose instances do not start one per
        // period's worth, and only while its fixed dependencies were
        // complete at `a`.
        let extras = &links.extras;
        for t in &mut touched {
            let r = repeats[t.repeat];
            let fixed = &links.fixed;
            let fixed_done = fixed[fixed.partition_point(|f| f.0 < t.repeat)..]
                .iter()
                .take_while(|f| f.0 == t.repeat)
                .all(|&(_, d)| self.status(d, a) == DONE);
            if !fixed_done {
                return false;
            }
            let per = (shift / r.len) as u32;
            t.count = vec![0; r.len];
            for &(x, ..) in starts.iter().filter(|s| (r.first..r.end()).contains(&s.0)) {
                t.count[(x - r.first) % r.len] += 1;
            }
            t.lo = self
                .running
                .iter()
                .map(|&Reverse((_, y))| y)
                .filter(|&y| (r.first..r.end()).contains(&y))
                .min()
                .unwrap_or(usize::MAX);
            for (s, &c) in (r.stored..).zip(&t.count) {
                let next = self.next_of[s] as usize;
                t.lo = t.lo.min(next);
                if c != per {
                    let before = next - c as usize * r.len;
                    t.end = t.end.min(next.min(before + shift));
                }
            }
            t.reach = t.reach.max(t.lo);
            let low = t.lo.saturating_sub(shift);
            if let Some(e) = extras.get(extras.partition_point(|e| e.0 < low)) {
                t.end = t.end.min(e.0);
            }
        }
        let mut rounds = usize::MAX;
        for t in &touched {
            if t.end <= t.reach + shift {
                return false;
            }
            rounds = rounds.min((t.end - 1 - t.reach) / shift);
        }
        for &(y, p, top) in &far {
            if p <= top + shift {
                return false;
            }
            rounds = rounds.min((p - top - 1) / shift);
            if let Some(t) = touched.iter().find(|t| Some(t.repeat) == self.repeat_of(y)) {
                if y <= t.reach + shift {
                    return false;
                }
                rounds = rounds.min((y - 1 - t.reach) / shift);
            }
        }

        // Replay the starts' energy (and trace entries), period after
        // period, in the recorded order, so every `f64` sum is unchanged.
        for k in 1..=rounds {
            for &(_, _, cost) in &starts {
                self.energy.accumulate(&cost.energy);
            }
            if let Some(trace) = &mut self.trace {
                let graph = links.graph;
                let (dt, di) = (k as u64 * period, k * shift);
                for &(x, start, cost) in &starts {
                    trace.push(TraceEntry {
                        task: TaskId(x + di),
                        label: graph.label(graph.locate(x + di)),
                        resource: cost.resource,
                        start_cycle: start + dt,
                        end_cycle: start + cost.cycles + dt,
                    });
                }
            }
        }
        let (dt, di) = (rounds as u64 * period, rounds * shift);
        for (s, top) in top.iter().enumerate() {
            if top.is_some() {
                self.busy_until[s] += dt;
                self.busy_cycles[s] += rounds as u64 * added[s];
            }
        }
        // The MAC/VEC union between `a` and now repeats `rounds` times.
        let repeated = overlap_within(&self.mac_spans, &self.vec_spans, a.now, self.now);
        self.overlap_before += overlap_within(&self.mac_spans, &self.vec_spans, 0, self.now)
            + rounds as u64 * repeated;
        for spans in [&mut self.mac_spans, &mut self.vec_spans] {
            spans.retain(|span| span.1 > self.now);
            for span in spans.iter_mut() {
                *span = (span.0.max(self.now) + dt, span.1 + dt);
            }
        }

        // Each touched repeat's tasks below its `lo`, shifted, are complete;
        // above it, the window the period reaches takes the state of the
        // tasks `rounds` periods before it.
        for t in &touched {
            for z in (t.lo + di..=t.reach + di).rev() {
                self.end_at[z] = match self.end_at[z - di] {
                    u64::MAX => u64::MAX,
                    end => end + dt,
                };
                self.remaining_deps[z] = self.remaining_deps[z - di];
            }
            let at = self.done.partition_point(|d| d.0 < t.lo);
            self.done.insert(at, (t.lo, t.lo + di));
            let r = repeats[t.repeat];
            for (s, &c) in (r.stored..).zip(&t.count) {
                self.next_of[s] += (rounds * c as usize * r.len) as u32;
            }
        }
        self.running = self
            .running
            .drain()
            .map(|Reverse((end, i))| Reverse((end + dt, i + di)))
            .collect();
        let far: Vec<usize> = far.iter().map(|f| f.0).collect();
        for queue in &mut self.ready {
            queue.retain(|&Reverse(key)| far.contains(&ready_index(key)));
        }
        for y in matched {
            self.make_ready(y + di);
        }
        self.completed += rounds * (self.completed - a.completed);
        self.now += dt;
        self.lo += di;
        self.started += rounds * starts.len();
        self.replayed += rounds * starts.len();
        // Every mark is dropped, so no later look reads the starts so far.
        self.order.clear();
        self.order_base = self.started;
        true
    }
}

/// A ready queue's key: priority, then program index, in one word.
fn ready_key(priority: usize, index: usize) -> u64 {
    ((priority as u64) << 32) | index as u64
}

fn ready_index(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// A 64-bit mixer (the SplitMix64 finaliser), so a sum of mixed values
/// hashes a set.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Adds `[start, end)` to a union kept as disjoint ascending spans. Starts
/// arrive in non-decreasing order, so the new span can only extend the last.
fn add_span(spans: &mut Vec<(u64, u64)>, start: u64, end: u64) {
    debug_assert!(spans.last().is_none_or(|last| last.0 <= start));
    if let Some(last) = spans.last_mut() {
        if start <= last.1 {
            last.1 = last.1.max(end);
            return;
        }
    }
    spans.push((start, end));
}

/// Cycles within `[from, to)` covered by both unions of spans.
fn overlap_within(a: &[(u64, u64)], b: &[(u64, u64)], from: u64, to: u64) -> u64 {
    let clip = |spans: &[(u64, u64)]| -> Vec<(u64, u64)> {
        spans
            .iter()
            .map(|&(start, end)| (start.max(from), end.min(to)))
            .filter(|span| span.0 < span.1)
            .collect()
    };
    overlap(&clip(a), &clip(b))
}

/// Cycles covered by both unions of spans.
fn overlap(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let (sa, ea) = a[i];
        let (sb, eb) = b[j];
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
/// [`DeviceTracks::plan`] and applied by [`DeviceTracks::commit`]. Plain
/// `Copy` data: the stage spans go to the caller's buffer, so a placement
/// the scalar clamp rejects allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPlacement {
    /// When the launch's first stage begins (≥ the launch ready time).
    pub start_s: f64,
    /// When the launch's last stage ends — the DAG makespan.
    pub completion_s: f64,
    /// Track clocks after the placement (what `commit` installs).
    clocks_after: [f64; TRACK_COUNT],
    /// Per-track busy seconds this placement adds.
    busy_added: [f64; TRACK_COUNT],
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
    /// mutating the device. Stage `k`'s span on track `t` starts at
    /// `max(track clock, ready, completion of stage k on track t−1)` —
    /// with `fused` queues every span instead chains on one serial clock.
    /// `spans` is cleared and receives every non-empty stage span in
    /// schedule order: a caller that plans every launch reuses one buffer
    /// and copies the spans out only for placements it commits. Returns
    /// the placement; apply it with [`DeviceTracks::commit`].
    #[must_use]
    pub fn plan(
        &self,
        ready_s: f64,
        stage_s: &[[f64; TRACK_COUNT]],
        fused: bool,
        spans: &mut Vec<StageSpan>,
    ) -> TrackPlacement {
        spans.clear();
        let mut clocks = self.clocks;
        if fused {
            // One serial queue: collapse the clocks to their max once, then
            // chain every span on track 0's clock.
            let serial = clocks.iter().copied().fold(0.0f64, f64::max);
            clocks = [serial; TRACK_COUNT];
        }
        let mut busy_added = [0.0; TRACK_COUNT];
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
                spans.push(StageSpan {
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
    use crate::task::Label;

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

    /// A hand-built periodic graph: resident `K` and `V`, then 1,000
    /// rounds, each loading a query row, multiplying it with 64 key tiles
    /// after the previous round's last value product, taking one softmax,
    /// multiplying with 64 value tiles and storing the row. Rounds 0 to 2
    /// are stored; rounds 3 to 999 repeat round 2.
    fn thousand_round_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let load = |bytes| TaskKind::DramLoad { bytes };
        let mm = TaskKind::MatMul { m: 1, k: 64, n: 64 };
        let k = g.add_task("load K", Resource::DmaIn, load(65_536), &[]);
        let v = g.add_task("load V", Resource::DmaIn, load(65_536), &[]);
        let round = |g: &mut TaskGraph, r: usize, gate: Option<TaskId>| {
            let q = g.add_task(
                Label::new("r{0}: load Q", [r]),
                Resource::DmaIn,
                load(128),
                &[],
            );
            let mut deps = vec![q, k];
            deps.extend(gate);
            let scores: Vec<TaskId> = (0..64)
                .map(|j| {
                    g.add_task(
                        Label::new("r{0}: C{1}", [r, j]),
                        Resource::Mac { core: 0 },
                        mm,
                        &deps,
                    )
                })
                .collect();
            let p = g.add_task(
                Label::new("r{0}: softmax", [r]),
                Resource::Vec { core: 0 },
                TaskKind::Softmax {
                    rows: 1,
                    cols: 4096,
                },
                &scores,
            );
            let outs: Vec<TaskId> = (0..64)
                .map(|j| {
                    g.add_task(
                        Label::new("r{0}: O{1}", [r, j]),
                        Resource::Mac { core: 0 },
                        mm,
                        &[p, v],
                    )
                })
                .collect();
            g.add_task(
                Label::new("r{0}: store O", [r]),
                Resource::DmaOut,
                TaskKind::DramStore { bytes: 128 },
                &outs,
            );
            outs.last().copied()
        };
        let mut gate = None;
        for r in 0..2 {
            gate = round(&mut g, r, gate);
        }
        let start = TaskId(g.len());
        round(&mut g, 2, gate);
        assert_eq!(g.repeat(start, 997), Some(g.stored_len() - start.0));
        assert_eq!(g.len(), 2 + 1000 * 131);
        g
    }

    #[test]
    fn repeating_rounds_are_fast_forwarded() {
        let g = thousand_round_graph();
        let exec = executor();
        let (traced, loop_starts) = exec.simulate(&g).unwrap();
        assert_eq!(traced, exec.simulate(&g.expand()).unwrap().0);
        assert!(
            loop_starts * 20 < g.len(),
            "{loop_starts} of {} tasks started through the event loop",
            g.len()
        );
        // Every start is recorded, in start order, whatever started it.
        let entries = traced.trace.as_ref().expect("trace recorded").entries();
        assert_eq!(entries.len(), g.len());
        assert!(entries
            .windows(2)
            .all(|e| e[0].start_cycle <= e[1].start_cycle));
        let untraced = exec.clone().without_trace().run(&g).unwrap();
        assert_eq!(
            untraced,
            SimReport {
                trace: None,
                ..traced
            }
        );
    }

    /// A stream of 1,000 query-row loads, each used by a softmax that also
    /// waits on one long product and on the softmax before it: the loads
    /// run while the product does, and `lo` stays at the product, so no
    /// look happens and the stream runs in stretches; the softmaxes run
    /// after it, where the fast-forward skips them. Round 500's softmax
    /// also waits on a key load, ready from the start, which ranks before
    /// that round's query load and so cuts the stream there.
    #[test]
    fn a_transfer_stream_runs_in_stretches() {
        let mut g = TaskGraph::new();
        let product = g.add_task(
            "product",
            Resource::Mac { core: 0 },
            TaskKind::MatMul {
                m: 512,
                k: 512,
                n: 512,
            },
            &[],
        );
        let key = g.add_task(
            "load K",
            Resource::DmaIn,
            TaskKind::DramLoad { bytes: 4096 },
            &[],
        );
        let round = |g: &mut TaskGraph, r: usize, before: TaskId| {
            let q = g.add_task(
                Label::new("r{0}: load Q", [r]),
                Resource::DmaIn,
                TaskKind::DramLoad { bytes: 128 },
                &[],
            );
            let mut deps = vec![q, product, before];
            deps.extend((r == 500).then_some(key));
            g.add_task(
                Label::new("r{0}: softmax", [r]),
                Resource::Vec { core: 0 },
                TaskKind::Softmax { rows: 1, cols: 64 },
                &deps,
            )
        };
        let mut before = product;
        for (first, last) in [(0, 499), (500, 999)] {
            for r in first..first + 2 {
                before = round(&mut g, r, before);
            }
            let start = TaskId(g.len());
            before = round(&mut g, first + 2, before);
            let count = last - first - 2;
            assert_eq!(g.repeat(start, count), Some(2));
            before = before.later(2 * count);
        }
        assert_eq!(g.len(), 2 + 2 * 1000);
        let exec = executor();
        let (traced, loop_starts) = exec.simulate(&g).unwrap();
        assert_eq!(traced, exec.simulate(&g.expand()).unwrap().0);
        let (untraced, untraced_starts) = exec.clone().without_trace().simulate(&g).unwrap();
        assert_eq!(
            untraced,
            SimReport {
                trace: None,
                ..traced
            }
        );
        assert!(
            loop_starts < 100 && untraced_starts == loop_starts,
            "{loop_starts} of {} tasks started through the event loop",
            g.len()
        );
    }

    #[test]
    fn interval_overlap_helper() {
        let spans = |intervals: &[(u64, u64)]| {
            let mut spans = Vec::new();
            for &(start, end) in intervals {
                add_span(&mut spans, start, end);
            }
            spans
        };
        let (a, b) = (spans(&[(0, 10), (20, 30)]), spans(&[(5, 25)]));
        assert_eq!(overlap(&a, &b), 10);
        let (c, d) = (spans(&[(0, 5), (3, 8)]), spans(&[(0, 8)]));
        assert_eq!(c, [(0, 8)]);
        assert_eq!(overlap(&c, &d), 8);
    }

    // ---- track executor ----

    /// Two equal stages: [dma 1s, mac 1s, vec 0, wb 1s] each.
    fn two_stage_demo() -> Vec<[f64; TRACK_COUNT]> {
        vec![[1.0, 1.0, 0.0, 1.0]; 2]
    }

    /// Plans into a fresh span buffer and returns the placement with it.
    fn plan_spans(
        dev: &DeviceTracks,
        ready_s: f64,
        stage_s: &[[f64; TRACK_COUNT]],
        fused: bool,
    ) -> (TrackPlacement, Vec<StageSpan>) {
        let mut spans = Vec::new();
        let p = dev.plan(ready_s, stage_s, fused, &mut spans);
        (p, spans)
    }

    #[test]
    fn flow_shop_overlaps_successive_stages() {
        let dev = DeviceTracks::new();
        let (p, spans) = plan_spans(&dev, 0.0, &two_stage_demo(), false);
        // Stage 0: dma 0-1, mac 1-2, wb 2-3. Stage 1: dma 1-2 (hides under
        // stage 0's mac), mac 2-3, wb 3-4. Serial would be 6.
        assert_eq!(p.start_s, 0.0);
        assert_eq!(p.completion_s, 4.0);
        assert_eq!(spans.len(), 6);
        let dma1 = spans
            .iter()
            .find(|s| s.track == TrackKind::DmaIn && s.stage == 1)
            .unwrap();
        assert_eq!((dma1.start_s, dma1.end_s), (1.0, 2.0));
    }

    #[test]
    fn fused_queue_serializes_to_the_sum() {
        let dev = DeviceTracks::new();
        let (p, spans) = plan_spans(&dev, 0.5, &two_stage_demo(), true);
        assert_eq!(p.start_s, 0.5);
        assert_eq!(p.completion_s, 0.5 + 6.0);
        // Spans keep their logical track attribution but chain serially:
        // each starts exactly where the previous one ended.
        for pair in spans.windows(2) {
            assert_eq!(pair[1].start_s, pair[0].end_s);
        }
    }

    #[test]
    fn placement_bounds_and_monotonicity() {
        let dev = DeviceTracks::new();
        let stages = vec![[3.0, 2.0, 1.0, 0.5], [1.0, 4.0, 0.0, 0.25]];
        let (p, _) = plan_spans(&dev, 0.0, &stages, false);
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
                assert!(plan_spans(&dev, 0.0, &grown, false).0.completion_s >= p.completion_s);
            }
        }
    }

    #[test]
    fn commit_installs_clocks_and_busy_time() {
        let mut dev = DeviceTracks::new();
        let (p, _) = plan_spans(&dev, 0.0, &two_stage_demo(), false);
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
        let (next, _) = plan_spans(&dev, 0.0, &two_stage_demo(), false);
        assert!(next.start_s < p.completion_s);
    }

    #[test]
    fn barrier_serializes_all_tracks() {
        let mut dev = DeviceTracks::new();
        dev.barrier(7.0);
        assert_eq!(dev.scalar_launches, 1);
        assert!(dev.clocks().iter().all(|&c| c == 7.0));
        let (p, _) = plan_spans(&dev, 0.0, &two_stage_demo(), false);
        assert_eq!(p.start_s, 7.0);
    }

    #[test]
    fn empty_demand_places_a_zero_span_at_ready() {
        let dev = DeviceTracks::new();
        let (p, spans) = plan_spans(&dev, 3.0, &[[0.0; TRACK_COUNT]], false);
        assert_eq!(p.start_s, 3.0);
        assert_eq!(p.completion_s, 3.0);
        assert!(spans.is_empty());
    }

    #[test]
    fn a_reused_span_buffer_plans_like_a_fresh_one() {
        // A placement must not read what an earlier one left in the buffer:
        // same placement (start, completion, clocks after, busy added) and
        // same spans, fresh or dirty, split or fused, on a busy device too.
        let mut dev = DeviceTracks::new();
        let (first, _) = plan_spans(&dev, 0.0, &two_stage_demo(), false);
        dev.commit(&first);
        let launch = [
            [0.5, 2.0, 0.25, 0.0],
            [0.0, 1.0, 0.0, 0.75],
            [1.0, 0.0, 0.5, 0.5],
        ];
        let other = vec![[3.0, 1.0, 1.0, 1.0]; 5];
        for fused in [false, true] {
            let (fresh, fresh_spans) = plan_spans(&dev, 1.5, &launch, fused);
            let mut dirty = Vec::new();
            let _ = dev.plan(0.0, &other, !fused, &mut dirty);
            assert!(dirty.len() > fresh_spans.len());
            let reused = dev.plan(1.5, &launch, fused, &mut dirty);
            assert_eq!(reused, fresh);
            assert_eq!(reused.clocks_after, fresh.clocks_after);
            assert_eq!(reused.busy_added, fresh.busy_added);
            assert_eq!(dirty, fresh_spans);
            // Committing either installs the same device state.
            let (mut a, mut b) = (dev, dev);
            a.commit(&fresh);
            b.commit(&reused);
            assert_eq!(a, b);
        }
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
        // The continuous-time planner agrees with the event-driven list
        // scheduler on the lowered graph.
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
        let (p, _) = plan_spans(&DeviceTracks::new(), 0.0, &stage_s, false);
        let expect_cycles = (p.completion_s * hw.frequency_hz).round() as u64;
        assert_eq!(report.total_cycles, expect_cycles);
    }
}
