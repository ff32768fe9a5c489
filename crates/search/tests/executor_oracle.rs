//! Differential oracle for the cycle simulator's list scheduler.
//!
//! [`reference_run`] is the list scheduler `mas_sim::Executor::run` was
//! first written as, kept here verbatim apart from the lookups that need
//! crate-private items: it re-sorts the resources by display name on every
//! start pass, keeps each ready queue as a sorted `VecDeque` filled by
//! linear-scan insertion, and validates the graph with a separate Kahn pass.
//! It is quadratic on long DMA queues but plainly follows the scheduling
//! contract of the `mas_sim::executor` docs. The executor must reproduce its
//! `SimReport` exactly — cycles, seconds and every energy component bit for
//! bit, per-resource busy cycles, MAC/VEC overlap and every trace entry in
//! order — and its errors. The oracle is built only on public `mas_sim`
//! items.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use mas_dataflow::footprint::tiling_fits;
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_search::SearchSpace;
use mas_sim::task::Task;
use mas_sim::timing::TimingModel;
use mas_sim::trace::{Trace, TraceEntry};
use mas_sim::{
    EnergyBreakdown, EnergyModel, Executor, HardwareConfig, Resource, Result, SimError, SimReport,
    TaskGraph, TaskId, TaskKind,
};
use mas_workloads::Network;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference list scheduler (see the module docs).
fn reference_run(
    timing: &TimingModel,
    energy_model: &EnergyModel,
    record_trace: bool,
    graph: &TaskGraph,
) -> Result<SimReport> {
    let hw = timing.hardware();
    hw.validate()?;
    if graph.is_empty() {
        return Err(SimError::EmptyGraph);
    }
    graph.validate()?;
    for task in graph.iter() {
        if let Some(core) = task.resource.core() {
            if core >= hw.cores {
                return Err(SimError::UnknownResource {
                    resource: task.resource,
                    cores: hw.cores,
                });
            }
        }
    }
    // Tasks by program index (`TaskId` cannot be built outside `mas_sim`).
    let tasks: Vec<&Task> = graph.iter().collect();

    let n = graph.len();
    let mut remaining_deps = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for task in graph.iter() {
        remaining_deps[task.id.index()] = task.deps.len();
        for dep in &task.deps {
            dependents[dep.index()].push(task.id.index());
        }
    }

    let mut priority = vec![0usize; n];
    for task in graph.iter() {
        let i = task.id.index();
        priority[i] = match task.resource {
            Resource::DmaIn | Resource::DmaOut => dependents[i]
                .iter()
                .copied()
                .min()
                .unwrap_or(usize::MAX - n + i),
            _ => i,
        };
    }

    // Ready queues per resource, ordered by (priority, program order).
    let mut ready: HashMap<Resource, VecDeque<usize>> = HashMap::new();
    for task in graph.iter() {
        ready.entry(task.resource).or_default();
    }
    let enqueue = |queue: &mut VecDeque<usize>, priority: &[usize], index: usize| {
        let key = (priority[index], index);
        let pos = queue
            .iter()
            .position(|&other| (priority[other], other) > key)
            .unwrap_or(queue.len());
        queue.insert(pos, index);
    };
    // Seed initially-ready tasks.
    for task in graph.iter() {
        if remaining_deps[task.id.index()] == 0 {
            let queue = ready
                .get_mut(&task.resource)
                .expect("queue exists for every resource");
            enqueue(queue, &priority, task.id.index());
        }
    }

    // Min-heap of running tasks by end cycle (reverse ordering on a max-heap).
    #[derive(PartialEq, Eq)]
    struct Running {
        end: u64,
        index: usize,
    }
    impl Ord for Running {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.end.cmp(&self.end).then(other.index.cmp(&self.index))
        }
    }
    impl PartialOrd for Running {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut running: BinaryHeap<Running> = BinaryHeap::new();
    let mut resource_busy_until: HashMap<Resource, u64> = HashMap::new();
    let mut busy_cycles: BTreeMap<String, u64> = BTreeMap::new();
    let mut trace = Trace::new();
    let mut energy = EnergyBreakdown::zero();
    let mut completed = 0usize;
    let mut now: u64 = 0;
    let mut mac_intervals: Vec<(u64, u64)> = Vec::new();
    let mut vec_intervals: Vec<(u64, u64)> = Vec::new();

    while completed < n {
        // Start every task that can start at the current time.
        let mut started_any = true;
        while started_any {
            started_any = false;
            // Iterate resources deterministically (sorted by display name).
            let mut resources: Vec<Resource> = ready.keys().copied().collect();
            resources.sort_by_key(|r| r.to_string());
            for resource in resources {
                let busy_until = resource_busy_until.get(&resource).copied().unwrap_or(0);
                if busy_until > now {
                    continue;
                }
                let queue = ready.get_mut(&resource).expect("resource queue exists");
                if let Some(&index) = queue.front() {
                    queue.pop_front();
                    let task = tasks[index];
                    let duration = timing.task_cycles(&task.kind);
                    let start = now;
                    let end = start + duration;
                    resource_busy_until.insert(resource, end);
                    running.push(Running { end, index });
                    *busy_cycles.entry(resource.to_string()).or_insert(0) += duration;
                    energy.accumulate(&energy_model.task_energy(
                        &task.kind,
                        hw.element_bytes,
                        hw.softmax_ops_per_element,
                    ));
                    if duration > 0 {
                        match resource {
                            Resource::Mac { .. } => mac_intervals.push((start, end)),
                            Resource::Vec { .. } => vec_intervals.push((start, end)),
                            _ => {}
                        }
                    }
                    if record_trace {
                        trace.push(TraceEntry {
                            task: task.id,
                            label: task.label.clone(),
                            resource,
                            start_cycle: start,
                            end_cycle: end,
                        });
                    }
                    started_any = true;
                }
            }
        }

        // Advance time to the next completion.
        match running.pop() {
            Some(first) => {
                now = now.max(first.end);
                let mut finished = vec![first.index];
                while let Some(next) = running.peek() {
                    if next.end <= now {
                        finished.push(running.pop().expect("peeked element exists").index);
                    } else {
                        break;
                    }
                }
                for index in finished {
                    completed += 1;
                    for &dep_index in &dependents[index] {
                        remaining_deps[dep_index] -= 1;
                        if remaining_deps[dep_index] == 0 {
                            let task = tasks[dep_index];
                            let queue = ready
                                .get_mut(&task.resource)
                                .expect("resource queue exists");
                            enqueue(queue, &priority, dep_index);
                        }
                    }
                }
            }
            None => {
                return Err(SimError::CyclicGraph {
                    unscheduled: n - completed,
                });
            }
        }
    }

    let total_cycles = resource_busy_until.values().copied().max().unwrap_or(0);
    let overlap = interval_overlap(&mut mac_intervals, &mut vec_intervals);

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
        trace: if record_trace { Some(trace) } else { None },
    })
}

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

/// Asserts two reports are identical, floats bit for bit, naming the first
/// field that differs.
fn assert_identical(got: &SimReport, want: &SimReport, what: &str) {
    assert_eq!(got.total_cycles, want.total_cycles, "{what}: total_cycles");
    assert_eq!(
        got.total_seconds.to_bits(),
        want.total_seconds.to_bits(),
        "{what}: total_seconds"
    );
    for ((name, g), (_, w)) in got.energy.components().iter().zip(want.energy.components()) {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name} energy");
    }
    assert_eq!(got.busy_cycles, want.busy_cycles, "{what}: busy_cycles");
    assert_eq!(
        got.mac_vec_overlap_cycles, want.mac_vec_overlap_cycles,
        "{what}: overlap"
    );
    match (&got.trace, &want.trace) {
        (Some(g), Some(w)) => {
            assert_eq!(g.entries().len(), w.entries().len(), "{what}: trace length");
            for (i, (ge, we)) in g.entries().iter().zip(w.entries()).enumerate() {
                assert_eq!(ge, we, "{what}: trace entry {i}");
            }
        }
        (g, w) => assert_eq!(g.is_some(), w.is_some(), "{what}: trace presence"),
    }
    assert!(got == want, "{what}: reports differ");
}

/// Runs `graph` through the executor and the reference, without and with a
/// trace, asserts identical results (reports or errors) and returns the
/// executor's traced result.
fn check(hw: &HardwareConfig, graph: &TaskGraph, what: &str) -> Result<SimReport> {
    let energy = EnergyModel::edge_16nm();
    let traced = Executor::new(hw.clone(), energy);
    let untraced = traced.clone().without_trace();
    let compare = |exec: &Executor, record_trace: bool| {
        let got = exec.run(graph);
        let want = reference_run(exec.timing(), &energy, record_trace, graph);
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert_identical(g, w, what),
            (g, w) => assert_eq!(g.as_ref().err(), w.as_ref().err(), "{what}: errors"),
        }
        got
    };
    let _ = compare(&untraced, false);
    compare(&traced, true)
}

/// A random graph of 1–48 tasks over every resource kind of `cores` cores.
/// Durations come from a small menu, so ends tie often; barriers and empty
/// transfers take zero cycles; dependencies point to earlier tasks (with
/// repeats), so DMA tasks may or may not have consumers. With `faults`, a
/// task sometimes names a later or nonexistent task, or a missing core.
fn random_graph(rng: &mut StdRng, cores: usize, faults: bool) -> TaskGraph {
    let n = rng.gen_range(1..49usize);
    // `TaskId`s for any index, including ones past the end of the graph.
    let mut ids_source = TaskGraph::new();
    let ids: Vec<TaskId> = (0..n + 2)
        .map(|_| ids_source.add_task("id", Resource::DmaIn, TaskKind::Barrier, &[]))
        .collect();
    let mut g = TaskGraph::new();
    for i in 0..n {
        let core = if faults && rng.gen_range(0..40u32) == 0 {
            cores
        } else {
            rng.gen_range(0..cores)
        };
        let resource = match rng.gen_range(0..4u32) {
            0 => Resource::DmaIn,
            1 => Resource::DmaOut,
            2 => Resource::Mac { core },
            _ => Resource::Vec { core },
        };
        let pick = |rng: &mut StdRng, menu: &[usize]| menu[rng.gen_range(0..menu.len())];
        let kind = match rng.gen_range(0..7u32) {
            0 => TaskKind::Barrier,
            1 => TaskKind::DramLoad {
                bytes: pick(rng, &[0, 64, 512, 4096]),
            },
            2 => TaskKind::DramStore {
                bytes: pick(rng, &[0, 64, 512]),
            },
            3 | 4 => TaskKind::MatMul {
                m: pick(rng, &[1, 16, 32]),
                k: pick(rng, &[8, 64]),
                n: pick(rng, &[16, 32]),
            },
            5 => TaskKind::Softmax {
                rows: pick(rng, &[1, 16]),
                cols: pick(rng, &[16, 64]),
            },
            _ => TaskKind::VecOp {
                elements: pick(rng, &[0, 256, 1024]),
                passes: rng.gen_range(1..3usize),
            },
        };
        let mut deps = Vec::new();
        if i > 0 {
            for _ in 0..rng.gen_range(0..4u32) {
                deps.push(ids[rng.gen_range(0..i)]);
            }
        }
        if faults && rng.gen_range(0..25u32) == 0 {
            deps.push(ids[rng.gen_range(i..n + 2)]);
        }
        g.add_task(format!("t{i}"), resource, kind, &deps);
    }
    g
}

fn device(cores: usize) -> HardwareConfig {
    HardwareConfig {
        cores,
        ..HardwareConfig::edge_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn random_dags_schedule_exactly_as_the_reference(
        seed in 0u64..u64::MAX,
        cores in 1usize..4,
        faults in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, cores, faults == 1);
        let _ = check(&device(cores), &graph, &format!("seed {seed}, {cores} cores"));
    }
}

/// The random graphs reach every outcome the oracle must pin: successful
/// runs with zero-cycle tasks and equal-end ties, and each graph error.
#[test]
fn random_dags_cover_every_outcome() {
    let (mut ok, mut zero_cycle, mut ties) = (0, 0, 0);
    let (mut unknown_dep, mut cyclic, mut unknown_core) = (0, 0, 0);
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cores = 1 + (seed % 3) as usize;
        let graph = random_graph(&mut rng, cores, true);
        match Executor::new(device(cores), EnergyModel::edge_16nm()).run(&graph) {
            Ok(report) => {
                ok += 1;
                let entries = report.trace.as_ref().expect("trace recorded").entries();
                zero_cycle += entries.iter().filter(|e| e.duration() == 0).count();
                let mut ends: Vec<u64> = entries.iter().map(|e| e.end_cycle).collect();
                ends.sort_unstable();
                ties += ends.windows(2).filter(|w| w[0] == w[1]).count();
            }
            Err(SimError::UnknownDependency { .. }) => unknown_dep += 1,
            Err(SimError::CyclicGraph { .. }) => cyclic += 1,
            Err(SimError::UnknownResource { .. }) => unknown_core += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    for (what, count) in [
        ("successful runs", ok),
        ("zero-cycle tasks", zero_cycle),
        ("equal-end ties", ties),
        ("unknown dependencies", unknown_dep),
        ("cycles", cyclic),
        ("unknown cores", unknown_core),
    ] {
        assert!(count > 0, "the generator produced no {what}");
    }
}

/// Every Table 1 network under every method at the heuristic tiling.
#[test]
fn table1_graphs_schedule_exactly_as_the_reference() {
    let hw = HardwareConfig::edge_default();
    for network in Network::all() {
        let w = network.attention_workload(1);
        let tiling = Tiling::heuristic(&w, &hw);
        for kind in DataflowKind::all() {
            let schedule = build_dataflow(kind, &w, &tiling, &hw).expect("dataflow builds");
            check(&hw, schedule.graph(), &format!("{network} {kind}")).expect("simulates");
        }
    }
}

/// A seeded sample of the tiling search space of the two networks the
/// search workloads tune, under every method whose L1 footprint fits.
#[test]
fn searched_tilings_schedule_exactly_as_the_reference() {
    let hw = HardwareConfig::edge_default();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for network in [Network::BertSmall, Network::T5Mini] {
        let w: AttentionWorkload = network.attention_workload(1);
        let space = SearchSpace::for_workload(&w, &hw);
        for _ in 0..SAMPLES_PER_NETWORK {
            let tiling = space.sample(&mut rng, &w);
            for kind in DataflowKind::all() {
                if !tiling_fits(kind, &w, &tiling, &hw) {
                    continue;
                }
                let schedule = build_dataflow(kind, &w, &tiling, &hw).expect("dataflow builds");
                check(
                    &hw,
                    schedule.graph(),
                    &format!("{network} {kind} {tiling:?}"),
                )
                .expect("simulates");
            }
        }
    }
}

/// Search-space points sampled per network; bounded so the quadratic
/// reference stays within a few seconds in the debug test profile.
const SAMPLES_PER_NETWORK: usize = 6;
