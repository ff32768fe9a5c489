//! Differential oracle for the cycle simulator's list scheduler.
//!
//! [`reference_run`] is the list scheduler `mas_sim::Executor::run` was
//! first written as, kept here apart from the lookups that need
//! crate-private items: it re-sorts the resources by display name on every
//! start pass, keeps each ready queue as an ordered set of
//! `(priority, program index)` pairs, reads every task of the expanded
//! graph ([`TaskGraph::iter`]) and validates it with a separate Kahn pass.
//! It plainly follows the scheduling contract of the `mas_sim::executor`
//! docs. The executor must reproduce its
//! `SimReport` exactly — cycles, seconds and every energy component bit for
//! bit, per-resource busy cycles, MAC/VEC overlap and every trace entry in
//! order — and its errors. The oracle is built only on public `mas_sim`
//! items.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use mas_dataflow::footprint::tiling_fits;
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_search::SearchSpace;
use mas_sim::task::{Label, Task};
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
    let tasks: Vec<Task<'_>> = graph.iter().collect();

    let n = graph.len();
    let mut remaining_deps = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for task in graph.iter() {
        remaining_deps[task.id.index()] = task.deps().len();
        for dep in task.deps() {
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
    let mut ready: HashMap<Resource, BTreeSet<(usize, usize)>> = HashMap::new();
    for task in graph.iter() {
        ready.entry(task.resource).or_default();
    }
    let enqueue = |queue: &mut BTreeSet<(usize, usize)>, priority: &[usize], index: usize| {
        queue.insert((priority[index], index));
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
                if let Some((_, index)) = queue.pop_first() {
                    let task = &tasks[index];
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
                            label: task.label.clone().into_owned(),
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
                            let task = &tasks[dep_index];
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
        g.add_task(Label::new("t{0}", [i]), resource, kind, &deps);
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

/// A random periodic graph, the shape the steady-state fast-forward and
/// a stream's stretches skip over: a zero-cycle warm-up of none, a few or 4,200 tasks (so
/// skips are checked from the first periods on and after a long start)
/// and a prologue of 0–3 transfers, then
/// a random round template of 2–10 tasks repeated 8–300 times per chunk,
/// one chunk per core, laid out chunk after chunk or round by round. A
/// template task runs on a DMA channel or on its chunk's MAC or VEC unit,
/// may take zero cycles, and waits on earlier tasks of its round, on tasks
/// one or two rounds back and on prologue tasks; DMA tasks may or may not
/// have consumers. One task of one round, at a random place, does
/// different work. In half the graphs the first task of every other
/// round is a short load with no dependencies, a stream the DMA runs ahead
/// of the compute units in stretches.
///
/// The rounds are added through the template API: a period is two rounds
/// of every chunk laid out together, and after each period from the third
/// on, the periods that follow up to the odd round (or the end) are
/// repeated ([`TaskGraph::repeat`]). The graph refuses the repeat when the
/// two periods it compares differ, so the stored form stops at the odd
/// round and resumes after it.
fn periodic_graph(rng: &mut StdRng, cores: usize) -> TaskGraph {
    let pick = |rng: &mut StdRng, menu: &[usize]| menu[rng.gen_range(0..menu.len())];
    let kind = |rng: &mut StdRng| match rng.gen_range(0..7u32) {
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
    let mut g = TaskGraph::new();
    // Zero-cycle barriers on every compute unit all start at cycle 0, ahead
    // of the rounds.
    let warmup = match rng.gen_range(0..3u32) {
        0 => 0,
        1 => rng.gen_range(1..16usize),
        _ => 4_200,
    };
    for i in 0..warmup {
        let core = i / 2 % cores;
        let resource = if i % 2 == 0 {
            Resource::Mac { core }
        } else {
            Resource::Vec { core }
        };
        g.add_task(
            Label::new("warm-up {0}", [i]),
            resource,
            TaskKind::Barrier,
            &[],
        );
    }
    let prologue: Vec<TaskId> = (0..rng.gen_range(0..4usize))
        .map(|i| {
            g.add_task(
                Label::new("prologue {0}", [i]),
                Resource::DmaIn,
                TaskKind::DramLoad {
                    bytes: pick(rng, &[64, 4096]),
                },
                &[],
            )
        })
        .collect();
    // Per template task: resource class, kind, and what it waits on.
    struct Step {
        unit: u32,
        kind: TaskKind,
        same_round: Vec<usize>,
        back: Vec<(usize, usize)>,
        fixed: Vec<TaskId>,
    }
    let size = rng.gen_range(2..11usize);
    let mut template: Vec<Step> = (0..size)
        .map(|pos| Step {
            unit: rng.gen_range(0..4u32),
            kind: kind(rng),
            same_round: (0..rng.gen_range(0..3u32))
                .filter(|_| pos > 0)
                .map(|_| rng.gen_range(0..pos.max(1)))
                .collect(),
            back: (0..rng.gen_range(0..3u32))
                .map(|_| (rng.gen_range(1..3usize), rng.gen_range(0..size)))
                .collect(),
            fixed: (0..rng.gen_range(0..2u32))
                .filter(|_| !prologue.is_empty())
                .map(|_| prologue[rng.gen_range(0..prologue.len())])
                .collect(),
        })
        .collect();
    // Half the graphs stream: the first task of each even round is a short
    // load with no dependencies, like a query row the DMA prefetches (in an
    // odd round it is a store), so each chunk streams one template task.
    let streamed = rng.gen_range(0..2u32) == 0;
    if streamed {
        template[0] = Step {
            unit: 0,
            kind: TaskKind::DramLoad {
                bytes: pick(rng, &[64, 512]),
            },
            same_round: Vec::new(),
            back: Vec::new(),
            fixed: Vec::new(),
        };
    }
    let rounds = rng.gen_range(8..301usize);
    let odd = (
        rng.gen_range(0..cores),
        rng.gen_range(0..rounds),
        rng.gen_range(0..size),
    );
    let odd_kind = TaskKind::VecOp {
        elements: 777,
        passes: 3,
    };
    let mut ids = vec![vec![Vec::with_capacity(size); rounds]; cores];
    let chunk_major = rng.gen_range(0..2u32) == 0;
    let runs: Vec<Vec<(usize, usize)>> = if chunk_major {
        (0..cores)
            .map(|c| (0..rounds).map(|r| (c, r)).collect())
            .collect()
    } else {
        vec![(0..rounds)
            .flat_map(|r| (0..cores).map(move |c| (c, r)))
            .collect()]
    };
    let per_period = 2 * runs[0].len() / rounds;
    for units in runs {
        let periods = units.len() / per_period;
        let odd_period = units.iter().position(|&(c, r)| (c, r) == (odd.0, odd.1));
        let mut p = 0;
        let mut u = 0;
        while u < units.len() {
            let start = g.next_id();
            for &(c, r) in &units[u..(u + per_period).min(units.len())] {
                for (pos, step) in template.iter().enumerate() {
                    let resource = match step.unit {
                        0 if streamed && pos == 0 && r % 2 == 1 => Resource::DmaOut,
                        0 => Resource::DmaIn,
                        1 => Resource::DmaOut,
                        2 => Resource::Mac { core: c },
                        _ => Resource::Vec { core: c },
                    };
                    let mut deps: Vec<TaskId> = step.fixed.clone();
                    deps.extend(step.same_round.iter().map(|&p| ids[c][r][p]));
                    deps.extend(
                        step.back
                            .iter()
                            .filter(|&&(lag, _)| r >= lag)
                            .map(|&(lag, p)| ids[c][r - lag][p]),
                    );
                    let kind = if (c, r, pos) == odd {
                        odd_kind
                    } else {
                        step.kind
                    };
                    let id = g.add_task(
                        Label::new("c{0} r{1} t{2}", [c, r, pos]),
                        resource,
                        kind,
                        &deps,
                    );
                    ids[c][r].push(id);
                }
            }
            u += per_period;
            p += 1;
            // Repeat this period over the whole periods before the odd one.
            let until = odd_period.map_or(periods, |at| {
                if at / per_period >= p {
                    at / per_period
                } else {
                    periods
                }
            });
            if p < 3 || until <= p {
                continue;
            }
            let times = until - p;
            if let Some(len) = g.repeat(start, times) {
                for k in 1..=times {
                    for v in 0..per_period {
                        let (c0, r0) = units[u - per_period + v];
                        let (c, r) = units[u - per_period + v + k * per_period];
                        ids[c][r] = ids[c0][r0].iter().map(|id| id.later(k * len)).collect();
                    }
                }
                u += times * per_period;
                p += times;
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn periodic_graphs_schedule_exactly_as_the_reference(
        seed in 0u64..u64::MAX,
        cores in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = periodic_graph(&mut rng, cores);
        // One traced reference run pins both executor runs: an untraced
        // report is the traced one without its trace.
        let hw = device(cores);
        let energy = EnergyModel::edge_16nm();
        let traced = Executor::new(hw, energy);
        let want = reference_run(traced.timing(), &energy, true, &graph.expand()).expect("simulates");
        let what = format!("periodic seed {seed}, {cores} cores");
        assert_identical(&traced.run(&graph).expect("simulates"), &want, &what);
        let untraced = traced.without_trace().run(&graph).expect("simulates");
        assert_identical(&untraced, &SimReport { trace: None, ..want }, &what);
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

/// Golden digests of the naive-tiling reports, one row per network, method
/// and trace setting (`golden/naive_reports.tsv`).
const NAIVE_REPORTS: &str = include_str!("golden/naive_reports.tsv");

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// An FNV-1a digest of every `SimReport` field: integers as written, floats
/// by `to_bits`, the busy map in key order and the rendered trace.
fn report_digest(report: &SimReport) -> u64 {
    let mut text = format!(
        "{} {:016x} {} {} {} {} {} {}\n",
        report.total_cycles,
        report.total_seconds.to_bits(),
        report.dram_read_bytes,
        report.dram_write_bytes,
        report.mac_ops,
        report.vec_ops,
        report.tasks_executed,
        report.mac_vec_overlap_cycles,
    );
    for (name, pj) in report.energy.components() {
        text.push_str(&format!("{name} {:016x}\n", pj.to_bits()));
    }
    for (resource, cycles) in &report.busy_cycles {
        text.push_str(&format!("{resource} {cycles}\n"));
    }
    let mut hash = fnv1a(text.as_bytes(), 0xcbf2_9ce4_8422_2325);
    match &report.trace {
        Some(trace) => {
            for e in trace.entries() {
                let line = format!(
                    "{}\t{}\t{}\t{}\t{}\n",
                    e.task, e.resource, e.start_cycle, e.end_cycle, e.label
                );
                hash = fnv1a(line.as_bytes(), hash);
            }
        }
        None => hash = fnv1a(b"untraced", hash),
    }
    hash
}

/// The naive single-row tiling is the first candidate every tuning run
/// simulates and the largest graph the search builds. Its reports for the
/// two tuned networks under every method, traced and untraced, must keep
/// the digests recorded before the executor learned to fast-forward over
/// repeating rounds. On a row-count mismatch the computed rows are printed.
#[test]
fn naive_reports_keep_their_golden_digests() {
    let hw = HardwareConfig::edge_default();
    let traced = Executor::new(hw.clone(), EnergyModel::edge_16nm());
    let untraced = traced.clone().without_trace();
    let mut rows = Vec::new();
    for network in [Network::BertSmall, Network::T5Mini] {
        let w = network.attention_workload(1);
        for kind in DataflowKind::all() {
            let schedule =
                build_dataflow(kind, &w, &Tiling::naive(&w), &hw).expect("dataflow builds");
            for (mode, exec) in [("untraced", &untraced), ("traced", &traced)] {
                let report = exec.run(schedule.graph()).expect("simulates");
                rows.push(format!(
                    "{network}\t{kind:?}\t{mode}\t{}\t{}\t{:016x}",
                    schedule.graph().len(),
                    report.total_cycles,
                    report_digest(&report)
                ));
            }
        }
    }
    let golden: Vec<&str> = NAIVE_REPORTS.lines().collect();
    if rows.len() != golden.len() {
        panic!(
            "golden row count {}; computed:\n{}",
            golden.len(),
            rows.join("\n")
        );
    }
    for (got, want) in rows.iter().zip(golden) {
        assert_eq!(got, want);
    }
}
