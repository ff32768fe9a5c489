//! `TaskGraph::validate` against the Kahn-based check it replaced.
//!
//! [`reference_validate`] is the earlier `validate`, kept verbatim apart
//! from reading tasks through the public accessors: it checks every
//! dependency id, then runs Kahn's algorithm with one dependents list per
//! task. The single-pass `validate` must return the same `Result` on every
//! graph, including graphs with forward, self, repeated and unknown
//! dependencies and with cycles.

use mas_sim::{Resource, Result, SimError, TaskGraph, TaskId, TaskKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The earlier `TaskGraph::validate` (see the module docs).
fn reference_validate(graph: &TaskGraph) -> Result<()> {
    for task in graph.iter() {
        for dep in task.deps() {
            if dep.index() >= graph.len() {
                return Err(SimError::UnknownDependency {
                    task: task.id,
                    dependency: *dep,
                });
            }
        }
    }
    // Kahn's algorithm to detect cycles.
    let n = graph.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for task in graph.iter() {
        for dep in task.deps() {
            indegree[task.id.index()] += 1;
            dependents[dep.index()].push(task.id.index());
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

/// A random graph of 0–39 tasks with up to four dependencies each. Most
/// dependencies point backwards; with `faults`, some point forwards, to the
/// task itself, to a repeat of an earlier pick or past the end of the
/// graph, so forward edges may or may not close a cycle.
fn random_graph(rng: &mut StdRng, faults: bool) -> TaskGraph {
    let n = rng.gen_range(0..40usize);
    // `TaskId`s for any index, including ones past the end of the graph.
    let mut ids_source = TaskGraph::new();
    let ids: Vec<TaskId> = (0..n + 3)
        .map(|_| ids_source.add_task("id", Resource::DmaIn, TaskKind::Barrier, &[]))
        .collect();
    let mut g = TaskGraph::new();
    for i in 0..n {
        let mut deps: Vec<TaskId> = Vec::new();
        for _ in 0..rng.gen_range(0..5u32) {
            let fault = if faults { rng.gen_range(0..12u32) } else { 4 };
            let dep = match fault {
                0 => ids[rng.gen_range(i..n)],
                1 => ids[i],
                2 if !deps.is_empty() => deps[rng.gen_range(0..deps.len())],
                3 => ids[rng.gen_range(n..n + 3)],
                _ if i > 0 => ids[rng.gen_range(0..i)],
                _ => continue,
            };
            deps.push(dep);
        }
        g.add_task(
            format!("t{i}"),
            Resource::Mac { core: 0 },
            TaskKind::Barrier,
            &deps,
        );
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_matches_the_kahn_reference(seed in 0u64..u64::MAX, faults in 0u8..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, faults == 1);
        prop_assert_eq!(graph.validate(), reference_validate(&graph));
    }
}

/// The generator reaches every outcome: valid graphs with only backward
/// dependencies, valid graphs with forward ones, unknown dependencies and
/// cycles.
#[test]
fn random_graphs_cover_every_outcome() {
    let (mut backward, mut forward_ok, mut unknown, mut cyclic) = (0, 0, 0, 0);
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = random_graph(&mut rng, seed % 2 == 1);
        let all_backward = graph
            .iter()
            .all(|t| t.deps().iter().all(|d| d.index() < t.id.index()));
        match graph.validate() {
            Ok(()) if all_backward => backward += 1,
            Ok(()) => forward_ok += 1,
            Err(SimError::UnknownDependency { .. }) => unknown += 1,
            Err(SimError::CyclicGraph { .. }) => cyclic += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    for (what, count) in [
        ("backward-only graphs", backward),
        ("valid graphs with forward dependencies", forward_ok),
        ("unknown dependencies", unknown),
        ("cycles", cyclic),
    ] {
        assert!(count > 0, "the generator produced no {what}");
    }
}
