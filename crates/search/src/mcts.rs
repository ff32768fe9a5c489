//! Monte-Carlo Tree Search over tiling decisions.
//!
//! Following §4.2 of the paper: "At each step, MCTS selects a loop and
//! assigns a tiling factor ..., updating constraints and passing them to the
//! next untiled loop. Once all tiling factors are determined, a complete
//! fusion mapping is produced ... which is then evaluated. The results of
//! each evaluation are fed back to MCTS to update the upper confidence
//! bounds (UCB), guiding subsequent searches."
//!
//! The tree has one level per tiling dimension (`B_b`, `H_h`, `N_Q`,
//! `N_{K,V}`); each node holds UCB statistics for its children. A playout
//! descends the tree with UCB1 selection, completes any undecided dimensions
//! uniformly at random, evaluates the resulting tiling with the cost model
//! and backpropagates a reward derived from the best cost seen so far.
//!
//! With [`MctsSearch::with_rollout_batch`] each playout completes the
//! selected prefix into several rollouts ("leaf parallelization"): the
//! rollout tilings are evaluated together through
//! [`CostModel::evaluate_batch`] — simulating uncached candidates in
//! parallel — and their rewards are backpropagated along the shared
//! selection path. A batch of 1 reproduces the classic sequential playout
//! exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mas_dataflow::Tiling;

use crate::convergence::ConvergenceHistory;
use crate::cost::CostModel;
use crate::grid::SearchOutcome;
use crate::space::SearchSpace;

/// UCB1 exploration constant.
const UCB_C: f64 = std::f64::consts::SQRT_2;

/// Monte-Carlo Tree Search over the four tiling decisions.
#[derive(Debug, Clone)]
pub struct MctsSearch {
    /// Number of playouts (each playout evaluates `rollout_batch` tilings).
    pub iterations: usize,
    /// RNG seed for rollout completion.
    pub seed: u64,
    /// Rollouts completed (and evaluated as one batch) per playout.
    pub rollout_batch: usize,
}

#[derive(Debug)]
struct Node {
    visits: u64,
    total_reward: f64,
    /// Children indexed by the candidate position along this node's axis.
    children: Vec<Option<usize>>,
    /// Which axis this node decides (0..4), 4 means leaf.
    depth: usize,
}

impl MctsSearch {
    /// Creates an MCTS search with the given playout budget and seed
    /// (sequential playouts: one rollout each).
    #[must_use]
    pub fn new(iterations: usize, seed: u64) -> Self {
        Self {
            iterations,
            seed,
            rollout_batch: 1,
        }
    }

    /// Sets how many rollouts each playout completes and evaluates as one
    /// parallel batch (clamped to at least 1).
    #[must_use]
    pub fn with_rollout_batch(mut self, rollout_batch: usize) -> Self {
        self.rollout_batch = rollout_batch.max(1);
        self
    }

    /// Runs the search.
    pub fn run(&self, space: &SearchSpace, model: &mut CostModel) -> SearchOutcome {
        let workload = model.workload().clone();
        let axes = space.axes();
        let axis_lens: Vec<usize> = axes.iter().map(|a| a.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut nodes: Vec<Node> = vec![Node {
            visits: 0,
            total_reward: 0.0,
            children: vec![None; axis_lens[0]],
            depth: 0,
        }];

        let mut best: Option<Tiling> = None;
        let mut best_objective = f64::INFINITY;
        // Running scale used to normalize rewards into (0, 1].
        let mut reference_cost = f64::NAN;
        let mut history = ConvergenceHistory::new();
        let mut candidates = 0usize;

        for iter in 0..self.iterations {
            // --- Selection / expansion ------------------------------------
            let mut path = vec![0usize];
            let mut choices: Vec<usize> = Vec::with_capacity(4);
            loop {
                let node_id = *path.last().expect("path is non-empty");
                let depth = nodes[node_id].depth;
                if depth == 4 {
                    break;
                }
                let n_children = axis_lens[depth];
                // Pick an unexpanded child first, otherwise UCB1.
                let unexpanded: Vec<usize> = (0..n_children)
                    .filter(|&c| nodes[node_id].children[c].is_none())
                    .collect();
                let choice = if !unexpanded.is_empty() {
                    unexpanded[rng.gen_range(0..unexpanded.len())]
                } else {
                    let parent_visits = nodes[node_id].visits.max(1) as f64;
                    (0..n_children)
                        .max_by(|&a, &b| {
                            let ucb = |c: usize| {
                                let child = &nodes
                                    [nodes[node_id].children[c].expect("expanded child exists")];
                                let mean = child.total_reward / child.visits.max(1) as f64;
                                mean + UCB_C
                                    * (parent_visits.ln() / child.visits.max(1) as f64).sqrt()
                            };
                            ucb(a).partial_cmp(&ucb(b)).expect("ucb values are finite")
                        })
                        .expect("node has children")
                };
                choices.push(choice);
                let child_id = match nodes[node_id].children[choice] {
                    Some(id) => id,
                    None => {
                        let child_depth = depth + 1;
                        let child = Node {
                            visits: 0,
                            total_reward: 0.0,
                            children: if child_depth < 4 {
                                vec![None; axis_lens[child_depth]]
                            } else {
                                Vec::new()
                            },
                            depth: child_depth,
                        };
                        nodes.push(child);
                        let id = nodes.len() - 1;
                        nodes[node_id].children[choice] = Some(id);
                        id
                    }
                };
                path.push(child_id);
                // After expanding a fresh node, stop selection and roll out.
                if nodes[child_id].visits == 0 {
                    break;
                }
            }

            // --- Rollouts: complete the remaining dimensions randomly ------
            // Each rollout extends the shared selection prefix; the batch is
            // evaluated together (parallel over uncached candidates).
            let rollouts: Vec<Tiling> = (0..self.rollout_batch.max(1))
                .map(|_| {
                    let mut full_choices = choices.clone();
                    for &axis_len in &axis_lens[choices.len()..] {
                        full_choices.push(rng.gen_range(0..axis_len));
                    }
                    Tiling::new(
                        axes[0][full_choices[0]],
                        axes[1][full_choices[1]],
                        axes[2][full_choices[2]],
                        axes[3][full_choices[3]],
                        &workload,
                    )
                })
                .collect();
            let values = model.objective_batch(&rollouts);
            candidates += rollouts.len();
            for (tiling, &value) in rollouts.iter().zip(&values) {
                if value < best_objective {
                    best_objective = value;
                    best = Some(*tiling);
                }
            }
            if best_objective.is_finite() {
                history.record(iter + 1, model.evaluations(), best_objective);
            }

            // --- Backpropagation -------------------------------------------
            if reference_cost.is_nan() {
                if let Some(&first_finite) = values.iter().find(|v| v.is_finite()) {
                    reference_cost = first_finite;
                }
            }
            let mut reward_sum = 0.0f64;
            for &value in &values {
                reward_sum += if value.is_finite() {
                    // Rewards in (0, 1]; lower cost → higher reward.
                    (reference_cost / value).clamp(1e-6, 1.0)
                } else {
                    0.0
                };
            }
            let visits = values.len() as u64;
            for &node_id in &path {
                nodes[node_id].visits += visits;
                nodes[node_id].total_reward += reward_sum;
            }
        }

        SearchOutcome {
            best,
            best_objective,
            candidates,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSearch;
    use mas_dataflow::{AttentionWorkload, DataflowKind};
    use mas_sim::HardwareConfig;

    fn setup(kind: DataflowKind) -> (SearchSpace, CostModel) {
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let hw = HardwareConfig::edge_default();
        let space = SearchSpace::for_workload(&w, &hw);
        let model = CostModel::new(kind, w, hw);
        (space, model)
    }

    #[test]
    fn mcts_is_reproducible() {
        let (space, mut model) = setup(DataflowKind::MasAttention);
        let a = MctsSearch::new(30, 5).run(&space, &mut model);
        let b = MctsSearch::new(30, 5).run(&space, &mut model);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn mcts_approaches_the_grid_optimum_on_a_small_space() {
        let (space, mut model) = setup(DataflowKind::MasAttention);
        let grid = GridSearch.run(&space, &mut model);
        let mcts = MctsSearch::new(space.len() * 3, 13).run(&space, &mut model);
        let optimum = grid.best_objective;
        assert!(
            mcts.best_objective <= optimum * 1.05,
            "MCTS ({}) should be within 5% of the grid optimum ({optimum})",
            mcts.best_objective
        );
    }

    #[test]
    fn mcts_improves_over_iterations() {
        let (space, mut model) = setup(DataflowKind::Flat);
        let outcome = MctsSearch::new(60, 3).run(&space, &mut model);
        let history = outcome.history;
        assert!(!history.points().is_empty());
        assert!(history.improvement_factor().unwrap_or(1.0) >= 1.0);
    }

    #[test]
    fn rollout_batches_are_reproducible_and_count_candidates() {
        let (space, mut model) = setup(DataflowKind::MasAttention);
        let a = MctsSearch::new(12, 5)
            .with_rollout_batch(4)
            .run(&space, &mut model);
        let b = MctsSearch::new(12, 5)
            .with_rollout_batch(4)
            .run(&space, &mut model);
        assert_eq!(a.best, b.best);
        assert_eq!(a.candidates, 12 * 4);
    }

    #[test]
    fn batched_rollouts_find_comparable_optima() {
        let (space, mut model) = setup(DataflowKind::MasAttention);
        let sequential = MctsSearch::new(60, 13).run(&space, &mut model);
        let batched = MctsSearch::new(15, 13)
            .with_rollout_batch(4)
            .run(&space, &mut model);
        // Same evaluation budget; leaf parallelization must stay in the same
        // quality ballpark (2x here, loose enough to be seed-robust).
        assert!(batched.best_objective <= sequential.best_objective * 2.0);
    }

    #[test]
    fn best_tiling_is_valid() {
        let (space, mut model) = setup(DataflowKind::TileFlow);
        let outcome = MctsSearch::new(40, 17).run(&space, &mut model);
        let best = outcome.best.expect("a valid tiling is found");
        assert!(model.is_valid(&best));
    }
}
