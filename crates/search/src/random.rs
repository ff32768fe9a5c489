//! Random search baseline.
//!
//! Uniform sampling from the search space. Not used by the paper itself, but
//! a standard baseline for validating that MCTS and the genetic algorithm
//! actually add value over blind sampling.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::convergence::ConvergenceHistory;
use crate::cost::CostModel;
use crate::grid::SearchOutcome;
use crate::space::SearchSpace;

/// Uniform random sampling of tilings.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Number of samples to draw.
    pub samples: usize,
    /// RNG seed (searches are reproducible).
    pub seed: u64,
}

impl RandomSearch {
    /// Creates a random search with the given sample budget and seed.
    #[must_use]
    pub fn new(samples: usize, seed: u64) -> Self {
        Self { samples, seed }
    }

    /// Samples evaluated per [`CostModel::evaluate_batch`] call. Convergence
    /// history evaluation counts quantize to these boundaries: a parallel
    /// batch spends all its simulator evaluations before any best-so-far
    /// within the batch is known.
    const BATCH: usize = 64;

    /// Runs the search.
    ///
    /// All samples are drawn up front (the RNG stream is identical to the
    /// one-at-a-time formulation) and evaluated in batches through
    /// [`CostModel::evaluate_batch`], so uncached candidates simulate in
    /// parallel while the best-so-far fold still follows sample order.
    pub fn run(&self, space: &SearchSpace, model: &mut CostModel) -> SearchOutcome {
        let workload = model.workload().clone();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samples: Vec<_> = (0..self.samples)
            .map(|_| space.sample(&mut rng, &workload))
            .collect();
        let mut best = None;
        let mut best_objective = f64::INFINITY;
        let mut history = ConvergenceHistory::new();
        let mut i = 0usize;
        for chunk in samples.chunks(Self::BATCH) {
            let values = model.objective_batch(chunk);
            for (tiling, value) in chunk.iter().zip(values) {
                i += 1;
                if value < best_objective {
                    best_objective = value;
                    best = Some(*tiling);
                }
                if best_objective.is_finite() {
                    history.record(i, model.evaluations(), best_objective);
                }
            }
        }
        SearchOutcome {
            best,
            best_objective,
            candidates: self.samples,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Objective;
    use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling};
    use mas_sim::HardwareConfig;

    fn setup() -> (SearchSpace, CostModel) {
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let hw = HardwareConfig::edge_default();
        let space = SearchSpace::for_workload(&w, &hw);
        let model = CostModel::new(DataflowKind::Flat, w, hw, Objective::Latency);
        (space, model)
    }

    #[test]
    fn random_search_is_reproducible() {
        let (space, mut model) = setup();
        let a = RandomSearch::new(20, 7).run(&space, &mut model);
        let b = RandomSearch::new(20, 7).run(&space, &mut model);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_objective, b.best_objective);
    }

    #[test]
    fn more_samples_never_hurt() {
        let (space, mut model) = setup();
        let small = RandomSearch::new(5, 11).run(&space, &mut model);
        let large = RandomSearch::new(50, 11).run(&space, &mut model);
        assert!(large.best_objective <= small.best_objective);
    }

    #[test]
    fn random_search_beats_the_naive_tiling() {
        let (space, mut model) = setup();
        let outcome = RandomSearch::new(30, 3).run(&space, &mut model);
        let workload = model.workload().clone();
        let naive = model.objective_value(&Tiling::naive(&workload));
        assert!(outcome.best_objective <= naive);
    }
}
