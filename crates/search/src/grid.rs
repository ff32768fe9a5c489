//! Exhaustive grid search.
//!
//! The paper uses grid search on the DaVinci NPU, "leveraging its
//! compatibility with the hardware's structured memory model" (§4.2): the
//! candidate space there is small enough to sweep completely. The same
//! implementation doubles as the exhaustive oracle against which the
//! heuristic searches are validated in tests.
//!
//! The sweep is evaluated in chunks through [`CostModel::evaluate_batch`], so
//! uncached candidates simulate in parallel while the best-so-far fold (and
//! therefore the convergence history) still walks the space in order.

use mas_dataflow::Tiling;

use crate::convergence::ConvergenceHistory;
use crate::cost::CostModel;
use crate::space::SearchSpace;

/// Result of one search run (shared by all algorithms in this crate).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best tiling found (`None` if no candidate was valid).
    pub best: Option<Tiling>,
    /// Objective value of the best tiling.
    pub best_objective: f64,
    /// Number of candidates considered.
    pub candidates: usize,
    /// Convergence trajectory.
    pub history: ConvergenceHistory,
}

/// Exhaustive sweep over the whole search space.
#[derive(Debug, Clone, Copy)]
pub struct GridSearch;

impl GridSearch {
    /// Candidates evaluated per [`CostModel::evaluate_batch`] call: enough to
    /// keep every worker thread busy without delaying the best-so-far fold.
    /// Convergence-history evaluation counts quantize to these boundaries —
    /// a parallel batch spends all its simulator evaluations before any
    /// best-so-far within the batch is known.
    const BATCH: usize = 64;

    /// Runs the sweep.
    pub fn run(&self, space: &SearchSpace, model: &mut CostModel) -> SearchOutcome {
        let workload = model.workload().clone();
        let mut best: Option<Tiling> = None;
        let mut best_objective = f64::INFINITY;
        let mut history = ConvergenceHistory::new();
        let mut candidates = 0usize;
        let sweep: Vec<Tiling> = space.iter(&workload).collect();
        for chunk in sweep.chunks(Self::BATCH) {
            let values = model.objective_batch(chunk);
            for (tiling, value) in chunk.iter().zip(values) {
                candidates += 1;
                if value < best_objective {
                    best_objective = value;
                    best = Some(*tiling);
                }
                if best_objective.is_finite() {
                    history.record(candidates, model.evaluations(), best_objective);
                }
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
    use mas_dataflow::{AttentionWorkload, DataflowKind};
    use mas_sim::HardwareConfig;

    fn setup() -> (SearchSpace, CostModel) {
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let hw = HardwareConfig::edge_default();
        let space = SearchSpace::for_workload(&w, &hw);
        let model = CostModel::new(DataflowKind::MasAttention, w, hw);
        (space, model)
    }

    #[test]
    fn grid_search_finds_the_global_optimum() {
        let (space, mut model) = setup();
        let outcome = GridSearch.run(&space, &mut model);
        let best = outcome.best.expect("at least one valid tiling");
        // Verify optimality by re-checking every candidate.
        let workload = model.workload().clone();
        for t in space.iter(&workload) {
            assert!(
                model.objective_value(&t) >= outcome.best_objective - 1e-9,
                "grid search missed a better candidate {t}"
            );
        }
        assert!(model.objective_value(&best) <= outcome.best_objective + 1e-9);
        assert_eq!(outcome.candidates, space.len());
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let (space, mut model) = setup();
        let outcome = GridSearch.run(&space, &mut model);
        let points = outcome.history.points();
        assert!(!points.is_empty());
        for w in points.windows(2) {
            assert!(w[1].best_objective <= w[0].best_objective);
        }
    }
}
