//! Genetic-algorithm refinement.
//!
//! In the paper the genetic algorithm refines the mapping found by MCTS:
//! "GA generates a population of analysis trees, applies crossover and
//! mutation, and evaluates each tree using the tiling factors. Through
//! repeated iterations, the best analysis tree is selected as the optimal
//! fusion dataflow" (§4.2). In this reproduction the mapping is fully
//! described by the tiling vector (the compute ordering is fixed by each
//! dataflow builder), so the GA refines the tiling: individuals are tilings,
//! crossover mixes dimensions from two parents, and mutation moves one
//! dimension to a neighbouring candidate value. Every generation is scored
//! through [`CostModel::objective_batch`], which simulates the uncached
//! individuals in parallel.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mas_dataflow::Tiling;

use crate::convergence::ConvergenceHistory;
use crate::cost::CostModel;
use crate::grid::SearchOutcome;
use crate::space::SearchSpace;

/// Genetic-algorithm configuration.
#[derive(Debug, Clone)]
pub struct GeneticSearch {
    /// Number of individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// Number of top individuals carried over unchanged.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional seed individuals (e.g. the best tilings found by MCTS).
    pub seeds: Vec<Tiling>,
}

impl GeneticSearch {
    /// Creates a GA with sensible defaults for the given budget.
    #[must_use]
    pub fn new(population: usize, generations: usize, seed: u64) -> Self {
        Self {
            population: population.max(2),
            generations,
            mutation_rate: 0.3,
            elitism: 2,
            seed,
            seeds: Vec::new(),
        }
    }

    /// Adds seed individuals (kept in the initial population).
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<Tiling>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Runs the GA.
    pub fn run(&self, space: &SearchSpace, model: &mut CostModel) -> SearchOutcome {
        let workload = model.workload().clone();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Initial population: seeds first, then random samples.
        let mut population: Vec<Tiling> = self.seeds.clone();
        while population.len() < self.population {
            population.push(space.sample(&mut rng, &workload));
        }

        let mut best: Option<Tiling> = None;
        let mut best_objective = f64::INFINITY;
        let mut history = ConvergenceHistory::new();
        let mut candidates = 0usize;

        for generation in 0..self.generations.max(1) {
            // Evaluate the whole generation as one batch: uncached
            // individuals are simulated in parallel before scoring.
            candidates += population.len();
            let values = model.objective_batch(&population);
            let mut scored: Vec<(Tiling, f64)> = population.iter().copied().zip(values).collect();
            scored.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("objective values are comparable")
            });
            if scored[0].1 < best_objective {
                best_objective = scored[0].1;
                best = Some(scored[0].0);
            }
            if best_objective.is_finite() {
                history.record(generation + 1, model.evaluations(), best_objective);
            }

            // Next generation: elitism + tournament selection with crossover
            // and mutation.
            let mut next: Vec<Tiling> = scored
                .iter()
                .take(self.elitism.min(scored.len()))
                .map(|(t, _)| *t)
                .collect();
            while next.len() < self.population {
                let parent_a = tournament(&scored, &mut rng);
                let parent_b = tournament(&scored, &mut rng);
                let mut child = crossover(&parent_a, &parent_b, &mut rng, &workload);
                if rng.gen_bool(self.mutation_rate) {
                    child = space.neighbour(&child, &mut rng, &workload);
                }
                next.push(child);
            }
            population = next;
        }

        SearchOutcome {
            best,
            best_objective,
            candidates,
            history,
        }
    }
}

/// Binary tournament selection (lower objective wins).
fn tournament<R: Rng>(scored: &[(Tiling, f64)], rng: &mut R) -> Tiling {
    let a = &scored[rng.gen_range(0..scored.len())];
    let b = &scored[rng.gen_range(0..scored.len())];
    if a.1 <= b.1 {
        a.0
    } else {
        b.0
    }
}

/// Uniform crossover: each tiling dimension comes from either parent.
fn crossover<R: Rng>(
    a: &Tiling,
    b: &Tiling,
    rng: &mut R,
    workload: &mas_dataflow::AttentionWorkload,
) -> Tiling {
    Tiling::new(
        if rng.gen_bool(0.5) { a.b_b } else { b.b_b },
        if rng.gen_bool(0.5) { a.h_h } else { b.h_h },
        if rng.gen_bool(0.5) { a.n_q } else { b.n_q },
        if rng.gen_bool(0.5) { a.n_kv } else { b.n_kv },
        workload,
    )
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
    fn ga_is_reproducible() {
        let (space, mut model) = setup();
        let a = GeneticSearch::new(8, 5, 7).run(&space, &mut model);
        let b = GeneticSearch::new(8, 5, 7).run(&space, &mut model);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn ga_never_worsens_a_seed_individual() {
        let (space, mut model) = setup();
        let workload = model.workload().clone();
        let seed_tiling = Tiling::new(1, 1, 32, 32, &workload);
        let seed_value = model.objective_value(&seed_tiling);
        let outcome = GeneticSearch::new(8, 6, 3)
            .with_seeds(vec![seed_tiling])
            .run(&space, &mut model);
        assert!(outcome.best_objective <= seed_value);
    }

    #[test]
    fn ga_improves_over_random_initialization() {
        let (space, mut model) = setup();
        let outcome = GeneticSearch::new(10, 8, 11).run(&space, &mut model);
        assert!(outcome.best_objective.is_finite());
        assert!(outcome.history.improvement_factor().unwrap_or(1.0) >= 1.0);
        assert!(outcome.candidates >= 10 * 8);
    }

    #[test]
    fn crossover_takes_each_dimension_from_a_parent() {
        let w = AttentionWorkload::new("toy", 1, 4, 64, 32);
        let a = Tiling::new(1, 1, 16, 16, &w);
        let b = Tiling::new(1, 4, 64, 32, &w);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let c = crossover(&a, &b, &mut rng, &w);
            assert!(c.h_h == a.h_h || c.h_h == b.h_h);
            assert!(c.n_q == a.n_q || c.n_q == b.n_q);
            assert!(c.n_kv == a.n_kv || c.n_kv == b.n_kv);
        }
    }
}
