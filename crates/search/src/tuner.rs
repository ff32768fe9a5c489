//! Combined auto-tuner: MCTS for tiling factors, GA for refinement.
//!
//! The paper's offline tuning pipeline for the simulated edge device runs
//! MCTS to propose tiling factors and a genetic algorithm to refine the
//! mapping, evaluating every candidate with Timeloop/Accelergy (§4.2, §5.1).
//! [`AutoTuner`] mirrors that pipeline on top of the `mas-sim` cost model
//! and records the combined convergence history used by Figure 7.

use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling};
use mas_sim::HardwareConfig;

use crate::convergence::ConvergenceHistory;
use crate::cost::{Cost, CostModel, Objective};
use crate::genetic::GeneticSearch;
use crate::mcts::MctsSearch;
use crate::space::SearchSpace;

/// Budget configuration of the auto-tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerConfig {
    /// MCTS playouts.
    pub mcts_iterations: usize,
    /// Rollouts completed (and evaluated as one parallel batch) per MCTS
    /// playout; 1 reproduces the classic sequential playout.
    pub mcts_rollout_batch: usize,
    /// GA population size.
    pub ga_population: usize,
    /// GA generations.
    pub ga_generations: usize,
    /// Optimization objective.
    pub objective: Objective,
    /// Whether candidate batches simulate across threads
    /// ([`CostModel::set_parallel`]); the serial path exists for baseline
    /// benchmarking and produces bit-identical results.
    pub parallel: bool,
}

impl TunerConfig {
    /// A small budget suitable for unit tests and quick experiments.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            mcts_iterations: 40,
            mcts_rollout_batch: 4,
            ga_population: 8,
            ga_generations: 4,
            objective: Objective::Latency,
            parallel: true,
        }
    }

    /// The budget used by the experiment binaries (hundreds of candidate
    /// evaluations per method/workload pair, which the search-convergence
    /// experiment shows is enough to converge on this space).
    #[must_use]
    pub fn full() -> Self {
        Self {
            mcts_iterations: 200,
            mcts_rollout_batch: 8,
            ga_population: 16,
            ga_generations: 10,
            objective: Objective::Latency,
            parallel: true,
        }
    }

    /// The same budget with the serial evaluation path (benchmark baseline).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Outcome of tuning one `(method, workload)` pair.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// The method that was tuned.
    pub kind: DataflowKind,
    /// Best tiling found.
    pub best_tiling: Tiling,
    /// Cost of the best tiling.
    pub best_cost: Cost,
    /// Cost of the naive single-row tiling (the §5.5 starting point).
    pub naive_cost: Option<Cost>,
    /// Combined convergence history (MCTS followed by GA).
    pub history: ConvergenceHistory,
    /// Number of simulator evaluations spent.
    pub evaluations: usize,
}

impl TuningResult {
    /// Improvement factor of the tuned tiling over the naive tiling
    /// (the quantity §5.5 reports, e.g. 64.5× for BERT-Base).
    #[must_use]
    pub fn improvement_over_naive(&self) -> Option<f64> {
        self.naive_cost
            .map(|naive| naive.cycles as f64 / self.best_cost.cycles.max(1) as f64)
    }
}

/// The combined MCTS + GA tuner.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    config: TunerConfig,
    seed: u64,
}

impl AutoTuner {
    /// Creates a tuner with the given budget and RNG seed.
    #[must_use]
    pub fn new(config: TunerConfig, seed: u64) -> Self {
        Self { config, seed }
    }

    /// The tuner's configuration.
    #[must_use]
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    /// Tunes the tiling of `kind` for `workload` on `hw`.
    ///
    /// Returns `None` if no valid tiling exists (the workload cannot run on
    /// the device with this method at all).
    pub fn tune(
        &mut self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        hw: &HardwareConfig,
    ) -> Option<TuningResult> {
        let space = SearchSpace::for_workload(workload, hw);
        let mut model = CostModel::new(kind, workload.clone(), hw.clone(), self.config.objective);
        model.set_parallel(self.config.parallel);
        self.tune_model(kind, workload, hw, &space, &mut model)
    }

    /// Tunes like [`AutoTuner::tune`], but pre-seeds the cost model with a
    /// previously exported evaluation cache and returns the (extended) cache
    /// alongside the result.
    ///
    /// This is the shard-merge entry point: split a Figure 7-style sweep
    /// across processes, export each shard's evaluations, and warm-start
    /// follow-up jobs (or a serving runtime) with the merged entries. Warm
    /// entries from the same `(method, workload, hardware)` triple never
    /// change the search trajectory — costs are pure functions of the tiling
    /// — they only remove duplicate simulator work.
    pub fn tune_with_cache(
        &mut self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        hw: &HardwareConfig,
        warm: &[(Tiling, Option<Cost>)],
    ) -> (Option<TuningResult>, Vec<(Tiling, Option<Cost>)>) {
        let space = SearchSpace::for_workload(workload, hw);
        let mut model = CostModel::new(kind, workload.clone(), hw.clone(), self.config.objective);
        model.set_parallel(self.config.parallel);
        model.import_cache(warm.iter().copied());
        let result = self.tune_model(kind, workload, hw, &space, &mut model);
        let cache = model.export_cache();
        (result, cache)
    }

    fn tune_model(
        &mut self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        hw: &HardwareConfig,
        space: &SearchSpace,
        model: &mut CostModel,
    ) -> Option<TuningResult> {
        // Record the naive starting point (§5.5 improvement factors).
        let naive_cost = model.evaluate(&Tiling::naive(workload));

        // Phase 1: MCTS over the tiling decisions, with rollout batches
        // evaluated through the parallel cost model.
        let mcts = MctsSearch::new(self.config.mcts_iterations, self.seed)
            .with_rollout_batch(self.config.mcts_rollout_batch)
            .run(space, model);

        // Phase 2: GA refinement seeded with the MCTS best (and the
        // heuristic tiling, so the GA never starts from nothing).
        let mut seeds = Vec::new();
        if let Some(best) = mcts.best {
            seeds.push(best);
        }
        seeds.push(Tiling::heuristic(workload, hw));
        let ga = GeneticSearch::new(
            self.config.ga_population,
            self.config.ga_generations,
            self.seed.wrapping_add(1),
        )
        .with_seeds(seeds)
        .run(space, model);

        // Combine results and histories.
        let (best_tiling, best_objective) = if ga.best_objective <= mcts.best_objective {
            (ga.best?, ga.best_objective)
        } else {
            (mcts.best?, mcts.best_objective)
        };
        if !best_objective.is_finite() {
            return None;
        }
        let best_cost = model.evaluate(&best_tiling)?;

        let mut history = mcts.history.clone();
        history.extend_from(&ga.history);

        Some(TuningResult {
            kind,
            best_tiling,
            best_cost,
            naive_cost,
            history,
            evaluations: model.evaluations(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (AttentionWorkload, HardwareConfig) {
        (
            AttentionWorkload::new("toy", 1, 2, 64, 32),
            HardwareConfig::edge_default(),
        )
    }

    #[test]
    fn tuner_finds_a_valid_tiling_for_every_method() {
        let (w, hw) = toy();
        for kind in DataflowKind::all() {
            let mut tuner = AutoTuner::new(TunerConfig::quick(), 5);
            let result = tuner.tune(kind, &w, &hw).expect("tuning succeeds");
            assert!(result.best_cost.cycles > 0, "{kind} produced zero cycles");
            assert!(result.evaluations > 0);
        }
    }

    #[test]
    fn tuned_tiling_beats_the_naive_tiling() {
        let (w, hw) = toy();
        let mut tuner = AutoTuner::new(TunerConfig::quick(), 9);
        let result = tuner
            .tune(DataflowKind::MasAttention, &w, &hw)
            .expect("tuning succeeds");
        let improvement = result
            .improvement_over_naive()
            .expect("naive tiling is valid");
        assert!(
            improvement >= 1.0,
            "tuned tiling must not be slower than the naive one (factor {improvement})"
        );
    }

    #[test]
    fn tuning_is_reproducible_for_a_fixed_seed() {
        let (w, hw) = toy();
        let a = AutoTuner::new(TunerConfig::quick(), 3)
            .tune(DataflowKind::Flat, &w, &hw)
            .unwrap();
        let b = AutoTuner::new(TunerConfig::quick(), 3)
            .tune(DataflowKind::Flat, &w, &hw)
            .unwrap();
        assert_eq!(a.best_tiling, b.best_tiling);
        assert_eq!(a.best_cost.cycles, b.best_cost.cycles);
    }

    #[test]
    fn parallel_and_serial_tuning_agree_exactly() {
        let (w, hw) = toy();
        let parallel = AutoTuner::new(TunerConfig::quick(), 11)
            .tune(DataflowKind::MasAttention, &w, &hw)
            .unwrap();
        let serial = AutoTuner::new(TunerConfig::quick().serial(), 11)
            .tune(DataflowKind::MasAttention, &w, &hw)
            .unwrap();
        assert_eq!(parallel.best_tiling, serial.best_tiling);
        assert_eq!(parallel.best_cost.cycles, serial.best_cost.cycles);
        assert_eq!(parallel.evaluations, serial.evaluations);
    }

    #[test]
    fn warm_cache_reproduces_the_cold_result_with_fewer_simulations() {
        let (w, hw) = toy();
        let (cold, cache) = AutoTuner::new(TunerConfig::quick(), 17).tune_with_cache(
            DataflowKind::MasAttention,
            &w,
            &hw,
            &[],
        );
        let cold = cold.unwrap();
        assert!(!cache.is_empty());

        let (warm, warm_cache) = AutoTuner::new(TunerConfig::quick(), 17).tune_with_cache(
            DataflowKind::MasAttention,
            &w,
            &hw,
            &cache,
        );
        let warm = warm.unwrap();
        assert_eq!(warm.best_tiling, cold.best_tiling);
        assert_eq!(warm.best_cost.cycles, cold.best_cost.cycles);
        assert_eq!(
            warm.evaluations, 0,
            "a fully warmed cache must answer every candidate"
        );
        assert_eq!(warm_cache, cache, "warm tuning adds no new entries");
    }

    #[test]
    fn exported_cache_order_is_deterministic() {
        let (w, hw) = toy();
        let (_, a) = AutoTuner::new(TunerConfig::quick(), 5).tune_with_cache(
            DataflowKind::Flat,
            &w,
            &hw,
            &[],
        );
        let (_, b) = AutoTuner::new(TunerConfig::quick(), 5).tune_with_cache(
            DataflowKind::Flat,
            &w,
            &hw,
            &[],
        );
        assert_eq!(a, b);
        let keys: Vec<_> = a
            .iter()
            .map(|(t, _)| (t.b_b, t.h_h, t.n_q, t.n_kv))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "export order is sorted by tiling factors");
    }

    #[test]
    fn history_spans_both_phases() {
        let (w, hw) = toy();
        let result = AutoTuner::new(TunerConfig::quick(), 21)
            .tune(DataflowKind::MasAttention, &w, &hw)
            .unwrap();
        assert!(!result.history.points().is_empty());
        // The history's final value matches the reported best cost.
        let final_best = result.history.final_best().unwrap();
        assert!((final_best - result.best_cost.cycles as f64).abs() < 1e-6);
    }
}
