//! High-level planning and execution API.

use mas_dataflow::{build_dataflow, AttentionWorkload, BuildStats, DataflowKind, Tiling};
use mas_search::tuner::{AutoTuner, TunerConfig};
use mas_sim::{EnergyModel, Executor, HardwareConfig, Result, SimReport};

use crate::report::ComparisonReport;

/// How the planner chooses tiling factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TilingStrategy {
    /// The hand-written heuristic tiling (fast, no search).
    #[default]
    Heuristic,
    /// Offline auto-tuning with MCTS + GA (the paper's pipeline).
    Search,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Hardware model of the target device.
    pub hardware: HardwareConfig,
    /// Energy model of the target device.
    pub energy: EnergyModel,
    /// Tiling selection strategy.
    pub tiling: TilingStrategy,
    /// Search budget when [`TilingStrategy::Search`] is selected.
    pub tuner: TunerConfig,
    /// Seed for the search algorithms.
    pub seed: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            hardware: HardwareConfig::edge_default(),
            energy: EnergyModel::edge_16nm(),
            tiling: TilingStrategy::Heuristic,
            tuner: TunerConfig::quick(),
            seed: 0x5eed,
        }
    }
}

/// A tiling decision for one `(method, workload)` pair, produced without
/// simulating — the plan half of the plan/execute split used by serving
/// runtimes that cache plans across requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRun {
    /// The method the plan targets.
    pub method: DataflowKind,
    /// The chosen tiling.
    pub tiling: Tiling,
}

/// Result of running one method on one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The method that ran.
    pub method: DataflowKind,
    /// The tiling that was used.
    pub tiling: Tiling,
    /// Schedule-construction statistics (rounds, overwrites, reloads).
    pub build: BuildStats,
    /// Simulation report (cycles, energy, DRAM traffic, utilization).
    pub report: SimReport,
}

/// One-call entry point for simulating, comparing and tuning dataflows.
#[derive(Debug, Clone)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// Creates a planner with an explicit configuration.
    #[must_use]
    pub fn new(config: PlannerConfig) -> Self {
        Self { config }
    }

    /// Creates a planner for the paper's simulated edge device with the
    /// heuristic tiling strategy.
    #[must_use]
    pub fn edge_default() -> Self {
        Self::new(PlannerConfig::default())
    }

    /// Creates a planner that auto-tunes tilings with the given budget.
    #[must_use]
    pub fn with_search(budget: TunerConfig) -> Self {
        Self::new(PlannerConfig {
            tiling: TilingStrategy::Search,
            tuner: budget,
            ..PlannerConfig::default()
        })
    }

    /// The planner's configuration.
    #[must_use]
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The hardware configuration targeted by this planner.
    #[must_use]
    pub fn hardware(&self) -> &HardwareConfig {
        &self.config.hardware
    }

    /// Chooses the tiling for one method/workload pair according to the
    /// configured strategy.
    #[must_use]
    pub fn plan_tiling(&self, method: DataflowKind, workload: &AttentionWorkload) -> Tiling {
        match self.config.tiling {
            TilingStrategy::Heuristic => {
                let mut t = Tiling::heuristic(workload, &self.config.hardware);
                if method == DataflowKind::FuseMax {
                    // FuseMax uses manually selected (smaller) tiles in the
                    // paper rather than the search, to bound its on-chip
                    // accumulator state.
                    t = Tiling::new(
                        t.b_b,
                        t.h_h,
                        (t.n_q / 2).max(1),
                        (t.n_kv / 2).max(1),
                        workload,
                    );
                }
                t
            }
            TilingStrategy::Search => {
                let mut tuner = AutoTuner::new(self.config.tuner, self.config.seed);
                tuner
                    .tune(method, workload, &self.config.hardware)
                    .map(|r| r.best_tiling)
                    .unwrap_or_else(|| Tiling::heuristic(workload, &self.config.hardware))
            }
        }
    }

    /// Plan-only entry point: chooses the tiling for `method` on `workload`
    /// without building or simulating the *final* schedule.
    ///
    /// Note the cost depends on the strategy: [`TilingStrategy::Heuristic`]
    /// is a closed-form computation, while [`TilingStrategy::Search`] runs
    /// the full MCTS + GA tuner, which simulates hundreds of candidate
    /// schedules — cheap only once amortized behind a cache. Pairs with
    /// [`Planner::execute`]; serving runtimes use the split to plan once and
    /// replay the plan for every subsequent identical request.
    #[must_use]
    pub fn plan(&self, method: DataflowKind, workload: &AttentionWorkload) -> PlannedRun {
        PlannedRun {
            method,
            tiling: self.plan_tiling(method, workload),
        }
    }

    /// Executes a previously produced plan (builds the schedule and
    /// simulates it).
    ///
    /// # Errors
    ///
    /// Returns a [`mas_sim::SimError`] if the configuration is invalid or
    /// the schedule fails to build.
    pub fn execute(&self, plan: &PlannedRun, workload: &AttentionWorkload) -> Result<RunResult> {
        self.run_with_tiling(plan.method, workload, &plan.tiling)
    }

    /// Builds and simulates `method` on `workload` with an explicit tiling.
    ///
    /// # Errors
    ///
    /// Returns a [`mas_sim::SimError`] if the configuration is invalid or the
    /// schedule fails to build.
    pub fn run_with_tiling(
        &self,
        method: DataflowKind,
        workload: &AttentionWorkload,
        tiling: &Tiling,
    ) -> Result<RunResult> {
        let schedule = build_dataflow(method, workload, tiling, &self.config.hardware)?;
        let executor = Executor::new(self.config.hardware.clone(), self.config.energy);
        let report = executor.run(schedule.graph())?;
        Ok(RunResult {
            method,
            tiling: *tiling,
            build: schedule.stats().clone(),
            report,
        })
    }

    /// Builds and simulates `method` on `workload`, choosing the tiling
    /// according to the planner's strategy.
    ///
    /// # Errors
    ///
    /// Returns a [`mas_sim::SimError`] if the schedule cannot be built or
    /// simulated.
    pub fn run(&self, method: DataflowKind, workload: &AttentionWorkload) -> Result<RunResult> {
        let tiling = self.plan_tiling(method, workload);
        self.run_with_tiling(method, workload, &tiling)
    }

    /// Runs several methods on the same workload and assembles a comparison
    /// report (one Table 2 / Table 3 row group).
    ///
    /// # Errors
    ///
    /// Returns a [`mas_sim::SimError`] if any method fails to build or run.
    pub fn compare(
        &self,
        workload: &AttentionWorkload,
        methods: &[DataflowKind],
    ) -> Result<ComparisonReport> {
        let mut report = ComparisonReport::new(workload.clone());
        for &method in methods {
            let result = self.run(method, workload)?;
            report.add(result);
        }
        Ok(report)
    }

    /// Runs every method of the paper's Table 2 on the workload.
    ///
    /// # Errors
    ///
    /// Returns a [`mas_sim::SimError`] if any method fails to build or run.
    pub fn compare_all(&self, workload: &AttentionWorkload) -> Result<ComparisonReport> {
        self.compare(workload, &DataflowKind::all())
    }

    /// Auto-tunes the tiling of one method regardless of the configured
    /// strategy, returning the tuning result (with convergence history).
    #[must_use]
    pub fn autotune(
        &self,
        method: DataflowKind,
        workload: &AttentionWorkload,
    ) -> Option<mas_search::tuner::TuningResult> {
        let mut tuner = AutoTuner::new(self.config.tuner, self.config.seed);
        tuner.tune(method, workload, &self.config.hardware)
    }

    /// Verifies that a method computes exact attention on a seeded random
    /// instance of the workload (the golden-data check).
    ///
    /// # Errors
    ///
    /// Returns a [`mas_tensor::TensorError`] if shapes are inconsistent.
    pub fn verify(
        &self,
        method: DataflowKind,
        workload: &AttentionWorkload,
        seed: u64,
    ) -> mas_tensor::Result<mas_tensor::golden::GoldenReport> {
        let tiling = self.plan_tiling(method, workload);
        crate::verify::verify_method(method, workload, &tiling, seed)
    }
}

impl Default for Planner {
    fn default() -> Self {
        Self::edge_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> AttentionWorkload {
        AttentionWorkload::new("toy", 1, 2, 128, 64)
    }

    #[test]
    fn run_produces_nonzero_cycles_for_every_method() {
        let planner = Planner::edge_default();
        for method in DataflowKind::all() {
            let r = planner.run(method, &toy()).unwrap();
            assert!(r.report.total_cycles > 0, "{method}");
            assert_eq!(r.method, method);
        }
    }

    #[test]
    fn compare_all_ranks_mas_first() {
        let planner = Planner::edge_default();
        let report = planner.compare_all(&toy()).unwrap();
        let mas = report.cycles(DataflowKind::MasAttention).unwrap();
        for method in DataflowKind::baselines() {
            assert!(report.cycles(method).unwrap() >= mas, "{method}");
        }
    }

    #[test]
    fn search_strategy_is_not_worse_than_heuristic() {
        let heuristic = Planner::edge_default();
        let searched = Planner::with_search(TunerConfig::quick());
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let a = heuristic.run(DataflowKind::MasAttention, &w).unwrap();
        let b = searched.run(DataflowKind::MasAttention, &w).unwrap();
        assert!(b.report.total_cycles <= a.report.total_cycles);
    }

    #[test]
    fn fusemax_gets_a_manual_tiling() {
        let planner = Planner::edge_default();
        let w = toy();
        let mas_tiling = planner.plan_tiling(DataflowKind::MasAttention, &w);
        let fm_tiling = planner.plan_tiling(DataflowKind::FuseMax, &w);
        assert!(fm_tiling.n_q <= mas_tiling.n_q);
    }

    #[test]
    fn plan_then_execute_matches_run() {
        let planner = Planner::edge_default();
        let w = toy();
        let plan = planner.plan(DataflowKind::MasAttention, &w);
        let split = planner.execute(&plan, &w).unwrap();
        let fused = planner.run(DataflowKind::MasAttention, &w).unwrap();
        assert_eq!(split.tiling, fused.tiling);
        assert_eq!(split.report.total_cycles, fused.report.total_cycles);
    }

    #[test]
    fn run_rejects_operands_over_dram_before_building() {
        let planner = Planner::edge_default();
        let huge = AttentionWorkload::new("huge", 1, 32, 1 << 20, 128);
        assert!(matches!(
            planner.run(DataflowKind::MasAttention, &huge),
            Err(mas_sim::SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn verify_passes_for_all_methods() {
        let planner = Planner::edge_default();
        let w = AttentionWorkload::new("tiny", 1, 1, 32, 16);
        for method in DataflowKind::all() {
            let report = planner.verify(method, &w, 7).unwrap();
            assert!(report.passed, "{method} failed the golden check");
        }
    }
}
