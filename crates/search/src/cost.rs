//! Simulator-backed cost evaluation of candidate tilings.
//!
//! Each candidate tiling is lowered to the method's task graph
//! (`mas-dataflow`) and simulated (`mas-sim`), exactly as the paper evaluates
//! each MCTS/GA candidate with Timeloop/Accelergy. Evaluations are cached so
//! the search algorithms can revisit points for free, and invalid tilings
//! (working set exceeding L1) are rejected up front.
//!
//! A candidate costs its non-repeating part. The dataflow builders store
//! one period of each chunk's rounds with a repeat count
//! (`mas_sim::TaskGraph::repeat`), so building a candidate costs its
//! prologues, one period per chunk and its epilogues, however many rounds
//! it has. The simulator replays the repeating rounds of a schedule
//! instead of simulating them event by event (the "Steady-state
//! fast-forward" of `mas_sim::executor`), with identical results: it
//! simulates the warm-up, the chunk boundaries and the epilogues event by
//! event, and a skip costs the period it repeats plus one energy sum per
//! skipped task. Many-round tilings such as [`Tiling::naive`] gain the most.
//!
//! Simulating one candidate is a pure function of `(method, workload,
//! hardware, tiling)`, so a batch of uncached candidates — a GA generation, a
//! grid-sweep chunk, an MCTS rollout batch — fans out across threads through
//! [`CostModel::evaluate_batch`] before the results are merged into the
//! cache. Parallel and serial batch evaluation produce bit-identical results.

use std::collections::{HashMap, HashSet};

use rayon::prelude::*;

use mas_dataflow::footprint::tiling_fits;
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::{EnergyModel, Executor, HardwareConfig};

/// Cost of one evaluated tiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Simulated execution cycles.
    pub cycles: u64,
    /// Simulated total energy in picojoules.
    pub energy_pj: f64,
}

/// Evaluates tilings for one `(method, workload, hardware)` triple.
#[derive(Debug)]
pub struct CostModel {
    kind: DataflowKind,
    workload: AttentionWorkload,
    hw: HardwareConfig,
    executor: Executor,
    cache: HashMap<Tiling, Option<Cost>>,
    evaluations: usize,
    parallel: bool,
}

impl CostModel {
    /// Creates a cost model with the default energy model.
    #[must_use]
    pub fn new(kind: DataflowKind, workload: AttentionWorkload, hw: HardwareConfig) -> Self {
        let executor = Executor::new(hw.clone(), EnergyModel::edge_16nm()).without_trace();
        Self {
            kind,
            workload,
            hw,
            executor,
            cache: HashMap::new(),
            evaluations: 0,
            parallel: true,
        }
    }

    /// Enables or disables thread-parallel batch evaluation (enabled by
    /// default). Parallel and serial evaluation are bit-identical; the serial
    /// path exists for baseline benchmarking and determinism tests.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// The workload being tuned.
    #[must_use]
    pub fn workload(&self) -> &AttentionWorkload {
        &self.workload
    }

    /// Number of *simulated* (non-cached) evaluations so far.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Whether a tiling's factors lie within the workload's extents
    /// ([`Tiling::check`]) and its working set fits the device L1 for this
    /// method.
    #[must_use]
    pub fn is_valid(&self, tiling: &Tiling) -> bool {
        tiling.check(&self.workload).is_ok()
            && tiling_fits(self.kind, &self.workload, tiling, &self.hw)
    }

    /// Simulates one tiling without touching the cache or counters: the pure
    /// function each batch fans out over.
    fn simulate(&self, tiling: &Tiling) -> Option<Cost> {
        if !self.is_valid(tiling) {
            return None;
        }
        let schedule = build_dataflow(self.kind, &self.workload, tiling, &self.hw).ok()?;
        let report = self.executor.run(schedule.graph()).ok()?;
        Some(Cost {
            cycles: report.total_cycles,
            energy_pj: report.total_energy_pj(),
        })
    }

    /// Evaluates a tiling, returning `None` for invalid (L1-overflowing)
    /// candidates. Results are cached.
    pub fn evaluate(&mut self, tiling: &Tiling) -> Option<Cost> {
        if let Some(cached) = self.cache.get(tiling) {
            return *cached;
        }
        let result = self.simulate(tiling);
        if result.is_some() {
            self.evaluations += 1;
        }
        self.cache.insert(*tiling, result);
        result
    }

    /// Evaluates a whole candidate batch, returning one cost per input
    /// tiling in order.
    ///
    /// Cached candidates are answered from the cache; the unique uncached
    /// remainder is simulated — in parallel unless
    /// [`CostModel::set_parallel`] turned that off — and merged into the
    /// cache afterwards. Because each simulation is a pure function of the
    /// tiling, the returned costs (and every subsequent query) are identical
    /// whichever path ran.
    pub fn evaluate_batch(&mut self, tilings: &[Tiling]) -> Vec<Option<Cost>> {
        let mut pending: Vec<Tiling> = Vec::new();
        let mut seen: HashSet<Tiling> = HashSet::new();
        for t in tilings {
            if !self.cache.contains_key(t) && seen.insert(*t) {
                pending.push(*t);
            }
        }
        let fresh: Vec<(Tiling, Option<Cost>)> = if self.parallel && pending.len() > 1 {
            let model = &*self;
            pending
                .into_par_iter()
                .map(|t| (t, model.simulate(&t)))
                .collect()
        } else {
            pending
                .into_iter()
                .map(|t| (t, self.simulate(&t)))
                .collect()
        };
        for (t, cost) in fresh {
            if cost.is_some() {
                self.evaluations += 1;
            }
            self.cache.insert(t, cost);
        }
        tilings
            .iter()
            .map(|t| *self.cache.get(t).expect("batch candidates are cached"))
            .collect()
    }

    /// Evaluates a tiling and reduces it to the value the searches minimize:
    /// its cycles (`f64::INFINITY` for invalid candidates).
    pub fn objective_value(&mut self, tiling: &Tiling) -> f64 {
        objective(self.evaluate(tiling))
    }

    /// Batch counterpart of [`CostModel::objective_value`]: one value per
    /// input tiling, evaluated through [`CostModel::evaluate_batch`].
    pub fn objective_batch(&mut self, tilings: &[Tiling]) -> Vec<f64> {
        self.evaluate_batch(tilings)
            .into_iter()
            .map(objective)
            .collect()
    }
}

/// The searches minimize latency, not energy, as the paper's does (§5.3).
fn objective(cost: Option<Cost>) -> f64 {
    cost.map_or(f64::INFINITY, |c| c.cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(
            DataflowKind::MasAttention,
            AttentionWorkload::new("toy", 1, 2, 128, 64),
            HardwareConfig::edge_default(),
        )
    }

    #[test]
    fn evaluation_is_cached() {
        let mut m = model();
        let w = m.workload().clone();
        let t = Tiling::new(1, 1, 32, 64, &w);
        let a = m.evaluate(&t).unwrap();
        let evals = m.evaluations();
        let b = m.evaluate(&t).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            m.evaluations(),
            evals,
            "second evaluation must hit the cache"
        );
    }

    #[test]
    fn out_of_range_factors_are_invalid_for_every_method() {
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let valid = Tiling::new(1, 1, 16, 32, &w);
        let cases = [
            Tiling { b_b: 0, ..valid },
            Tiling { h_h: 0, ..valid },
            Tiling { n_q: 0, ..valid },
            Tiling { n_kv: 0, ..valid },
            Tiling {
                b_b: 5,
                h_h: 9,
                n_q: 1000,
                n_kv: 1000,
            },
            Tiling { n_q: 65, ..valid },
        ];
        for kind in DataflowKind::all() {
            let mut m = CostModel::new(kind, w.clone(), HardwareConfig::edge_default());
            assert!(m.is_valid(&valid), "{kind}");
            for tiling in cases {
                assert!(!m.is_valid(&tiling), "{kind} {tiling:?}");
                assert_eq!(m.evaluate(&tiling), None, "{kind} {tiling:?}");
            }
            assert_eq!(m.evaluations(), 0, "{kind}");
        }
    }

    #[test]
    fn invalid_tilings_return_none_and_infinite_objective() {
        let mut m = CostModel::new(
            DataflowKind::TileFlow,
            AttentionWorkload::new("long", 1, 1, 65536, 64),
            HardwareConfig::edge_default(),
        );
        let w = m.workload().clone();
        // A full-sequence row block of a 64k-token sequence cannot fit 5 MB.
        let t = Tiling::new(1, 1, 1024, 1024, &w);
        assert!(!m.is_valid(&t));
        assert!(m.evaluate(&t).is_none());
        assert!(m.objective_value(&t).is_infinite());
    }

    #[test]
    fn evaluate_batch_matches_serial_evaluation_exactly() {
        let mut serial = model();
        let mut parallel = model();
        parallel.set_parallel(true);
        serial.set_parallel(false);
        let w = serial.workload().clone();
        // Mix of valid, invalid and duplicate candidates.
        let batch: Vec<Tiling> = vec![
            Tiling::new(1, 1, 32, 64, &w),
            Tiling::new(1, 2, 64, 128, &w),
            Tiling::new(1, 1, 32, 64, &w),
            Tiling::new(1, 1, 128, 128, &w),
            Tiling::naive(&w),
        ];
        let a = parallel.evaluate_batch(&batch);
        let b = serial.evaluate_batch(&batch);
        assert_eq!(a, b, "parallel and serial batches must be bit-identical");
        assert_eq!(parallel.evaluations(), serial.evaluations());
        // Element-wise agreement with the one-at-a-time path.
        let mut single = model();
        for (t, &batched) in batch.iter().zip(&a) {
            assert_eq!(single.evaluate(t), batched);
        }
    }

    #[test]
    fn evaluate_batch_merges_into_the_cache() {
        let mut m = model();
        let w = m.workload().clone();
        let batch = vec![Tiling::new(1, 1, 32, 64, &w), Tiling::new(1, 2, 64, 64, &w)];
        let first = m.evaluate_batch(&batch);
        let evals = m.evaluations();
        assert!(evals > 0);
        // Re-evaluating (batched or single) must hit the cache.
        let second = m.evaluate_batch(&batch);
        assert_eq!(first, second);
        assert_eq!(m.evaluations(), evals);
        assert_eq!(m.evaluate(&batch[0]), first[0]);
        assert_eq!(m.evaluations(), evals);
    }

    #[test]
    fn duplicate_candidates_are_simulated_once() {
        let mut m = model();
        let w = m.workload().clone();
        let t = Tiling::new(1, 1, 32, 64, &w);
        let results = m.evaluate_batch(&vec![t; 8]);
        assert_eq!(m.evaluations(), 1);
        assert!(results.iter().all(|r| *r == results[0]));
    }

    #[test]
    fn objective_batch_matches_objective_value() {
        let mut m = model();
        let w = m.workload().clone();
        let batch = vec![
            Tiling::new(1, 1, 32, 64, &w),
            Tiling::new(1, 2, 64, 128, &w),
            Tiling::naive(&w),
        ];
        let batched = m.objective_batch(&batch);
        let mut fresh = model();
        for (t, &v) in batch.iter().zip(&batched) {
            assert_eq!(fresh.objective_value(t), v);
        }
    }

    #[test]
    fn better_tilings_have_lower_latency_than_naive() {
        let mut m = model();
        let w = m.workload().clone();
        let naive = Tiling::naive(&w);
        let good = Tiling::new(1, 1, 64, 128, &w);
        let naive_cost = m.objective_value(&naive);
        let good_cost = m.objective_value(&good);
        assert!(
            good_cost < naive_cost,
            "row-at-a-time tiling must be slower"
        );
    }
}
