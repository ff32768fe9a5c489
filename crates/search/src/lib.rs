//! # mas-search
//!
//! Offline tiling-factor search for attention dataflows (paper §4.2, §5.5).
//!
//! The paper tunes the L1-level tiling factors `(B_b, H_h, N_Q, N_{K,V})`
//! offline for every workload, method and hardware configuration, using
//! Monte-Carlo Tree Search to pick tiling factors, a Genetic Algorithm to
//! refine the resulting mappings, and Grid Search on the real NPU. This crate
//! implements those searches against the `mas-sim` cost model. Every search
//! minimizes simulated cycles and nothing else, as the paper's does ("our
//! objective in the search framework was to minimize latency rather than
//! energy", §5.3):
//!
//! * [`space::SearchSpace`] — enumerates the candidate factors per dimension,
//! * [`cost::CostModel`] — builds the dataflow for a candidate tiling and
//!   simulates it, returning cycles and energy (with caching); whole
//!   candidate batches — a GA generation, a grid-sweep chunk, an MCTS
//!   rollout batch — evaluate in parallel through
//!   [`cost::CostModel::evaluate_batch`] with bit-identical results to the
//!   serial path,
//! * [`grid::GridSearch`] — the exhaustive sweep, used as the oracle the
//!   heuristic searches are checked against,
//! * [`mcts::MctsSearch`] — UCB-guided tree search over the per-dimension
//!   tiling decisions,
//! * [`genetic::GeneticSearch`] — population-based refinement,
//! * [`tuner::AutoTuner`] — the combined MCTS + GA pipeline used for the
//!   simulated-device experiments, recording the convergence history that
//!   Figure 7 plots.
//!
//! ## Example
//!
//! ```
//! use mas_dataflow::{AttentionWorkload, DataflowKind};
//! use mas_search::tuner::{AutoTuner, TunerConfig};
//! use mas_sim::HardwareConfig;
//!
//! let hw = HardwareConfig::edge_default();
//! let w = AttentionWorkload::new("toy", 1, 2, 128, 64);
//! let mut tuner = AutoTuner::new(TunerConfig::quick(), 42);
//! let result = tuner.tune(DataflowKind::MasAttention, &w, &hw).unwrap();
//! assert!(result.best_cost.cycles > 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod convergence;
pub mod cost;
pub mod genetic;
pub mod grid;
pub mod mcts;
pub mod space;
pub mod tuner;

pub use convergence::{ConvergenceHistory, ConvergencePoint};
pub use cost::{Cost, CostModel};
pub use space::SearchSpace;
pub use tuner::{AutoTuner, TunerConfig, TuningResult};
