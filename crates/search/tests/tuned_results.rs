//! Pins what the quick MCTS + GA budget finds on a few Table 1 workloads.
//!
//! A change to the search's inner loop that is meant to keep results (a
//! cheaper cost evaluation, a screening pass, a refactor of the pipeline)
//! must leave every best tiling, its cycles and the number of simulator
//! evaluations exactly as recorded here.

use mas_dataflow::DataflowKind::{self, Flat, MasAttention};
use mas_search::{AutoTuner, TunerConfig};
use mas_sim::HardwareConfig;
use mas_workloads::Network::{self, BertSmall, T5Mini, VitB16};

/// `(network, method, best (b_b, h_h, n_q, n_kv), best cycles, evaluations)`.
type Pin = (Network, DataflowKind, [usize; 4], u64, usize);

const PINNED: [Pin; 6] = [
    (BertSmall, Flat, [1, 1, 64, 512], 824_832, 82),
    (BertSmall, MasAttention, [1, 1, 64, 512], 562_176, 84),
    (VitB16, Flat, [1, 1, 64, 256], 316_032, 107),
    (VitB16, MasAttention, [1, 1, 64, 256], 217_344, 106),
    (T5Mini, Flat, [1, 1, 128, 512], 544_512, 87),
    (T5Mini, MasAttention, [1, 1, 32, 512], 289_216, 87),
];

#[test]
fn quick_tuning_keeps_its_pinned_results() {
    let hw = HardwareConfig::edge_default();
    let got: Vec<Pin> = PINNED
        .iter()
        .map(|&(network, kind, ..)| {
            let result = AutoTuner::new(TunerConfig::quick(), 42)
                .tune(kind, &network.attention_workload(1), &hw)
                .expect("every pinned workload has a valid tiling");
            let t = result.best_tiling;
            (
                network,
                kind,
                [t.b_b, t.h_h, t.n_q, t.n_kv],
                result.best_cost.cycles,
                result.evaluations,
            )
        })
        .collect();
    assert_eq!(got, PINNED);
}
