//! Integration test: search convergence (Figure 7 / §5.5) and the §5.6
//! maximum-sequence-length limitation analysis.

use mas::dataflow::max_seqlen::max_seq_len;
use mas::dataflow::{AttentionWorkload, DataflowKind, Tiling};
use mas::search::cost::CostModel;
use mas::search::tuner::{AutoTuner, TunerConfig};
use mas::sim::HardwareConfig;

#[test]
fn tuned_tilings_improve_substantially_over_naive() {
    let hw = HardwareConfig::edge_default();
    let w = AttentionWorkload::new("BERT-Small-ish", 1, 4, 256, 64);
    let mut tuner = AutoTuner::new(TunerConfig::quick(), 17);
    let result = tuner
        .tune(DataflowKind::MasAttention, &w, &hw)
        .expect("tuning succeeds");
    let improvement = result.improvement_over_naive().unwrap();
    assert!(
        improvement > 3.0,
        "expected a large improvement over the row-at-a-time tiling, got {improvement:.1}x"
    );
    // The history is non-increasing.
    let points = result.history.points();
    for pair in points.windows(2) {
        assert!(pair[1].best_objective <= pair[0].best_objective);
    }
}

#[test]
fn search_result_is_close_to_exhaustive_grid() {
    use mas::search::grid::GridSearch;
    use mas::search::space::SearchSpace;
    let hw = HardwareConfig::edge_default();
    let w = AttentionWorkload::new("toy", 1, 2, 128, 64);
    let space = SearchSpace::for_workload(&w, &hw);
    let mut model = CostModel::new(DataflowKind::MasAttention, w.clone(), hw.clone());
    let grid = GridSearch.run(&space, &mut model);
    let mut tuner = AutoTuner::new(TunerConfig::quick(), 23);
    let tuned = tuner.tune(DataflowKind::MasAttention, &w, &hw).unwrap();
    assert!(
        (tuned.best_cost.cycles as f64) <= grid.best_objective * 1.10,
        "tuner ({}) should be within 10% of the exhaustive optimum ({})",
        tuned.best_cost.cycles,
        grid.best_objective
    );
}

#[test]
fn max_sequence_length_limitation_matches_section_5_6() {
    let hw = HardwareConfig::edge_default();
    let limit = 1 << 23;
    let mas = max_seq_len(DataflowKind::MasAttention, 64, &hw, limit);
    let flat = max_seq_len(DataflowKind::Flat, 64, &hw, limit);
    assert!(
        mas.max_seq_len >= 700_000,
        "MAS supports ~1M tokens at FP16"
    );
    assert!(flat.max_seq_len > mas.max_seq_len);
    let ratio = flat.max_seq_len as f64 / mas.max_seq_len as f64;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "FLAT/MAS ratio {ratio} should be ~2"
    );
}

#[test]
fn invalid_tilings_are_rejected_by_the_cost_model() {
    let hw = HardwareConfig::edge_default();
    let w = AttentionWorkload::new("long", 1, 1, 1 << 17, 64);
    let mut model = CostModel::new(DataflowKind::TileFlow, w.clone(), hw);
    let too_big = Tiling::new(1, 1, 4096, 4096, &w);
    assert!(model.evaluate(&too_big).is_none());
}
