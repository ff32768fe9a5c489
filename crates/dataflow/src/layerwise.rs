//! Layer-Wise — the unfused sequential baseline.
//!
//! `C = QKᵀ` is computed in full and written to DRAM, then softmax reads `C`
//! and writes `P` to DRAM, then `O = PV` reads `P` back. Every operator is
//! internally tiled to fit on-chip, but the three operators run one after
//! another and the `N × N` intermediates round-trip off-chip memory, which
//! makes the workflow memory-bound on edge devices (paper §2, "Sequential
//! Attention Execution").

use mas_sim::task::{Label, TaskId};
use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::schedule::{
    emit_rounds, kv_can_stay_resident, plan_chunks, BuildStats, Emitter, Schedule,
};
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Builds the Layer-Wise schedule.
pub(crate) fn build(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Schedule {
    let eb = hw.element_bytes;
    let mut em = Emitter::new();
    let plans = plan_chunks(workload, tiling, hw);
    let kv_resident = kv_can_stay_resident(DataflowKind::LayerWise, workload, tiling, hw);
    let embed = workload.embed;
    let mut rounds_total = 0usize;

    // ---- Phase 1: C = Q K^T, stored to DRAM --------------------------------
    let mut phase1_last: Vec<TaskId> = Vec::new();
    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let k_resident = if kv_resident {
            let bytes = plan.slices * workload.seq_len * embed * eb;
            Some(em.load(Label::new("c{0}: load K", [chunk]), bytes, &[]))
        } else {
            None
        };
        rounds_total += plan.query_blocks;
        let round = |em: &mut Emitter, last: &mut Vec<TaskId>, i: usize| {
            let q_rows = plan.q_rows(workload, tiling, i);
            let rows = q_rows * plan.slices;
            let q_bytes = plan.slices * q_rows * embed * eb;
            let load_q = em.load(
                Label::new("c{0} r{1}: load Q_{1}", [chunk, i]),
                q_bytes,
                &[],
            );
            let mut qk = Vec::new();
            for j in 0..plan.kv_tiles {
                let kv_cols = plan.kv_cols(workload, tiling, j);
                let k = k_resident.unwrap_or_else(|| {
                    let bytes = plan.slices * kv_cols * embed * eb;
                    em.load(
                        Label::new("c{0} r{1}: load K_{2}", [chunk, i, j]),
                        bytes,
                        &[],
                    )
                });
                let deps = [load_q, k];
                qk.push(em.matmul(
                    Label::new("c{0} r{1}: C_{1},{2} = Q_{1} K_{2}^T", [chunk, i, j]),
                    core,
                    rows,
                    embed,
                    kv_cols,
                    &deps,
                ));
            }
            let c_bytes = plan.slices * q_rows * workload.seq_len * eb;
            last.push(em.store(
                Label::new("c{0} r{1}: store C_{1}", [chunk, i]),
                c_bytes,
                &qk,
            ));
        };
        emit_rounds(
            &mut em,
            &mut phase1_last,
            0..plan.query_blocks,
            0..plan.query_blocks - 1,
            1,
            round,
            crate::schedule::push_moved_last,
        );
    }
    let phase1_done = em.barrier("operator boundary: C complete", 0, &phase1_last);

    // ---- Phase 2: P = softmax(C), stored to DRAM ---------------------------
    let mut phase2_last: Vec<TaskId> = Vec::new();
    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let round = |em: &mut Emitter, last: &mut Vec<TaskId>, i: usize| {
            let q_rows = plan.q_rows(workload, tiling, i);
            let rows = q_rows * plan.slices;
            let c_bytes = plan.slices * q_rows * workload.seq_len * eb;
            let load_c = em.load(
                Label::new("c{0} r{1}: load C_{1}", [chunk, i]),
                c_bytes,
                &[phase1_done],
            );
            let sm = em.softmax(
                Label::new("c{0} r{1}: P_{1} = softmax(C_{1})", [chunk, i]),
                core,
                rows,
                workload.seq_len,
                &[load_c],
            );
            last.push(em.store(
                Label::new("c{0} r{1}: store P_{1}", [chunk, i]),
                c_bytes,
                &[sm],
            ));
        };
        emit_rounds(
            &mut em,
            &mut phase2_last,
            0..plan.query_blocks,
            0..plan.query_blocks - 1,
            1,
            round,
            crate::schedule::push_moved_last,
        );
    }
    let phase2_done = em.barrier("operator boundary: P complete", 0, &phase2_last);

    // ---- Phase 3: O = P V ---------------------------------------------------
    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let v_resident = if kv_resident {
            let bytes = plan.slices * workload.seq_len * embed * eb;
            Some(em.load(Label::new("c{0}: load V", [chunk]), bytes, &[phase2_done]))
        } else {
            None
        };
        let round = |em: &mut Emitter, _: &mut (), i: usize| {
            let q_rows = plan.q_rows(workload, tiling, i);
            let rows = q_rows * plan.slices;
            let p_bytes = plan.slices * q_rows * workload.seq_len * eb;
            let load_p = em.load(
                Label::new("c{0} r{1}: load P_{1}", [chunk, i]),
                p_bytes,
                &[phase2_done],
            );
            let mut pv = Vec::new();
            for j in 0..plan.kv_tiles {
                let kv_cols = plan.kv_cols(workload, tiling, j);
                let v = v_resident.unwrap_or_else(|| {
                    let bytes = plan.slices * kv_cols * embed * eb;
                    em.load(
                        Label::new("c{0} r{1}: load V_{2}", [chunk, i, j]),
                        bytes,
                        &[phase2_done],
                    )
                });
                let deps = [load_p, v];
                pv.push(em.matmul(
                    Label::new("c{0} r{1}: O_{1} += P_{1},{2} V_{2}", [chunk, i, j]),
                    core,
                    rows,
                    kv_cols,
                    embed,
                    &deps,
                ));
            }
            let o_bytes = plan.slices * q_rows * embed * eb;
            em.store(
                Label::new("c{0} r{1}: store O_{1}", [chunk, i]),
                o_bytes,
                &pv,
            );
        };
        emit_rounds(
            &mut em,
            &mut (),
            0..plan.query_blocks,
            0..plan.query_blocks - 1,
            1,
            round,
            |_, _| {},
        );
    }

    let stats = BuildStats {
        kind: DataflowKind::LayerWise,
        tiling: *tiling,
        rounds: rounds_total,
        overwrite_events: 0,
        reload_bytes: 0,
        redo_mac_ops: 0,
        kv_resident,
        l1_high_water_bytes: crate::footprint::footprint(
            DataflowKind::LayerWise,
            workload,
            tiling,
            eb,
        )
        .total_bytes(),
    };
    Schedule::new(em.into_graph(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_sim::{EnergyModel, Executor};

    fn toy() -> (AttentionWorkload, HardwareConfig, Tiling) {
        let w = AttentionWorkload::new("toy", 1, 2, 128, 64);
        let hw = HardwareConfig::edge_default();
        let t = Tiling::new(1, 1, 32, 64, &w);
        (w, hw, t)
    }

    #[test]
    fn intermediates_round_trip_dram() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        s.graph().validate().unwrap();
        let eb = hw.element_bytes;
        // Writes: C, P and O.
        assert_eq!(
            s.graph().dram_write_bytes(),
            2 * w.intermediate_bytes(eb) + w.operand_bytes(eb)
        );
        // Reads include C and P coming back.
        assert!(s.graph().dram_read_bytes() >= 2 * w.intermediate_bytes(eb));
    }

    #[test]
    fn layerwise_is_slower_than_flat() {
        let (w, hw, t) = toy();
        let lw = build(&w, &t, &hw);
        let flat = crate::flat::build(&w, &t, &hw);
        let exec = Executor::new(hw, EnergyModel::edge_16nm());
        let lw_cycles = exec.run(lw.graph()).unwrap().total_cycles;
        let flat_cycles = exec.run(flat.graph()).unwrap().total_cycles;
        assert!(
            lw_cycles > flat_cycles,
            "Layer-Wise ({lw_cycles}) must be slower than FLAT ({flat_cycles})"
        );
    }

    #[test]
    fn compute_totals_match_the_workload() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        assert_eq!(s.graph().total_mac_ops(), w.total_mac_ops());
        assert_eq!(
            s.graph().total_vec_ops(hw.softmax_ops_per_element),
            w.softmax_elements() * hw.softmax_ops_per_element as u64
        );
    }
}
