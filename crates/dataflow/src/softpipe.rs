//! Soft-Pipe — pipelined `QKᵀ`/softmax with an off-chip `P`.
//!
//! The paper's second baseline (§5.1): rows of `Q` are streamed on-chip, the
//! first MatMul and the softmax are fused and *pipelined* — while the VEC
//! unit computes `P_i = softmax(C_i)`, the MAC unit may already produce
//! `C_{i+1}` — but the probability matrix `P` is written back to DRAM, and
//! the final `O = PV` MatMul runs sequentially afterwards, re-reading `P`.

use mas_sim::task::{Label, TaskId};
use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::schedule::{
    emit_rounds, kv_can_stay_resident, plan_chunks, BuildStats, Emitter, Schedule,
};
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Builds the Soft-Pipe schedule.
pub(crate) fn build(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Schedule {
    let eb = hw.element_bytes;
    let mut em = Emitter::new();
    let plans = plan_chunks(workload, tiling, hw);
    let kv_resident = kv_can_stay_resident(DataflowKind::SoftPipe, workload, tiling, hw);
    let embed = workload.embed;
    let mut rounds_total = 0usize;

    // ---- Stage A: pipelined C = Q K^T and P = softmax(C), P -> DRAM --------
    let mut stage_a_last: Vec<TaskId> = Vec::new();
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
                // No dependency on the previous round's softmax: the MAC runs
                // ahead, which is the pipelining Soft-Pipe introduces.
                qk.push(em.matmul(
                    Label::new("c{0} r{1}: C_{1},{2} = Q_{1} K_{2}^T", [chunk, i, j]),
                    core,
                    rows,
                    embed,
                    kv_cols,
                    &deps,
                ));
            }
            let sm = em.softmax(
                Label::new("c{0} r{1}: P_{1} = softmax(C_{1})", [chunk, i]),
                core,
                rows,
                workload.seq_len,
                &qk,
            );
            let p_bytes = plan.slices * q_rows * workload.seq_len * eb;
            last.push(em.store(
                Label::new("c{0} r{1}: store P_{1}", [chunk, i]),
                p_bytes,
                &[sm],
            ));
        };
        emit_rounds(
            &mut em,
            &mut stage_a_last,
            0..plan.query_blocks,
            0..plan.query_blocks - 1,
            1,
            round,
            crate::schedule::push_moved_last,
        );
    }
    let stage_a_done = em.barrier("stage boundary: P complete", 0, &stage_a_last);

    // ---- Stage B: O = P V, sequential ---------------------------------------
    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let v_resident = if kv_resident {
            let bytes = plan.slices * workload.seq_len * embed * eb;
            Some(em.load(Label::new("c{0}: load V", [chunk]), bytes, &[stage_a_done]))
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
                &[stage_a_done],
            );
            let mut pv = Vec::new();
            for j in 0..plan.kv_tiles {
                let kv_cols = plan.kv_cols(workload, tiling, j);
                let v = v_resident.unwrap_or_else(|| {
                    let bytes = plan.slices * kv_cols * embed * eb;
                    em.load(
                        Label::new("c{0} r{1}: load V_{2}", [chunk, i, j]),
                        bytes,
                        &[stage_a_done],
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
        kind: DataflowKind::SoftPipe,
        tiling: *tiling,
        rounds: rounds_total,
        overwrite_events: 0,
        reload_bytes: 0,
        redo_mac_ops: 0,
        kv_resident,
        l1_high_water_bytes: crate::footprint::footprint(
            DataflowKind::SoftPipe,
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
    fn p_round_trips_dram_but_c_does_not() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        s.graph().validate().unwrap();
        let eb = hw.element_bytes;
        // Writes: P and O, but not C.
        assert_eq!(
            s.graph().dram_write_bytes(),
            w.intermediate_bytes(eb) + w.operand_bytes(eb)
        );
    }

    #[test]
    fn softpipe_is_between_layerwise_and_flat() {
        let (w, hw, t) = toy();
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let lw = exec
            .run(crate::layerwise::build(&w, &t, &hw).graph())
            .unwrap()
            .total_cycles;
        let sp = exec.run(build(&w, &t, &hw).graph()).unwrap().total_cycles;
        let flat = exec
            .run(crate::flat::build(&w, &t, &hw).graph())
            .unwrap()
            .total_cycles;
        assert!(sp < lw, "Soft-Pipe ({sp}) must beat Layer-Wise ({lw})");
        assert!(sp > flat, "Soft-Pipe ({sp}) must trail FLAT ({flat})");
    }

    #[test]
    fn mac_vec_overlap_exists_in_stage_a() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        let report = Executor::new(hw, EnergyModel::edge_16nm())
            .run(s.graph())
            .unwrap();
        assert!(report.mac_vec_overlap_cycles > 0);
    }
}
