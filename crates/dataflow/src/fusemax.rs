//! FuseMax scaled down to the edge device.
//!
//! FuseMax (Nayak et al., 2024) decomposes attention into 12 einsum
//! primitives executed in a single fused pass: attention scores are computed
//! sub-tile by sub-tile, the softmax is evaluated *online* (running maximum
//! and denominator, with the already-accumulated output rescaled whenever the
//! maximum grows), and the weighted sum with `V` is folded into the same
//! pipeline. MAC and VEC work overlap, but the online decomposition costs
//! extra VEC passes (max-merge, rescale, accumulate-denominator) and a final
//! normalization, and the accumulator rescale adds vector work proportional
//! to the output tile each sub-tile step.
//!
//! Following the paper (§5.5), FuseMax uses manually selected tiling rather
//! than the search; the comparison harness in `mas-attention` passes it a
//! fixed heuristic tiling.

use mas_sim::task::{Label, TaskId};
use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::schedule::{
    emit_rounds, kv_can_stay_resident, plan_chunks, BuildStats, Emitter, Schedule,
};
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Extra element-wise passes the online-softmax decomposition performs per
/// score element on top of the plain softmax cost (running-max merge and
/// denominator correction).
const ONLINE_EXTRA_PASSES: usize = 2;

/// Builds the FuseMax schedule.
pub(crate) fn build(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Schedule {
    let eb = hw.element_bytes;
    let mut em = Emitter::new();
    let plans = plan_chunks(workload, tiling, hw);
    let kv_resident = kv_can_stay_resident(DataflowKind::FuseMax, workload, tiling, hw);
    let embed = workload.embed;
    let mut rounds_total = 0usize;

    let resident = crate::schedule::preload_resident_kv(&mut em, &plans, workload, hw, kv_resident);

    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let (k_resident, v_resident) = resident[plan.index];

        rounds_total += plan.query_blocks;
        // Rounds are independent; every round but the ragged last does the
        // same work.
        let round = |em: &mut Emitter, _: &mut (), i: usize| {
            let q_rows = plan.q_rows(workload, tiling, i);
            let rows = q_rows * plan.slices;
            let q_bytes = plan.slices * q_rows * embed * eb;
            let load_q = em.load(
                Label::new("c{0} r{1}: load Q_{1}", [chunk, i]),
                q_bytes,
                &[],
            );

            // The online accumulator state is updated sequentially over the
            // K/V sub-tiles; score MatMuls for later sub-tiles may run ahead
            // on the MAC while the VEC digests earlier ones.
            let mut prev_update: Option<TaskId> = None;
            let mut prev_accum: Option<TaskId> = None;
            for j in 0..plan.kv_tiles {
                let kv_cols = plan.kv_cols(workload, tiling, j);
                // Score sub-tile S_j = Q_i K_j^T.
                let k = k_resident.unwrap_or_else(|| {
                    let bytes = plan.slices * kv_cols * embed * eb;
                    em.load(
                        Label::new("c{0} r{1}: load K_{2}", [chunk, i, j]),
                        bytes,
                        &[],
                    )
                });
                let score = em.matmul(
                    Label::new("c{0} r{1}: S_{1},{2} = Q_{1} K_{2}^T", [chunk, i, j]),
                    core,
                    rows,
                    embed,
                    kv_cols,
                    &[load_q, k],
                );

                // Online softmax update for the sub-tile: exponentials plus
                // running max/denominator merges, then the rescale of the
                // output accumulator (rows × E elements).
                let update_deps: &[TaskId] = match prev_update {
                    Some(p) => &[score, p],
                    None => &[score],
                };
                let exp = em.softmax(
                    Label::new("c{0} r{1}: online exp/max S_{1},{2}", [chunk, i, j]),
                    core,
                    rows,
                    kv_cols,
                    update_deps,
                );
                let correction = em.vec_op(
                    Label::new("c{0} r{1}: online corrections {2}", [chunk, i, j]),
                    core,
                    rows * kv_cols * ONLINE_EXTRA_PASSES + rows * embed,
                    1,
                    &[exp],
                );
                prev_update = Some(correction);

                // Accumulate O_i += P_{i,j} V_j on the MAC.
                let v = v_resident.unwrap_or_else(|| {
                    let bytes = plan.slices * kv_cols * embed * eb;
                    em.load(
                        Label::new("c{0} r{1}: load V_{2}", [chunk, i, j]),
                        bytes,
                        &[],
                    )
                });
                let pv_deps: &[TaskId] = match prev_accum {
                    Some(a) => &[correction, v, a],
                    None => &[correction, v],
                };
                let accum = em.matmul(
                    Label::new("c{0} r{1}: O_{1} += P_{1},{2} V_{2}", [chunk, i, j]),
                    core,
                    rows,
                    kv_cols,
                    embed,
                    pv_deps,
                );
                prev_accum = Some(accum);
            }

            // Final normalization by the accumulated denominator.
            let final_deps: &[TaskId] = match (prev_update, prev_accum) {
                (Some(u), Some(a)) => &[u, a],
                (Some(only), None) | (None, Some(only)) => &[only],
                (None, None) => &[],
            };
            let normalize = em.vec_op(
                Label::new("c{0} r{1}: normalize O_{1}", [chunk, i]),
                core,
                rows * embed,
                1,
                final_deps,
            );
            let o_bytes = plan.slices * q_rows * embed * eb;
            em.store(
                Label::new("c{0} r{1}: store O_{1}", [chunk, i]),
                o_bytes,
                &[normalize],
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
        kind: DataflowKind::FuseMax,
        tiling: *tiling,
        rounds: rounds_total,
        overwrite_events: 0,
        reload_bytes: 0,
        redo_mac_ops: 0,
        kv_resident,
        l1_high_water_bytes: crate::footprint::footprint(
            DataflowKind::FuseMax,
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
    fn graph_is_valid_and_covers_all_matmul_work() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        s.graph().validate().unwrap();
        assert_eq!(s.graph().total_mac_ops(), w.total_mac_ops());
        assert_eq!(
            s.graph().dram_write_bytes(),
            w.operand_bytes(hw.element_bytes)
        );
    }

    #[test]
    fn online_decomposition_costs_more_vec_work_than_plain_softmax() {
        let (w, hw, t) = toy();
        let fusemax = build(&w, &t, &hw);
        let mas = crate::mas::build(&w, &t, &hw);
        let ops = hw.softmax_ops_per_element;
        assert!(
            fusemax.graph().total_vec_ops(ops) > mas.graph().total_vec_ops(ops),
            "FuseMax's online softmax must perform extra vector work"
        );
    }

    #[test]
    fn fusemax_overlaps_but_trails_mas() {
        let (w, hw, t) = toy();
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let fm = exec.run(build(&w, &t, &hw).graph()).unwrap();
        let mas = exec.run(crate::mas::build(&w, &t, &hw).graph()).unwrap();
        assert!(fm.mac_vec_overlap_cycles > 0);
        assert!(
            mas.total_cycles <= fm.total_cycles,
            "MAS ({}) should not trail FuseMax ({})",
            mas.total_cycles,
            fm.total_cycles
        );
    }
}
