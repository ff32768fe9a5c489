//! TileFlow-style fused, stage-synchronous pipeline.
//!
//! TileFlow (Zheng et al., 2023) models fusion dataflows as tiling trees and
//! pipelines producer/consumer operators at tile granularity. Following the
//! paper's re-implementation (§5.1), we model it as a **stage-synchronous
//! software pipeline**: in pipeline step `s` the device concurrently computes
//! `C_s = Q_s Kᵀ`, `P_{s-1} = softmax(C_{s-1})` and `O_{s-2} = P_{s-2} V`,
//! and a barrier at the end of every step synchronizes all three stages
//! before the next step may begin.
//!
//! Two structural properties distinguish it from MAS-Attention:
//!
//! 1. the per-step barrier prevents the MAC stream from running ahead across
//!    rounds (slack cannot be borrowed between steps), and also holds back
//!    the next step's DMA prefetches, and
//! 2. three `C`/`P` row blocks are live simultaneously (see
//!    [`crate::footprint`]), so under L1 pressure the tiling search must
//!    choose smaller tiles than MAS-Attention, paying more per-tile overhead.

use mas_sim::task::{Label, TaskId};
use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::schedule::{
    emit_rounds, kv_can_stay_resident, plan_chunks, BuildStats, Emitter, Schedule,
};
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// What step `s` of a chunk's pipeline reads from the step before: its
/// stage barrier, `C_{s-1}`'s sub-tiles and `P_{s-2}`.
struct Pipe {
    barrier: Option<TaskId>,
    qk: Vec<TaskId>,
    sm: Option<TaskId>,
}

/// Builds the TileFlow-style schedule.
pub(crate) fn build(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Schedule {
    let eb = hw.element_bytes;
    let mut em = Emitter::new();
    let plans = plan_chunks(workload, tiling, hw);
    let kv_resident = kv_can_stay_resident(DataflowKind::TileFlow, workload, tiling, hw);
    let embed = workload.embed;
    let mut rounds_total = 0usize;

    let resident = crate::schedule::preload_resident_kv(&mut em, &plans, workload, hw, kv_resident);

    // The stage-synchronous pipeline is one pipeline per core: the steps of a
    // chunk start only after the previous chunk's last stage barrier on the
    // same core.
    let mut core_barrier: Vec<Option<TaskId>> = vec![None; hw.cores];

    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let qb = plan.query_blocks;
        rounds_total += qb;
        let (k_resident, v_resident) = resident[plan.index];

        let mut pipe = Pipe {
            barrier: core_barrier[core],
            qk: Vec::new(),
            sm: None,
        };

        // Pipeline steps: step s runs C_s, softmax_{s-1} and PV_{s-2}. From
        // step 3 on a step emits the step before's tasks one round later,
        // until the ragged last round enters at step `qb - 1`.
        let step = |em: &mut Emitter, pipe: &mut Pipe, s: usize| {
            let barrier = pipe.barrier;
            let mut step_tasks: Vec<TaskId> = Vec::new();
            let mut qk = Vec::new();

            // Stage 1: C_s = Q_s K^T.
            if s < qb {
                let q_rows = plan.q_rows(workload, tiling, s);
                let rows = q_rows * plan.slices;
                let q_bytes = plan.slices * q_rows * embed * eb;
                // Stage-synchronous: even the DMA prefetch for step s waits
                // for the previous barrier.
                let load_deps = barrier.as_slice();
                let load_q = em.load(
                    Label::new("c{0} s{1}: load Q_{1}", [chunk, s]),
                    q_bytes,
                    load_deps,
                );
                for j in 0..plan.kv_tiles {
                    let kv_cols = plan.kv_cols(workload, tiling, j);
                    let k = k_resident.unwrap_or_else(|| {
                        let bytes = plan.slices * kv_cols * embed * eb;
                        em.load(
                            Label::new("c{0} s{1}: load K_{2}", [chunk, s, j]),
                            bytes,
                            load_deps,
                        )
                    });
                    let deps: &[TaskId] = match barrier {
                        Some(b) => &[load_q, k, b],
                        None => &[load_q, k],
                    };
                    let id = em.matmul(
                        Label::new("c{0} s{1}: C_{1},{2} = Q_{1} K_{2}^T", [chunk, s, j]),
                        core,
                        rows,
                        embed,
                        kv_cols,
                        deps,
                    );
                    qk.push(id);
                    step_tasks.push(id);
                }
            }

            // Stage 2: P_{s-1} = softmax(C_{s-1}).
            let mut sm_new = None;
            if s >= 1 && s - 1 < qb {
                let i = s - 1;
                let q_rows = plan.q_rows(workload, tiling, i);
                let rows = q_rows * plan.slices;
                let mut deps = std::mem::take(&mut pipe.qk);
                if let Some(b) = barrier {
                    deps.push(b);
                }
                let sm = em.softmax(
                    Label::new("c{0} s{1}: P_{2} = softmax(C_{2})", [chunk, s, i]),
                    core,
                    rows,
                    workload.seq_len,
                    &deps,
                );
                sm_new = Some(sm);
                step_tasks.push(sm);
            }

            // Stage 3: O_{s-2} = P_{s-2} V.
            if s >= 2 && s - 2 < qb {
                let i = s - 2;
                let q_rows = plan.q_rows(workload, tiling, i);
                let rows = q_rows * plan.slices;
                let mut pv = Vec::with_capacity(plan.kv_tiles);
                for j in 0..plan.kv_tiles {
                    let kv_cols = plan.kv_cols(workload, tiling, j);
                    let v = v_resident.unwrap_or_else(|| {
                        let bytes = plan.slices * kv_cols * embed * eb;
                        em.load(
                            Label::new("c{0} s{1}: load V_{2}", [chunk, s, j]),
                            bytes,
                            barrier.as_slice(),
                        )
                    });
                    let deps: &[TaskId] = match (pipe.sm, barrier) {
                        (Some(sm), Some(b)) => &[sm, v, b],
                        (Some(sm), None) => &[sm, v],
                        (None, Some(b)) => &[v, b],
                        (None, None) => &[v],
                    };
                    let id = em.matmul(
                        Label::new("c{0} s{1}: O_{2} += P_{2},{3} V_{3}", [chunk, s, i, j]),
                        core,
                        rows,
                        kv_cols,
                        embed,
                        deps,
                    );
                    pv.push(id);
                    step_tasks.push(id);
                }
                let o_bytes = plan.slices * q_rows * embed * eb;
                em.store(
                    Label::new("c{0} s{1}: store O_{2}", [chunk, s, i]),
                    o_bytes,
                    &pv,
                );
            }

            // Stage barrier: every stage of this step must finish before the
            // next step starts.
            if !step_tasks.is_empty() {
                pipe.barrier = Some(em.barrier(
                    Label::new("c{0} s{1}: stage barrier", [chunk, s]),
                    core,
                    &step_tasks,
                ));
            }
            pipe.qk = qk;
            pipe.sm = sm_new;
        };
        emit_rounds(
            &mut em,
            &mut pipe,
            0..qb + 2,
            3..qb.saturating_sub(1),
            1,
            step,
            |pipe, moved| {
                pipe.barrier = pipe.barrier.map(|id| moved.id(id));
                for id in &mut pipe.qk {
                    *id = moved.id(*id);
                }
                pipe.sm = pipe.sm.map(|id| moved.id(id));
            },
        );
        core_barrier[core] = pipe.barrier;
    }

    let stats = BuildStats {
        kind: DataflowKind::TileFlow,
        tiling: *tiling,
        rounds: rounds_total,
        overwrite_events: 0,
        reload_bytes: 0,
        redo_mac_ops: 0,
        kv_resident,
        l1_high_water_bytes: crate::footprint::footprint(
            DataflowKind::TileFlow,
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
    fn graph_is_valid_and_covers_all_work() {
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
    fn tileflow_is_at_least_as_fast_as_flat_but_not_faster_than_mas() {
        let (w, hw, t) = toy();
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let tf = exec.run(build(&w, &t, &hw).graph()).unwrap().total_cycles;
        let flat = exec
            .run(crate::flat::build(&w, &t, &hw).graph())
            .unwrap()
            .total_cycles;
        let mas = exec
            .run(crate::mas::build(&w, &t, &hw).graph())
            .unwrap()
            .total_cycles;
        assert!(tf <= flat, "TileFlow ({tf}) should not trail FLAT ({flat})");
        assert!(mas <= tf, "MAS ({mas}) should not trail TileFlow ({tf})");
    }

    #[test]
    fn barrier_overhead_grows_with_round_count() {
        // With more (smaller) query blocks TileFlow pays more stage barriers,
        // so its gap to MAS should not shrink.
        let w = AttentionWorkload::new("toy", 1, 2, 256, 64);
        let hw = HardwareConfig::edge_default();
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let coarse = Tiling::new(1, 1, 64, 64, &w);
        let fine = Tiling::new(1, 1, 8, 64, &w);
        let tf_coarse = exec
            .run(build(&w, &coarse, &hw).graph())
            .unwrap()
            .total_cycles;
        let tf_fine = exec
            .run(build(&w, &fine, &hw).graph())
            .unwrap()
            .total_cycles;
        assert!(tf_fine > tf_coarse, "finer tiling must cost TileFlow more");
    }
}
