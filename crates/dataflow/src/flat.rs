//! FLAT (Kao et al., 2023) — row-granularity attention fusion.
//!
//! FLAT loads rows of `Q` into on-chip memory, computes the corresponding
//! rows of `C = QKᵀ`, applies softmax and the final `O = PV` on-chip and
//! writes only `O` back to DRAM. Intermediates never touch DRAM, but the
//! tiled MatMul and softmax operators execute **sequentially** within every
//! computation round: the MAC unit idles while the VEC unit runs softmax and
//! vice versa. This is the strongest published baseline in the paper and the
//! main comparison point of Tables 2–3.

use mas_sim::task::{Label, TaskId};
use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::schedule::{
    emit_rounds, kv_can_stay_resident, plan_chunks, BuildStats, Emitter, Schedule,
};
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Builds the FLAT schedule.
pub(crate) fn build(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Schedule {
    let eb = hw.element_bytes;
    let mut em = Emitter::new();
    let plans = plan_chunks(workload, tiling, hw);
    let kv_resident = kv_can_stay_resident(DataflowKind::Flat, workload, tiling, hw);
    let mut rounds_total = 0usize;
    let embed = workload.embed;

    // Resident K/V: loaded once per chunk, prefetched for every chunk before
    // the per-round streams begin.
    let resident = crate::schedule::preload_resident_kv(&mut em, &plans, workload, hw, kv_resident);

    // FLAT executes one fused row-block kernel at a time on each core: the
    // strict round-to-round serialization extends across chunks mapped to the
    // same core (there is no cross-head overlap to hide the softmax behind).
    let mut core_gate: Vec<Option<TaskId>> = vec![None; hw.cores];

    for plan in &plans {
        let core = plan.core;
        let chunk = plan.index;
        let (k_resident, v_resident) = resident[plan.index];
        let mut round_gate: Option<TaskId> = core_gate[core];
        rounds_total += plan.query_blocks;

        // Round `i` waits on round `i - 1`; every round but the ragged last
        // does the same work.
        let round = |em: &mut Emitter, round_gate: &mut Option<TaskId>, i: usize| {
            let q_rows = plan.q_rows(workload, tiling, i);
            let rows = q_rows * plan.slices;
            let q_bytes = plan.slices * q_rows * embed * eb;
            let load_q = em.load(
                Label::new("c{0} r{1}: load Q_{1}", [chunk, i]),
                q_bytes,
                &[],
            );

            // Algorithm-2-style sweep over K sub-tiles.
            let mut qk_tasks = Vec::with_capacity(plan.kv_tiles);
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
                let deps: &[TaskId] = match *round_gate {
                    Some(gate) => &[load_q, k, gate],
                    None => &[load_q, k],
                };
                qk_tasks.push(em.matmul(
                    Label::new("c{0} r{1}: C_{1},{2} = Q_{1} K_{2}^T", [chunk, i, j]),
                    core,
                    rows,
                    embed,
                    kv_cols,
                    deps,
                ));
            }

            // Softmax over the full row block (Algorithm 3), strictly after
            // the first MatMul.
            let sm = em.softmax(
                Label::new("c{0} r{1}: P_{1} = softmax(C_{1})", [chunk, i]),
                core,
                rows,
                workload.seq_len,
                &qk_tasks,
            );

            // Algorithm-4-style sweep over V sub-tiles, strictly after softmax.
            let mut pv_tasks = Vec::with_capacity(plan.kv_tiles);
            for j in 0..plan.kv_tiles {
                let kv_cols = plan.kv_cols(workload, tiling, j);
                let v = v_resident.unwrap_or_else(|| {
                    let bytes = plan.slices * kv_cols * embed * eb;
                    em.load(
                        Label::new("c{0} r{1}: load V_{2}", [chunk, i, j]),
                        bytes,
                        &[],
                    )
                });
                pv_tasks.push(em.matmul(
                    Label::new("c{0} r{1}: O_{1} += P_{1},{2} V_{2}", [chunk, i, j]),
                    core,
                    rows,
                    kv_cols,
                    embed,
                    &[sm, v],
                ));
            }
            let o_bytes = plan.slices * q_rows * embed * eb;
            em.store(
                Label::new("c{0} r{1}: store O_{1}", [chunk, i]),
                o_bytes,
                &pv_tasks,
            );
            *round_gate = pv_tasks.last().copied();
        };
        emit_rounds(
            &mut em,
            &mut round_gate,
            0..plan.query_blocks,
            1..plan.query_blocks - 1,
            1,
            round,
            |gate, moved| *gate = gate.map(|id| moved.id(id)),
        );
        core_gate[core] = round_gate;
    }

    let stats = BuildStats {
        kind: DataflowKind::Flat,
        tiling: *tiling,
        rounds: rounds_total,
        overwrite_events: 0,
        reload_bytes: 0,
        redo_mac_ops: 0,
        kv_resident,
        l1_high_water_bytes: crate::footprint::footprint(DataflowKind::Flat, workload, tiling, eb)
            .total_bytes(),
    };
    Schedule::new(em.into_graph(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_sim::task::Resource;
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
        assert_eq!(s.stats().rounds, t.rounds(&w));
        assert!(s.stats().kv_resident);
        // Only the attention output is written to DRAM.
        assert_eq!(
            s.graph().dram_write_bytes(),
            w.operand_bytes(hw.element_bytes)
        );
    }

    #[test]
    fn mac_and_vec_do_not_overlap() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        let report = Executor::new(hw, EnergyModel::edge_16nm())
            .run(s.graph())
            .unwrap();
        // FLAT serializes MAC and VEC: overlap is negligible (only across
        // chunks that run on different cores, which do not share units).
        let trace = report.trace.as_ref().unwrap();
        let same_core_overlap =
            trace.overlap_cycles(Resource::Mac { core: 0 }, Resource::Vec { core: 0 });
        assert_eq!(
            same_core_overlap, 0,
            "FLAT must not overlap MAC and VEC on a core"
        );
    }

    #[test]
    fn dram_reads_are_minimal_when_kv_resident() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        // Q + K + V read exactly once.
        assert_eq!(
            s.graph().dram_read_bytes(),
            3 * w.operand_bytes(hw.element_bytes)
        );
    }

    #[test]
    fn streaming_kv_increases_reads() {
        let (w, _, t) = toy();
        let mut small = HardwareConfig::edge_default();
        small.l1_bytes = 40 * 1024;
        let s = build(&w, &t, &small);
        assert!(!s.stats().kv_resident);
        assert!(s.graph().dram_read_bytes() > 3 * w.operand_bytes(small.element_bytes));
    }
}
