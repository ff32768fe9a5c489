//! MAS-Attention — semi-synchronous MAC/VEC stream processing (Algorithm 1).
//!
//! Two streams of tiled tasks are scheduled per `(B_b, H_h)` chunk:
//!
//! * the **MAC stream** executes the two MatMuls — in steady state the MAC
//!   unit runs `O_{i-2} = P_{i-2} V` followed by `C_i = Q_i Kᵀ` in every
//!   round (Algorithm 1, lines 13–17),
//! * the **VEC stream** executes the softmax — `P_{i-1} = softmax(C_{i-1})`
//!   runs concurrently with the round's MAC work.
//!
//! The only cross-stream dependencies are the true data dependencies:
//! softmax of round `i` needs `C_i`, and `P_i V` needs `P_i`. The MAC stream
//! is therefore free to run ahead of the VEC stream by one round, which is
//! exactly the semi-synchronous pipelining the paper introduces.
//!
//! When the shared L1 cannot hold the full working set, the **proactive
//! buffer-overwrite strategy** (§4.3, [`crate::overwrite`]) sacrifices the
//! resident `K` or `V` tile to guarantee space for `P_i`, reloads it from
//! DRAM afterwards and redoes the interrupted MatMul sub-tile. The builder
//! records every such event in [`BuildStats`]. In this model the strategy
//! keeps MAS running but leaves it slightly slower than FLAT on the
//! long-context shapes measured in [`crate::overwrite`].

use mas_sim::task::{Label, TaskId};
use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::overwrite::{residency_plan, victim_for_round, OverwriteVictim, ResidencyPlan};
use crate::schedule::{emit_rounds, plan_chunks, BuildStats, ChunkPlan, Emitter, Schedule};
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Builds the MAS-Attention schedule.
pub(crate) fn build(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Schedule {
    let eb = hw.element_bytes;
    let mut em = Emitter::new();
    let plans = plan_chunks(workload, tiling, hw);
    let plan_kind = residency_plan(workload, tiling, hw);
    let embed = workload.embed;

    let mut rounds_total = 0usize;
    let mut overwrite_events = 0usize;
    let mut reload_bytes = 0u64;
    let mut redo_mac_ops = 0u64;

    let resident = crate::schedule::preload_resident_kv(
        &mut em,
        &plans,
        workload,
        hw,
        plan_kind != ResidencyPlan::StreamKv,
    );

    for plan in &plans {
        let (k_resident, v_resident) = resident[plan.index];
        let chunk_builder = ChunkBuilder {
            workload,
            tiling,
            plan,
            eb,
            embed,
            plan_kind,
            k_resident,
            v_resident,
        };
        let outcome = chunk_builder.emit(&mut em);
        rounds_total += plan.query_blocks;
        overwrite_events += outcome.overwrite_events;
        reload_bytes += outcome.reload_bytes;
        redo_mac_ops += outcome.redo_mac_ops;
    }

    let stats = BuildStats {
        kind: DataflowKind::MasAttention,
        tiling: *tiling,
        rounds: rounds_total,
        overwrite_events,
        reload_bytes,
        redo_mac_ops,
        kv_resident: plan_kind != ResidencyPlan::StreamKv,
        l1_high_water_bytes: crate::footprint::footprint(
            DataflowKind::MasAttention,
            workload,
            tiling,
            eb,
        )
        .total_bytes(),
    };
    Schedule::new(em.into_graph(), stats)
}

/// Per-chunk emission outcome.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkOutcome {
    overwrite_events: usize,
    reload_bytes: u64,
    redo_mac_ops: u64,
}

/// What iteration `i` of the main loop reads from the iterations before
/// it: `C_{i-1}`'s sub-tiles and `P_{i-2}`.
struct Handles {
    qk: Vec<TaskId>,
    sm: Option<TaskId>,
}

/// Emits Algorithm 1 for one `(B_b, H_h)` chunk.
struct ChunkBuilder<'a> {
    workload: &'a AttentionWorkload,
    tiling: &'a Tiling,
    plan: &'a ChunkPlan,
    eb: usize,
    embed: usize,
    plan_kind: ResidencyPlan,
    k_resident: Option<TaskId>,
    v_resident: Option<TaskId>,
}

impl ChunkBuilder<'_> {
    fn emit(&self, em: &mut Emitter) -> ChunkOutcome {
        let qb = self.plan.query_blocks;
        // Warm-up: C_0 = Q_0 K^T (Algorithm 1, line 5).
        let mut h = Handles {
            qk: self.emit_qk(em, 0, None),
            sm: None,
        };
        // Iteration `i` emits rounds `i - 2` to `i`. From iteration 3 on it
        // emits iteration `i - 1`'s tasks one round later, until the ragged
        // last round enters at `qb - 1`; the overwrite victim alternates, so
        // that period is two iterations.
        let period = if self.plan_kind == ResidencyPlan::OverwriteKv {
            2
        } else {
            1
        };
        emit_rounds(
            em,
            &mut h,
            1..qb,
            3..qb.saturating_sub(1),
            period,
            |em, h, i| self.iteration(em, h, i),
            |h, moved| {
                for id in &mut h.qk {
                    *id = moved.id(*id);
                }
                h.sm = h.sm.map(|id| moved.id(id));
            },
        );

        // Finalize (Algorithm 1, lines 21–26).
        let sm_last = self.emit_softmax(em, qb - 1, &h.qk);
        if qb >= 2 {
            let pv = self.emit_pv(em, qb - 2, h.sm, None);
            self.emit_store_o(em, qb - 2, &pv);
        }
        let pv = self.emit_pv(em, qb - 1, Some(sm_last), None);
        self.emit_store_o(em, qb - 1, &pv);

        // Iterations 1 to `qb - 1` each overwrite once, repeated or not.
        let mut outcome = ChunkOutcome::default();
        if self.plan_kind == ResidencyPlan::OverwriteKv {
            for i in 1..qb {
                let (bytes, (m, k, n)) = self.overwrite_work(i - 1, victim_for_round(i - 1));
                outcome.overwrite_events += 1;
                outcome.reload_bytes += bytes as u64;
                outcome.redo_mac_ops += (m * k * n) as u64;
            }
        }
        outcome
    }

    /// Iteration `i` of Algorithm 1's main loop (`1 <= i < qb`).
    fn iteration(&self, em: &mut Emitter, h: &mut Handles, i: usize) {
        // VEC stream: P_{i-1} = softmax(C_{i-1}).
        let sm = self.emit_softmax(em, i - 1, &h.qk);

        // Proactive overwrite: producing P_{i-1} may need the space of the
        // resident K/V tile (§4.3). The victim is reloaded and the
        // interrupted MatMul sub-tile redone before the MAC stream consumes
        // it again.
        let reload_gate = (self.plan_kind == ResidencyPlan::OverwriteKv)
            .then(|| self.emit_overwrite(em, i - 1, victim_for_round(i - 1), sm));

        // MAC stream, steady state (i >= 2): O_{i-2} = P_{i-2} V.
        let mut gate = None;
        if i >= 2 {
            let pv = self.emit_pv(em, i - 2, h.sm, reload_gate);
            gate = pv.last().copied();
            self.emit_store_o(em, i - 2, &pv);
        }

        // MAC stream: C_i = Q_i K^T, gated on the completion of O_{i-2}
        // (Algorithm 1, line 16) but *not* on the concurrent softmax.
        h.qk = self.emit_qk(em, i, gate.or(reload_gate));
        h.sm = Some(sm);
    }

    /// Emits the Algorithm-2 sweep producing `C_i`.
    fn emit_qk(&self, em: &mut Emitter, i: usize, gate: Option<TaskId>) -> Vec<TaskId> {
        let chunk = self.plan.index;
        let core = self.plan.core;
        let q_rows = self.plan.q_rows(self.workload, self.tiling, i);
        let rows = q_rows * self.plan.slices;
        let q_bytes = self.plan.slices * q_rows * self.embed * self.eb;
        let load_q = em.load(
            Label::new("c{0} r{1}: load Q_{1}", [chunk, i]),
            q_bytes,
            &[],
        );
        let mut tasks = Vec::with_capacity(self.plan.kv_tiles);
        for j in 0..self.plan.kv_tiles {
            let kv_cols = self.plan.kv_cols(self.workload, self.tiling, j);
            let k = self.k_resident.unwrap_or_else(|| {
                let bytes = self.plan.slices * kv_cols * self.embed * self.eb;
                em.load(
                    Label::new("c{0} r{1}: load K_{2}", [chunk, i, j]),
                    bytes,
                    &[],
                )
            });
            let deps: &[TaskId] = match gate {
                Some(g) => &[load_q, k, g],
                None => &[load_q, k],
            };
            tasks.push(em.matmul(
                Label::new("c{0} r{1}: C_{1},{2} = Q_{1} K_{2}^T", [chunk, i, j]),
                core,
                rows,
                self.embed,
                kv_cols,
                deps,
            ));
        }
        tasks
    }

    /// Emits the Algorithm-3 softmax for round `i`.
    fn emit_softmax(&self, em: &mut Emitter, i: usize, qk: &[TaskId]) -> TaskId {
        let chunk = self.plan.index;
        let core = self.plan.core;
        let q_rows = self.plan.q_rows(self.workload, self.tiling, i);
        let rows = q_rows * self.plan.slices;
        em.softmax(
            Label::new("c{0} r{1}: P_{1} = softmax(C_{1})", [chunk, i]),
            core,
            rows,
            self.workload.seq_len,
            qk,
        )
    }

    /// Emits the Algorithm-4 sweep producing `O_i`.
    fn emit_pv(
        &self,
        em: &mut Emitter,
        i: usize,
        sm: Option<TaskId>,
        extra_gate: Option<TaskId>,
    ) -> Vec<TaskId> {
        let chunk = self.plan.index;
        let core = self.plan.core;
        let q_rows = self.plan.q_rows(self.workload, self.tiling, i);
        let rows = q_rows * self.plan.slices;
        let mut tasks = Vec::with_capacity(self.plan.kv_tiles);
        for j in 0..self.plan.kv_tiles {
            let kv_cols = self.plan.kv_cols(self.workload, self.tiling, j);
            let v = self.v_resident.unwrap_or_else(|| {
                let bytes = self.plan.slices * kv_cols * self.embed * self.eb;
                em.load(
                    Label::new("c{0} r{1}: load V_{2}", [chunk, i, j]),
                    bytes,
                    &[],
                )
            });
            let deps: &[TaskId] = match (sm, extra_gate) {
                (Some(s), Some(g)) => &[s, v, g],
                (Some(s), None) => &[s, v],
                (None, Some(g)) => &[v, g],
                (None, None) => &[v],
            };
            tasks.push(em.matmul(
                Label::new("c{0} r{1}: O_{1} += P_{1},{2} V_{2}", [chunk, i, j]),
                core,
                rows,
                kv_cols,
                self.embed,
                deps,
            ));
        }
        tasks
    }

    /// Emits the DRAM store of `O_i`.
    fn emit_store_o(&self, em: &mut Emitter, i: usize, pv: &[TaskId]) {
        let chunk = self.plan.index;
        let q_rows = self.plan.q_rows(self.workload, self.tiling, i);
        let o_bytes = self.plan.slices * q_rows * self.embed * self.eb;
        em.store(
            Label::new("c{0} r{1}: store O_{1}", [chunk, i]),
            o_bytes,
            pv,
        );
    }

    /// What one proactive-overwrite event of round `i` costs: the reloaded
    /// bytes and the `(m, k, n)` of the redone MatMul sub-tile.
    fn overwrite_work(&self, i: usize, victim: OverwriteVictim) -> (usize, (usize, usize, usize)) {
        let kv_cols = self.plan.kv_cols(self.workload, self.tiling, 0);
        let bytes = self.plan.slices * kv_cols * self.embed * self.eb;
        let rows = self.plan.q_rows(self.workload, self.tiling, i) * self.plan.slices;
        let mkn = match victim {
            // Interrupted O = P V sub-tile.
            OverwriteVictim::V => (rows, kv_cols, self.embed),
            // Interrupted C = Q K^T sub-tile.
            OverwriteVictim::K => (rows, self.embed, kv_cols),
        };
        (bytes, mkn)
    }

    /// Emits one proactive-overwrite event for round `i`: the victim tile is
    /// reloaded from DRAM after `P_i` (task `sm`) is complete, and the
    /// interrupted MatMul sub-tile is redone. Returns the gate task the MAC
    /// stream must wait on.
    fn emit_overwrite(
        &self,
        em: &mut Emitter,
        i: usize,
        victim: OverwriteVictim,
        sm: TaskId,
    ) -> TaskId {
        let chunk = self.plan.index;
        let core = self.plan.core;
        let (bytes, (m, k, n)) = self.overwrite_work(i, victim);
        let (reload_label, redo_label) = match victim {
            OverwriteVictim::V => (
                "c{0} r{1}: reload V tile after overwrite",
                "c{0} r{1}: redo interrupted MatMul (V)",
            ),
            OverwriteVictim::K => (
                "c{0} r{1}: reload K tile after overwrite",
                "c{0} r{1}: redo interrupted MatMul (K)",
            ),
        };
        let reload = em.load(Label::new(reload_label, [chunk, i]), bytes, &[sm]);
        // The interrupted MatMul sub-tile is redone once the operand is back.
        em.matmul(Label::new(redo_label, [chunk, i]), core, m, k, n, &[reload])
    }
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
        assert_eq!(s.stats().overwrite_events, 0);
        // Writes are only the attention output, exactly like FLAT (§5.4.1).
        assert_eq!(
            s.graph().dram_write_bytes(),
            w.operand_bytes(hw.element_bytes)
        );
    }

    #[test]
    fn mas_overlaps_mac_and_vec_on_the_same_core() {
        let (w, hw, t) = toy();
        let s = build(&w, &t, &hw);
        let report = Executor::new(hw, EnergyModel::edge_16nm())
            .run(s.graph())
            .unwrap();
        let trace = report.trace.as_ref().unwrap();
        let overlap = trace.overlap_cycles(Resource::Mac { core: 0 }, Resource::Vec { core: 0 });
        assert!(overlap > 0, "MAS must overlap MAC and VEC on the same core");
    }

    #[test]
    fn mas_is_faster_than_flat_and_layerwise() {
        let (w, hw, t) = toy();
        let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm());
        let mas = exec.run(build(&w, &t, &hw).graph()).unwrap().total_cycles;
        let flat = exec
            .run(crate::flat::build(&w, &t, &hw).graph())
            .unwrap()
            .total_cycles;
        let lw = exec
            .run(crate::layerwise::build(&w, &t, &hw).graph())
            .unwrap()
            .total_cycles;
        assert!(mas < flat, "MAS ({mas}) must beat FLAT ({flat})");
        assert!(mas < lw, "MAS ({mas}) must beat Layer-Wise ({lw})");
    }

    #[test]
    fn single_round_chunks_are_handled() {
        let w = AttentionWorkload::new("one-round", 1, 1, 32, 32);
        let hw = HardwareConfig::edge_default();
        let t = Tiling::new(1, 1, 32, 32, &w);
        let s = build(&w, &t, &hw);
        s.graph().validate().unwrap();
        assert_eq!(s.stats().rounds, 1);
        assert_eq!(s.graph().total_mac_ops(), w.total_mac_ops());
    }

    #[test]
    fn overwrite_regime_adds_reload_traffic_and_redo_work() {
        // Pressure the L1 so that only the FLAT-like footprint fits together
        // with the resident K/V.
        let w = AttentionWorkload::new("long", 1, 2, 8192, 64);
        let t = Tiling::new(1, 2, 64, 512, &w);
        let mut hw = HardwareConfig::edge_default();
        hw.l1_bytes = 7 * 1024 * 1024;
        assert_eq!(residency_plan(&w, &t, &hw), ResidencyPlan::OverwriteKv);

        let s = build(&w, &t, &hw);
        s.graph().validate().unwrap();
        assert!(s.stats().overwrite_events > 0);
        assert!(s.stats().reload_bytes > 0);
        assert!(s.stats().redo_mac_ops > 0);
        // The schedule reads more from DRAM than the minimal Q+K+V.
        assert!(s.graph().dram_read_bytes() > 3 * w.operand_bytes(hw.element_bytes));
        // Writes stay equal to the output size (§5.4.1).
        assert_eq!(
            s.graph().dram_write_bytes(),
            w.operand_bytes(hw.element_bytes)
        );
        // Total MAC work = workload + redone sub-tiles.
        assert_eq!(
            s.graph().total_mac_ops(),
            w.total_mac_ops() + s.stats().redo_mac_ops
        );
    }
}
