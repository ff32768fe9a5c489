//! Schedule construction: shared infrastructure and the public entry point.
//!
//! Every dataflow builder produces a [`Schedule`]: the [`TaskGraph`] to be
//! simulated plus [`BuildStats`] describing structural properties of the
//! schedule (rounds, proactive-overwrite events, reload traffic). The
//! builders share the [`Emitter`] helper, which wraps task emission, and the
//! [`ChunkPlan`], which captures the per-`(B_b, H_h)`-chunk decisions (which
//! core runs the chunk, whether `K`/`V` stay resident in L1, whether the
//! overwrite strategy engages).

use serde::{Deserialize, Serialize};

use mas_sim::task::{Label, Resource, TaskId, TaskKind};
use mas_sim::{HardwareConfig, Result, TaskGraph};

use crate::footprint::{footprint, resident_kv_bytes};
use crate::kind::DataflowKind;
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Structural statistics recorded while building a schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildStats {
    /// The dataflow that was built.
    pub kind: DataflowKind,
    /// The tiling used.
    pub tiling: Tiling,
    /// Total computation rounds across all `(B_b, H_h)` chunks.
    pub rounds: usize,
    /// Number of proactive buffer-overwrite events (§4.3).
    pub overwrite_events: usize,
    /// Extra DRAM read bytes caused by reloading overwritten `K`/`V` tiles.
    pub reload_bytes: u64,
    /// Extra MAC operations spent redoing interrupted MatMul sub-tiles.
    pub redo_mac_ops: u64,
    /// Whether the whole `K`/`V` of a chunk stays resident in L1 across its
    /// query blocks (removes per-round re-streaming).
    pub kv_resident: bool,
    /// Estimated L1 working-set high-water mark in bytes.
    pub l1_high_water_bytes: usize,
}

/// A built schedule: task graph plus construction statistics.
#[derive(Debug, Clone)]
pub struct Schedule {
    graph: TaskGraph,
    stats: BuildStats,
}

impl Schedule {
    /// Creates a schedule from its parts (used by the builders).
    #[must_use]
    pub fn new(graph: TaskGraph, stats: BuildStats) -> Self {
        Self { graph, stats }
    }

    /// The task graph to simulate.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Construction statistics.
    #[must_use]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Decomposes the schedule into its parts.
    #[must_use]
    pub fn into_parts(self) -> (TaskGraph, BuildStats) {
        (self.graph, self.stats)
    }
}

/// Builds the task graph of `kind` for `workload` under `tiling` on `hw`.
///
/// # Errors
///
/// Returns a [`mas_sim::SimError`] if the hardware configuration is invalid
/// or the resulting graph fails validation.
pub fn build_dataflow(
    kind: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Result<Schedule> {
    hw.validate()?;
    let schedule = match kind {
        DataflowKind::LayerWise => crate::layerwise::build(workload, tiling, hw),
        DataflowKind::SoftPipe => crate::softpipe::build(workload, tiling, hw),
        DataflowKind::Flat => crate::flat::build(workload, tiling, hw),
        DataflowKind::TileFlow => crate::tileflow::build(workload, tiling, hw),
        DataflowKind::FuseMax => crate::fusemax::build(workload, tiling, hw),
        DataflowKind::MasAttention => crate::mas::build(workload, tiling, hw),
    };
    schedule.graph.validate()?;
    Ok(schedule)
}

/// Task-emission helper shared by the dataflow builders.
#[derive(Debug)]
pub(crate) struct Emitter {
    graph: TaskGraph,
}

impl Emitter {
    pub(crate) fn new() -> Self {
        Self {
            graph: TaskGraph::new(),
        }
    }

    pub(crate) fn into_graph(self) -> TaskGraph {
        self.graph
    }

    /// DRAM → L1 load on the inbound DMA channel.
    pub(crate) fn load(
        &mut self,
        label: impl Into<Label>,
        bytes: usize,
        deps: &[TaskId],
    ) -> TaskId {
        self.graph
            .add_task(label, Resource::DmaIn, TaskKind::DramLoad { bytes }, deps)
    }

    /// L1 → DRAM store on the outbound DMA channel.
    pub(crate) fn store(
        &mut self,
        label: impl Into<Label>,
        bytes: usize,
        deps: &[TaskId],
    ) -> TaskId {
        self.graph
            .add_task(label, Resource::DmaOut, TaskKind::DramStore { bytes }, deps)
    }

    /// Tiled MatMul on a core's MAC unit.
    pub(crate) fn matmul(
        &mut self,
        label: impl Into<Label>,
        core: usize,
        m: usize,
        k: usize,
        n: usize,
        deps: &[TaskId],
    ) -> TaskId {
        self.graph.add_task(
            label,
            Resource::Mac { core },
            TaskKind::MatMul { m, k, n },
            deps,
        )
    }

    /// Row-wise softmax tile on a core's VEC unit.
    pub(crate) fn softmax(
        &mut self,
        label: impl Into<Label>,
        core: usize,
        rows: usize,
        cols: usize,
        deps: &[TaskId],
    ) -> TaskId {
        self.graph.add_task(
            label,
            Resource::Vec { core },
            TaskKind::Softmax { rows, cols },
            deps,
        )
    }

    /// Generic element-wise pass on a core's VEC unit.
    pub(crate) fn vec_op(
        &mut self,
        label: impl Into<Label>,
        core: usize,
        elements: usize,
        passes: usize,
        deps: &[TaskId],
    ) -> TaskId {
        self.graph.add_task(
            label,
            Resource::Vec { core },
            TaskKind::VecOp { elements, passes },
            deps,
        )
    }

    /// Zero-duration synchronization point on a core's MAC unit.
    pub(crate) fn barrier(
        &mut self,
        label: impl Into<Label>,
        core: usize,
        deps: &[TaskId],
    ) -> TaskId {
        self.graph
            .add_task(label, Resource::Mac { core }, TaskKind::Barrier, deps)
    }
}

/// Emits the resident `K`/`V` prefetch loads for every chunk up front (so
/// that the shared DMA channel serves all cores before the per-round `Q`
/// streams begin), returning `(K, V)` load task ids per chunk. Returns
/// `None` pairs when `kv_resident` is false.
pub(crate) fn preload_resident_kv(
    em: &mut Emitter,
    plans: &[ChunkPlan],
    workload: &AttentionWorkload,
    hw: &HardwareConfig,
    kv_resident: bool,
) -> Vec<(Option<TaskId>, Option<TaskId>)> {
    if !kv_resident {
        return vec![(None, None); plans.len()];
    }
    let eb = hw.element_bytes;
    plans
        .iter()
        .map(|plan| {
            let bytes = plan.slices * workload.seq_len * workload.embed * eb;
            let k = em.load(
                Label::new("c{0}: load K (resident)", [plan.index]),
                bytes,
                &[],
            );
            let v = em.load(
                Label::new("c{0}: load V (resident)", [plan.index]),
                bytes,
                &[],
            );
            (Some(k), Some(v))
        })
        .collect()
}

/// Per-`(B_b, H_h)`-chunk planning shared by the builders.
#[derive(Debug, Clone)]
pub(crate) struct ChunkPlan {
    /// Index of the chunk (0-based).
    pub index: usize,
    /// Core assigned to the chunk (chunks are distributed round-robin).
    pub core: usize,
    /// `(batch, head)` slices processed together in this chunk's rounds.
    pub slices: usize,
    /// Query row-blocks (rounds) within this chunk.
    pub query_blocks: usize,
    /// Key/value sub-tiles per round.
    pub kv_tiles: usize,
    /// Rows of the last (possibly ragged) query block.
    pub last_q_rows: usize,
    /// Columns of the last (possibly ragged) key/value sub-tile.
    pub last_kv_cols: usize,
}

impl ChunkPlan {
    /// Effective number of query rows in round `i` (before multiplying by the
    /// number of slices in the chunk).
    pub(crate) fn q_rows(&self, workload: &AttentionWorkload, tiling: &Tiling, i: usize) -> usize {
        if i + 1 == self.query_blocks {
            self.last_q_rows
        } else {
            tiling.n_q.min(workload.seq_len)
        }
    }

    /// Effective number of key/value rows in sub-tile `j`.
    pub(crate) fn kv_cols(&self, workload: &AttentionWorkload, tiling: &Tiling, j: usize) -> usize {
        if j + 1 == self.kv_tiles {
            self.last_kv_cols
        } else {
            tiling.n_kv.min(workload.seq_len)
        }
    }
}

/// Enumerates the `(B_b, H_h)` chunks of a workload, assigning them to cores
/// round-robin.
pub(crate) fn plan_chunks(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Vec<ChunkPlan> {
    let chunks = tiling.slice_chunks(workload);
    let query_blocks = tiling.query_blocks(workload);
    let kv_tiles = tiling.kv_tiles(workload);
    let last_q_rows = workload.seq_len - (query_blocks - 1) * tiling.n_q.min(workload.seq_len);
    let last_kv_cols = workload.seq_len - (kv_tiles - 1) * tiling.n_kv.min(workload.seq_len);
    (0..chunks)
        .map(|index| ChunkPlan {
            index,
            core: index % hw.cores,
            slices: tiling.slices_per_round(),
            query_blocks,
            kv_tiles,
            last_q_rows,
            last_kv_cols,
        })
        .collect()
}

/// Decides whether the whole `K`/`V` of one chunk can stay resident in L1
/// together with the method's per-round working set.
pub(crate) fn kv_can_stay_resident(
    kind: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> bool {
    let base = footprint(kind, workload, tiling, hw.element_bytes);
    let resident = resident_kv_bytes(workload, tiling, hw.element_bytes);
    // The streamed K/V double-buffer is replaced by full residency.
    let total = base.total_bytes() - base.kv_bytes + resident;
    total <= hw.l1_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    #[test]
    fn plan_chunks_distributes_round_robin() {
        let w = bert();
        let hw = HardwareConfig::edge_default();
        let t = Tiling::new(1, 1, 64, 128, &w);
        let plans = plan_chunks(&w, &t, &hw);
        assert_eq!(plans.len(), 12);
        assert_eq!(plans[0].core, 0);
        assert_eq!(plans[1].core, 1);
        assert_eq!(plans[2].core, 0);
        assert_eq!(plans[0].query_blocks, 8);
        assert_eq!(plans[0].kv_tiles, 4);
        assert_eq!(plans[0].last_q_rows, 64);
        assert_eq!(plans[0].last_kv_cols, 128);
    }

    #[test]
    fn ragged_edges_are_tracked() {
        let w = AttentionWorkload::new("vit", 1, 2, 196, 64);
        let hw = HardwareConfig::edge_default();
        let t = Tiling::new(1, 1, 64, 64, &w);
        let plans = plan_chunks(&w, &t, &hw);
        assert_eq!(plans[0].query_blocks, 4);
        assert_eq!(plans[0].last_q_rows, 4);
        assert_eq!(plans[0].q_rows(&w, &t, 0), 64);
        assert_eq!(plans[0].q_rows(&w, &t, 3), 4);
        assert_eq!(plans[0].kv_cols(&w, &t, 3), 4);
    }

    #[test]
    fn kv_residency_depends_on_l1_size() {
        let w = bert();
        let t = Tiling::new(1, 1, 64, 128, &w);
        let hw = HardwareConfig::edge_default();
        assert!(kv_can_stay_resident(
            DataflowKind::MasAttention,
            &w,
            &t,
            &hw
        ));
        let mut small = hw.clone();
        small.l1_bytes = 64 * 1024;
        assert!(!kv_can_stay_resident(
            DataflowKind::MasAttention,
            &w,
            &t,
            &small
        ));
    }

    #[test]
    fn build_dataflow_produces_valid_graphs_for_all_kinds() {
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let hw = HardwareConfig::edge_default();
        let t = Tiling::new(1, 1, 16, 32, &w);
        for kind in DataflowKind::all() {
            let s = build_dataflow(kind, &w, &t, &hw).unwrap();
            assert!(!s.graph().is_empty(), "{kind} produced an empty graph");
            assert_eq!(s.stats().kind, kind);
            assert!(s.stats().rounds > 0);
        }
    }

    #[test]
    fn emitter_builds_connected_tasks() {
        let mut e = Emitter::new();
        let a = e.load("ld", 64, &[]);
        let b = e.matmul("mm", 0, 4, 4, 4, &[a]);
        let c = e.softmax("sm", 0, 4, 4, &[b]);
        let d = e.vec_op("rescale", 0, 16, 1, &[c]);
        let bar = e.barrier("sync", 0, &[d]);
        let st = e.store("st", 32, &[bar]);
        let g = e.into_graph();
        assert_eq!(g.len(), 6);
        g.validate().unwrap();
        assert_eq!(g.get(st).unwrap().deps(), [bar]);
    }
}
