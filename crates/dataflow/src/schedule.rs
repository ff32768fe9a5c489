//! Schedule construction: shared infrastructure and the public entry point.
//!
//! Every dataflow builder produces a [`Schedule`]: the [`TaskGraph`] to be
//! simulated plus [`BuildStats`] describing structural properties of the
//! schedule (rounds, proactive-overwrite events, reload traffic). The
//! builders share the crate-private `Emitter` helper, which wraps task
//! emission, and `ChunkPlan`, which captures the per-`(B_b, H_h)`-chunk
//! decisions (which core runs the chunk, whether `K`/`V` stay resident in
//! L1, whether the overwrite strategy engages).
//!
//! Each builder emits a chunk's rounds through `emit_rounds`: a prologue
//! of rounds as they come, then one period of its regular rounds stored
//! once with a repeat count ([`TaskGraph::repeat`]), then an epilogue. The
//! graph is the one the builder would get by emitting every round; only
//! its stored form is smaller.

use std::ops::Range;

use mas_sim::task::{Label, Resource, TaskId, TaskKind};
use mas_sim::{HardwareConfig, Result, TaskGraph};

use crate::footprint::{footprint, resident_kv_bytes};
use crate::kind::DataflowKind;
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Structural statistics recorded while building a schedule.
#[derive(Debug, Clone, PartialEq)]
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
/// or the resulting graph fails validation, and
/// [`mas_sim::SimError::InvalidConfig`] before emitting any task if the
/// tiling is out of range or the four `Q`/`K`/`V`/`O` operands exceed the
/// device DRAM (such a graph could not run, and building it could exhaust
/// host memory).
pub fn build_dataflow(
    kind: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Result<Schedule> {
    hw.validate()?;
    tiling.check(workload)?;
    let operands = workload.operand_bytes(hw.element_bytes).saturating_mul(4);
    if operands > hw.dram_bytes as u64 {
        return Err(mas_sim::SimError::InvalidConfig {
            reason: format!(
                "the four operands need {operands} bytes, over the {} bytes of DRAM",
                hw.dram_bytes
            ),
        });
    }
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
    /// Whether rounds are emitted one by one rather than repeated; tests
    /// build the same graph both ways.
    #[cfg(test)]
    plain: bool,
}

impl Emitter {
    pub(crate) fn new() -> Self {
        Self {
            graph: TaskGraph::new(),
            #[cfg(test)]
            plain: PLAIN.get(),
        }
    }

    pub(crate) fn into_graph(self) -> TaskGraph {
        self.graph
    }

    /// The id the next emitted task gets.
    pub(crate) fn next_id(&self) -> TaskId {
        self.graph.next_id()
    }

    /// Repeats the period that starts at `start` `times` more times
    /// ([`TaskGraph::repeat`]), returning its length in tasks.
    fn repeat(&mut self, start: TaskId, times: usize) -> Option<usize> {
        #[cfg(test)]
        if self.plain {
            return None;
        }
        self.graph.repeat(start, times)
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

#[cfg(test)]
thread_local! {
    /// Whether emitters created on this thread emit every round.
    static PLAIN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Builds with every round emitted one by one, for comparing the stored
/// form against the graph it stands for.
#[cfg(test)]
pub(crate) fn build_plain(
    kind: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> Result<Schedule> {
    PLAIN.set(true);
    let schedule = build_dataflow(kind, workload, tiling, hw);
    PLAIN.set(false);
    schedule
}

/// Where a repeat moved a builder's task handles: a handle to a task of the
/// repeated period's first instance now names the same task of its last.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Moved {
    start: TaskId,
    len: usize,
    times: usize,
}

impl Moved {
    /// `id` moved to the last instance, if it lies in the first.
    pub(crate) fn id(&self, id: TaskId) -> TaskId {
        self.copy(id, self.times)
    }

    /// Instance `k` of `id`, if it lies in the first instance.
    pub(crate) fn copy(&self, id: TaskId, k: usize) -> TaskId {
        let i = id.index();
        if (self.start.index()..self.start.index() + self.len).contains(&i) {
            id.later(k * self.len)
        } else {
            id
        }
    }

    /// The instances the repeat added.
    pub(crate) fn instances(&self) -> Range<usize> {
        1..self.times + 1
    }
}

/// The `repeated` step of a builder whose rounds each push one task (the
/// round's last) onto `last`: the repeat's further instances push theirs.
pub(crate) fn push_moved_last(last: &mut Vec<TaskId>, moved: Moved) {
    if let Some(&id) = last.last() {
        last.extend(moved.instances().map(|k| moved.copy(id, k)));
    }
}

/// The fewest tasks a repeat must stand for; a shorter stretch is emitted
/// round by round. A repeat of a few tasks costs the executor more to read
/// (its spans, extras and per-instance bounds) than its instances cost as
/// plain tasks: with no floor, the heuristic Table 1 graphs get dozens of
/// 3- to 5-task repeats each (29,232 stored tasks of 57,256), build ~20%
/// faster but simulate ~55% slower (~35% slower in all, and 3–11% slower
/// over the BERT-Small/T5-Mini search space), and the fast-forward skips
/// 504 more of their tasks. A floor of 64 is 2–6% slower on Table 1 and
/// 4–14% over the search space.
const MIN_REPEATED: usize = 256;

/// Emits rounds `rounds` through `round`, storing a repeating stretch once.
///
/// Every `period` consecutive rounds within `regular` must emit the tasks
/// of the `period` rounds before them, moved on: the same work, labels
/// whose round arguments advance with the round, and dependencies on the
/// same fixed tasks or on tasks at most one period back. The rounds run in
/// order until two whole periods of regular rounds have been emitted; the
/// second is then repeated for as many whole periods as `regular` has left
/// ([`TaskGraph::repeat`]), `repeated` moves the builder's handles on to
/// the last instance, and the remaining rounds run in order again. If the
/// repeat would stand for fewer than `MIN_REPEATED` tasks, or the graph
/// refuses it, every round is emitted.
///
/// The graph compares only the two emitted periods; the instances after
/// them are trusted to `regular` and `period`. A `regular` range that took
/// in a round of another shape (a ragged last query block, say) would
/// silently store a different graph. `schedule::tests` build every method
/// both ways over Table 1, the naive and sampled search-space tilings and
/// overwrite shapes, and are the only check of that.
// Inlined into each builder, so its round closure keeps the emitter's
// arrays in registers: behind a call, building got ~40% slower.
#[inline(always)]
pub(crate) fn emit_rounds<S>(
    em: &mut Emitter,
    state: &mut S,
    rounds: Range<usize>,
    regular: Range<usize>,
    period: usize,
    mut round: impl FnMut(&mut Emitter, &mut S, usize),
    mut repeated: impl FnMut(&mut S, Moved),
) {
    // Instance 0 is the period that starts at `second`, when there are
    // at least three whole periods of regular rounds from `fold_at` on.
    let fold_at = regular.start.max(rounds.start);
    let second = (regular.end >= fold_at + 3 * period).then_some(fold_at + period);
    let mut start = None;
    let mut i = rounds.start;
    while i < rounds.end {
        if Some(i) == second {
            start = Some(em.next_id());
        }
        round(em, state, i);
        i += 1;
        let Some(start) = start.take_if(|_| Some(i) == second.map(|r| r + period)) else {
            continue;
        };
        let times = (regular.end - i) / period;
        if times * (em.next_id().index() - start.index()) < MIN_REPEATED {
            continue;
        }
        if let Some(len) = em.repeat(start, times) {
            repeated(state, Moved { start, len, times });
            i += times * period;
        }
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

    /// Asserts the graph `kind` builds repeats only where it emits the
    /// graph it would build with every round emitted: every task's label,
    /// resource, kind and dependencies, in order, through both `iter` and
    /// `expand`.
    fn assert_exact(kind: DataflowKind, w: &AttentionWorkload, t: &Tiling, hw: &HardwareConfig) {
        let what = format!("{kind} on {} at {t:?}", w.name);
        let stored = build_dataflow(kind, w, t, hw).expect("builds");
        let plain = build_plain(kind, w, t, hw).expect("builds");
        let (stored, plain) = (stored.graph(), plain.graph());
        assert_eq!(stored.len(), plain.len(), "{what}: tasks");
        assert_eq!(
            plain.stored_len(),
            plain.len(),
            "{what}: plain build repeated"
        );
        let expanded = stored.expand();
        assert_eq!(
            expanded.stored_len(),
            plain.len(),
            "{what}: expand repeated"
        );
        for (graph, how) in [(stored, "iter"), (&expanded, "expand")] {
            for (a, b) in graph.iter().zip(plain.iter()) {
                let same = a.id == b.id
                    && a.label == b.label
                    && a.resource == b.resource
                    && a.kind == b.kind
                    && a.deps() == b.deps();
                assert!(same, "{what}, {how}: {a:?} differs from {b:?}");
            }
        }
    }

    /// Candidate lists like `mas_search::SearchSpace`'s: powers of two from
    /// the MAC array's side up to the sequence, and the sequence itself.
    fn pow2(lo: usize, hi: usize) -> Vec<usize> {
        let mut out: Vec<usize> = std::iter::successors(Some(lo.clamp(1, hi)), |v| Some(v * 2))
            .take_while(|&v| v < hi)
            .collect();
        out.push(hi);
        out
    }

    /// A Table 1 network's attention workload at `batch`, built in this
    /// crate (`mas_workloads` links its own copy of it).
    fn table1(network: mas_workloads::Network, batch: usize) -> AttentionWorkload {
        let c = network.config();
        AttentionWorkload::new(c.name, batch, c.heads, c.seq_len, c.embed)
    }

    #[test]
    fn repeats_are_exact_at_heuristic_and_naive_tilings() {
        let hw = HardwareConfig::edge_default();
        for network in mas_workloads::Network::all() {
            let w = table1(network, 1);
            for kind in DataflowKind::all() {
                assert_exact(kind, &w, &Tiling::heuristic(&w, &hw), &hw);
            }
        }
        for network in [
            mas_workloads::Network::BertSmall,
            mas_workloads::Network::T5Mini,
        ] {
            let w = table1(network, 1);
            for kind in DataflowKind::all() {
                assert_exact(kind, &w, &Tiling::naive(&w), &hw);
            }
        }
    }

    #[test]
    fn repeats_are_exact_under_proactive_overwrite() {
        let w = AttentionWorkload::new("long", 1, 2, 8192, 64);
        let t = Tiling::new(1, 2, 64, 512, &w);
        let mut hw = HardwareConfig::edge_default();
        hw.l1_bytes = 7 * 1024 * 1024;
        assert_eq!(
            crate::overwrite::residency_plan(&w, &t, &hw),
            crate::overwrite::ResidencyPlan::OverwriteKv
        );
        let built = build_dataflow(DataflowKind::MasAttention, &w, &t, &hw).unwrap();
        assert!(built.graph().stored_len() * 10 < built.graph().len());
        assert_exact(DataflowKind::MasAttention, &w, &t, &hw);
        // An odd number of rounds ends the two-round period half way.
        let odd = AttentionWorkload::new("long", 1, 2, 8192 - 64, 64);
        assert_exact(DataflowKind::MasAttention, &odd, &t, &hw);
    }

    #[test]
    fn multi_round_chunks_are_stored_once() {
        let hw = HardwareConfig::edge_default();
        let w = AttentionWorkload::new("BERT-Small", 1, 8, 512, 64);
        for kind in DataflowKind::all() {
            let built = build_dataflow(kind, &w, &Tiling::naive(&w), &hw).unwrap();
            let graph = built.graph();
            assert!(
                graph.stored_len() * 20 < graph.len(),
                "{kind}: {} of {} tasks stored",
                graph.stored_len(),
                graph.len()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn repeats_are_exact_over_the_search_space(
            network in 0usize..12,
            kind in 0usize..6,
            b in 0usize..64,
            h in 0usize..64,
            q in 0usize..64,
            kv in 0usize..64,
            batch in 1usize..3,
        ) {
            let hw = HardwareConfig::edge_default();
            let networks = mas_workloads::Network::all();
            let w = table1(networks[network % networks.len()], batch);
            let pick = |values: Vec<usize>, at: usize| values[at % values.len()];
            let divisors = |n: usize| (1..=n).filter(|d| n.is_multiple_of(*d)).collect::<Vec<_>>();
            let t = Tiling::new(
                pick(divisors(w.batch), b),
                pick(divisors(w.heads), h),
                pick(pow2(hw.mac_array_rows.min(w.seq_len), w.seq_len), q),
                pick(pow2(hw.mac_array_cols.min(w.seq_len), w.seq_len), kv),
                &w,
            );
            assert_exact(DataflowKind::all()[kind], &w, &t, &hw);
        }
    }

    #[test]
    fn out_of_range_factors_are_rejected_by_every_method() {
        let w = AttentionWorkload::new("toy", 1, 2, 64, 32);
        let hw = HardwareConfig::edge_default();
        let valid = Tiling::new(1, 1, 16, 32, &w);
        let cases = [
            (Tiling { b_b: 0, ..valid }, "B_b = 0"),
            (Tiling { h_h: 0, ..valid }, "H_h = 0"),
            (Tiling { n_q: 0, ..valid }, "N_Q = 0"),
            (Tiling { n_kv: 0, ..valid }, "N_KV = 0"),
            (Tiling { b_b: 5, ..valid }, "B_b = 5"),
            (Tiling { h_h: 9, ..valid }, "H_h = 9"),
            (Tiling { n_q: 1000, ..valid }, "N_Q = 1000"),
            (
                Tiling {
                    n_kv: 1000,
                    ..valid
                },
                "N_KV = 1000",
            ),
        ];
        for kind in DataflowKind::all() {
            for (tiling, factor) in cases {
                match build_dataflow(kind, &w, &tiling, &hw) {
                    Err(mas_sim::SimError::InvalidConfig { reason }) => {
                        assert!(reason.contains(factor), "{kind}: {reason}");
                    }
                    other => panic!("{kind} {tiling:?}: {:?}", other.map(|s| s.stats().rounds)),
                }
            }
        }
    }

    #[test]
    fn operands_over_dram_are_invalid_config() {
        let hw = HardwareConfig::edge_default();
        // ~34 GB of Q/K/V/O against 6 GiB of DRAM.
        let w = AttentionWorkload::new("huge", 1, 32, 1 << 20, 128);
        for kind in DataflowKind::all() {
            match build_dataflow(kind, &w, &Tiling::heuristic(&w, &hw), &hw) {
                Err(mas_sim::SimError::InvalidConfig { reason }) => {
                    assert!(reason.contains("DRAM"), "{kind}: {reason}");
                }
                other => panic!("{kind}: {:?}", other.map(|s| s.stats().rounds)),
            }
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
