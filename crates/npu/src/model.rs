//! Attention latency on the DaVinci-like NPU, priced on the cycle simulator.
//!
//! Heads are partitioned across the heterogeneous cores. Each core is
//! lowered to a one-core [`HardwareConfig`] (its MAC mesh, vector lanes,
//! clock and unified buffer; the device's softmax cost, DRAM bandwidth and
//! element size), and its head share's graph — the one Tables 2/3 simulate —
//! runs on [`Executor`] at the query row-block a grid search over the
//! buffer picks, as the paper does on this device. The latency is the
//! slowest core, bounded below by the four operands' DRAM time, plus one
//! kernel launch.

use mas_dataflow::footprint::tiling_fits;
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::{EnergyModel, Executor, HardwareConfig, Result};

use crate::device::{NpuCore, NpuDevice};

/// Latency estimate for one method on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuLatency {
    /// The method.
    pub kind: DataflowKind,
    /// End-to-end latency in seconds.
    pub seconds: f64,
    /// Per-core busy time in seconds (same order as the device's cores).
    pub per_core_seconds: Vec<f64>,
    /// DRAM traffic time in seconds (lower bound on the latency).
    pub dram_seconds: f64,
    /// Query row-block size chosen by the per-core grid search (for the
    /// first core that received work).
    pub tile_n_q: usize,
}

/// The NPU model: each core priced on the cycle simulator.
#[derive(Debug, Clone)]
pub struct NpuModel {
    device: NpuDevice,
}

impl NpuModel {
    /// Creates a model for the given device.
    #[must_use]
    pub fn new(device: NpuDevice) -> Self {
        Self { device }
    }

    /// Creates a model of the Kirin 990 NPU.
    #[must_use]
    pub fn kirin990() -> Self {
        Self::new(NpuDevice::kirin990())
    }

    /// The modelled device.
    #[must_use]
    pub fn device(&self) -> &NpuDevice {
        &self.device
    }

    /// The one-core simulator configuration `core` is priced on, named after
    /// the device so that cores that compute alike lower to equal ones.
    fn lower(&self, core: &NpuCore) -> HardwareConfig {
        let side = core.cube_macs_per_cycle.isqrt();
        HardwareConfig {
            name: self.device.name.clone(),
            frequency_hz: core.frequency_hz,
            cores: 1,
            mac_array_rows: side,
            mac_array_cols: side,
            vec_lanes: core.vector_lanes,
            softmax_ops_per_element: self.device.softmax_ops_per_element,
            l1_bytes: core.buffer_bytes,
            dram_bandwidth_bytes_per_s: self.device.dram_bandwidth_bytes_per_s,
            element_bytes: self.device.element_bytes,
            ..HardwareConfig::edge_default()
        }
    }

    /// Grid search (§4.2) for the largest query row-block, of 16, 32, …
    /// capped at the sequence length, whose working set with the core's
    /// heuristic key/value sub-tile fits its unified buffer for the method.
    #[must_use]
    pub fn grid_search_n_q(
        &self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        core: &NpuCore,
    ) -> usize {
        let hw = self.lower(core);
        let n = workload.seq_len;
        let n_kv = Tiling::heuristic(workload, &hw).n_kv;
        std::iter::successors(Some(16.min(n)), |&v| (v < n).then(|| (2 * v).min(n)))
            .filter(|&n_q| {
                tiling_fits(kind, workload, &Tiling::new(1, 1, n_q, n_kv, workload), &hw)
            })
            .last()
            .unwrap_or(16.min(n))
    }

    /// Simulated seconds of `heads` slices of `workload` on `core`, and the
    /// query row-block they ran at.
    fn price_share(
        &self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        core: &NpuCore,
        heads: usize,
    ) -> Result<(f64, usize)> {
        let hw = self.lower(core);
        let n_q = self.grid_search_n_q(kind, workload, core);
        let share = AttentionWorkload {
            name: String::new(),
            batch: 1,
            heads,
            ..*workload
        };
        let tiling = Tiling::new(1, 1, n_q, Tiling::heuristic(&share, &hw).n_kv, &share);
        let schedule = build_dataflow(kind, &share, &tiling, &hw)?;
        let report = Executor::new(hw, EnergyModel::edge_16nm())
            .without_trace()
            .run(schedule.graph())?;
        Ok((report.total_seconds, n_q))
    }

    /// Estimates the latency of one method on one workload.
    ///
    /// # Errors
    ///
    /// Returns the simulator's error if a core's share cannot be built or
    /// simulated, such as [`mas_sim::SimError::InvalidConfig`] for operands
    /// larger than the simulated DRAM.
    pub fn estimate(&self, kind: DataflowKind, workload: &AttentionWorkload) -> Result<NpuLatency> {
        let heads_per_core = self.device.partition_heads(workload.slices());
        // (configuration, heads, seconds, n_q) of each distinct share priced.
        let mut priced: Vec<(HardwareConfig, usize, f64, usize)> = Vec::new();
        let mut per_core_seconds = Vec::with_capacity(heads_per_core.len());
        for (core, &heads) in self.device.cores.iter().zip(&heads_per_core) {
            let hw = self.lower(core);
            let seconds = if heads == 0 {
                0.0
            } else if let Some(p) = priced.iter().find(|p| p.0 == hw && p.1 == heads) {
                p.2
            } else {
                let (seconds, n_q) = self.price_share(kind, workload, core, heads)?;
                priced.push((hw, heads, seconds, n_q));
                seconds
            };
            per_core_seconds.push(seconds);
        }

        let operand_bytes = workload.operand_bytes(self.device.element_bytes) as f64;
        let dram_seconds = 4.0 * operand_bytes / self.device.dram_bandwidth_bytes_per_s;
        let compute_max = per_core_seconds.iter().copied().fold(0.0f64, f64::max);
        Ok(NpuLatency {
            kind,
            seconds: compute_max.max(dram_seconds) + self.device.kernel_launch_overhead_s,
            per_core_seconds,
            dram_seconds,
            tile_n_q: priced.first().map_or(workload.seq_len, |p| p.3),
        })
    }

    /// Estimates every Figure 5 method and returns `(method, seconds)` pairs
    /// in the paper's order, plus the normalization against the slowest
    /// method (Figure 5 plots normalized execution time).
    ///
    /// # Errors
    ///
    /// Returns the first error of [`NpuModel::estimate`].
    pub fn figure5_estimates(
        &self,
        workload: &AttentionWorkload,
    ) -> Result<Vec<(DataflowKind, f64, f64)>> {
        let raw = DataflowKind::npu_methods()
            .into_iter()
            .map(|kind| Ok((kind, self.estimate(kind, workload)?.seconds)))
            .collect::<Result<Vec<_>>>()?;
        let slowest = raw.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
        Ok(raw
            .into_iter()
            .map(|(kind, s)| (kind, s, s / slowest))
            .collect())
    }
}

impl Default for NpuModel {
    fn default() -> Self {
        Self::kirin990()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    fn seconds(model: &NpuModel, kind: DataflowKind, w: &AttentionWorkload) -> f64 {
        model.estimate(kind, w).unwrap().seconds
    }

    #[test]
    fn ordering_matches_figure_5() {
        // Figure 5's robust orderings: MAS-Attention beats every baseline,
        // both fused methods beat the unfused ones, and Layer-Wise is the
        // slowest. (FLAT versus Soft-Pipe flips for some networks on the
        // real device depending on how DRAM-bound the P round-trip is.)
        let model = NpuModel::kirin990();
        let w = bert();
        let lw = seconds(&model, DataflowKind::LayerWise, &w);
        let sp = seconds(&model, DataflowKind::SoftPipe, &w);
        let flat = seconds(&model, DataflowKind::Flat, &w);
        let mas = seconds(&model, DataflowKind::MasAttention, &w);
        assert!(mas < flat, "MAS ({mas}) must beat FLAT ({flat})");
        assert!(mas < sp, "MAS ({mas}) must beat Soft-Pipe ({sp})");
        assert!(sp < lw, "Soft-Pipe ({sp}) must beat Layer-Wise ({lw})");
        assert!(flat < lw, "FLAT ({flat}) must beat Layer-Wise ({lw})");
    }

    #[test]
    fn speedup_over_flat_is_in_the_paper_band() {
        let model = NpuModel::kirin990();
        for net in [
            AttentionWorkload::new("BERT-Base", 1, 12, 512, 64),
            AttentionWorkload::new("Llama", 1, 32, 512, 128),
            AttentionWorkload::new("ViT-H/16", 1, 16, 256, 80),
        ] {
            let flat = seconds(&model, DataflowKind::Flat, &net);
            let mas = seconds(&model, DataflowKind::MasAttention, &net);
            let speedup = flat / mas;
            assert!(
                (1.1..=2.0).contains(&speedup),
                "{}: FLAT/MAS speedup {speedup} outside the Figure 5 band",
                net.name
            );
        }
    }

    #[test]
    fn figure5_normalization_puts_the_slowest_method_at_one() {
        let model = NpuModel::kirin990();
        let rows = model.figure5_estimates(&bert()).unwrap();
        assert_eq!(rows.len(), 4);
        let max_norm = rows.iter().map(|(_, _, n)| *n).fold(0.0f64, f64::max);
        assert!((max_norm - 1.0).abs() < 1e-12);
        // MAS has the smallest normalized time.
        let mas = rows
            .iter()
            .find(|(k, _, _)| *k == DataflowKind::MasAttention)
            .unwrap();
        assert!(rows.iter().all(|(_, _, n)| *n >= mas.2));
    }

    #[test]
    fn grid_search_picks_smaller_tiles_on_the_tiny_core() {
        let model = NpuModel::kirin990();
        let w = AttentionWorkload::new("long", 1, 3, 2048, 64);
        let lite = &model.device().cores[0];
        let tiny = &model.device().cores[2];
        let nq_lite = model.grid_search_n_q(DataflowKind::MasAttention, &w, lite);
        let nq_tiny = model.grid_search_n_q(DataflowKind::MasAttention, &w, tiny);
        assert!(nq_lite >= nq_tiny);
        assert!(nq_tiny >= 1);
    }

    #[test]
    fn per_core_times_follow_the_head_partition() {
        let model = NpuModel::kirin990();
        let est = model.estimate(DataflowKind::MasAttention, &bert()).unwrap();
        assert_eq!(est.per_core_seconds.len(), 3);
        // The Tiny core (index 2) is slower per head but gets fewer heads, so
        // its busy time should not exceed twice a Lite core's busy time.
        assert!(est.per_core_seconds[2] <= est.per_core_seconds[0] * 2.0);
        assert!(est.seconds >= est.dram_seconds);
    }
}
