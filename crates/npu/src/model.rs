//! Analytical latency model for attention dataflows on the DaVinci-like NPU.
//!
//! Attention heads are partitioned across the heterogeneous cores; each core
//! runs the method's kernel over its heads, and the device latency is the
//! maximum over cores (cores run concurrently) bounded below by the shared
//! DRAM traffic time. The structural differences between methods are the
//! same as in `mas-dataflow`:
//!
//! * **Layer-Wise** — cube and vector time add up, and the `C`/`P`
//!   intermediates round-trip DRAM.
//! * **Soft-Pipe** — `QKᵀ` overlaps with softmax, `P` round-trips DRAM, `PV`
//!   runs afterwards.
//! * **FLAT** — everything on-chip, cube and vector strictly serialized.
//! * **MAS-Attention** — cube and vector overlap; the longer of the two
//!   streams bounds the round, plus a per-round semi-synchronous handshake.
//!
//! Tile sizes (the query row-block per round) are chosen by **grid search**
//! over each core's unified buffer, as the paper does on this device.

use serde::{Deserialize, Serialize};

use mas_dataflow::footprint::live_cp_blocks;
use mas_dataflow::{AttentionWorkload, DataflowKind};

use crate::device::{NpuCore, NpuDevice};

/// Latency estimate for one method on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The analytical NPU model.
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

    /// Grid search for the largest query row-block whose working set fits a
    /// core's unified buffer for the given method (the §4.2 grid search).
    #[must_use]
    pub fn grid_search_n_q(
        &self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        core: &NpuCore,
    ) -> usize {
        let eb = self.device.element_bytes;
        let n = workload.seq_len;
        let e = workload.embed;
        // Live C/P row blocks the method keeps on-chip simultaneously.
        let cp_blocks = live_cp_blocks(kind);
        let mut candidates: Vec<usize> = Vec::new();
        let mut v = 16usize.min(n);
        while v < n {
            candidates.push(v);
            v *= 2;
        }
        candidates.push(n);
        let mut best = candidates[0];
        for &n_q in &candidates {
            // Working set: Q block, K/V sub-tile, C/P blocks, O block.
            let working = n_q * e * eb          // Q_i
                + 2 * 128.min(n) * e * eb       // double-buffered K/V sub-tile
                + cp_blocks * n_q * n * eb      // C/P row blocks
                + n_q * e * eb; // O_i
            if working <= core.buffer_bytes {
                best = n_q;
            }
        }
        best
    }

    /// Estimates the latency of one method on one workload.
    #[must_use]
    pub fn estimate(&self, kind: DataflowKind, workload: &AttentionWorkload) -> NpuLatency {
        let eb = self.device.element_bytes;
        let heads_per_core = self.device.partition_heads(workload.slices());

        let mut per_core_seconds = Vec::with_capacity(self.device.cores.len());
        let mut tile_n_q = workload.seq_len;
        for (core, &heads) in self.device.cores.iter().zip(&heads_per_core) {
            if heads == 0 {
                per_core_seconds.push(0.0);
                continue;
            }
            // The core's share of the layer: its `heads` (batch, head)
            // slices over the full sequence.
            let share = AttentionWorkload {
                name: String::new(),
                batch: 1,
                heads,
                ..*workload
            };
            let n_q = self.grid_search_n_q(kind, workload, core);
            if per_core_seconds.is_empty() || tile_n_q == workload.seq_len {
                tile_n_q = n_q;
            }
            let rounds = (workload.seq_len.div_ceil(n_q) * heads) as f64;

            let mac_time = share.total_mac_ops() as f64 / core.peak_macs_per_second();
            let qk_time = mac_time / 2.0;
            let pv_time = mac_time / 2.0;
            let vec_time = share.softmax_elements() as f64
                * self.device.softmax_ops_per_element as f64
                / core.peak_vector_ops_per_second();
            let launch = self.device.kernel_launch_overhead_s;

            let compute = match kind {
                DataflowKind::LayerWise => mac_time + vec_time + 3.0 * launch,
                DataflowKind::SoftPipe => {
                    qk_time.max(vec_time) + pv_time + 2.0 * launch + rounds * launch * 0.1
                }
                DataflowKind::Flat => mac_time + vec_time + rounds * launch * 0.2 + launch,
                DataflowKind::TileFlow => mac_time.max(vec_time) + rounds * launch * 0.3 + launch,
                DataflowKind::FuseMax => {
                    mac_time.max(vec_time * 1.4) + rounds * launch * 0.2 + launch
                }
                DataflowKind::MasAttention => {
                    mac_time.max(vec_time) + rounds * launch * 0.1 + launch
                }
            };
            per_core_seconds.push(compute);
        }

        // Shared DRAM traffic.
        let operand_bytes = workload.operand_bytes(eb) as f64;
        let intermediate_bytes = workload.intermediate_bytes(eb) as f64;
        let dram_bytes = match kind {
            DataflowKind::LayerWise => 4.0 * operand_bytes + 4.0 * intermediate_bytes,
            DataflowKind::SoftPipe => 4.0 * operand_bytes + 2.0 * intermediate_bytes,
            _ => 4.0 * operand_bytes,
        };
        let dram_seconds = dram_bytes / self.device.dram_bandwidth_bytes_per_s;

        let compute_max = per_core_seconds.iter().copied().fold(0.0f64, f64::max);
        let seconds = compute_max.max(dram_seconds) + self.device.kernel_launch_overhead_s;

        NpuLatency {
            kind,
            seconds,
            per_core_seconds,
            dram_seconds,
            tile_n_q,
        }
    }

    /// Estimates every Figure 5 method and returns `(method, seconds)` pairs
    /// in the paper's order, plus the normalization against the slowest
    /// method (Figure 5 plots normalized execution time).
    #[must_use]
    pub fn figure5_estimates(&self, workload: &AttentionWorkload) -> Vec<(DataflowKind, f64, f64)> {
        let raw: Vec<(DataflowKind, f64)> = DataflowKind::npu_methods()
            .into_iter()
            .map(|kind| (kind, self.estimate(kind, workload).seconds))
            .collect();
        let slowest = raw.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
        raw.into_iter()
            .map(|(kind, s)| (kind, s, s / slowest))
            .collect()
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

    #[test]
    fn ordering_matches_figure_5() {
        // Figure 5's robust orderings: MAS-Attention beats every baseline,
        // both fused methods beat the unfused ones, and Layer-Wise is the
        // slowest. (FLAT versus Soft-Pipe flips for some networks on the
        // real device depending on how DRAM-bound the P round-trip is.)
        let model = NpuModel::kirin990();
        let w = bert();
        let lw = model.estimate(DataflowKind::LayerWise, &w).seconds;
        let sp = model.estimate(DataflowKind::SoftPipe, &w).seconds;
        let flat = model.estimate(DataflowKind::Flat, &w).seconds;
        let mas = model.estimate(DataflowKind::MasAttention, &w).seconds;
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
            let flat = model.estimate(DataflowKind::Flat, &net).seconds;
            let mas = model.estimate(DataflowKind::MasAttention, &net).seconds;
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
        let rows = model.figure5_estimates(&bert());
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
        let est = model.estimate(DataflowKind::MasAttention, &bert());
        assert_eq!(est.per_core_seconds.len(), 3);
        // The Tiny core (index 2) is slower per head but gets fewer heads, so
        // its busy time should not exceed twice a Lite core's busy time.
        assert!(est.per_core_seconds[2] <= est.per_core_seconds[0] * 2.0);
        assert!(est.seconds >= est.dram_seconds);
    }
}
