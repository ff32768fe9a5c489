//! Analytical timing model for compute units and DMA channels.
//!
//! The model follows the structure used by Timeloop-style analytical
//! simulators: the latency of a tile is derived from the tile's operation
//! count and the unit's geometry, plus a fixed fill/drain and issue overhead.
//!
//! * **MAC unit** (one per core, `rows × cols` processing elements):
//!   a `[m × k] · [k × n]` tile takes `ceil(m/rows) · ceil(n/cols) · k`
//!   cycles — each output sub-block of the systolic array needs `k` cycles —
//!   plus `mac_fill_drain_cycles` per launch.
//! * **VEC unit** (one per core, `lanes` lanes): an element-wise pass over
//!   `x` elements takes `ceil(x / lanes)` cycles; a softmax tile of
//!   `rows × cols` elements costs `softmax_ops_per_element` lane-operations
//!   per element (max/subtract/exp/sum/normalize passes, with the exponential
//!   dominating), i.e. `ceil(rows·cols·ops / lanes)` cycles.
//! * **DMA channel**: a transfer of `b` bytes takes `b / dram_bytes_per_cycle`
//!   cycles; inbound and outbound channels are modelled as separate resources
//!   that each see the full DRAM bandwidth (the paper's dataflows never
//!   saturate both directions simultaneously — stores are only final outputs).
//!
//! The model prices one task at a time and nothing larger. A schedule's
//! makespan comes from running its graph on the [`crate::Executor`] (or, in
//! continuous time, from [`crate::DeviceTracks::plan`]), and the closed-form
//! work of a whole attention layer or serving launch — MAC, softmax and DRAM
//! counts — is stated once, in `mas_dataflow`'s `PrefillChunk` (causal
//! rows) and `AttentionWorkload` (non-causal prefill).

use crate::config::HardwareConfig;
use crate::task::TaskKind;

/// Timing model derived from a [`HardwareConfig`].
#[derive(Debug, Clone)]
pub struct TimingModel {
    hw: HardwareConfig,
}

impl TimingModel {
    /// Creates a timing model for the given hardware.
    #[must_use]
    pub fn new(hw: HardwareConfig) -> Self {
        Self { hw }
    }

    /// The underlying hardware configuration.
    #[must_use]
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// Cycles for a tiled matrix multiplication on one core's MAC unit.
    #[must_use]
    pub fn matmul_cycles(&self, m: usize, k: usize, n: usize) -> u64 {
        if m == 0 || k == 0 || n == 0 {
            return 0;
        }
        let row_tiles = m.div_ceil(self.hw.mac_array_rows) as u64;
        let col_tiles = n.div_ceil(self.hw.mac_array_cols) as u64;
        row_tiles * col_tiles * k as u64 + self.hw.mac_fill_drain_cycles
    }

    /// Cycles for a row-wise softmax tile on one core's VEC unit.
    #[must_use]
    pub fn softmax_cycles(&self, rows: usize, cols: usize) -> u64 {
        if rows == 0 || cols == 0 {
            return 0;
        }
        let ops = (rows as u64) * (cols as u64) * self.hw.softmax_ops_per_element as u64;
        ops.div_ceil(self.hw.vec_lanes as u64)
    }

    /// Cycles for a generic element-wise workload on one core's VEC unit.
    #[must_use]
    pub fn vec_op_cycles(&self, elements: usize, passes: usize) -> u64 {
        if elements == 0 || passes == 0 {
            return 0;
        }
        let ops = (elements as u64) * (passes as u64);
        ops.div_ceil(self.hw.vec_lanes as u64)
    }

    /// Cycles for a DRAM↔L1 transfer of `bytes` bytes.
    #[must_use]
    pub fn dma_cycles(&self, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let per_cycle = self.hw.dram_bytes_per_cycle();
        (bytes as f64 / per_cycle).ceil() as u64
    }

    /// Duration in cycles of an arbitrary task kind, including the fixed
    /// issue overhead for compute tasks.
    #[must_use]
    pub fn task_cycles(&self, kind: &TaskKind) -> u64 {
        let base = match kind {
            TaskKind::MatMul { m, k, n } => self.matmul_cycles(*m, *k, *n),
            TaskKind::Softmax { rows, cols } => self.softmax_cycles(*rows, *cols),
            TaskKind::VecOp { elements, passes } => self.vec_op_cycles(*elements, *passes),
            TaskKind::DramLoad { bytes } | TaskKind::DramStore { bytes } => self.dma_cycles(*bytes),
            TaskKind::Barrier => 0,
        };
        if kind.is_compute() && base > 0 {
            base + self.hw.issue_overhead_cycles
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::new(HardwareConfig::edge_default())
    }

    #[test]
    fn matmul_cycles_match_closed_form() {
        let t = model();
        // 64x64x64 tile: 4*4 output sub-blocks, 64 cycles each = 1024 + fill.
        assert_eq!(t.matmul_cycles(64, 64, 64), 4 * 4 * 64 + 32);
        // Degenerate dimensions cost nothing.
        assert_eq!(t.matmul_cycles(0, 64, 64), 0);
    }

    #[test]
    fn matmul_cycles_pad_to_array_size() {
        let t = model();
        // 17 rows needs two row-tiles on a 16-row array.
        assert_eq!(t.matmul_cycles(17, 8, 16), 2 * 8 + 32);
        assert_eq!(t.matmul_cycles(16, 8, 17), 2 * 8 + 32);
    }

    #[test]
    fn softmax_cycles_scale_linearly() {
        let t = model();
        let one = t.softmax_cycles(1, 512);
        let four = t.softmax_cycles(4, 512);
        assert_eq!(four, one * 4);
        assert_eq!(t.softmax_cycles(0, 512), 0);
        // 1 row of 512 elements at 64 ops/element on 256 lanes = 128 cycles.
        assert_eq!(one, 512 * 64 / 256);
    }

    #[test]
    fn dma_cycles_follow_bandwidth() {
        let t = model();
        // 8 bytes per cycle at the paper's 30 GB/s @ 3.75 GHz.
        assert_eq!(t.dma_cycles(8), 1);
        assert_eq!(t.dma_cycles(80), 10);
        assert_eq!(t.dma_cycles(81), 11);
        assert_eq!(t.dma_cycles(0), 0);
    }

    #[test]
    fn task_cycles_add_issue_overhead_only_for_compute() {
        let t = model();
        let mm = TaskKind::MatMul {
            m: 16,
            k: 16,
            n: 16,
        };
        assert_eq!(t.task_cycles(&mm), t.matmul_cycles(16, 16, 16) + 16);
        let ld = TaskKind::DramLoad { bytes: 800 };
        assert_eq!(t.task_cycles(&ld), 100);
        assert_eq!(t.task_cycles(&TaskKind::Barrier), 0);
    }
}
