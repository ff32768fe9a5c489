//! Accelergy-style energy model.
//!
//! The paper reports energy with Accelergy (Wu et al., 2019): every access to
//! a storage level and every processing-element operation has a fixed energy
//! cost, and total energy is the sum over the executed schedule. Figure 6
//! breaks energy down into Off-Chip (DRAM), On-Chip (L1, L0) and PEs in the
//! MAC and VEC units — [`EnergyBreakdown`] mirrors exactly those five
//! components.
//!
//! The per-access constants below are 16 nm-class estimates in picojoules.
//! Absolute magnitudes are not calibrated against the authors' (unpublished)
//! Accelergy tables; the breakdown *shape* — DRAM dominating for unfused
//! schedules, PE energy invariant across schedules (§5.3.3) — is what the
//! reproduction relies on.
//!
//! Energy counts accesses and operations only; it has no time-proportional
//! (static or leakage) term. Two schedules that move the same bytes and run
//! the same operations cost the same energy whatever their makespan, so
//! Table 3 reads exactly 0.00 % saving for MAS-Attention against FLAT and
//! TileFlow on every network although MAS finishes ~1.4× sooner than FLAT.
//! That zero is a modelling choice of this reproduction, not a result.

use crate::task::TaskKind;

/// Per-component energy costs in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per byte transferred to/from DRAM.
    pub dram_pj_per_byte: f64,
    /// Energy per byte read from or written to the shared L1 scratchpad.
    pub l1_pj_per_byte: f64,
    /// Energy per byte read from or written to a core's L0 register file.
    pub l0_pj_per_byte: f64,
    /// Energy per multiply-accumulate operation in a MAC processing element.
    pub mac_pj_per_op: f64,
    /// Energy per lane-operation in a VEC processing element.
    pub vec_pj_per_op: f64,
    /// L1 accesses (in bytes) generated per MAC operand element: operands are
    /// staged through L1 and re-read once per reuse window. This factor
    /// captures the Timeloop-style operand reuse accounting without tracking
    /// every address.
    pub l1_bytes_per_mac_operand_element: f64,
    /// L0 register-file traffic (in bytes) generated per compute operation.
    pub l0_bytes_per_op: f64,
}

impl EnergyModel {
    /// Default 16 nm-class energy constants for the simulated edge device.
    #[must_use]
    pub fn edge_16nm() -> Self {
        Self {
            dram_pj_per_byte: 100.0,
            l1_pj_per_byte: 4.0,
            l0_pj_per_byte: 0.6,
            mac_pj_per_op: 1.0,
            vec_pj_per_op: 0.5,
            l1_bytes_per_mac_operand_element: 2.0,
            l0_bytes_per_op: 2.0,
        }
    }

    /// Energy contribution of a single task, split by component.
    ///
    /// `element_bytes` is the storage width of one tensor element (2 for
    /// FP16) and `softmax_ops_per_element` the configured VEC cost of one
    /// softmax element (shared with the timing model so that energy and time
    /// count the same operations).
    #[must_use]
    pub fn task_energy(
        &self,
        kind: &TaskKind,
        element_bytes: usize,
        softmax_ops_per_element: usize,
    ) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::zero();
        match kind {
            TaskKind::MatMul { m, k, n } => {
                let ops = (*m as f64) * (*k as f64) * (*n as f64);
                e.mac_pe_pj = ops * self.mac_pj_per_op;
                e.l0_pj = ops * self.l0_bytes_per_op * self.l0_pj_per_byte;
                // Operand traffic staged through L1: A is m*k, B is k*n, the
                // output m*n is written once; reuse factor folds in repeated
                // reads of stationary tiles.
                let operand_elems = (*m as f64) * (*k as f64) + (*k as f64) * (*n as f64);
                let output_elems = (*m as f64) * (*n as f64);
                let bytes = (operand_elems * self.l1_bytes_per_mac_operand_element + output_elems)
                    * element_bytes as f64;
                e.l1_pj = bytes * self.l1_pj_per_byte;
            }
            TaskKind::Softmax { rows, cols } => {
                let elems = (*rows as f64) * (*cols as f64);
                let ops = elems * softmax_ops_per_element as f64;
                e.vec_pe_pj = ops * self.vec_pj_per_op;
                e.l0_pj = ops * self.l0_bytes_per_op * self.l0_pj_per_byte * 0.25;
                // Softmax reads its tile twice (max pass + exp pass) and
                // writes it once.
                let bytes = elems * 3.0 * element_bytes as f64;
                e.l1_pj = bytes * self.l1_pj_per_byte;
            }
            TaskKind::VecOp { elements, passes } => {
                let ops = (*elements as f64) * (*passes as f64);
                e.vec_pe_pj = ops * self.vec_pj_per_op;
                e.l0_pj = ops * self.l0_bytes_per_op * self.l0_pj_per_byte * 0.25;
                e.l1_pj = ops * element_bytes as f64 * self.l1_pj_per_byte;
            }
            TaskKind::DramLoad { bytes } | TaskKind::DramStore { bytes } => {
                e.dram_pj = *bytes as f64 * self.dram_pj_per_byte;
                // Every DRAM transfer also touches L1 once on the on-chip side.
                e.l1_pj = *bytes as f64 * self.l1_pj_per_byte;
            }
            TaskKind::Barrier => {}
        }
        e
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::edge_16nm()
    }
}

/// Energy broken down into the five components of the paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Off-chip DRAM access energy (pJ).
    pub dram_pj: f64,
    /// Shared L1 scratchpad access energy (pJ).
    pub l1_pj: f64,
    /// L0 register-file access energy (pJ).
    pub l0_pj: f64,
    /// MAC processing-element energy (pJ).
    pub mac_pe_pj: f64,
    /// VEC processing-element energy (pJ).
    pub vec_pe_pj: f64,
}

impl EnergyBreakdown {
    /// An all-zero breakdown.
    #[must_use]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total energy across all components (pJ).
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.l1_pj + self.l0_pj + self.mac_pe_pj + self.vec_pe_pj
    }

    /// Adds another breakdown component-wise.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.dram_pj += other.dram_pj;
        self.l1_pj += other.l1_pj;
        self.l0_pj += other.l0_pj;
        self.mac_pe_pj += other.mac_pe_pj;
        self.vec_pe_pj += other.vec_pe_pj;
    }

    /// The breakdown as `(label, pJ)` pairs in Figure 6 order.
    #[must_use]
    pub fn components(&self) -> [(&'static str, f64); 5] {
        [
            ("DRAM", self.dram_pj),
            ("L1", self.l1_pj),
            ("L0", self.l0_pj),
            ("MAC PEs", self.mac_pe_pj),
            ("VEC PEs", self.vec_pe_pj),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_components() {
        let b = EnergyBreakdown {
            dram_pj: 1.0,
            l1_pj: 2.0,
            l0_pj: 3.0,
            mac_pe_pj: 4.0,
            vec_pe_pj: 5.0,
        };
        assert!((b.total_pj() - 15.0).abs() < 1e-12);
        assert_eq!(b.components().len(), 5);
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let mut a = EnergyBreakdown::zero();
        let b = EnergyBreakdown {
            dram_pj: 1.0,
            l1_pj: 1.5,
            l0_pj: 0.5,
            mac_pe_pj: 2.0,
            vec_pe_pj: 0.25,
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert!((a.total_pj() - 2.0 * b.total_pj()).abs() < 1e-12);
    }

    #[test]
    fn matmul_energy_is_dominated_by_pe_and_scales_with_ops() {
        let m = EnergyModel::edge_16nm();
        let small = m.task_energy(
            &TaskKind::MatMul {
                m: 16,
                k: 16,
                n: 16,
            },
            2,
            64,
        );
        let big = m.task_energy(
            &TaskKind::MatMul {
                m: 32,
                k: 16,
                n: 16,
            },
            2,
            64,
        );
        assert!(big.mac_pe_pj > small.mac_pe_pj);
        assert!((big.mac_pe_pj / small.mac_pe_pj - 2.0).abs() < 1e-9);
        assert_eq!(small.dram_pj, 0.0);
        assert!(small.vec_pe_pj == 0.0);
    }

    #[test]
    fn softmax_energy_uses_vec_pes_only() {
        let m = EnergyModel::edge_16nm();
        let e = m.task_energy(&TaskKind::Softmax { rows: 4, cols: 128 }, 2, 64);
        assert!(e.vec_pe_pj > 0.0);
        assert_eq!(e.mac_pe_pj, 0.0);
        assert_eq!(e.dram_pj, 0.0);
        // 4*128 elements * 64 ops * 0.5 pJ.
        assert!((e.vec_pe_pj - 4.0 * 128.0 * 64.0 * 0.5).abs() < 1e-6);
    }

    #[test]
    fn dram_transfers_cost_more_per_byte_than_l1() {
        let m = EnergyModel::edge_16nm();
        let e = m.task_energy(&TaskKind::DramLoad { bytes: 1000 }, 2, 64);
        assert!(e.dram_pj > e.l1_pj);
        assert!((e.dram_pj - 100_000.0).abs() < 1e-6);
        let s = m.task_energy(&TaskKind::DramStore { bytes: 1000 }, 2, 64);
        assert!((s.dram_pj - e.dram_pj).abs() < 1e-9);
    }

    #[test]
    fn barrier_is_free() {
        let m = EnergyModel::edge_16nm();
        assert_eq!(m.task_energy(&TaskKind::Barrier, 2, 64).total_pj(), 0.0);
    }
}
