//! Numeric golden check of the NPU execution structure.
//!
//! The simulator-priced model in [`crate::model`] predicts *timing*; this
//! module computes *values*, mirroring how the device executes attention:
//! heads are partitioned across the heterogeneous cores
//! ([`crate::device::NpuDevice::partition_heads`]) and each core accumulates
//! its `P·V` partial products at the granularity of its grid-searched tile
//! ([`NpuModel::grid_search_n_q`]), flushing one tile's partial block into
//! the output at a time — so the blocking
//! structure shows up in the `f32` accumulation order and a wrong partition
//! or tile choice is observable. The arithmetic runs on the `mas-tensor`
//! slice kernels — [`dot`] row·row products for `QKᵀ`, [`softmax_row`] for
//! the stable softmax, [`axpy`] accumulation for `PV` — never on scalar
//! element accessors, so the checked code path is the same vectorizable one
//! the CPU kernels use.
//!
//! Every method computes exact attention, so the output must match the
//! unfused reference within accumulation tolerance — the paper's golden-data
//! check (§5.1) applied to the NPU model via [`golden_check`].

use mas_tensor::attention::reference_attention;
use mas_tensor::golden::{golden_check, GoldenReport, Tolerance};
use mas_tensor::init::random_qkv;
use mas_tensor::matmul::{axpy, dot};
use mas_tensor::softmax::softmax_row;
use mas_tensor::{Result, Tensor};

use mas_dataflow::{AttentionWorkload, DataflowKind};

use crate::model::NpuModel;

impl NpuModel {
    /// Computes the attention output of `kind` on the given operands with
    /// the core partitioning and tiling structure the NPU model assumes.
    ///
    /// `(batch, head)` slices are assigned to cores in the same proportions
    /// as [`crate::device::NpuDevice::partition_heads`], and each core's
    /// grid-searched tile size (`grid_search_n_q`) sets its accumulator
    /// *flush granularity*: the `P·V` partial products of one tile's worth
    /// of key/value rows accumulate in an on-chip scratch block before being
    /// flushed into the output row, exactly as the unified buffer stages
    /// partial sums on the device. The tile size therefore changes the
    /// `f32` accumulation order — the blocking structure is numerically
    /// observable — while every method still computes exact attention
    /// within golden tolerance, which is what the golden check pins.
    ///
    /// # Errors
    ///
    /// Returns a [`mas_tensor::TensorError`] if the operand shapes are
    /// inconsistent.
    pub fn execute_numeric(
        &self,
        kind: DataflowKind,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
    ) -> Result<Tensor> {
        if q.shape() != k.shape() {
            return Err(mas_tensor::TensorError::ShapeMismatch {
                left: *q.shape(),
                right: *k.shape(),
                op: "npu execute_numeric(q, k)",
            });
        }
        if k.shape() != v.shape() {
            return Err(mas_tensor::TensorError::ShapeMismatch {
                left: *k.shape(),
                right: *v.shape(),
                op: "npu execute_numeric(k, v)",
            });
        }
        let [b_n, h_n, n, e] = q.shape().dims();
        let workload = AttentionWorkload::new("npu-numeric", b_n, h_n, n, e);

        // Assign each (batch, head) slice to the core that owns it under the
        // device's head partition, and use that core's grid-searched
        // row-block size.
        let slices = workload.slices();
        let partition = self.device().partition_heads(slices);
        let mut slice_n_q = Vec::with_capacity(slices);
        for (core, &count) in self.device().cores.iter().zip(&partition) {
            let n_q = self.grid_search_n_q(kind, &workload, core).max(1);
            slice_n_q.extend(std::iter::repeat_n(n_q, count));
        }
        debug_assert_eq!(slice_n_q.len(), slices);

        let mut out = Tensor::zeros(*q.shape());
        let mut c_row = vec![0.0f32; n];
        let mut p_row = vec![0.0f32; n];
        let mut partial = vec![0.0f32; e];
        for (s, &n_q) in slice_n_q.iter().enumerate() {
            let (bi, hi) = (s / h_n, s % h_n);
            for r in 0..n {
                let q_row = q.row(bi, hi, r);
                // C_i row: dot products against every K row.
                for (j, c) in c_row.iter_mut().enumerate() {
                    *c = dot(q_row, k.row(bi, hi, j));
                }
                // P_i row: stable softmax over the row slice.
                softmax_row(&c_row, &mut p_row);
                // O_i row: accumulate P_i · V one tile of K/V rows at a
                // time — the partial block is flushed to the output at the
                // core's grid-searched granularity, so the tile size is
                // visible in the accumulation order.
                let o_row = out.row_mut(bi, hi, r);
                for j0 in (0..n).step_by(n_q) {
                    let j1 = (j0 + n_q).min(n);
                    partial.fill(0.0);
                    for (j, &p) in p_row[j0..j1].iter().enumerate() {
                        axpy(p, v.row(bi, hi, j0 + j), &mut partial);
                    }
                    for (o, &acc) in o_row.iter_mut().zip(&partial) {
                        *o += acc;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Runs the golden-data check for one method on a seeded random instance
    /// of the workload: executes the method numerically with the NPU's
    /// blocking structure and compares against the unfused reference.
    ///
    /// # Errors
    ///
    /// Returns a [`mas_tensor::TensorError`] if the workload produces
    /// inconsistent shapes (it cannot for valid workloads).
    pub fn golden_check(
        &self,
        kind: DataflowKind,
        workload: &AttentionWorkload,
        seed: u64,
        tol: Tolerance,
    ) -> Result<GoldenReport> {
        let (q, k, v) = random_qkv(
            workload.batch,
            workload.heads,
            workload.seq_len,
            workload.embed,
            seed,
        );
        let candidate = self.execute_numeric(kind, &q, &k, &v)?;
        let golden = reference_attention(&q, &k, &v)?;
        golden_check(&candidate, &golden, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> AttentionWorkload {
        // 5 slices split across the two Lite cores (the Tiny core only
        // receives heads on much wider workloads — see partition_heads).
        AttentionWorkload::new("toy", 1, 5, 96, 32)
    }

    #[test]
    fn every_npu_method_passes_the_golden_check() {
        let model = NpuModel::kirin990();
        for kind in DataflowKind::npu_methods() {
            let report = model
                .golden_check(kind, &toy(), 7, Tolerance::default())
                .unwrap();
            assert!(
                report.passed,
                "{kind} failed the NPU golden check: {} mismatches, worst {:?}",
                report.mismatches, report.worst_index
            );
            assert_eq!(report.elements, 5 * 96 * 32);
        }
    }

    #[test]
    fn numeric_output_matches_the_reference_tightly() {
        let model = NpuModel::kirin990();
        let (q, k, v) = random_qkv(1, 3, 64, 32, 11);
        let out = model
            .execute_numeric(DataflowKind::MasAttention, &q, &k, &v)
            .unwrap();
        let golden = reference_attention(&q, &k, &v).unwrap();
        // Same slice kernels; the tiled partial-sum flush only reorders the
        // PV accumulation, which stays well within default tolerance on
        // these magnitudes.
        let report = golden_check(&out, &golden, Tolerance::default()).unwrap();
        assert!(report.passed);
        assert!(report.max_abs_diff < 1e-4);
    }

    #[test]
    fn methods_agree_within_accumulation_tolerance() {
        // Methods keep different numbers of C/P blocks live, so the grid
        // search hands them different tile sizes; the resulting partial-sum
        // orders must agree within tolerance without being required to be
        // bitwise equal.
        let model = NpuModel::kirin990();
        let (q, k, v) = random_qkv(1, 4, 512, 64, 3);
        let a = model
            .execute_numeric(DataflowKind::LayerWise, &q, &k, &v)
            .unwrap();
        let b = model
            .execute_numeric(DataflowKind::MasAttention, &q, &k, &v)
            .unwrap();
        let report = golden_check(&a, &b, Tolerance::default()).unwrap();
        assert!(report.passed);
    }

    #[test]
    fn tile_granularity_is_numerically_observable() {
        // The point of the blocked partial-sum flush: a different tile size
        // produces a different (tolerance-equal, but not bitwise-identical)
        // accumulation. Guards against the blocking structure silently
        // degenerating into an unobservable no-op.
        let model = NpuModel::kirin990();
        let w = AttentionWorkload::new("probe", 1, 2, 512, 64);
        let lite = &model.device().cores[0];
        let tiny = &model.device().cores[2];
        let nq_lite = model.grid_search_n_q(DataflowKind::MasAttention, &w, lite);
        let nq_tiny = model.grid_search_n_q(DataflowKind::MasAttention, &w, tiny);
        assert_ne!(
            nq_lite, nq_tiny,
            "probe shape must give the Lite and Tiny cores different tiles"
        );
        assert!(
            nq_lite < w.seq_len,
            "the Lite tile must split the sequence so blocking is exercised"
        );
        // With tiles smaller than the sequence, the per-tile partial-sum
        // flush reorders the PV accumulation relative to the reference's
        // linear sweep; the values stay within golden tolerance.
        let report = model
            .golden_check(DataflowKind::MasAttention, &w, 9, Tolerance::default())
            .unwrap();
        assert!(report.passed);
        assert!(
            report.max_abs_diff > 0.0,
            "tiled accumulation must not be bitwise identical to the reference"
        );
    }

    #[test]
    fn shape_mismatches_error() {
        let model = NpuModel::kirin990();
        let (q, k, _) = random_qkv(1, 2, 32, 16, 1);
        let (_, _, v_bad) = random_qkv(1, 2, 32, 8, 1);
        assert!(model
            .execute_numeric(DataflowKind::Flat, &q, &k, &v_bad)
            .is_err());
    }

    #[test]
    fn long_sequences_with_ragged_row_blocks_still_pass() {
        let model = NpuModel::kirin990();
        // 196 is not a multiple of any power-of-two row block: exercises the
        // ragged tail of the row-block sweep (ViT shapes).
        let w = AttentionWorkload::new("vit-ish", 1, 3, 196, 64);
        let report = model
            .golden_check(DataflowKind::MasAttention, &w, 21, Tolerance::default())
            .unwrap();
        assert!(report.passed);
    }
}
