//! Batched matrix multiplication kernels.
//!
//! Two entry points are provided:
//!
//! * [`matmul_nt`] — `A · Bᵀ`, the form of the first attention MatMul
//!   `C = Q Kᵀ` (both operands are stored `N × E`).
//! * [`matmul_nn`] — `A · B`, the form of the second MatMul `O = P V`.
//!
//! Both kernels operate per `(batch, head)` slice and accept an accumulation
//! flag so that tiled executors can accumulate partial products over the
//! contracted dimension exactly as Algorithm 4 of the paper does
//! (`O_i = O_i + P_{i,j} V_{i,j}`).
//!
//! ## Kernel structure
//!
//! The inner loops run on contiguous row slices (see [`Tensor::row`]): the NT
//! form reduces to batched row·row dot products ([`crate::simd::dot_many`])
//! and the NN form to rank-1 AXPY updates in `ikj` order, one
//! [`crate::simd::axpy_many`] per output row, both
//! executed by the runtime-dispatched [`crate::simd`] kernels. The
//! `(batch, head)` slices are independent and fan out across threads with
//! rayon. The pre-slice scalar implementations are retained under
//! `#[cfg(test)]` as oracles (see `naive` in the test module) and the
//! equivalence tests in this file pin the kernels to them.

use rayon::prelude::*;

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::simd;
use crate::tensor::Tensor;

/// Dot product of two equal-length slices using [`simd::LANES`] independent
/// accumulators, dispatched to the runtime-selected SIMD backend (see
/// [`crate::simd`] for the accumulation-order contract).
///
/// The accumulation order differs from a strict left-to-right sum, so results
/// may differ from a scalar loop by normal `f32` rounding (well inside the
/// golden-check tolerances) — but SIMD and scalar backends are bit-identical.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    simd::dot(x, y)
}

/// `out += a * x` over equal-length slices (the AXPY update of the `ikj`
/// matmul order), dispatched to the runtime-selected SIMD backend.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
    simd::axpy(a, x, out);
}

/// Slice-level NT kernel: `c[m × n] = a[m × k] · b[n × k]ᵀ`, row-major.
///
/// The `n` output dots of one `a` row run as one [`simd::dot_many`] batch:
/// the rows of `b` are contiguous at stride `k`, so the batch shares every
/// load of the `a` row across several independent accumulators.
#[inline]
pub(crate) fn matmul_nt_slice(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        simd::dot_many(a_row, &b[..n * k], c_row);
    }
}

/// Slice-level NN kernel in `ikj` order: `c[m × n] += a[m × k] · b[k × n]`.
///
/// Each output row is one [`simd::axpy_many`] over all `k` rows of `b`,
/// bit-identical to `k` successive [`axpy`] updates.
#[inline]
pub(crate) fn matmul_nn_slice_acc(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        simd::axpy_many(a_row, &b[..k * n], c_row);
    }
}

/// Computes `out = A · Bᵀ` per `(batch, head)` slice.
///
/// `a` has shape `B × H × M × K` and `b` has shape `B × H × N × K`; the result
/// has shape `B × H × M × N`. The `(batch, head)` slices are evaluated in
/// parallel.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the batch/head dimensions differ
/// and [`TensorError::MatmulDimMismatch`] if the contracted dimensions differ.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, ha, m, ka) = dims(a);
    let (bb, hb, n, kb) = dims(b);
    check_batch_heads(a, b, ba, ha, bb, hb, "matmul_nt")?;
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: ka,
            right_rows: kb,
        });
    }
    let out_shape = Shape::new(ba, ha, m, n)?;
    let mut out = Tensor::zeros(out_shape);
    out.data_mut()
        .par_chunks_mut(m * n)
        .enumerate()
        .for_each(|(s, c_mat)| {
            let (bi, hi) = (s / ha, s % ha);
            matmul_nt_slice(a.slice(bi, hi), b.slice(bi, hi), c_mat, m, n, ka);
        });
    Ok(out)
}

/// Computes `out = A · B` per `(batch, head)` slice, optionally accumulating
/// into an existing output.
///
/// `a` has shape `B × H × M × K` and `b` has shape `B × H × K × N`; the result
/// has shape `B × H × M × N`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] / [`TensorError::MatmulDimMismatch`]
/// on inconsistent operand shapes.
pub fn matmul_nn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ba, ha, m, _) = dims(a);
    let (_, _, _, n) = dims(b);
    let out_shape = Shape::new(ba, ha, m, n)?;
    let mut out = Tensor::zeros(out_shape);
    matmul_nn_acc(a, b, &mut out)?;
    Ok(out)
}

/// Computes `out += A · B` per `(batch, head)` slice, accumulating into `out`.
///
/// This is the primitive used by the tiled executors to accumulate partial
/// `P_{i,j} V_{i,j}` products (Algorithm 4, line 9). The `(batch, head)`
/// slices are evaluated in parallel.
///
/// # Errors
///
/// Returns shape errors as in [`matmul_nn`]; `out` must have shape
/// `B × H × M × N`.
pub fn matmul_nn_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (ba, ha, m, ka) = dims(a);
    let (bb, hb, kb, n) = dims(b);
    check_batch_heads(a, b, ba, ha, bb, hb, "matmul_nn")?;
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: ka,
            right_rows: kb,
        });
    }
    let expected = Shape::new(ba, ha, m, n)?;
    if *out.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: *out.shape(),
            right: expected,
            op: "matmul_nn_acc output",
        });
    }
    out.data_mut()
        .par_chunks_mut(m * n)
        .enumerate()
        .for_each(|(s, c_mat)| {
            let (bi, hi) = (s / ha, s % ha);
            matmul_nn_slice_acc(a.slice(bi, hi), b.slice(bi, hi), c_mat, m, ka, n);
        });
    Ok(())
}

/// Scales every element of a tensor by `s` (used for the `1/sqrt(E)` logit
/// scaling applied by some callers before softmax).
#[must_use]
pub fn scale(t: &Tensor, s: f32) -> Tensor {
    let mut out = t.clone();
    scale_in_place(&mut out, s);
    out
}

/// Scales every element of `t` by `s` in place.
pub fn scale_in_place(t: &mut Tensor, s: f32) {
    for v in t.data_mut() {
        *v *= s;
    }
}

fn dims(t: &Tensor) -> (usize, usize, usize, usize) {
    let [b, h, r, c] = t.shape().dims();
    (b, h, r, c)
}

#[allow(clippy::too_many_arguments)]
fn check_batch_heads(
    a: &Tensor,
    b: &Tensor,
    ba: usize,
    ha: usize,
    bb: usize,
    hb: usize,
    op: &'static str,
) -> Result<()> {
    if ba != bb || ha != hb {
        return Err(TensorError::ShapeMismatch {
            left: *a.shape(),
            right: *b.shape(),
            op,
        });
    }
    Ok(())
}

/// The pre-slice scalar kernels, retained verbatim as oracles for the
/// equivalence tests of the vectorizable kernels.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    /// Scalar per-element `A · Bᵀ` (the seed implementation).
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (ba, ha, m, ka) = dims(a);
        let (_, _, n, _) = dims(b);
        let out_shape = Shape::new(ba, ha, m, n)?;
        let mut out = Tensor::zeros(out_shape);
        for bi in 0..ba {
            for hi in 0..ha {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for p in 0..ka {
                            acc += a.get(bi, hi, i, p)? * b.get(bi, hi, j, p)?;
                        }
                        out.set(bi, hi, i, j, acc)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Scalar per-element `out += A · B` (the seed implementation).
    pub fn matmul_nn_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
        let (ba, ha, m, ka) = dims(a);
        let (_, _, _, n) = dims(b);
        for bi in 0..ba {
            for hi in 0..ha {
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = out.get(bi, hi, i, j)?;
                        for p in 0..ka {
                            acc += a.get(bi, hi, i, p)? * b.get(bi, hi, p, j)?;
                        }
                        out.set(bi, hi, i, j, acc)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_tensor;

    fn shape(b: usize, h: usize, r: usize, c: usize) -> Shape {
        Shape::new(b, h, r, c).unwrap()
    }

    #[test]
    fn matmul_nt_identity_like() {
        // A 2x2 identity times itself transposed is the identity.
        let a = Tensor::from_vec(shape(1, 1, 2, 2), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let out = matmul_nt(&a, &a).unwrap();
        assert_eq!(out.data(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn matmul_nt_known_values() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]]  =>  A·Bᵀ = [[17,23],[39,53]]
        let a = Tensor::from_vec(shape(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(shape(1, 1, 2, 2), vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let out = matmul_nt(&a, &b).unwrap();
        assert_eq!(out.data(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn matmul_nn_known_values() {
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]]  =>  A·B = [[19,22],[43,50]]
        let a = Tensor::from_vec(shape(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(shape(1, 1, 2, 2), vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let out = matmul_nn(&a, &b).unwrap();
        assert_eq!(out.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nn_acc_accumulates() {
        let a = Tensor::from_vec(shape(1, 1, 1, 2), vec![1.0, 1.0]).unwrap();
        let b = Tensor::from_vec(shape(1, 1, 2, 1), vec![2.0, 3.0]).unwrap();
        let mut out = Tensor::full(shape(1, 1, 1, 1), 10.0);
        matmul_nn_acc(&a, &b, &mut out).unwrap();
        assert_eq!(out.data(), &[15.0]);
    }

    #[test]
    fn nt_equals_nn_with_manual_transpose() {
        let a = random_tensor(shape(2, 2, 3, 4), 1.0, 1);
        let b = random_tensor(shape(2, 2, 5, 4), 1.0, 2);
        // Manually transpose b: B^T has shape (2,2,4,5).
        let bt = Tensor::from_fn(shape(2, 2, 4, 5), |bi, hi, r, c| {
            b.get(bi, hi, c, r).unwrap()
        });
        let via_nt = matmul_nt(&a, &b).unwrap();
        let via_nn = matmul_nn(&a, &bt).unwrap();
        assert!(via_nt.max_abs_diff(&via_nn).unwrap() < 1e-5);
    }

    #[test]
    fn slice_nt_matches_naive_oracle() {
        // Dimensions straddle the DOT_LANES boundary (tail handling).
        for (m, n, k) in [(1, 1, 1), (3, 5, 7), (8, 8, 8), (13, 9, 17), (16, 32, 64)] {
            let a = random_tensor(shape(2, 3, m, k), 1.0, 11);
            let b = random_tensor(shape(2, 3, n, k), 1.0, 12);
            let fast = matmul_nt(&a, &b).unwrap();
            let slow = naive::matmul_nt(&a, &b).unwrap();
            let tol = 1e-4 * slow.max_abs().max(1.0);
            assert!(
                fast.max_abs_diff(&slow).unwrap() <= tol,
                "matmul_nt ({m},{n},{k}) diverged from the oracle"
            );
        }
    }

    #[test]
    fn slice_nn_acc_matches_naive_oracle() {
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (8, 8, 8), (13, 17, 9)] {
            let a = random_tensor(shape(1, 2, m, k), 1.0, 21);
            let b = random_tensor(shape(1, 2, k, n), 1.0, 22);
            let mut fast = random_tensor(shape(1, 2, m, n), 1.0, 23);
            let mut slow = fast.clone();
            matmul_nn_acc(&a, &b, &mut fast).unwrap();
            naive::matmul_nn_acc(&a, &b, &mut slow).unwrap();
            let tol = 1e-4 * slow.max_abs().max(1.0);
            assert!(
                fast.max_abs_diff(&slow).unwrap() <= tol,
                "matmul_nn_acc ({m},{k},{n}) diverged from the oracle"
            );
        }
    }

    #[test]
    fn dot_and_axpy_handle_lane_tails() {
        for len in [0, 1, 7, 8, 9, 16, 31] {
            let x: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
            let y: Vec<f32> = (0..len).map(|i| 1.0 - i as f32 * 0.25).collect();
            let expected: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - expected).abs() <= 1e-4 * expected.abs().max(1.0));

            let mut out = vec![1.0f32; len];
            axpy(2.0, &x, &mut out);
            for (i, &o) in out.iter().enumerate() {
                assert!((o - (1.0 + 2.0 * x[i])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn mismatched_inner_dims_error() {
        let a = Tensor::zeros(shape(1, 1, 2, 3));
        let b = Tensor::zeros(shape(1, 1, 2, 4));
        assert!(matches!(
            matmul_nt(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_batch_heads_error() {
        let a = Tensor::zeros(shape(1, 2, 2, 3));
        let b = Tensor::zeros(shape(1, 3, 2, 3));
        assert!(matches!(
            matmul_nt(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn scale_multiplies_every_element() {
        let a = Tensor::from_vec(shape(1, 1, 1, 3), vec![1.0, -2.0, 4.0]).unwrap();
        let s = scale(&a, 0.5);
        assert_eq!(s.data(), &[0.5, -1.0, 2.0]);
        let mut b = a.clone();
        scale_in_place(&mut b, 0.5);
        assert_eq!(b.data(), s.data());
    }
}
