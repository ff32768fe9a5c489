//! Row-wise softmax kernels.
//!
//! The paper applies softmax "to every row of `QKᵀ`" (§4, Eq. 2) and stresses
//! that softmax's row-wise nature drives the row-granularity tiling of `C`
//! and `P` (Algorithm 3). [`softmax_rows`] is the classic
//! max/exp-sum/normalize kernel applied independently to every row (what the
//! VEC unit executes per tile). Each pass runs over the contiguous row slice
//! ([`softmax_row`]), and the `(batch, head)` slices fan out across threads.
//!
//! [`softmax_row_in_place`] is the VEC step of every tiled kernel: it
//! normalizes the on-chip `C_i` rows of
//! [`crate::tiled::tiled_attention`] and each query head's full score row
//! in the decode step of [`crate::decode`]. The FuseMax-style online
//! (running max and denominator) decomposition is not a separate kernel: it
//! runs inline in [`crate::tiled::fused_online_attention`], where the row
//! arrives in pieces.

use rayon::prelude::*;

use crate::simd;
use crate::tensor::Tensor;

/// Maximum value of a slice (`-inf` when empty), dispatched to the
/// runtime-selected SIMD backend.
#[must_use]
#[inline]
pub fn slice_max(x: &[f32]) -> f32 {
    simd::slice_max(x)
}

/// Numerically stable softmax of one row: `dst[j] = exp(src[j] - max(src)) /
/// Σ exp(src - max(src))`. `src` and `dst` may not alias; use
/// [`softmax_row_in_place`] to normalize a row in its own storage.
///
/// The three row passes run on the dispatched [`crate::simd`] kernels: a
/// vector max, an elementwise `exp` (shared scalar code in every backend),
/// and an 8-lane denominator sum followed by a vector normalize — so SIMD
/// and scalar dispatch produce bit-identical probabilities.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn softmax_row(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "softmax row length mismatch");
    let row_max = simd::slice_max(src);
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = (x - row_max).exp();
    }
    let denom = simd::sum8(dst);
    simd::scale(1.0 / denom, dst);
}

/// In-place variant of [`softmax_row`].
#[inline]
pub fn softmax_row_in_place(row: &mut [f32]) {
    let row_max = simd::slice_max(row);
    for v in row.iter_mut() {
        *v = (*v - row_max).exp();
    }
    let denom = simd::sum8(row);
    simd::scale(1.0 / denom, row);
}

/// Applies softmax to every row (`cols` dimension) of every `(batch, head)`
/// slice of `t`, returning a new tensor of identical shape.
///
/// The kernel uses the numerically stable max-subtraction form:
/// `softmax(x)_j = exp(x_j - max(x)) / Σ_k exp(x_k - max(x))`, computed per
/// contiguous row slice; `(batch, head)` slices are processed in parallel.
#[must_use]
pub fn softmax_rows(t: &Tensor) -> Tensor {
    let [_, h_n, r_n, c_n] = t.shape().dims();
    let mut out = Tensor::zeros(*t.shape());
    out.data_mut()
        .par_chunks_mut(r_n * c_n)
        .enumerate()
        .for_each(|(s, dst_mat)| {
            let (bi, hi) = (s / h_n, s % h_n);
            for (r, dst_row) in dst_mat.chunks_exact_mut(c_n).enumerate() {
                softmax_row(t.row(bi, hi, r), dst_row);
            }
        });
    out
}

/// The pre-slice scalar softmax, retained verbatim as the oracle for the
/// equivalence tests of the slice kernels.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    /// Scalar per-element three-pass softmax (the seed implementation).
    pub fn softmax_rows(t: &Tensor) -> Tensor {
        let [b_n, h_n, r_n, c_n] = t.shape().dims();
        let mut out = Tensor::zeros(*t.shape());
        for b in 0..b_n {
            for h in 0..h_n {
                for r in 0..r_n {
                    let mut row_max = f32::NEG_INFINITY;
                    for c in 0..c_n {
                        row_max = row_max.max(t.get(b, h, r, c).expect("index in range"));
                    }
                    let mut denom = 0.0f32;
                    let mut exps = vec![0.0f32; c_n];
                    for (c, e) in exps.iter_mut().enumerate() {
                        let x = t.get(b, h, r, c).expect("index in range");
                        *e = (x - row_max).exp();
                        denom += *e;
                    }
                    for (c, e) in exps.iter().enumerate() {
                        out.set(b, h, r, c, e / denom).expect("index in range");
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{adversarial_logits, random_tensor};
    use crate::shape::Shape;

    fn shape(b: usize, h: usize, r: usize, c: usize) -> Shape {
        Shape::new(b, h, r, c).unwrap()
    }

    #[test]
    fn rows_sum_to_one() {
        let t = random_tensor(shape(2, 3, 8, 16), 4.0, 11);
        let p = softmax_rows(&t);
        let [bn, hn, rn, cn] = p.shape().dims();
        for b in 0..bn {
            for h in 0..hn {
                for r in 0..rn {
                    let sum: f32 = (0..cn).map(|c| p.get(b, h, r, c).unwrap()).sum();
                    assert!((sum - 1.0).abs() < 1e-5, "row sum {sum}");
                }
            }
        }
    }

    #[test]
    fn slice_softmax_matches_naive_oracle() {
        for (r, c) in [(1, 1), (3, 5), (8, 16), (5, 33)] {
            let t = random_tensor(shape(2, 2, r, c), 6.0, 31);
            let fast = softmax_rows(&t);
            let slow = naive::softmax_rows(&t);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-6,
                "softmax ({r},{c}) diverged from the oracle"
            );
        }
    }

    #[test]
    fn in_place_row_matches_out_of_place() {
        let t = random_tensor(shape(1, 1, 1, 37), 5.0, 17);
        let src = t.data().to_vec();
        let mut dst = vec![0.0f32; src.len()];
        softmax_row(&src, &mut dst);
        let mut inplace = src.clone();
        softmax_row_in_place(&mut inplace);
        for (a, b) in dst.iter().zip(&inplace) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probabilities() {
        let t = Tensor::full(shape(1, 1, 2, 4), 3.0);
        let p = softmax_rows(&t);
        for c in 0..4 {
            assert!((p.get(0, 0, 0, c).unwrap() - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn large_magnitude_logits_are_stable() {
        let t = adversarial_logits(shape(1, 2, 4, 8), 2000.0);
        let p = softmax_rows(&t);
        assert!(p.data().iter().all(|v| v.is_finite()));
        assert!(p.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
