//! Reference (unfused) exact attention.
//!
//! This is the "Layer-Wise" computation of the paper's Eq. 1–3 with the whole
//! intermediate matrices materialized:
//!
//! ```text
//! C = Q Kᵀ          (B × H × N × N)
//! P = softmax(C)    (row-wise)
//! O = P V           (B × H × N × E)
//! ```
//!
//! Every tiled dataflow in [`crate::tiled`] is checked against this function —
//! the "golden data check" of §5.1.

use crate::error::{Result, TensorError};
use crate::matmul::{matmul_nn, matmul_nt};
use crate::softmax::softmax_rows;
use crate::tensor::Tensor;

/// Computes exact attention output `O = softmax(Q Kᵀ) · V`.
///
/// `q`, `k`, `v` must all have the same `B × H × N × E` shape. No logit
/// scaling is applied: the paper's formulation, Eq. 1–3, omits the
/// `1/sqrt(E)` factor.
///
/// # Errors
///
/// Returns a [`TensorError`] if the operand shapes are inconsistent.
pub fn reference_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Tensor> {
    check_same_shape(q, k, "reference_attention(q, k)")?;
    check_same_shape(k, v, "reference_attention(k, v)")?;
    let c = matmul_nt(q, k)?;
    let p = softmax_rows(&c);
    matmul_nn(&p, v)
}

fn check_same_shape(a: &Tensor, b: &Tensor, op: &'static str) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            left: *a.shape(),
            right: *b.shape(),
            op,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_qkv;
    use crate::shape::Shape;

    #[test]
    fn output_shape_matches_input() {
        let (q, k, v) = random_qkv(2, 3, 8, 4, 7);
        let o = reference_attention(&q, &k, &v).unwrap();
        assert_eq!(o.shape(), q.shape());
    }

    #[test]
    fn attention_with_uniform_scores_averages_values() {
        // If Q is all zeros, every logit is 0, softmax is uniform, and the
        // output is the mean of the value rows.
        let shape = Shape::new(1, 1, 4, 2).unwrap();
        let q = Tensor::zeros(shape);
        let k = Tensor::zeros(shape);
        let v = Tensor::from_fn(shape, |_, _, r, c| (r * 2 + c) as f32);
        let o = reference_attention(&q, &k, &v).unwrap();
        // Mean over rows of v: column 0 -> (0+2+4+6)/4 = 3, column 1 -> 4.
        for r in 0..4 {
            assert!((o.get(0, 0, r, 0).unwrap() - 3.0).abs() < 1e-5);
            assert!((o.get(0, 0, r, 1).unwrap() - 4.0).abs() < 1e-5);
        }
    }

    #[test]
    fn one_hot_attention_selects_a_value_row() {
        // Make one key hugely aligned with every query so softmax is ~one-hot.
        let shape = Shape::new(1, 1, 3, 2).unwrap();
        let q = Tensor::full(shape, 10.0);
        let k = Tensor::from_fn(shape, |_, _, r, _| if r == 1 { 10.0 } else { -10.0 });
        let v = Tensor::from_fn(shape, |_, _, r, c| (r * 10 + c) as f32);
        let o = reference_attention(&q, &k, &v).unwrap();
        for r in 0..3 {
            assert!((o.get(0, 0, r, 0).unwrap() - 10.0).abs() < 1e-3);
            assert!((o.get(0, 0, r, 1).unwrap() - 11.0).abs() < 1e-3);
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (q, k, _) = random_qkv(1, 1, 4, 4, 1);
        let v_bad = Tensor::zeros(Shape::new(1, 1, 4, 8).unwrap());
        assert!(reference_attention(&q, &k, &v_bad).is_err());
    }
}
