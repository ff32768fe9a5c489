//! Dense 4-D tensor storage with block (tile) extraction and insertion.

use crate::error::{Result, TensorError};
use crate::shape::Shape;

/// A dense, row-major 4-D tensor of `f32` values.
///
/// The layout is `(batch, heads, rows, cols)`, matching the paper's
/// `B × H × N × E` operand convention. Arithmetic is always `f32`; reduced
/// precision is modelled separately (see [`crate::half`]) since the paper's
/// workloads use FP16 *storage* but the numerical comparisons in this
/// reproduction are made in single precision.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    #[must_use]
    pub fn zeros(shape: Shape) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.volume()],
        }
    }

    /// Creates a tensor filled with a constant value.
    #[must_use]
    pub fn full(shape: Shape, value: f32) -> Self {
        Self {
            shape,
            data: vec![value; shape.volume()],
        }
    }

    /// Creates a tensor from raw row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if `data.len()` does not
    /// equal the shape volume.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Builds a tensor by evaluating `f(b, h, r, c)` at every position.
    #[must_use]
    pub fn from_fn<F>(shape: Shape, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize, usize) -> f32,
    {
        let mut data = Vec::with_capacity(shape.volume());
        let [b_n, h_n, r_n, c_n] = shape.dims();
        for b in 0..b_n {
            for h in 0..h_n {
                for r in 0..r_n {
                    for c in 0..c_n {
                        data.push(f(b, h, r, c));
                    }
                }
            }
        }
        Self { shape, data }
    }

    /// The tensor's shape.
    #[must_use]
    pub const fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Immutable view of the underlying row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows one contiguous row `(b, h, r, ..)` as a `cols`-long slice.
    ///
    /// This is the primitive the slice-based kernels are built on: a row is
    /// always contiguous in the row-major `(B, H, N, E)` layout, so per-row
    /// kernels (dot products, softmax passes, AXPY accumulations) can run on
    /// `&[f32]` without any per-element offset computation or bounds check.
    ///
    /// # Panics
    ///
    /// Panics if `(b, h, r)` is out of range.
    #[must_use]
    #[inline]
    pub fn row(&self, b: usize, h: usize, r: usize) -> &[f32] {
        let [bn, hn, rn, cn] = self.shape.dims();
        assert!(
            b < bn && h < hn && r < rn,
            "row ({b}, {h}, {r}) out of range for {}",
            self.shape
        );
        let start = self.shape.offset_unchecked(b, h, r, 0);
        &self.data[start..start + cn]
    }

    /// Mutably borrows one contiguous row `(b, h, r, ..)`.
    ///
    /// # Panics
    ///
    /// Panics if `(b, h, r)` is out of range.
    #[inline]
    pub fn row_mut(&mut self, b: usize, h: usize, r: usize) -> &mut [f32] {
        let [bn, hn, rn, cn] = self.shape.dims();
        assert!(
            b < bn && h < hn && r < rn,
            "row ({b}, {h}, {r}) out of range for {}",
            self.shape
        );
        let start = self.shape.offset_unchecked(b, h, r, 0);
        &mut self.data[start..start + cn]
    }

    /// Borrows one `(batch, head)` matrix as a contiguous `rows × cols`
    /// row-major slice (the borrowing counterpart of [`Tensor::matrix`]).
    ///
    /// # Panics
    ///
    /// Panics if `(b, h)` is out of range.
    #[must_use]
    #[inline]
    pub fn slice(&self, b: usize, h: usize) -> &[f32] {
        let [bn, hn, rn, cn] = self.shape.dims();
        assert!(
            b < bn && h < hn,
            "slice ({b}, {h}) out of range for {}",
            self.shape
        );
        let start = self.shape.offset_unchecked(b, h, 0, 0);
        &self.data[start..start + rn * cn]
    }

    /// Mutably borrows one `(batch, head)` matrix as a contiguous
    /// `rows × cols` row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `(b, h)` is out of range.
    #[inline]
    pub fn slice_mut(&mut self, b: usize, h: usize) -> &mut [f32] {
        let [bn, hn, rn, cn] = self.shape.dims();
        assert!(
            b < bn && h < hn,
            "slice ({b}, {h}) out of range for {}",
            self.shape
        );
        let start = self.shape.offset_unchecked(b, h, 0, 0);
        &mut self.data[start..start + rn * cn]
    }

    /// Reads the element at `(b, h, r, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for indices outside the shape.
    pub fn get(&self, b: usize, h: usize, r: usize, c: usize) -> Result<f32> {
        let off = self.shape.offset(b, h, r, c)?;
        Ok(self.data[off])
    }

    /// Writes the element at `(b, h, r, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for indices outside the shape.
    pub fn set(&mut self, b: usize, h: usize, r: usize, c: usize, value: f32) -> Result<()> {
        let off = self.shape.offset(b, h, r, c)?;
        self.data[off] = value;
        Ok(())
    }

    /// Extracts a contiguous block (tile) starting at `start` with extents
    /// `len`, as its own tensor. This mirrors the DRAM→on-chip tile loads in
    /// Algorithms 2–4 of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BlockOutOfBounds`] if the block exceeds the
    /// tensor, or [`TensorError::ZeroDimension`] if any length is zero.
    pub fn block(&self, start: [usize; 4], len: [usize; 4]) -> Result<Tensor> {
        let [b0, h0, r0, c0] = start;
        let [bl, hl, rl, cl] = len;
        let [bn, hn, rn, cn] = self.shape.dims();
        if b0 + bl > bn || h0 + hl > hn || r0 + rl > rn || c0 + cl > cn {
            return Err(TensorError::BlockOutOfBounds {
                start,
                len,
                shape: self.shape,
            });
        }
        let out_shape = Shape::new(bl, hl, rl, cl)?;
        let mut out = Tensor::zeros(out_shape);
        for b in 0..bl {
            for h in 0..hl {
                for r in 0..rl {
                    let src = self.shape.offset_unchecked(b0 + b, h0 + h, r0 + r, c0);
                    let dst = out_shape.offset_unchecked(b, h, r, 0);
                    out.data[dst..dst + cl].copy_from_slice(&self.data[src..src + cl]);
                }
            }
        }
        Ok(out)
    }

    /// Writes a block produced by [`Tensor::block`] back at `start`, the
    /// on-chip→DRAM store of an output tile.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BlockOutOfBounds`] if the block does not fit.
    pub fn set_block(&mut self, start: [usize; 4], block: &Tensor) -> Result<()> {
        let [b0, h0, r0, c0] = start;
        let [bl, hl, rl, cl] = block.shape.dims();
        let [bn, hn, rn, cn] = self.shape.dims();
        if b0 + bl > bn || h0 + hl > hn || r0 + rl > rn || c0 + cl > cn {
            return Err(TensorError::BlockOutOfBounds {
                start,
                len: [bl, hl, rl, cl],
                shape: self.shape,
            });
        }
        for b in 0..bl {
            for h in 0..hl {
                for r in 0..rl {
                    let dst = self.shape.offset_unchecked(b0 + b, h0 + h, r0 + r, c0);
                    let src = block.shape.offset_unchecked(b, h, r, 0);
                    self.data[dst..dst + cl].copy_from_slice(&block.data[src..src + cl]);
                }
            }
        }
        Ok(())
    }

    /// Returns one `(batch, head)` matrix slice as a row-major `rows × cols`
    /// vector of values (the owning counterpart of [`Tensor::slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `b` or `h` is out of range.
    pub fn matrix(&self, b: usize, h: usize) -> Result<Vec<f32>> {
        let [bn, hn, ..] = self.shape.dims();
        if b >= bn || h >= hn {
            return Err(TensorError::IndexOutOfBounds {
                index: [b, h, 0, 0],
                shape: self.shape,
            });
        }
        Ok(self.slice(b, h).to_vec())
    }

    /// Maximum absolute element value (0.0 for an all-zero tensor).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Maximum absolute difference between two tensors of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape,
                right: other.shape,
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs())))
    }

    /// Elementwise sum of all values (useful for cheap smoke checks).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| f64::from(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(b: usize, h: usize, r: usize, c: usize) -> Shape {
        Shape::new(b, h, r, c).unwrap()
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(shape(1, 2, 3, 4));
        assert_eq!(z.data().len(), 24);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full(shape(1, 1, 2, 2), 3.5);
        assert!(f.data().iter().all(|&v| (v - 3.5).abs() < f32::EPSILON));
    }

    #[test]
    fn from_vec_checks_length() {
        let s = shape(1, 1, 2, 2);
        assert!(Tensor::from_vec(s, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(s, vec![1.0; 5]),
            Err(TensorError::DataLengthMismatch { .. })
        ));
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(shape(2, 2, 2, 2));
        t.set(1, 0, 1, 1, 7.0).unwrap();
        assert_eq!(t.get(1, 0, 1, 1).unwrap(), 7.0);
        assert_eq!(t.get(0, 0, 0, 0).unwrap(), 0.0);
        assert!(t.get(2, 0, 0, 0).is_err());
    }

    #[test]
    fn from_fn_matches_manual_indexing() {
        let t = Tensor::from_fn(shape(2, 3, 4, 5), |b, h, r, c| {
            (b * 1000 + h * 100 + r * 10 + c) as f32
        });
        assert_eq!(t.get(1, 2, 3, 4).unwrap(), 1234.0);
        assert_eq!(t.get(0, 0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn block_extract_and_insert_round_trip() {
        let t = Tensor::from_fn(shape(1, 2, 6, 4), |b, h, r, c| {
            (b * 1000 + h * 100 + r * 10 + c) as f32
        });
        let blk = t.block([0, 1, 2, 0], [1, 1, 3, 4]).unwrap();
        assert_eq!(blk.shape().dims(), [1, 1, 3, 4]);
        assert_eq!(blk.get(0, 0, 0, 0).unwrap(), 120.0);
        assert_eq!(blk.get(0, 0, 2, 3).unwrap(), 143.0);

        let mut dst = Tensor::zeros(*t.shape());
        dst.set_block([0, 1, 2, 0], &blk).unwrap();
        assert_eq!(dst.get(0, 1, 3, 2).unwrap(), 132.0);
        assert_eq!(dst.get(0, 0, 0, 0).unwrap(), 0.0);
    }

    #[test]
    fn block_out_of_bounds_rejected() {
        let t = Tensor::zeros(shape(1, 1, 4, 4));
        assert!(matches!(
            t.block([0, 0, 2, 0], [1, 1, 3, 4]),
            Err(TensorError::BlockOutOfBounds { .. })
        ));
    }

    #[test]
    fn row_views_match_element_accessors() {
        let t = Tensor::from_fn(shape(2, 3, 4, 5), |b, h, r, c| {
            (b * 1000 + h * 100 + r * 10 + c) as f32
        });
        for b in 0..2 {
            for h in 0..3 {
                for r in 0..4 {
                    let row = t.row(b, h, r);
                    assert_eq!(row.len(), 5);
                    for (c, &v) in row.iter().enumerate() {
                        assert_eq!(v, t.get(b, h, r, c).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn row_mut_writes_through() {
        let mut t = Tensor::zeros(shape(1, 2, 3, 4));
        t.row_mut(0, 1, 2).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1, 2, 3).unwrap(), 4.0);
        assert_eq!(t.get(0, 1, 1, 3).unwrap(), 0.0);
    }

    #[test]
    fn slice_views_cover_one_matrix() {
        let t = Tensor::from_fn(shape(1, 3, 2, 2), |_, h, r, c| {
            (h * 100 + r * 10 + c) as f32
        });
        assert_eq!(t.slice(0, 1), &[100.0, 101.0, 110.0, 111.0]);
        let mut u = t.clone();
        u.slice_mut(0, 2).fill(7.0);
        assert_eq!(u.get(0, 2, 1, 1).unwrap(), 7.0);
        assert_eq!(u.get(0, 1, 1, 1).unwrap(), 111.0, "other slices untouched");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_view_out_of_range_panics() {
        let t = Tensor::zeros(shape(1, 1, 2, 2));
        let _ = t.row(0, 0, 2);
    }

    #[test]
    fn matrix_slice_is_contiguous() {
        let t = Tensor::from_fn(shape(1, 3, 2, 2), |_, h, r, c| {
            (h * 100 + r * 10 + c) as f32
        });
        let m = t.matrix(0, 1).unwrap();
        assert_eq!(m, vec![100.0, 101.0, 110.0, 111.0]);
        assert!(t.matrix(0, 3).is_err());
    }

    #[test]
    fn diff_and_max_abs() {
        let a = Tensor::full(shape(1, 1, 2, 2), 1.0);
        let mut b = a.clone();
        b.set(0, 0, 1, 1, -3.0).unwrap();
        assert_eq!(a.max_abs(), 1.0);
        assert_eq!(b.max_abs(), 3.0);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 4.0);
        let c = Tensor::zeros(shape(1, 1, 2, 3));
        assert!(a.max_abs_diff(&c).is_err());
    }
}
