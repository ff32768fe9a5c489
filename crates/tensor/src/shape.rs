//! Four-dimensional tensor shapes in the paper's `B × H × N × E` layout.

use std::fmt;

use crate::error::{Result, TensorError};

/// Shape of a 4-D tensor `(batch, heads, rows, cols)`.
///
/// All attention operands in the paper are 4-D: `Q, K, V ∈ R^{B×H×N×E}` and
/// the intermediates `C, P ∈ R^{B×H×N×N}`. We keep the four dimensions
/// explicit rather than using a general N-d shape because every kernel in the
/// reproduction operates on exactly this layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    batch: usize,
    heads: usize,
    rows: usize,
    cols: usize,
}

impl Shape {
    /// Creates a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDimension`] if any dimension is zero.
    pub fn new(batch: usize, heads: usize, rows: usize, cols: usize) -> Result<Self> {
        for (dim, value) in [
            ("batch", batch),
            ("heads", heads),
            ("rows", rows),
            ("cols", cols),
        ] {
            if value == 0 {
                return Err(TensorError::ZeroDimension { dim });
            }
        }
        Ok(Self {
            batch,
            heads,
            rows,
            cols,
        })
    }

    /// Batch dimension `B`.
    #[must_use]
    pub const fn batch(&self) -> usize {
        self.batch
    }

    /// Head dimension `H`.
    #[must_use]
    pub const fn heads(&self) -> usize {
        self.heads
    }

    /// Row dimension (sequence length `N` for `Q/K/V`, query rows for `C/P`).
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Column dimension (embedding `E` for `Q/K/V/O`, key length for `C/P`).
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// The four dimensions as `[B, H, rows, cols]`.
    #[must_use]
    pub const fn dims(&self) -> [usize; 4] {
        [self.batch, self.heads, self.rows, self.cols]
    }

    /// Total number of elements.
    #[must_use]
    pub const fn volume(&self) -> usize {
        self.batch * self.heads * self.rows * self.cols
    }

    /// Number of `(batch, head)` slices.
    #[must_use]
    pub const fn slices(&self) -> usize {
        self.batch * self.heads
    }

    /// Linear (row-major) offset of element `(b, h, r, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is outside the
    /// shape.
    pub fn offset(&self, b: usize, h: usize, r: usize, c: usize) -> Result<usize> {
        if b >= self.batch || h >= self.heads || r >= self.rows || c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: [b, h, r, c],
                shape: *self,
            });
        }
        Ok(((b * self.heads + h) * self.rows + r) * self.cols + c)
    }

    /// Linear offset without bounds checking. The caller must guarantee the
    /// index is in range; out-of-range indices yield a nonsensical offset (but
    /// no undefined behaviour — the tensor access itself is still checked).
    #[must_use]
    pub const fn offset_unchecked(&self, b: usize, h: usize, r: usize, c: usize) -> usize {
        ((b * self.heads + h) * self.rows + r) * self.cols + c
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}, {}, {}]",
            self.batch, self.heads, self.rows, self.cols
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_slices() {
        let s = Shape::new(2, 3, 5, 7).unwrap();
        assert_eq!(s.volume(), 2 * 3 * 5 * 7);
        assert_eq!(s.slices(), 6);
        assert_eq!(s.dims(), [2, 3, 5, 7]);
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(
            Shape::new(0, 1, 1, 1),
            Err(TensorError::ZeroDimension { dim: "batch" })
        ));
        assert!(matches!(
            Shape::new(1, 1, 1, 0),
            Err(TensorError::ZeroDimension { dim: "cols" })
        ));
    }

    #[test]
    fn offsets_are_row_major_and_dense() {
        let s = Shape::new(2, 2, 3, 4).unwrap();
        let mut seen = vec![false; s.volume()];
        for b in 0..2 {
            for h in 0..2 {
                for r in 0..3 {
                    for c in 0..4 {
                        let off = s.offset(b, h, r, c).unwrap();
                        assert_eq!(off, s.offset_unchecked(b, h, r, c));
                        assert!(!seen[off], "offset {off} visited twice");
                        seen[off] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn out_of_bounds_offset_errors() {
        let s = Shape::new(1, 1, 2, 2).unwrap();
        assert!(s.offset(0, 0, 2, 0).is_err());
        assert!(s.offset(1, 0, 0, 0).is_err());
    }

    #[test]
    fn display_contains_all_dims() {
        let s = Shape::new(1, 12, 512, 64).unwrap();
        let str = format!("{s}");
        for token in ["1", "12", "512", "64"] {
            assert!(str.contains(token));
        }
    }
}
