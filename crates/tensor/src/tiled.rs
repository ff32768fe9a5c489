//! Tiled numerical executors mirroring the paper's dataflows.
//!
//! The scheduling crates (`mas-dataflow`, `mas-sim`) model *when* each tile is
//! computed and what it costs; this module computes *what* each tile contains,
//! so that every dataflow can be validated to produce exact attention output
//! (the paper's "golden data check", §5.1).
//!
//! Three numerical structures cover all six evaluated methods:
//!
//! | Methods | Numerical structure |
//! |---|---|
//! | Layer-Wise, Soft-Pipe | full intermediates ([`crate::attention::reference_attention`]); Soft-Pipe differs only in *where* `P` lives, not in its values |
//! | FLAT, TileFlow, MAS-Attention | [`tiled_attention`]: per query row-block `Q_i`, build `C_i` by sweeping `K` sub-tiles (Alg. 2), softmax rows of `C_i` (Alg. 3), then accumulate `O_i` by sweeping `V` sub-tiles (Alg. 4) |
//! | FuseMax (and FlashAttention-style fusions) | [`fused_online_attention`]: single sweep over `K/V` sub-tiles with an online softmax and output rescaling |
//!
//! All executors accept a [`TileSizes`] describing the row-granularity query
//! block `n_q` and the sub-matrix key/value block `n_kv` — the same
//! `N_Q`/`N_{K,V}` parameters that the tiling search optimizes.
//!
//! The inner loops work on whole tiles of contiguous rows: a query row's
//! logits against a `K` sub-tile are one [`dot_many`], its probability×value
//! update over a `V` sub-tile is one [`axpy_many`] into the output row, and
//! softmax runs in place on the on-chip `C_i` rows. Both block primitives
//! are bit-identical to their one-row loops (the [`crate::simd`] contract),
//! so the tile sizes never change a result bit. Independent `(batch, head)`
//! slices are processed in parallel.
//!
//! A decode step is the one-row case of [`tiled_attention`]: the kernels in
//! [`crate::decode`] and [`crate::paged`] run the same three steps over the
//! cached rows and equal the last row of [`tiled_attention`] over the
//! step's prefix bit for bit.

use rayon::prelude::*;

use crate::error::{Result, TensorError};
use crate::simd::{axpy_many, dot_many, exp, exp_sum, scale};
use crate::softmax::{slice_max, softmax_row_in_place};
use crate::tensor::Tensor;

/// Tiling factors for the numerical executors.
///
/// `n_q` is the number of query rows processed per outer iteration
/// (Algorithm 1 divides `Q` into `⌈N/N_Q⌉` blocks); `n_kv` is the number of
/// key/value rows per inner sub-tile (Algorithms 2 and 4 divide `K`/`V` into
/// `⌈N/N_{K,V}⌉` blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileSizes {
    /// Query-row block size `N_Q` (≥ 1).
    pub n_q: usize,
    /// Key/value-row block size `N_{K,V}` (≥ 1).
    pub n_kv: usize,
}

impl TileSizes {
    /// Creates a tile-size pair, validating against the sequence length.
    ///
    /// Tiles larger than the sequence are clamped (a tile may cover the whole
    /// sequence), but zero tiles are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidTile`] if either size is zero.
    pub fn new(n_q: usize, n_kv: usize, seq_len: usize) -> Result<Self> {
        if n_q == 0 {
            return Err(TensorError::InvalidTile {
                dim: "n_q",
                tile: n_q,
                extent: seq_len,
            });
        }
        if n_kv == 0 {
            return Err(TensorError::InvalidTile {
                dim: "n_kv",
                tile: n_kv,
                extent: seq_len,
            });
        }
        Ok(Self {
            n_q: n_q.min(seq_len),
            n_kv: n_kv.min(seq_len),
        })
    }

    /// Number of query row-blocks for a sequence of length `seq_len`.
    #[must_use]
    pub fn query_blocks(&self, seq_len: usize) -> usize {
        seq_len.div_ceil(self.n_q)
    }

    /// Number of key/value sub-tiles for a sequence of length `seq_len`.
    #[must_use]
    pub fn kv_blocks(&self, seq_len: usize) -> usize {
        seq_len.div_ceil(self.n_kv)
    }
}

/// Computes exact attention with the FLAT / TileFlow / MAS-Attention blocking
/// structure (two sweeps over the key/value sub-tiles per query row-block).
///
/// For each `(batch, head)` slice (processed in parallel) and each query
/// row-block `Q_i` (`tiles.n_q` rows):
///
/// 1. **Algorithm 2** — for each key sub-tile `K_{i,j}` (`tiles.n_kv` rows),
///    compute `C_{i,j} = Q_i K_{i,j}ᵀ` and place it into the on-chip `C_i`.
/// 2. **Algorithm 3** — softmax each row of `C_i` in place, producing `P_i`.
/// 3. **Algorithm 4** — for each value sub-tile `V_{i,j}`, accumulate
///    `O_i += P_{i,j} V_{i,j}` directly into the output rows.
///
/// # Errors
///
/// Returns a [`TensorError`] if operand shapes are inconsistent.
pub fn tiled_attention(q: &Tensor, k: &Tensor, v: &Tensor, tiles: TileSizes) -> Result<Tensor> {
    check_same_shape(q, k, "tiled_attention(q, k)")?;
    check_same_shape(k, v, "tiled_attention(k, v)")?;
    let [_, h_n, n, e] = q.shape().dims();
    let mut o = Tensor::zeros(*q.shape());

    o.data_mut()
        .par_chunks_mut(n * e)
        .enumerate()
        .for_each(|(s, o_mat)| {
            let (bi, hi) = (s / h_n, s % h_n);
            tiled_attention_slice(
                q.slice(bi, hi),
                k.slice(bi, hi),
                v.slice(bi, hi),
                o_mat,
                n,
                e,
                tiles,
            );
        });
    Ok(o)
}

/// One `(batch, head)` slice of [`tiled_attention`]; all operands are
/// row-major `n × e` matrices.
fn tiled_attention_slice(
    q_mat: &[f32],
    k_mat: &[f32],
    v_mat: &[f32],
    o_mat: &mut [f32],
    n: usize,
    e: usize,
    tiles: TileSizes,
) {
    // On-chip C_i buffer, reused across query blocks.
    let mut c_i = vec![0.0f32; tiles.n_q.min(n) * n];
    let mut qi_start = 0;
    while qi_start < n {
        let qi_len = tiles.n_q.min(n - qi_start);
        let c_block = &mut c_i[..qi_len * n];
        // Algorithm 2: C_i = Q_i K^T assembled from K sub-tiles.
        let mut kj_start = 0;
        while kj_start < n {
            let kj_len = tiles.n_kv.min(n - kj_start);
            let k_tile = &k_mat[kj_start * e..(kj_start + kj_len) * e];
            for r in 0..qi_len {
                let q_row = &q_mat[(qi_start + r) * e..(qi_start + r + 1) * e];
                let c_row = &mut c_block[r * n + kj_start..r * n + kj_start + kj_len];
                dot_many(q_row, k_tile, c_row);
            }
            kj_start += kj_len;
        }
        // Algorithm 3: row-wise softmax of C_i in place -> P_i.
        for p_row in c_block.chunks_exact_mut(n) {
            softmax_row_in_place(p_row);
        }
        // Algorithm 4: O_i = sum_j P_{i,j} V_{i,j}, accumulated per sub-tile
        // directly into the output rows (already zero-initialized).
        let mut vj_start = 0;
        while vj_start < n {
            let vj_len = tiles.n_kv.min(n - vj_start);
            let v_tile = &v_mat[vj_start * e..(vj_start + vj_len) * e];
            for r in 0..qi_len {
                let p_row = &c_block[r * n + vj_start..r * n + vj_start + vj_len];
                let o_row = &mut o_mat[(qi_start + r) * e..(qi_start + r + 1) * e];
                axpy_many(p_row, v_tile, o_row);
            }
            vj_start += vj_len;
        }
        qi_start += qi_len;
    }
}

/// Computes exact attention with a single fused sweep over key/value sub-tiles
/// using an online softmax (running max and denominator with output
/// rescaling), the FuseMax / FlashAttention-style decomposition.
///
/// For each query row-block, the accumulator state per row is
/// `(m, d, o_acc[E])`; absorbing sub-tile `j` rescales the accumulator by
/// [`exp`]`(m_old − m_new)`, turns the tile's scores into weights and their
/// sum with one [`exp_sum`] (added to `d`) and accumulates the weighted
/// value rows with one [`axpy_many`]. The final output is `o_acc / d`.
/// `(batch, head)` slices are processed in parallel.
///
/// # Errors
///
/// Returns a [`TensorError`] if operand shapes are inconsistent.
pub fn fused_online_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    tiles: TileSizes,
) -> Result<Tensor> {
    check_same_shape(q, k, "fused_online_attention(q, k)")?;
    check_same_shape(k, v, "fused_online_attention(k, v)")?;
    let [_, h_n, n, e] = q.shape().dims();
    let mut o = Tensor::zeros(*q.shape());

    o.data_mut()
        .par_chunks_mut(n * e)
        .enumerate()
        .for_each(|(s, o_mat)| {
            let (bi, hi) = (s / h_n, s % h_n);
            fused_online_attention_slice(
                q.slice(bi, hi),
                k.slice(bi, hi),
                v.slice(bi, hi),
                o_mat,
                n,
                e,
                tiles,
            );
        });
    Ok(o)
}

/// One `(batch, head)` slice of [`fused_online_attention`].
fn fused_online_attention_slice(
    q_mat: &[f32],
    k_mat: &[f32],
    v_mat: &[f32],
    o_mat: &mut [f32],
    n: usize,
    e: usize,
    tiles: TileSizes,
) {
    let mut scores = vec![0.0f32; tiles.n_kv.min(n)];
    let mut qi_start = 0;
    while qi_start < n {
        let qi_len = tiles.n_q.min(n - qi_start);
        let mut row_max = vec![f32::NEG_INFINITY; qi_len];
        let mut row_denom = vec![0.0f32; qi_len];
        // The output rows double as the running o_acc (zero-initialized).
        let mut kj_start = 0;
        while kj_start < n {
            let kj_len = tiles.n_kv.min(n - kj_start);
            let k_tile = &k_mat[kj_start * e..(kj_start + kj_len) * e];
            let v_tile = &v_mat[kj_start * e..(kj_start + kj_len) * e];
            for r in 0..qi_len {
                let q_row = &q_mat[(qi_start + r) * e..(qi_start + r + 1) * e];
                let o_row = &mut o_mat[(qi_start + r) * e..(qi_start + r + 1) * e];
                // Scores of this sub-tile for row r, turned into weights in
                // place so the P·V update is one block accumulation.
                let tile_scores = &mut scores[..kj_len];
                dot_many(q_row, k_tile, tile_scores);
                let tile_max = slice_max(tile_scores);
                let new_max = row_max[r].max(tile_max);
                let correction = if row_max[r].is_finite() {
                    exp(row_max[r] - new_max)
                } else {
                    0.0
                };
                row_denom[r] *= correction;
                scale(correction, o_row);
                row_max[r] = new_max;
                row_denom[r] += exp_sum(new_max, tile_scores);
                axpy_many(tile_scores, v_tile, o_row);
            }
            kj_start += kj_len;
        }
        for r in 0..qi_len {
            let o_row = &mut o_mat[(qi_start + r) * e..(qi_start + r + 1) * e];
            scale(1.0 / row_denom[r], o_row);
        }
        qi_start += qi_len;
    }
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
    use crate::attention::reference_attention;
    use crate::init::random_qkv;

    #[test]
    fn tile_sizes_validate() {
        assert!(TileSizes::new(0, 4, 16).is_err());
        assert!(TileSizes::new(4, 0, 16).is_err());
        let t = TileSizes::new(64, 64, 16).unwrap();
        assert_eq!(t.n_q, 16, "tiles clamp to the sequence length");
        assert_eq!(t.n_kv, 16);
    }

    #[test]
    fn block_counts_use_ceiling_division() {
        let t = TileSizes::new(3, 5, 16).unwrap();
        assert_eq!(t.query_blocks(16), 6);
        assert_eq!(t.kv_blocks(16), 4);
        assert_eq!(t.query_blocks(3), 1);
    }

    #[test]
    fn tiled_matches_reference_for_divisible_tiles() {
        let (q, k, v) = random_qkv(1, 2, 16, 8, 17);
        let reference = reference_attention(&q, &k, &v).unwrap();
        let tiled = tiled_attention(&q, &k, &v, TileSizes::new(4, 8, 16).unwrap()).unwrap();
        assert!(reference.max_abs_diff(&tiled).unwrap() < 1e-5);
    }

    #[test]
    fn tiled_matches_reference_for_ragged_tiles() {
        let (q, k, v) = random_qkv(1, 1, 13, 6, 23);
        let reference = reference_attention(&q, &k, &v).unwrap();
        for (nq, nkv) in [(1, 1), (3, 5), (5, 3), (13, 13), (4, 7)] {
            let tiles = TileSizes::new(nq, nkv, 13).unwrap();
            let tiled = tiled_attention(&q, &k, &v, tiles).unwrap();
            assert!(
                reference.max_abs_diff(&tiled).unwrap() < 1e-5,
                "tiles ({nq},{nkv}) diverged"
            );
        }
    }

    #[test]
    fn fused_online_matches_reference() {
        let (q, k, v) = random_qkv(2, 2, 12, 4, 31);
        let reference = reference_attention(&q, &k, &v).unwrap();
        for (nq, nkv) in [(1, 1), (4, 3), (12, 12), (2, 5)] {
            let tiles = TileSizes::new(nq, nkv, 12).unwrap();
            let fused = fused_online_attention(&q, &k, &v, tiles).unwrap();
            assert!(
                reference.max_abs_diff(&fused).unwrap() < 1e-4,
                "tiles ({nq},{nkv}) diverged"
            );
        }
    }

    #[test]
    fn tiled_and_fused_agree_with_each_other() {
        let (q, k, v) = random_qkv(1, 3, 10, 8, 41);
        let tiles = TileSizes::new(5, 2, 10).unwrap();
        let a = tiled_attention(&q, &k, &v, tiles).unwrap();
        let b = fused_online_attention(&q, &k, &v, tiles).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }
}
