//! Multi-tiered tiling configuration (paper §4.2).
//!
//! A [`Tiling`] carries the four L1-level tiling factors the paper searches
//! over: the batch chunk `B_b`, the head chunk `H_h`, the query row-block
//! `N_Q` (row granularity, driven by softmax) and the key/value sub-tile
//! `N_{K,V}` (sub-matrix granularity for the MatMul operands `K`, `P`, `V`).
//!
//! Tilings are produced either by the heuristic in [`Tiling::heuristic`]
//! (used as a starting point and by tests) or by the search algorithms in
//! `mas-search`, and validated against the workload and the hardware's
//! shared L1 capacity via [`crate::footprint`].

use std::fmt;

use mas_sim::HardwareConfig;

use crate::workload::AttentionWorkload;

/// L1-level tiling factors `(B_b, H_h, N_Q, N_{K,V})`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    /// Batch chunk `B_b` (how many batch elements are processed per round).
    pub b_b: usize,
    /// Head chunk `H_h` (how many heads are processed per round).
    pub h_h: usize,
    /// Query row-block `N_Q` (rows of `Q` per round; softmax operates on
    /// these rows).
    pub n_q: usize,
    /// Key/value sub-tile `N_{K,V}` (rows of `K`/`V` per inner iteration).
    pub n_kv: usize,
}

impl Tiling {
    /// Creates a tiling, clamping each factor to its dimension extent.
    ///
    /// # Panics
    ///
    /// Panics if any factor is zero.
    #[must_use]
    pub fn new(
        b_b: usize,
        h_h: usize,
        n_q: usize,
        n_kv: usize,
        workload: &AttentionWorkload,
    ) -> Self {
        assert!(
            b_b > 0 && h_h > 0 && n_q > 0 && n_kv > 0,
            "tiling factors must be non-zero"
        );
        Self {
            b_b: b_b.min(workload.batch),
            h_h: h_h.min(workload.heads),
            n_q: n_q.min(workload.seq_len),
            n_kv: n_kv.min(workload.seq_len),
        }
    }

    /// Checks that every factor lies between 1 and its dimension's extent,
    /// as [`Tiling::new`] makes it. The fields are public, so a tiling
    /// built field by field may not: a zero factor divides by zero and a
    /// factor past its extent would schedule work that does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`mas_sim::SimError::InvalidConfig`] naming the first
    /// factor out of range.
    pub fn check(&self, workload: &AttentionWorkload) -> mas_sim::Result<()> {
        let factors = [
            ("B_b", self.b_b, workload.batch),
            ("H_h", self.h_h, workload.heads),
            ("N_Q", self.n_q, workload.seq_len),
            ("N_KV", self.n_kv, workload.seq_len),
        ];
        match factors.iter().find(|(_, v, extent)| *v == 0 || v > extent) {
            Some((name, value, extent)) => Err(mas_sim::SimError::InvalidConfig {
                reason: format!("tiling factor {name} = {value} is outside 1..={extent}"),
            }),
            None => Ok(()),
        }
    }

    /// The most naive tiling: one row of one head at a time with the smallest
    /// key/value sub-tile the MAC array supports. This is the (deliberately
    /// poor) starting point of the search-convergence experiment (Figure 7).
    #[must_use]
    pub fn naive(workload: &AttentionWorkload) -> Self {
        Self::new(1, 1, 1, workload.embed.min(workload.seq_len), workload)
    }

    /// A reasonable hand-written tiling: one `(batch, head)` slice per round,
    /// query blocks sized to a few MAC-array heights, and key/value sub-tiles
    /// sized so that a sub-tile of `K` plus a sub-tile of `V` stay well under
    /// the L1 capacity. The search typically improves on this by 5–20 %,
    /// while improving on [`Tiling::naive`] by one to two orders of magnitude
    /// (§5.5).
    #[must_use]
    pub fn heuristic(workload: &AttentionWorkload, hw: &HardwareConfig) -> Self {
        let n_q = (hw.mac_array_rows * 4).min(workload.seq_len).max(1);
        // Keep a K sub-tile at or below ~1/16 of L1.
        let budget = hw.l1_bytes / 16;
        let bytes_per_kv_row = workload.embed * hw.element_bytes;
        // At least one MAC-array width, but never past the sequence (nor
        // below one row, for sequences shorter than the array).
        let n_kv = (budget / bytes_per_kv_row.max(1))
            .max(hw.mac_array_cols)
            .min(workload.seq_len)
            .max(1);
        Self::new(1, 1, n_q, n_kv, workload)
    }

    /// Number of computation rounds `T_r = ⌈B/B_b⌉·⌈H/H_h⌉·⌈N/N_Q⌉`
    /// (Algorithm 1, line 2).
    #[must_use]
    pub fn rounds(&self, workload: &AttentionWorkload) -> usize {
        workload.batch.div_ceil(self.b_b)
            * workload.heads.div_ceil(self.h_h)
            * workload.seq_len.div_ceil(self.n_q)
    }

    /// Number of query row-blocks per `(batch, head)` chunk,
    /// `⌈N/N_Q⌉`.
    #[must_use]
    pub fn query_blocks(&self, workload: &AttentionWorkload) -> usize {
        workload.seq_len.div_ceil(self.n_q)
    }

    /// Number of `(batch, head)` chunks, `⌈B/B_b⌉·⌈H/H_h⌉`.
    #[must_use]
    pub fn slice_chunks(&self, workload: &AttentionWorkload) -> usize {
        workload.batch.div_ceil(self.b_b) * workload.heads.div_ceil(self.h_h)
    }

    /// Number of key/value sub-tiles per round, `T_c = ⌈N/N_{K,V}⌉`
    /// (Algorithms 2 and 4, line 3).
    #[must_use]
    pub fn kv_tiles(&self, workload: &AttentionWorkload) -> usize {
        workload.seq_len.div_ceil(self.n_kv)
    }

    /// Number of `(batch, head)` slices processed together in one round.
    #[must_use]
    pub fn slices_per_round(&self) -> usize {
        self.b_b * self.h_h
    }

    /// Bytes of one `Q_i` block.
    #[must_use]
    pub fn q_block_bytes(&self, workload: &AttentionWorkload, element_bytes: usize) -> usize {
        self.slices_per_round() * self.n_q * workload.embed * element_bytes
    }

    /// Bytes of one `K`/`V` sub-tile.
    #[must_use]
    pub fn kv_tile_bytes(&self, workload: &AttentionWorkload, element_bytes: usize) -> usize {
        self.slices_per_round() * self.n_kv * workload.embed * element_bytes
    }

    /// Bytes of one on-chip `C_i` / `P_i` block (`N_Q` rows of length `N`).
    #[must_use]
    pub fn c_block_bytes(&self, workload: &AttentionWorkload, element_bytes: usize) -> usize {
        self.slices_per_round() * self.n_q * workload.seq_len * element_bytes
    }

    /// Bytes of one `O_i` output block.
    #[must_use]
    pub fn o_block_bytes(&self, workload: &AttentionWorkload, element_bytes: usize) -> usize {
        self.q_block_bytes(workload, element_bytes)
    }
}

impl fmt::Display for Tiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Bb={} Hh={} Nq={} Nkv={}",
            self.b_b, self.h_h, self.n_q, self.n_kv
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    #[test]
    fn heuristic_fits_sequences_shorter_than_the_mac_array() {
        let hw = HardwareConfig::edge_default();
        assert_eq!(hw.mac_array_cols, 16);
        for seq_len in 1..=16 {
            let w = AttentionWorkload::new("short", 1, 8, seq_len, 64);
            let t = Tiling::heuristic(&w, &hw);
            assert_eq!((t.b_b, t.h_h), (1, 1), "seq_len {seq_len}");
            assert_eq!(t.n_q, seq_len, "seq_len {seq_len}");
            assert_eq!(t.n_kv, seq_len, "seq_len {seq_len}");
        }
        // From one MAC-array width up, the sub-tile keeps its L1 budget.
        let w = AttentionWorkload::new("long", 1, 8, 4096, 64);
        let t = Tiling::heuristic(&w, &hw);
        assert_eq!(
            t.n_kv,
            (hw.l1_bytes / 16 / (64 * hw.element_bytes)).min(4096)
        );
    }

    #[test]
    fn new_clamps_to_workload() {
        let w = bert();
        let t = Tiling::new(4, 64, 2048, 2048, &w);
        assert_eq!(t.b_b, 1);
        assert_eq!(t.h_h, 12);
        assert_eq!(t.n_q, 512);
        assert_eq!(t.n_kv, 512);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_factor_panics() {
        let _ = Tiling::new(1, 1, 0, 64, &bert());
    }

    #[test]
    fn round_counts_match_algorithm_1() {
        let w = bert();
        let t = Tiling::new(1, 1, 64, 128, &w);
        assert_eq!(t.rounds(&w), 12 * 8);
        assert_eq!(t.query_blocks(&w), 8);
        assert_eq!(t.slice_chunks(&w), 12);
        assert_eq!(t.kv_tiles(&w), 4);
    }

    #[test]
    fn ragged_tiles_use_ceiling_division() {
        let w = AttentionWorkload::new("vit", 1, 12, 196, 64);
        let t = Tiling::new(1, 1, 64, 64, &w);
        assert_eq!(t.query_blocks(&w), 4); // 196 / 64 -> 4 blocks
        assert_eq!(t.kv_tiles(&w), 4);
    }

    #[test]
    fn block_byte_sizes() {
        let w = bert();
        let t = Tiling::new(1, 1, 64, 128, &w);
        assert_eq!(t.q_block_bytes(&w, 2), 64 * 64 * 2);
        assert_eq!(t.kv_tile_bytes(&w, 2), 128 * 64 * 2);
        assert_eq!(t.c_block_bytes(&w, 2), 64 * 512 * 2);
        assert_eq!(t.o_block_bytes(&w, 2), t.q_block_bytes(&w, 2));
    }

    #[test]
    fn heuristic_fits_reasonable_bounds() {
        let w = bert();
        let hw = HardwareConfig::edge_default();
        let t = Tiling::heuristic(&w, &hw);
        assert!(t.n_q >= 1 && t.n_q <= w.seq_len);
        assert!(t.n_kv >= hw.mac_array_cols && t.n_kv <= w.seq_len);
        // The heuristic working set is far below L1.
        assert!(t.kv_tile_bytes(&w, hw.element_bytes) < hw.l1_bytes / 4);
    }

    #[test]
    fn naive_tiling_is_single_row() {
        let w = bert();
        let t = Tiling::naive(&w);
        assert_eq!(t.n_q, 1);
        assert_eq!(t.b_b, 1);
        assert_eq!(t.h_h, 1);
        assert_eq!(t.rounds(&w), 12 * 512);
    }

    #[test]
    fn display_lists_all_factors() {
        let w = bert();
        let s = format!("{}", Tiling::new(1, 2, 64, 128, &w));
        assert!(s.contains("Hh=2"));
        assert!(s.contains("Nkv=128"));
    }
}
