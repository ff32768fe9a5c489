//! Attention-layer workload descriptions.

use std::fmt;

/// One multi-head attention layer to be executed on the accelerator.
///
/// The paper characterizes every workload (Table 1) by the number of heads
/// `H`, the sequence length `N` and the per-head embedding size `E` (its
/// `Emb_{K,V}` column); the batch size `B` is 1 for single-request edge
/// inference but kept explicit for generality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttentionWorkload {
    /// Human-readable name, e.g. `"BERT-Base"`.
    pub name: String,
    /// Batch size `B`.
    pub batch: usize,
    /// Number of attention heads `H`.
    pub heads: usize,
    /// Sequence length `N` (queries and keys/values share it in the paper).
    pub seq_len: usize,
    /// Per-head embedding size `E`.
    pub embed: usize,
}

impl AttentionWorkload {
    /// Creates a workload description.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; workloads come from network tables or
    /// generators that never produce degenerate shapes.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        batch: usize,
        heads: usize,
        seq_len: usize,
        embed: usize,
    ) -> Self {
        assert!(
            batch > 0 && heads > 0 && seq_len > 0 && embed > 0,
            "attention workload dimensions must be non-zero"
        );
        Self {
            name: name.into(),
            batch,
            heads,
            seq_len,
            embed,
        }
    }

    /// Number of independent `(batch, head)` attention slices.
    #[must_use]
    pub fn slices(&self) -> usize {
        self.batch * self.heads
    }

    /// Total multiply-accumulate operations for both MatMuls
    /// (`QKᵀ` and `PV`): `2 · B · H · N² · E`, saturating at `u64::MAX`.
    #[must_use]
    pub fn total_mac_ops(&self) -> u64 {
        count([2, self.embed as u64, self.softmax_elements()])
    }

    /// Number of softmax elements (`B · H · N²`), saturating at `u64::MAX`.
    #[must_use]
    pub fn softmax_elements(&self) -> u64 {
        let (b, h, n) = (self.batch as u64, self.heads as u64, self.seq_len as u64);
        count([b, h, n, n])
    }

    /// Bytes of one `Q`/`K`/`V`/`O` operand at `element_bytes` per element,
    /// saturating at `u64::MAX`.
    #[must_use]
    pub fn operand_bytes(&self, element_bytes: usize) -> u64 {
        count([
            self.batch as u64,
            self.heads as u64,
            self.seq_len as u64,
            self.embed as u64,
            element_bytes as u64,
        ])
    }

    /// Bytes of the full intermediate `C` (or `P`) matrix, saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn intermediate_bytes(&self, element_bytes: usize) -> u64 {
        count([self.softmax_elements(), element_bytes as u64])
    }

    /// Minimum DRAM traffic for exact attention with fused intermediates:
    /// read `Q`, `K`, `V` once and write `O` once (saturating at
    /// `u64::MAX`).
    #[must_use]
    pub fn min_dram_traffic_bytes(&self, element_bytes: usize) -> u64 {
        count([4, self.operand_bytes(element_bytes)])
    }

    /// The write-direction share of
    /// [`AttentionWorkload::min_dram_traffic_bytes`]: the single `O`
    /// operand. Reads are `Q`, `K` and `V`; the split partitions the total
    /// exactly, which the track executor relies on to place the two
    /// directions on separate DMA queues.
    #[must_use]
    pub fn min_dram_write_bytes(&self, element_bytes: usize) -> u64 {
        self.operand_bytes(element_bytes)
    }
}

/// The product of `factors`, saturating at `u64::MAX`: a count past the
/// `u64` range prices as the largest one instead of wrapping to a small one.
pub(crate) fn count<const N: usize>(factors: [u64; N]) -> u64 {
    factors.into_iter().fold(1, u64::saturating_mul)
}

impl fmt::Display for AttentionWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (B={}, H={}, N={}, E={})",
            self.name, self.batch, self.heads, self.seq_len, self.embed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert_base() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    #[test]
    fn op_counts_match_closed_forms() {
        let w = bert_base();
        assert_eq!(w.slices(), 12);
        assert_eq!(w.total_mac_ops(), 2 * 12 * 512 * 512 * 64);
        assert_eq!(w.softmax_elements(), 12 * 512 * 512);
    }

    #[test]
    fn byte_counts_scale_with_element_size() {
        let w = bert_base();
        assert_eq!(w.operand_bytes(2) * 2, w.operand_bytes(4));
        assert_eq!(w.intermediate_bytes(2), 12 * 512 * 512 * 2);
        assert_eq!(w.min_dram_traffic_bytes(2), 4 * w.operand_bytes(2));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = AttentionWorkload::new("bad", 1, 0, 512, 64);
    }

    #[test]
    fn display_contains_dimensions() {
        let s = format!("{}", bert_base());
        assert!(s.contains("H=12"));
        assert!(s.contains("N=512"));
    }
}
