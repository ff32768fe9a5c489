//! Maximum-sequence-length analysis (paper §5.6, "Limitations").
//!
//! The paper derives that, in half precision with the 5 MB L1 of the
//! simulated device, MAS-Attention can handle sequences of roughly one
//! million tokens while FLAT can handle roughly two million: MAS must hold
//! two `N`-wide probability rows on-chip at once (`P_i` together with either
//! `P_{i-1}` or `C_{i+1}`), FLAT only one. This module reproduces that
//! analysis for any method and hardware configuration by finding the largest
//! `N` whose minimum working set (single-row tiling, smallest key/value
//! sub-tiles) still fits L1.

use mas_sim::HardwareConfig;

use crate::footprint::footprint;
use crate::kind::DataflowKind;
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Result of the maximum-sequence-length search for one method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxSeqLen {
    /// The method analysed.
    pub kind: DataflowKind,
    /// Largest supported sequence length (0 if even `N = 1` does not fit).
    pub max_seq_len: usize,
    /// Working-set bytes at that sequence length.
    pub footprint_bytes: usize,
}

/// Minimum on-chip working set of `kind` at sequence length `n`: one query
/// row per round (`N_Q = 1`), one head per chunk and the smallest reasonable
/// key/value sub-tile (one MAC-array width).
#[must_use]
pub fn min_footprint_bytes(
    kind: DataflowKind,
    n: usize,
    embed: usize,
    hw: &HardwareConfig,
) -> usize {
    let workload = AttentionWorkload::new("seqlen-probe", 1, 1, n, embed);
    let tiling = Tiling::new(1, 1, 1, hw.mac_array_cols.min(n), &workload);
    footprint(kind, &workload, &tiling, hw.element_bytes).total_bytes()
}

/// Finds the largest sequence length `kind` can execute on `hw` with
/// embedding size `embed`, by binary search over `N` up to `limit`.
#[must_use]
pub fn max_seq_len(
    kind: DataflowKind,
    embed: usize,
    hw: &HardwareConfig,
    limit: usize,
) -> MaxSeqLen {
    let fits = |n: usize| min_footprint_bytes(kind, n, embed, hw) <= hw.l1_bytes;
    if !fits(1) {
        return MaxSeqLen {
            kind,
            max_seq_len: 0,
            footprint_bytes: min_footprint_bytes(kind, 1, embed, hw),
        };
    }
    let mut lo = 1usize;
    let mut hi = limit.max(1);
    if fits(hi) {
        return MaxSeqLen {
            kind,
            max_seq_len: hi,
            footprint_bytes: min_footprint_bytes(kind, hi, embed, hw),
        };
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    MaxSeqLen {
        kind,
        max_seq_len: lo,
        footprint_bytes: min_footprint_bytes(kind, lo, embed, hw),
    }
}

/// Runs the analysis for every method (the §5.6 comparison focuses on MAS
/// versus FLAT, but the other methods are informative too).
#[must_use]
pub fn max_seq_len_all(embed: usize, hw: &HardwareConfig, limit: usize) -> Vec<MaxSeqLen> {
    DataflowKind::all()
        .into_iter()
        .map(|kind| max_seq_len(kind, embed, hw, limit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: usize = 1 << 23; // 8M tokens is far beyond any fit.

    #[test]
    fn flat_handles_roughly_twice_the_sequence_of_mas() {
        let hw = HardwareConfig::edge_default();
        let mas = max_seq_len(DataflowKind::MasAttention, 64, &hw, LIMIT);
        let flat = max_seq_len(DataflowKind::Flat, 64, &hw, LIMIT);
        assert!(mas.max_seq_len > 0);
        let ratio = flat.max_seq_len as f64 / mas.max_seq_len as f64;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "FLAT/MAS max-sequence ratio {ratio} should be ≈ 2 (paper §5.6)"
        );
    }

    #[test]
    fn mas_reaches_the_order_of_a_million_tokens_at_fp16() {
        let hw = HardwareConfig::edge_default();
        let mas = max_seq_len(DataflowKind::MasAttention, 64, &hw, LIMIT);
        assert!(
            mas.max_seq_len >= 700_000 && mas.max_seq_len <= 2_000_000,
            "MAS max sequence length {} should be on the order of 1M tokens",
            mas.max_seq_len
        );
    }

    #[test]
    fn fusemax_is_not_limited_by_sequence_length() {
        let hw = HardwareConfig::edge_default();
        let fm = max_seq_len(DataflowKind::FuseMax, 64, &hw, LIMIT);
        assert_eq!(
            fm.max_seq_len, LIMIT,
            "online softmax has no N-wide row buffer"
        );
    }

    #[test]
    fn max_seq_len_is_monotone_in_l1_capacity() {
        let mut hw = HardwareConfig::edge_default();
        let small = max_seq_len(DataflowKind::MasAttention, 64, &hw, LIMIT).max_seq_len;
        hw.l1_bytes *= 2;
        let large = max_seq_len(DataflowKind::MasAttention, 64, &hw, LIMIT).max_seq_len;
        assert!(large > small);
    }

    #[test]
    fn tiny_l1_supports_nothing() {
        let mut hw = HardwareConfig::edge_default();
        hw.l1_bytes = 16;
        let r = max_seq_len(DataflowKind::Flat, 64, &hw, LIMIT);
        assert_eq!(r.max_seq_len, 0);
    }

    #[test]
    fn all_methods_are_reported() {
        let hw = HardwareConfig::edge_default();
        let all = max_seq_len_all(64, &hw, 1 << 16);
        assert_eq!(all.len(), 6);
        assert!(all.iter().any(|r| r.kind == DataflowKind::MasAttention));
    }
}
