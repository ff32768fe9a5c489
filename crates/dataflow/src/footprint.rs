//! On-chip (L1) working-set analysis per dataflow.
//!
//! Each method needs a different number of tiles resident in the shared L1
//! scratchpad at the same time. The footprint model below is used for three
//! purposes:
//!
//! 1. the tiling search rejects candidate tilings whose working set exceeds
//!    the L1 capacity for the method being tuned,
//! 2. the MAS-Attention builder decides whether the proactive overwrite
//!    strategy (§4.3) must be engaged (working set fits only if a resident
//!    `K`/`V` tile is sacrificed while `P_i` is produced), and
//! 3. the §5.6 maximum-sequence-length analysis ([`crate::max_seqlen`]).

use mas_sim::HardwareConfig;

use crate::kind::DataflowKind;
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// Byte sizes of the tiles a method keeps live simultaneously in L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes of resident `Q` blocks (current plus any prefetched block).
    pub q_bytes: usize,
    /// Bytes of resident `K`/`V` sub-tiles.
    pub kv_bytes: usize,
    /// Bytes of resident `C`/`P` row blocks.
    pub cp_bytes: usize,
    /// Bytes of the output accumulator / output block.
    pub o_bytes: usize,
    /// Bytes of miscellaneous state (online-softmax running statistics, ...).
    pub misc_bytes: usize,
}

impl Footprint {
    /// Total bytes of the working set.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.q_bytes + self.kv_bytes + self.cp_bytes + self.o_bytes + self.misc_bytes
    }

    /// Whether the working set fits an L1 of `l1_bytes`.
    #[must_use]
    pub fn fits(&self, l1_bytes: usize) -> bool {
        self.total_bytes() <= l1_bytes
    }
}

/// Computes the L1 working set of `kind` under `tiling`, assuming `K` and
/// `V` are streamed sub-tile by sub-tile (two sub-tiles resident for double
/// buffering).
#[must_use]
pub fn footprint(
    kind: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    element_bytes: usize,
) -> Footprint {
    let q = tiling.q_block_bytes(workload, element_bytes);
    let kv_tile = tiling.kv_tile_bytes(workload, element_bytes);
    let c = tiling.c_block_bytes(workload, element_bytes);
    let o = tiling.o_block_bytes(workload, element_bytes);
    let slices = tiling.slices_per_round();

    let (q_bytes, kv_bytes, cp_bytes, o_bytes, misc_bytes) = match kind {
        DataflowKind::LayerWise => {
            // One operator at a time; the largest phase holds an operand
            // block, one K/V sub-tile (double buffered) and one C/P block.
            (q, 2 * kv_tile, c, o, 0)
        }
        DataflowKind::SoftPipe => {
            // Q double-buffered, two C blocks in the QK^T/softmax pipeline.
            (2 * q, 2 * kv_tile, 2 * c, o, 0)
        }
        DataflowKind::Flat => (q, 2 * kv_tile, c, o, 0),
        DataflowKind::TileFlow => (2 * q, 2 * kv_tile, 3 * c, o, 0),
        DataflowKind::FuseMax => {
            // Score tile N_Q × N_KV plus running max/denominator per row.
            let score = slices * tiling.n_q * tiling.n_kv * element_bytes;
            let stats = slices * tiling.n_q * 2 * element_bytes;
            (q, 2 * kv_tile, score, o, stats)
        }
        DataflowKind::MasAttention => (2 * q, 2 * kv_tile, 2 * c, o, 0),
    };
    Footprint {
        q_bytes,
        kv_bytes,
        cp_bytes,
        o_bytes,
        misc_bytes,
    }
}

/// Bytes needed to additionally keep the whole `K` and `V` of one
/// `(B_b, H_h)` chunk resident across all of its query blocks (which removes
/// the per-round re-streaming of `K`/`V`).
#[must_use]
pub fn resident_kv_bytes(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    element_bytes: usize,
) -> usize {
    2 * tiling.slices_per_round() * workload.seq_len * workload.embed * element_bytes
}

/// Whether a method/tiling pair fits the device's L1 when `K`/`V` are merely
/// streamed (the weakest requirement a tiling must satisfy to be valid).
#[must_use]
pub fn tiling_fits(
    kind: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> bool {
    footprint(kind, workload, tiling, hw.element_bytes).fits(hw.l1_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    #[test]
    fn mas_needs_more_l1_than_flat() {
        let w = bert();
        let t = Tiling::new(1, 1, 64, 128, &w);
        let flat = footprint(DataflowKind::Flat, &w, &t, 2);
        let mas = footprint(DataflowKind::MasAttention, &w, &t, 2);
        assert!(mas.total_bytes() > flat.total_bytes());
        assert_eq!(mas.cp_bytes, 2 * flat.cp_bytes);
    }

    #[test]
    fn fusemax_footprint_is_independent_of_sequence_length() {
        let short = AttentionWorkload::new("short", 1, 1, 512, 64);
        let long = AttentionWorkload::new("long", 1, 1, 1 << 20, 64);
        let t_short = Tiling::new(1, 1, 16, 64, &short);
        let t_long = Tiling::new(1, 1, 16, 64, &long);
        let a = footprint(DataflowKind::FuseMax, &short, &t_short, 2);
        let b = footprint(DataflowKind::FuseMax, &long, &t_long, 2);
        assert_eq!(a.cp_bytes, b.cp_bytes);
        // MAS's footprint on the other hand grows with N.
        let m_short = footprint(DataflowKind::MasAttention, &short, &t_short, 2);
        let m_long = footprint(DataflowKind::MasAttention, &long, &t_long, 2);
        assert!(m_long.cp_bytes > m_short.cp_bytes);
    }

    #[test]
    fn footprints_fit_the_edge_device_for_table1_tilings() {
        let hw = HardwareConfig::edge_default();
        let w = bert();
        let t = Tiling::heuristic(&w, &hw);
        for kind in DataflowKind::all() {
            assert!(
                tiling_fits(kind, &w, &t, &hw),
                "{kind} should fit the 5 MB L1 with the heuristic tiling"
            );
        }
    }

    #[test]
    fn resident_kv_scales_with_heads_per_chunk() {
        let w = bert();
        let t1 = Tiling::new(1, 1, 64, 128, &w);
        let t2 = Tiling::new(1, 4, 64, 128, &w);
        assert_eq!(
            4 * resident_kv_bytes(&w, &t1, 2),
            resident_kv_bytes(&w, &t2, 2)
        );
    }

    #[test]
    fn footprint_total_is_sum_of_parts() {
        let w = bert();
        let t = Tiling::new(1, 1, 64, 128, &w);
        let f = footprint(DataflowKind::SoftPipe, &w, &t, 2);
        assert_eq!(
            f.total_bytes(),
            f.q_bytes + f.kv_bytes + f.cp_bytes + f.o_bytes + f.misc_bytes
        );
        assert!(f.fits(usize::MAX));
        assert!(!f.fits(1));
    }
}
