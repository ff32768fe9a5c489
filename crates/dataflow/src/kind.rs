//! Enumeration of the evaluated attention dataflows.

use std::fmt;

/// The attention execution methods compared in the paper's evaluation
/// (Tables 2–3, Figures 5–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataflowKind {
    /// Unfused baseline: `C`, `P` round-trip DRAM between operators.
    LayerWise,
    /// Pipelines `QKᵀ` with softmax on-chip; `P` is stored to DRAM and
    /// `O = PV` runs sequentially afterwards.
    SoftPipe,
    /// FLAT row-granularity fusion; MAC and VEC serialized per round.
    Flat,
    /// TileFlow-style fused, stage-synchronous pipeline with a per-round
    /// barrier.
    TileFlow,
    /// FuseMax scaled down to the edge device: MAC/VEC overlap with an
    /// online-softmax decomposition (extra VEC passes) and manual tiling.
    FuseMax,
    /// MAS-Attention: semi-synchronous MAC/VEC stream processing with
    /// multi-tiered tiling and proactive buffer overwrite.
    MasAttention,
}

impl DataflowKind {
    /// All methods, in the column order of the paper's Table 2.
    #[must_use]
    pub const fn all() -> [DataflowKind; 6] {
        [
            DataflowKind::LayerWise,
            DataflowKind::SoftPipe,
            DataflowKind::Flat,
            DataflowKind::TileFlow,
            DataflowKind::FuseMax,
            DataflowKind::MasAttention,
        ]
    }

    /// The baseline methods (everything except MAS-Attention).
    #[must_use]
    pub const fn baselines() -> [DataflowKind; 5] {
        [
            DataflowKind::LayerWise,
            DataflowKind::SoftPipe,
            DataflowKind::Flat,
            DataflowKind::TileFlow,
            DataflowKind::FuseMax,
        ]
    }

    /// The subset of methods deployed on the real NPU in the paper's
    /// Figure 5 (TileFlow and FuseMax are simulation-only).
    #[must_use]
    pub const fn npu_methods() -> [DataflowKind; 4] {
        [
            DataflowKind::LayerWise,
            DataflowKind::SoftPipe,
            DataflowKind::Flat,
            DataflowKind::MasAttention,
        ]
    }

    /// Short display name matching the paper's tables.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DataflowKind::LayerWise => "Layer-Wise",
            DataflowKind::SoftPipe => "Soft-Pipe",
            DataflowKind::Flat => "FLAT",
            DataflowKind::TileFlow => "TileFlow",
            DataflowKind::FuseMax => "FuseMax",
            DataflowKind::MasAttention => "MAS-Attention",
        }
    }

    /// Whether the method keeps the `P = softmax(C)` intermediate entirely
    /// on-chip (never writing it to DRAM).
    #[must_use]
    pub const fn keeps_p_on_chip(self) -> bool {
        !matches!(self, DataflowKind::LayerWise | DataflowKind::SoftPipe)
    }

    /// Whether the method overlaps MAC and VEC work (heterogeneous
    /// parallelism), the property MAS-Attention introduces for edge devices.
    #[must_use]
    pub const fn overlaps_mac_vec(self) -> bool {
        matches!(
            self,
            DataflowKind::SoftPipe
                | DataflowKind::FuseMax
                | DataflowKind::MasAttention
                | DataflowKind::TileFlow
        )
    }
}

impl fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_six_distinct_methods() {
        let all = DataflowKind::all();
        assert_eq!(all.len(), 6);
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn baselines_exclude_mas() {
        assert!(!DataflowKind::baselines().contains(&DataflowKind::MasAttention));
        assert_eq!(DataflowKind::baselines().len(), 5);
    }

    #[test]
    fn npu_methods_match_figure_5() {
        let m = DataflowKind::npu_methods();
        assert_eq!(m.len(), 4);
        assert!(m.contains(&DataflowKind::MasAttention));
        assert!(!m.contains(&DataflowKind::TileFlow));
        assert!(!m.contains(&DataflowKind::FuseMax));
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(DataflowKind::Flat.name(), "FLAT");
        assert_eq!(DataflowKind::MasAttention.to_string(), "MAS-Attention");
    }

    #[test]
    fn structural_properties() {
        assert!(!DataflowKind::LayerWise.keeps_p_on_chip());
        assert!(!DataflowKind::SoftPipe.keeps_p_on_chip());
        assert!(DataflowKind::Flat.keeps_p_on_chip());
        assert!(DataflowKind::MasAttention.keeps_p_on_chip());
        assert!(!DataflowKind::Flat.overlaps_mac_vec());
        assert!(!DataflowKind::LayerWise.overlaps_mac_vec());
        assert!(DataflowKind::MasAttention.overlaps_mac_vec());
    }
}
