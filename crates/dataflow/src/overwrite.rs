//! Proactive buffer-overwrite strategy (paper §4.3).
//!
//! When the shared L1 cannot hold MAS-Attention's full working set (two
//! `C`/`P` row blocks plus the resident `K`/`V` of the chunk), the paper's
//! strategy keeps the pipeline running by *overwriting* the on-chip `K` or
//! `V` tile — whichever the MAC unit is currently consuming — so the softmax
//! output `P_i` (which can never be refetched from DRAM) always has space.
//! The overwritten operand is later reloaded from DRAM and the interrupted
//! MatMul sub-tile is redone.
//!
//! This module holds the *policy*: deciding whether the strategy must engage
//! for a given workload/tiling/hardware combination, and which operand is
//! sacrificed in a given round. The MAS builder ([`crate::mas`]) turns these
//! decisions into reload and redo tasks.

use mas_sim::HardwareConfig;

use crate::footprint::{footprint, resident_kv_bytes};
use crate::kind::DataflowKind;
use crate::tiling::Tiling;
use crate::workload::AttentionWorkload;

/// How the MAS builder should manage `K`/`V` residency for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyPlan {
    /// The full working set (resident `K`/`V` + two `C`/`P` blocks) fits:
    /// no overwrites are needed.
    Resident,
    /// `K`/`V` can stay resident only if one of them is sacrificed whenever a
    /// new `P_i` block is produced: the proactive overwrite strategy engages
    /// (Figures 2–3).
    OverwriteKv,
    /// Even a single `C`/`P` block plus resident `K`/`V` does not fit: the
    /// chunk falls back to streaming `K`/`V` sub-tiles from DRAM every round.
    StreamKv,
}

/// The operand sacrificed in one overwrite event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverwriteVictim {
    /// The `V` tile is overwritten while the MAC runs `P_{i-1} V` (Figure 2).
    V,
    /// The `K` tile is overwritten while the MAC runs `Q_{i+1} Kᵀ` (Figure 3).
    K,
}

/// Chooses the residency plan for MAS-Attention on one chunk.
///
/// The decision compares three working sets against the L1 capacity:
///
/// 1. full MAS footprint with resident `K`/`V` → [`ResidencyPlan::Resident`],
/// 2. FLAT-like footprint (a single `C`/`P` block) with resident `K`/`V` →
///    [`ResidencyPlan::OverwriteKv`] (the second block's space is obtained by
///    sacrificing `K`/`V` on demand),
/// 3. otherwise → [`ResidencyPlan::StreamKv`].
#[must_use]
pub fn residency_plan(
    workload: &AttentionWorkload,
    tiling: &Tiling,
    hw: &HardwareConfig,
) -> ResidencyPlan {
    let eb = hw.element_bytes;
    let resident_kv = resident_kv_bytes(workload, tiling, eb);

    let mas = footprint(DataflowKind::MasAttention, workload, tiling, eb);
    let full = mas.total_bytes() - mas.kv_bytes + resident_kv;
    if full <= hw.l1_bytes {
        return ResidencyPlan::Resident;
    }

    let flat_like = footprint(DataflowKind::Flat, workload, tiling, eb);
    let reduced = flat_like.total_bytes() - flat_like.kv_bytes + resident_kv;
    if reduced <= hw.l1_bytes {
        return ResidencyPlan::OverwriteKv;
    }

    ResidencyPlan::StreamKv
}

/// Which operand the strategy overwrites in computation round `i`.
///
/// Following §4.3: if the MAC unit is occupied by the second MatMul
/// (`P_{i-1} V`, the case of Figure 2) the `V` tile is sacrificed; if it is
/// occupied by the first MatMul of the next round (`Q_{i+1} Kᵀ`, Figure 3)
/// the `K` tile is sacrificed. In the steady-state schedule of Algorithm 1
/// these alternate round by round, so the victim simply alternates with the
/// round parity.
#[must_use]
pub fn victim_for_round(round: usize) -> OverwriteVictim {
    if round.is_multiple_of(2) {
        OverwriteVictim::V
    } else {
        OverwriteVictim::K
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(seq: usize) -> AttentionWorkload {
        AttentionWorkload::new("test", 1, 2, seq, 64)
    }

    #[test]
    fn small_workloads_are_fully_resident() {
        let w = workload(512);
        let hw = HardwareConfig::edge_default();
        let t = Tiling::new(1, 1, 64, 128, &w);
        assert_eq!(residency_plan(&w, &t, &hw), ResidencyPlan::Resident);
    }

    #[test]
    fn medium_pressure_engages_overwrite() {
        // Choose a sequence length where 1 C block + K + V fits in 5 MB but
        // 2 C blocks + K + V does not (with Hh = 2 and Nq = 64):
        //   C block = 2*64*N*2 bytes, K+V resident = 2*2*N*64*2 bytes.
        // At N = 8192: C = 2.0 MiB, K+V = 4.0 MiB -> 1 block: 6.1 MiB > 5 MiB.
        // Use a larger L1 to place the boundary between the two regimes.
        let w = AttentionWorkload::new("long", 1, 2, 8192, 64);
        let t = Tiling::new(1, 2, 64, 512, &w);
        let mut hw = HardwareConfig::edge_default();
        hw.l1_bytes = 7 * 1024 * 1024;
        assert_eq!(residency_plan(&w, &t, &hw), ResidencyPlan::OverwriteKv);
    }

    #[test]
    fn extreme_pressure_streams_kv() {
        let w = AttentionWorkload::new("huge", 1, 8, 65536, 64);
        let t = Tiling::new(1, 8, 64, 1024, &w);
        let hw = HardwareConfig::edge_default();
        assert_eq!(residency_plan(&w, &t, &hw), ResidencyPlan::StreamKv);
    }

    #[test]
    fn plan_is_monotone_in_l1_size() {
        let w = AttentionWorkload::new("long", 1, 2, 8192, 64);
        let t = Tiling::new(1, 2, 64, 512, &w);
        let mut sizes_seen = Vec::new();
        for mib in [1usize, 4, 6, 8, 16, 64] {
            let mut hw = HardwareConfig::edge_default();
            hw.l1_bytes = mib * 1024 * 1024;
            sizes_seen.push(residency_plan(&w, &t, &hw));
        }
        // Once resident at some size, larger sizes must stay resident.
        let first_resident = sizes_seen
            .iter()
            .position(|p| *p == ResidencyPlan::Resident);
        if let Some(idx) = first_resident {
            assert!(sizes_seen[idx..]
                .iter()
                .all(|p| *p == ResidencyPlan::Resident));
        }
        // The smallest L1 must not be the resident plan.
        assert_ne!(sizes_seen[0], ResidencyPlan::Resident);
    }

    #[test]
    fn victims_alternate_with_round_parity() {
        assert_eq!(victim_for_round(0), OverwriteVictim::V);
        assert_eq!(victim_for_round(1), OverwriteVictim::K);
        assert_eq!(victim_for_round(2), OverwriteVictim::V);
    }
}
