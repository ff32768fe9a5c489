//! Reduced Stable Diffusion 1.5 UNet attention suite (paper §5.2.2).
//!
//! The paper's end-to-end experiment runs a reduced SD-1.5 UNet on the mobile
//! device: "This UNet contains 15 attention units, with the largest attention
//! layer featuring 2 heads, a sequence length of 4096, and an embedding size
//! of 64." The UNet's attention units sit at four spatial resolutions
//! (64×64 → 8×8 latents); each resolution level contributes self-attention
//! units whose sequence length is the number of latent pixels. This module
//! reconstructs a 15-unit suite with exactly that structure and the paper's
//! stated largest unit.

use mas_dataflow::AttentionWorkload;

/// One attention unit of the reduced UNet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdAttentionUnit {
    /// Name of the unit (block and resolution).
    pub name: String,
    /// The attention workload of the unit.
    pub workload: AttentionWorkload,
    /// How many times this unit executes per denoising step.
    pub repeats: usize,
}

/// Builds the 15-unit reduced SD-1.5 UNet attention suite.
///
/// Resolution levels (latent pixels): 64² = 4096, 32² = 1024, 16² = 256 and
/// 8² = 64 tokens; all units use 2 heads and a per-head embedding of 64, with
/// the 4096-token units being the largest (matching §5.2.2). Down blocks,
/// the middle block and up blocks contribute 15 units in total.
#[must_use]
pub fn sd15_reduced_unet(batch: usize) -> Vec<SdAttentionUnit> {
    let mut units = Vec::new();
    let mut push = |name: String, seq: usize, repeats: usize| {
        units.push(SdAttentionUnit {
            workload: AttentionWorkload::new(name.clone(), batch, 2, seq, 64),
            name,
            repeats,
        });
    };

    // Down path: two attention units per resolution level (64x64 .. 16x16).
    for (level, seq) in [(0usize, 4096usize), (1, 1024), (2, 256)] {
        for block in 0..2 {
            push(format!("down[{level}].attn[{block}] ({seq} tok)"), seq, 1);
        }
    }
    // Middle block: one unit at the lowest resolution.
    push("mid.attn (64 tok)".to_string(), 64, 1);
    // Up path: three attention units per resolution level (16x16 .. 64x64),
    // mirroring the down path with one extra block per level.
    for (level, seq) in [(2usize, 256usize), (1, 1024), (0, 4096)] {
        let blocks = if level == 2 { 2 } else { 3 };
        for block in 0..blocks {
            push(format!("up[{level}].attn[{block}] ({seq} tok)"), seq, 1);
        }
    }
    units
}

/// The largest attention unit of the suite (by softmax elements).
#[must_use]
pub fn largest_unit(units: &[SdAttentionUnit]) -> Option<&SdAttentionUnit> {
    units
        .iter()
        .max_by_key(|u| u.workload.softmax_elements() * u.repeats as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fifteen_units() {
        let units = sd15_reduced_unet(1);
        assert_eq!(units.len(), 15, "the paper states 15 attention units");
    }

    #[test]
    fn largest_unit_matches_the_paper() {
        let units = sd15_reduced_unet(1);
        let largest = largest_unit(&units).unwrap();
        assert_eq!(largest.workload.heads, 2);
        assert_eq!(largest.workload.seq_len, 4096);
        assert_eq!(largest.workload.embed, 64);
    }

    #[test]
    fn all_units_share_head_count_and_embedding() {
        for u in sd15_reduced_unet(1) {
            assert_eq!(u.workload.heads, 2);
            assert_eq!(u.workload.embed, 64);
            assert!(u.repeats >= 1);
        }
    }

    #[test]
    fn batch_size_is_propagated() {
        for u in sd15_reduced_unet(2) {
            assert_eq!(u.workload.batch, 2);
        }
    }

    #[test]
    fn total_mac_ops_are_dominated_by_the_largest_units() {
        let units = sd15_reduced_unet(1);
        let total: u64 = units
            .iter()
            .map(|u| u.workload.total_mac_ops() * u.repeats as u64)
            .sum();
        let largest = largest_unit(&units).unwrap().workload.total_mac_ops();
        assert!(total > largest);
        // The 4096-token units account for well over half of all work.
        let big: u64 = units
            .iter()
            .filter(|u| u.workload.seq_len == 4096)
            .map(|u| u.workload.total_mac_ops())
            .sum();
        assert!(big * 2 > total);
    }
}
