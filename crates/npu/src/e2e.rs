//! End-to-end Stable Diffusion 1.5 reduced-UNet estimate (paper §5.2.2).
//!
//! The paper deploys MAS-Attention inside a reduced SD-1.5 UNet on the
//! mobile device and reports, versus the Layer-Wise method: a 29.4 % runtime
//! reduction on the largest attention unit and a 6 % reduction in end-to-end
//! model latency. The end-to-end number depends on how much of the UNet's
//! time is spent outside the attention blocks (convolutions, projections,
//! norms), which the paper does not break down; this module models that
//! remainder as a fixed fraction of the Layer-Wise end-to-end time
//! ([`E2eConfig::non_attention_fraction`], default 0.78 — i.e. attention is
//! roughly a fifth of the UNet under the baseline, which is what makes a
//! ~29 % attention gain translate into a ~6 % end-to-end gain).

use mas_dataflow::DataflowKind;
use mas_workloads::sdunet::{largest_unit, SdAttentionUnit};

use crate::model::NpuModel;

/// Configuration of the end-to-end estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eConfig {
    /// Fraction of the *baseline* (Layer-Wise) end-to-end latency spent
    /// outside attention blocks.
    pub non_attention_fraction: f64,
}

impl Default for E2eConfig {
    fn default() -> Self {
        Self {
            non_attention_fraction: 0.78,
        }
    }
}

/// Result of the end-to-end comparison of one method against Layer-Wise.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eReport {
    /// The method compared against Layer-Wise.
    pub kind: DataflowKind,
    /// Total attention time of the baseline (seconds).
    pub baseline_attention_s: f64,
    /// Total attention time of the method (seconds).
    pub method_attention_s: f64,
    /// Relative runtime reduction on the largest attention unit.
    pub largest_unit_reduction: f64,
    /// Relative end-to-end latency reduction.
    pub end_to_end_reduction: f64,
}

/// Computes the §5.2.2 end-to-end comparison for `kind` versus Layer-Wise on
/// the given UNet attention suite.
#[must_use]
pub fn sd_unet_report(
    model: &NpuModel,
    units: &[SdAttentionUnit],
    kind: DataflowKind,
    config: E2eConfig,
) -> E2eReport {
    let time_for = |method: DataflowKind, unit: &SdAttentionUnit| {
        model.estimate(method, &unit.workload).seconds * unit.repeats as f64
    };

    let baseline_attention_s: f64 = units
        .iter()
        .map(|u| time_for(DataflowKind::LayerWise, u))
        .sum();
    let method_attention_s: f64 = units.iter().map(|u| time_for(kind, u)).sum();

    let largest = largest_unit(units).expect("the UNet suite is non-empty");
    let largest_base = time_for(DataflowKind::LayerWise, largest);
    let largest_method = time_for(kind, largest);
    let largest_unit_reduction = 1.0 - largest_method / largest_base;

    // End-to-end: the non-attention remainder is unchanged by the method.
    let non_attention = config.non_attention_fraction / (1.0 - config.non_attention_fraction)
        * baseline_attention_s;
    let baseline_e2e = baseline_attention_s + non_attention;
    let method_e2e = method_attention_s + non_attention;
    let end_to_end_reduction = 1.0 - method_e2e / baseline_e2e;

    E2eReport {
        kind,
        baseline_attention_s,
        method_attention_s,
        largest_unit_reduction,
        end_to_end_reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_workloads::sdunet::sd15_reduced_unet;

    #[test]
    fn mas_reduces_the_largest_unit_by_roughly_a_third() {
        let model = NpuModel::kirin990();
        let units = sd15_reduced_unet(1);
        let report = sd_unet_report(
            &model,
            &units,
            DataflowKind::MasAttention,
            E2eConfig::default(),
        );
        assert!(
            (0.15..=0.65).contains(&report.largest_unit_reduction),
            "largest-unit reduction {} should be in the vicinity of the paper's 29.4 %",
            report.largest_unit_reduction
        );
    }

    #[test]
    fn end_to_end_reduction_is_a_few_percent() {
        let model = NpuModel::kirin990();
        let units = sd15_reduced_unet(1);
        let report = sd_unet_report(
            &model,
            &units,
            DataflowKind::MasAttention,
            E2eConfig::default(),
        );
        assert!(
            (0.02..=0.15).contains(&report.end_to_end_reduction),
            "end-to-end reduction {} should be in the vicinity of the paper's 6 %",
            report.end_to_end_reduction
        );
        assert!(report.end_to_end_reduction < report.largest_unit_reduction);
    }

    #[test]
    fn flat_also_improves_but_less_than_mas_end_to_end() {
        let model = NpuModel::kirin990();
        let units = sd15_reduced_unet(1);
        let flat = sd_unet_report(&model, &units, DataflowKind::Flat, E2eConfig::default());
        let mas = sd_unet_report(
            &model,
            &units,
            DataflowKind::MasAttention,
            E2eConfig::default(),
        );
        assert!(flat.end_to_end_reduction > 0.0);
        assert!(mas.end_to_end_reduction > flat.end_to_end_reduction);
    }

    #[test]
    fn a_larger_non_attention_share_shrinks_the_end_to_end_gain() {
        let model = NpuModel::kirin990();
        let units = sd15_reduced_unet(1);
        let small = sd_unet_report(
            &model,
            &units,
            DataflowKind::MasAttention,
            E2eConfig {
                non_attention_fraction: 0.5,
            },
        );
        let large = sd_unet_report(
            &model,
            &units,
            DataflowKind::MasAttention,
            E2eConfig {
                non_attention_fraction: 0.9,
            },
        );
        assert!(small.end_to_end_reduction > large.end_to_end_reduction);
        // The largest-unit reduction does not depend on the share.
        assert!((small.largest_unit_reduction - large.largest_unit_reduction).abs() < 1e-12);
    }
}
