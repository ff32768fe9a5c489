//! End-to-end Stable Diffusion 1.5 reduced-UNet estimate (paper §5.2.2).
//!
//! The paper deploys MAS-Attention inside a reduced SD-1.5 UNet on the
//! mobile device and reports, versus the Layer-Wise method: a 29.4 % runtime
//! reduction on the largest attention unit and a 6 % reduction in end-to-end
//! model latency. The end-to-end number depends on the UNet's time outside
//! the attention blocks (convolutions, projections, norms), which the paper
//! does not break down; this module models it as a fixed fraction of the
//! Layer-Wise end-to-end time ([`E2eConfig::non_attention_fraction`]).

use mas_dataflow::DataflowKind;
use mas_workloads::sdunet::{largest_unit, SdAttentionUnit};

use crate::model::NpuModel;

/// Configuration of the end-to-end estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eConfig {
    /// Fraction of the *baseline* (Layer-Wise) end-to-end latency spent
    /// outside attention blocks. The default 0.78 is fitted, not measured:
    /// it turns the paper's 29.4% attention reduction into its ~6% end to end.
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
///
/// # Panics
///
/// Panics if `units` is empty, or if [`NpuModel::estimate`] refuses a unit
/// (its operands exceed the simulated DRAM; no unit of
/// `sd15_reduced_unet` does).
#[must_use]
pub fn sd_unet_report(
    model: &NpuModel,
    units: &[SdAttentionUnit],
    kind: DataflowKind,
    config: E2eConfig,
) -> E2eReport {
    // Units repeat a few shapes: price each (method, shape) once.
    let mut priced: Vec<(DataflowKind, [usize; 4], f64)> = Vec::new();
    let mut time_for = |method: DataflowKind, unit: &SdAttentionUnit| {
        let w = &unit.workload;
        let key = (method, [w.batch, w.heads, w.seq_len, w.embed]);
        let i = priced
            .iter()
            .position(|p| (p.0, p.1) == key)
            .unwrap_or_else(|| {
                let latency = model
                    .estimate(method, w)
                    .unwrap_or_else(|e| panic!("{method} on {}: {e}", w.name));
                priced.push((method, key.1, latency.seconds));
                priced.len() - 1
            });
        priced[i].2 * unit.repeats as f64
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
    fn mas_reproduces_the_papers_sd_unet_rows() {
        // The paper reports 29.4 % on the largest unit and 6 % end to end.
        let report = sd_unet_report(
            &NpuModel::kirin990(),
            &sd15_reduced_unet(1),
            DataflowKind::MasAttention,
            E2eConfig::default(),
        );
        let (unit, e2e) = (report.largest_unit_reduction, report.end_to_end_reduction);
        assert!((0.25..=0.35).contains(&unit), "largest unit {unit}");
        assert!((0.04..=0.09).contains(&e2e), "end to end {e2e}");
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
