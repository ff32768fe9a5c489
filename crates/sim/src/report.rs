//! Simulation reports.
//!
//! A [`SimReport`] is the simulator's counterpart of the quantities the paper
//! reports: execution cycles (Table 2), energy and its per-component
//! breakdown (Table 3 / Figure 6), DRAM read/write traffic (§5.4) and
//! per-unit utilization (the pipelining quality MAS-Attention optimizes).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::energy::EnergyBreakdown;
use crate::task::Resource;
use crate::trace::Trace;

/// Aggregated results of simulating one task graph on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total execution time in cycles (makespan of the schedule).
    pub total_cycles: u64,
    /// Total execution time in seconds at the configured clock.
    pub total_seconds: f64,
    /// Energy broken down by component (Figure 6).
    pub energy: EnergyBreakdown,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Total multiply-accumulate operations executed.
    pub mac_ops: u64,
    /// Total VEC-lane operations executed.
    pub vec_ops: u64,
    /// Busy cycles per resource (stringified resource name → cycles).
    pub busy_cycles: BTreeMap<String, u64>,
    /// Number of tasks executed.
    pub tasks_executed: usize,
    /// Cycles during which at least one MAC unit and one VEC unit were busy
    /// simultaneously — the parallelism MAS-Attention introduces.
    pub mac_vec_overlap_cycles: u64,
    /// The execution trace (present unless tracing was disabled).
    #[serde(skip)]
    pub trace: Option<Trace>,
}

impl SimReport {
    /// Total energy in picojoules.
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }

    /// Total energy in units of 10⁹ pJ, the unit used by the paper's Table 3.
    #[must_use]
    pub fn total_energy_gpj(&self) -> f64 {
        self.energy.total_pj() / 1e9
    }

    /// Utilization (busy fraction of the makespan) of one resource, in
    /// `[0, 1]`. Returns 0 for unknown resources or an empty schedule.
    #[must_use]
    pub fn utilization(&self, resource: Resource) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let busy = self
            .busy_cycles
            .get(&resource.to_string())
            .copied()
            .unwrap_or(0);
        busy as f64 / self.total_cycles as f64
    }

    /// Speedup of this report relative to a baseline (`baseline / self`).
    #[must_use]
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if self.total_cycles == 0 {
            return f64::INFINITY;
        }
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Energy saving of this report relative to a baseline, as a fraction in
    /// `[-inf, 1]`: `1 − self/baseline`. Negative values mean this schedule
    /// uses more energy than the baseline (as MAS-Attention does versus
    /// FuseMax for some workloads in Table 3).
    #[must_use]
    pub fn energy_saving_over(&self, baseline: &SimReport) -> f64 {
        let base = baseline.total_energy_pj();
        if base == 0.0 {
            return 0.0;
        }
        1.0 - self.total_energy_pj() / base
    }
}

/// Geometric mean of a sequence of positive values; returns `None` for an
/// empty sequence or when any value is non-positive.
///
/// The paper summarizes both Table 2 (speedups) and Table 3 (savings ratios)
/// with geometric means.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, energy_pj: f64) -> SimReport {
        SimReport {
            total_cycles: cycles,
            total_seconds: cycles as f64 / 1e9,
            energy: EnergyBreakdown {
                dram_pj: energy_pj,
                ..EnergyBreakdown::zero()
            },
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            mac_ops: 0,
            vec_ops: 0,
            busy_cycles: BTreeMap::new(),
            tasks_executed: 0,
            mac_vec_overlap_cycles: 0,
            trace: None,
        }
    }

    #[test]
    fn speedup_and_savings() {
        let fast = report(100, 50.0);
        let slow = report(250, 100.0);
        assert!((fast.speedup_over(&slow) - 2.5).abs() < 1e-12);
        assert!((fast.energy_saving_over(&slow) - 0.5).abs() < 1e-12);
        // Negative savings when the candidate uses more energy.
        assert!(slow.energy_saving_over(&fast) < 0.0);
    }

    #[test]
    fn energy_units() {
        let r = report(1, 2.5e9);
        assert!((r.total_energy_gpj() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_reads_busy_map() {
        let mut r = report(200, 0.0);
        r.busy_cycles.insert("MAC0".to_string(), 150);
        assert!((r.utilization(Resource::Mac { core: 0 }) - 0.75).abs() < 1e-12);
        assert_eq!(r.utilization(Resource::Vec { core: 0 }), 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!((geometric_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
    }
}
