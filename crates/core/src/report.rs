//! Comparison reports in the layout of the paper's Tables 2 and 3.

use std::collections::BTreeMap;

use mas_dataflow::{AttentionWorkload, DataflowKind};
use mas_sim::report::geometric_mean;

use crate::planner::RunResult;

/// Per-method summary extracted from a [`RunResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Execution cycles.
    pub cycles: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// DRAM bytes read.
    pub dram_read_bytes: u64,
    /// DRAM bytes written.
    pub dram_write_bytes: u64,
    /// Per-component energy (DRAM, L1, L0, MAC PEs, VEC PEs) in pJ.
    pub energy_components: Vec<(String, f64)>,
    /// Proactive-overwrite events in the schedule.
    pub overwrite_events: usize,
    /// Extra DRAM bytes reloaded by the overwrite strategy.
    pub reload_bytes: u64,
}

/// Comparison of several methods on one workload.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// The workload the comparison was run on.
    pub workload: AttentionWorkload,
    rows: BTreeMap<DataflowKind, MethodRow>,
}

impl ComparisonReport {
    /// Creates an empty report for a workload.
    #[must_use]
    pub fn new(workload: AttentionWorkload) -> Self {
        Self {
            workload,
            rows: BTreeMap::new(),
        }
    }

    /// Adds the result of one method run.
    pub fn add(&mut self, result: RunResult) {
        let row = MethodRow {
            cycles: result.report.total_cycles,
            energy_pj: result.report.total_energy_pj(),
            dram_read_bytes: result.report.dram_read_bytes,
            dram_write_bytes: result.report.dram_write_bytes,
            energy_components: result
                .report
                .energy
                .components()
                .iter()
                .map(|(name, v)| ((*name).to_string(), *v))
                .collect(),
            overwrite_events: result.build.overwrite_events,
            reload_bytes: result.build.reload_bytes,
        };
        self.rows.insert(result.method, row);
    }

    /// Methods present in the report.
    #[must_use]
    pub fn methods(&self) -> Vec<DataflowKind> {
        self.rows.keys().copied().collect()
    }

    /// The summary row for one method.
    #[must_use]
    pub fn row(&self, method: DataflowKind) -> Option<&MethodRow> {
        self.rows.get(&method)
    }

    /// Execution cycles of one method.
    #[must_use]
    pub fn cycles(&self, method: DataflowKind) -> Option<u64> {
        self.rows.get(&method).map(|r| r.cycles)
    }

    /// Total energy (pJ) of one method.
    #[must_use]
    pub fn energy_pj(&self, method: DataflowKind) -> Option<f64> {
        self.rows.get(&method).map(|r| r.energy_pj)
    }

    /// Speedup of `fast` relative to `baseline` (`baseline cycles / fast
    /// cycles`), the quantity tabulated in Table 2.
    #[must_use]
    pub fn speedup(&self, baseline: DataflowKind, fast: DataflowKind) -> Option<f64> {
        let b = self.cycles(baseline)? as f64;
        let f = self.cycles(fast)? as f64;
        if f == 0.0 {
            return None;
        }
        Some(b / f)
    }

    /// Energy saving of `candidate` relative to `baseline`
    /// (`1 − candidate/baseline`), the quantity tabulated in Table 3.
    /// Negative values mean the candidate consumes more energy.
    #[must_use]
    pub fn energy_saving(&self, baseline: DataflowKind, candidate: DataflowKind) -> Option<f64> {
        let b = self.energy_pj(baseline)?;
        let c = self.energy_pj(candidate)?;
        if b == 0.0 {
            return None;
        }
        Some(1.0 - c / b)
    }
}

/// Geometric mean of MAS-Attention's speedup over `baseline` across several
/// per-network reports (the "Geometric Mean" row of Table 2).
#[must_use]
pub fn geomean_speedup(reports: &[ComparisonReport], baseline: DataflowKind) -> Option<f64> {
    let values: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.speedup(baseline, DataflowKind::MasAttention))
        .collect();
    if values.len() != reports.len() {
        return None;
    }
    geometric_mean(&values)
}

/// Geometric mean of MAS-Attention's energy saving versus `baseline` across
/// several reports (the "Geometric Mean" row of Table 3). Following the
/// paper, the mean is taken over the energy *ratios* and converted back to a
/// saving.
#[must_use]
pub fn geomean_energy_saving(reports: &[ComparisonReport], baseline: DataflowKind) -> Option<f64> {
    let ratios: Vec<f64> = reports
        .iter()
        .filter_map(|r| {
            let b = r.energy_pj(baseline)?;
            let m = r.energy_pj(DataflowKind::MasAttention)?;
            if b > 0.0 {
                Some(m / b)
            } else {
                None
            }
        })
        .collect();
    if ratios.len() != reports.len() {
        return None;
    }
    geometric_mean(&ratios).map(|g| 1.0 - g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;

    fn report() -> ComparisonReport {
        let planner = Planner::edge_default();
        let w = AttentionWorkload::new("toy", 1, 2, 128, 64);
        planner.compare_all(&w).unwrap()
    }

    #[test]
    fn speedup_and_savings() {
        let row = |cycles: u64, energy_pj: f64| MethodRow {
            cycles,
            energy_pj,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            energy_components: Vec::new(),
            overwrite_events: 0,
            reload_bytes: 0,
        };
        let mut r = ComparisonReport::new(AttentionWorkload::new("toy", 1, 1, 64, 32));
        r.rows.insert(DataflowKind::MasAttention, row(100, 50.0));
        r.rows.insert(DataflowKind::LayerWise, row(250, 100.0));
        let (slow, fast) = (DataflowKind::LayerWise, DataflowKind::MasAttention);
        assert!((r.speedup(slow, fast).unwrap() - 2.5).abs() < 1e-12);
        assert!((r.energy_saving(slow, fast).unwrap() - 0.5).abs() < 1e-12);
        // Negative savings when the candidate uses more energy.
        assert!(r.energy_saving(fast, slow).unwrap() < 0.0);
    }

    #[test]
    fn speedups_and_savings_are_consistent_with_rows() {
        let r = report();
        let s = r
            .speedup(DataflowKind::LayerWise, DataflowKind::MasAttention)
            .unwrap();
        assert!(s > 1.0);
        let manual = r.cycles(DataflowKind::LayerWise).unwrap() as f64
            / r.cycles(DataflowKind::MasAttention).unwrap() as f64;
        assert!((s - manual).abs() < 1e-9);
        let saving = r
            .energy_saving(DataflowKind::LayerWise, DataflowKind::MasAttention)
            .unwrap();
        assert!(saving > 0.0 && saving < 1.0);
        // Negative when the candidate uses more energy than the baseline.
        let reverse = r
            .energy_saving(DataflowKind::MasAttention, DataflowKind::LayerWise)
            .unwrap();
        assert!(reverse < 0.0);
    }

    #[test]
    fn rows_capture_energy_components_and_dram_traffic() {
        let r = report();
        let row = r.row(DataflowKind::MasAttention).unwrap();
        assert_eq!(row.energy_components.len(), 5);
        assert!(row.dram_read_bytes > 0);
        assert!(row.dram_write_bytes > 0);
        assert!(row.energy_pj > 0.0);
    }

    #[test]
    fn geometric_means_aggregate_multiple_networks() {
        let planner = Planner::edge_default();
        let reports: Vec<ComparisonReport> = [
            AttentionWorkload::new("a", 1, 2, 128, 64),
            AttentionWorkload::new("b", 1, 2, 128, 32),
        ]
        .iter()
        .map(|w| planner.compare_all(w).unwrap())
        .collect();
        let speedup = geomean_speedup(&reports, DataflowKind::Flat).unwrap();
        assert!(speedup > 1.0);
        let saving = geomean_energy_saving(&reports, DataflowKind::LayerWise).unwrap();
        assert!(saving > 0.0);
    }

    #[test]
    fn missing_methods_yield_none() {
        let planner = Planner::edge_default();
        let w = AttentionWorkload::new("toy", 1, 1, 64, 32);
        let r = planner.compare(&w, &[DataflowKind::Flat]).unwrap();
        assert!(r.cycles(DataflowKind::MasAttention).is_none());
        assert!(r
            .speedup(DataflowKind::Flat, DataflowKind::MasAttention)
            .is_none());
    }
}
