//! Hardware configuration of the simulated edge accelerator.
//!
//! The default configuration mirrors the paper's Figure 4 device: a 3.75 GHz,
//! 16 nm spatial accelerator with two cores, each containing one 16×16 MAC
//! (multiplier-accumulator) mesh and one 256-lane VEC unit, a shared 5 MB L1
//! scratchpad connected to a 30 GB/s, 6 GB DRAM, and per-core L0 register
//! files.

use serde::{Deserialize, Serialize};

use crate::error::{Result, SimError};

/// Number of bytes in one mebibyte.
pub const MIB: usize = 1024 * 1024;
/// Number of bytes in one gibibyte.
pub const GIB: usize = 1024 * 1024 * 1024;

/// Static description of the simulated accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareConfig {
    /// Human-readable name of the configuration (used in reports).
    pub name: String,
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
    /// Number of cores; each core has one MAC unit and one VEC unit.
    pub cores: usize,
    /// Rows of the per-core MAC processing-element mesh (16 in the paper).
    pub mac_array_rows: usize,
    /// Columns of the per-core MAC processing-element mesh (16 in the paper).
    pub mac_array_cols: usize,
    /// Number of lanes of the per-core VEC unit (256 in the paper).
    pub vec_lanes: usize,
    /// VEC-lane operations needed per softmax element (max, subtract,
    /// exponential via polynomial, sum and normalize passes). This constant
    /// calibrates the relative weight of the softmax stream versus the MatMul
    /// stream.
    pub softmax_ops_per_element: usize,
    /// Extra cycles to fill/drain the MAC systolic pipeline per tile launch.
    pub mac_fill_drain_cycles: u64,
    /// Fixed per-task overhead in cycles for issuing work to a compute unit
    /// (models instruction dispatch and the semi-synchronous handshake).
    pub issue_overhead_cycles: u64,
    /// Shared L1 scratchpad capacity in bytes (5 MiB in the paper).
    pub l1_bytes: usize,
    /// Per-core L0 register-file capacity in bytes.
    pub l0_bytes: usize,
    /// DRAM capacity in bytes (6 GiB in the paper).
    pub dram_bytes: usize,
    /// DRAM bandwidth in bytes per second (30 GB/s in the paper).
    pub dram_bandwidth_bytes_per_s: f64,
    /// Bytes per element for on-device storage (2 for FP16).
    pub element_bytes: usize,
}

impl HardwareConfig {
    /// The paper's simulated edge device (Figure 4).
    #[must_use]
    pub fn edge_default() -> Self {
        Self {
            name: "edge-2core-16x16".to_string(),
            frequency_hz: 3.75e9,
            cores: 2,
            mac_array_rows: 16,
            mac_array_cols: 16,
            vec_lanes: 256,
            softmax_ops_per_element: 64,
            mac_fill_drain_cycles: 32,
            issue_overhead_cycles: 16,
            l1_bytes: 5 * MIB,
            l0_bytes: 64 * 1024,
            dram_bytes: 6 * GIB,
            dram_bandwidth_bytes_per_s: 30.0e9,
            element_bytes: 2,
        }
    }

    /// A deliberately tiny configuration for unit tests: one core, small
    /// arrays and a small L1 so that buffer-pressure paths are easy to hit.
    #[must_use]
    pub fn tiny_test() -> Self {
        Self {
            name: "tiny-test".to_string(),
            frequency_hz: 1.0e9,
            cores: 1,
            mac_array_rows: 4,
            mac_array_cols: 4,
            vec_lanes: 8,
            softmax_ops_per_element: 16,
            mac_fill_drain_cycles: 2,
            issue_overhead_cycles: 1,
            l1_bytes: 16 * 1024,
            l0_bytes: 1024,
            dram_bytes: 64 * MIB,
            dram_bandwidth_bytes_per_s: 8.0e9,
            element_bytes: 2,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any structural parameter is zero
    /// or non-positive.
    pub fn validate(&self) -> Result<()> {
        let checks: [(&str, bool); 9] = [
            ("frequency_hz must be positive", self.frequency_hz > 0.0),
            ("cores must be non-zero", self.cores > 0),
            ("mac_array_rows must be non-zero", self.mac_array_rows > 0),
            ("mac_array_cols must be non-zero", self.mac_array_cols > 0),
            ("vec_lanes must be non-zero", self.vec_lanes > 0),
            ("l1_bytes must be non-zero", self.l1_bytes > 0),
            (
                "dram_bandwidth_bytes_per_s must be positive",
                self.dram_bandwidth_bytes_per_s > 0.0,
            ),
            ("element_bytes must be non-zero", self.element_bytes > 0),
            (
                "softmax_ops_per_element must be non-zero",
                self.softmax_ops_per_element > 0,
            ),
        ];
        for (reason, ok) in checks {
            if !ok {
                return Err(SimError::InvalidConfig {
                    reason: reason.to_string(),
                });
            }
        }
        Ok(())
    }

    /// MAC operations (multiply-accumulates) each core can retire per cycle.
    #[must_use]
    pub fn macs_per_cycle_per_core(&self) -> usize {
        self.mac_array_rows * self.mac_array_cols
    }

    /// MAC operations the whole device can retire per cycle.
    #[must_use]
    pub fn macs_per_cycle_total(&self) -> usize {
        self.macs_per_cycle_per_core() * self.cores
    }

    /// VEC-lane operations the whole device can retire per cycle.
    #[must_use]
    pub fn vec_ops_per_cycle_total(&self) -> usize {
        self.vec_lanes * self.cores
    }

    /// DRAM bandwidth expressed in bytes per clock cycle.
    #[must_use]
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_bytes_per_s / self.frequency_hz
    }

    /// Converts a cycle count into seconds at this configuration's clock.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz
    }

    /// Peak MAC throughput in operations per second.
    #[must_use]
    pub fn peak_macs_per_second(&self) -> f64 {
        self.macs_per_cycle_total() as f64 * self.frequency_hz
    }
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self::edge_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_default_matches_paper_figure_4() {
        let hw = HardwareConfig::edge_default();
        assert!((hw.frequency_hz - 3.75e9).abs() < 1.0);
        assert_eq!(hw.cores, 2);
        assert_eq!(hw.mac_array_rows * hw.mac_array_cols, 256);
        assert_eq!(hw.vec_lanes, 256);
        assert_eq!(hw.l1_bytes, 5 * MIB);
        assert_eq!(hw.dram_bytes, 6 * GIB);
        assert!((hw.dram_bandwidth_bytes_per_s - 30.0e9).abs() < 1.0);
        hw.validate().unwrap();
    }

    #[test]
    fn derived_throughputs() {
        let hw = HardwareConfig::edge_default();
        assert_eq!(hw.macs_per_cycle_per_core(), 256);
        assert_eq!(hw.macs_per_cycle_total(), 512);
        assert_eq!(hw.vec_ops_per_cycle_total(), 512);
        // 30 GB/s at 3.75 GHz = 8 bytes per cycle.
        assert!((hw.dram_bytes_per_cycle() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_to_seconds_inverts_frequency() {
        let hw = HardwareConfig::edge_default();
        let s = hw.cycles_to_seconds(3_750_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut hw = HardwareConfig::edge_default();
        hw.cores = 0;
        assert!(matches!(hw.validate(), Err(SimError::InvalidConfig { .. })));

        let mut hw = HardwareConfig::edge_default();
        hw.dram_bandwidth_bytes_per_s = 0.0;
        assert!(hw.validate().is_err());

        let mut hw = HardwareConfig::edge_default();
        hw.softmax_ops_per_element = 0;
        assert!(hw.validate().is_err());
    }

    #[test]
    fn tiny_test_config_is_valid() {
        HardwareConfig::tiny_test().validate().unwrap();
    }
}
