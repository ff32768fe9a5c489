//! DaVinci-like NPU device description.

/// One NPU core (a DaVinci "AI core").
#[derive(Debug, Clone, PartialEq)]
pub struct NpuCore {
    /// Core name (e.g. `"ascend-lite-0"`).
    pub name: String,
    /// Multiply-accumulate operations the cube unit retires per cycle
    /// (the DaVinci Lite cube is a 16×16×16 half-precision MAC array).
    pub cube_macs_per_cycle: usize,
    /// Lane-operations the vector unit retires per cycle.
    pub vector_lanes: usize,
    /// Unified on-chip buffer capacity in bytes.
    pub buffer_bytes: usize,
    /// Core clock frequency in Hz.
    pub frequency_hz: f64,
}

impl NpuCore {
    /// Peak cube throughput in MAC operations per second.
    #[must_use]
    pub fn peak_macs_per_second(&self) -> f64 {
        self.cube_macs_per_cycle as f64 * self.frequency_hz
    }

    /// Peak vector throughput in lane-operations per second.
    #[must_use]
    pub fn peak_vector_ops_per_second(&self) -> f64 {
        self.vector_lanes as f64 * self.frequency_hz
    }
}

/// The whole NPU: a set of heterogeneous cores sharing LPDDR memory.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuDevice {
    /// Device name.
    pub name: String,
    /// The AI cores.
    pub cores: Vec<NpuCore>,
    /// Shared DRAM bandwidth in bytes per second.
    pub dram_bandwidth_bytes_per_s: f64,
    /// Element size in bytes (FP16 on the device).
    pub element_bytes: usize,
    /// Vector-unit lane-operations needed per softmax element (exponential
    /// evaluated by polynomial on the vector unit).
    pub softmax_ops_per_element: usize,
    /// Fixed per-kernel-launch overhead in seconds (driver + task dispatch),
    /// paid once per operator launch on the device.
    pub kernel_launch_overhead_s: f64,
}

impl NpuDevice {
    /// The Kirin 990 5G NPU: two Ascend Lite cores and one Ascend Tiny core.
    #[must_use]
    pub fn kirin990() -> Self {
        let lite = |i: usize| NpuCore {
            name: format!("ascend-lite-{i}"),
            // Effective (sustained) cube throughput; the nominal 16x16x16 array
            // is derated for the small attention tiles of edge inference.
            cube_macs_per_cycle: 1024,
            vector_lanes: 256,
            buffer_bytes: 1024 * 1024,
            frequency_hz: 0.96e9,
        };
        let tiny = NpuCore {
            name: "ascend-tiny-0".to_string(),
            cube_macs_per_cycle: 256,
            vector_lanes: 128,
            buffer_bytes: 256 * 1024,
            frequency_hz: 0.48e9,
        };
        Self {
            name: "Kirin 990 5G DaVinci NPU".to_string(),
            cores: vec![lite(0), lite(1), tiny],
            dram_bandwidth_bytes_per_s: 50.0e9,
            element_bytes: 2,
            softmax_ops_per_element: 20,
            kernel_launch_overhead_s: 30.0e-6,
        }
    }

    /// Total peak MAC throughput of the device.
    #[must_use]
    pub fn total_peak_macs_per_second(&self) -> f64 {
        self.cores.iter().map(NpuCore::peak_macs_per_second).sum()
    }

    /// Splits `heads` across the cores proportionally to their cube
    /// throughput (every head must land on exactly one core; the DaVinci
    /// runtime partitions attention heads the same way).
    #[must_use]
    pub fn partition_heads(&self, heads: usize) -> Vec<usize> {
        let total = self.total_peak_macs_per_second();
        let mut assigned = vec![0usize; self.cores.len()];
        let mut remaining = heads;
        // Ideal share, floored; remainder goes to the fastest cores.
        for (i, core) in self.cores.iter().enumerate() {
            let share = ((heads as f64) * core.peak_macs_per_second() / total).floor() as usize;
            let share = share.min(remaining);
            assigned[i] = share;
            remaining -= share;
        }
        let mut order: Vec<usize> = (0..self.cores.len()).collect();
        order.sort_by(|&a, &b| {
            self.cores[b]
                .peak_macs_per_second()
                .partial_cmp(&self.cores[a].peak_macs_per_second())
                .expect("throughputs are finite")
        });
        let mut i = 0;
        while remaining > 0 {
            assigned[order[i % order.len()]] += 1;
            remaining -= 1;
            i += 1;
        }
        assigned
    }
}

impl Default for NpuDevice {
    fn default() -> Self {
        Self::kirin990()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kirin990_has_three_heterogeneous_cores() {
        let d = NpuDevice::kirin990();
        assert_eq!(d.cores.len(), 3);
        let lite = &d.cores[0];
        let tiny = &d.cores[2];
        assert!(lite.peak_macs_per_second() > tiny.peak_macs_per_second());
        assert!(lite.buffer_bytes > tiny.buffer_bytes);
    }

    #[test]
    fn head_partition_conserves_heads_and_prefers_fast_cores() {
        let d = NpuDevice::kirin990();
        for heads in [1usize, 2, 3, 8, 12, 16, 32] {
            let p = d.partition_heads(heads);
            assert_eq!(p.iter().sum::<usize>(), heads, "heads={heads}");
            // A Lite core never receives fewer heads than the Tiny core.
            assert!(p[0] >= p[2]);
            assert!(p[1] >= p[2]);
        }
    }

    #[test]
    fn single_head_goes_to_one_core() {
        let d = NpuDevice::kirin990();
        let p = d.partition_heads(1);
        assert_eq!(p.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn peak_throughputs_are_positive() {
        let d = NpuDevice::kirin990();
        assert!(d.total_peak_macs_per_second() > 0.0);
        for c in &d.cores {
            assert!(c.peak_vector_ops_per_second() > 0.0);
        }
    }
}
