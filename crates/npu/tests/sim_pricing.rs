//! The NPU model prices every core on the cycle simulator: each non-zero
//! per-core time is, bit for bit, `Executor::run` of the graph of that
//! core's head share on the core's lowered one-core configuration.

use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_npu::{NpuCore, NpuModel};
use mas_sim::{EnergyModel, Executor, HardwareConfig, SimError};
use mas_workloads::sdunet::{largest_unit, sd15_reduced_unet};

/// The lowering written out: a square mesh of the core's MACs, its lanes,
/// clock and unified buffer, and the device's softmax cost, DRAM bandwidth
/// and element size on one core of the edge device.
fn lowered(model: &NpuModel, core: &NpuCore) -> HardwareConfig {
    let side = match core.cube_macs_per_cycle {
        1024 => 32,
        256 => 16,
        macs => panic!("no square mesh for {macs} MACs"),
    };
    let device = model.device();
    HardwareConfig {
        name: core.name.clone(),
        frequency_hz: core.frequency_hz,
        cores: 1,
        mac_array_rows: side,
        mac_array_cols: side,
        vec_lanes: core.vector_lanes,
        softmax_ops_per_element: device.softmax_ops_per_element,
        l1_bytes: core.buffer_bytes,
        dram_bandwidth_bytes_per_s: device.dram_bandwidth_bytes_per_s,
        element_bytes: device.element_bytes,
        ..HardwareConfig::edge_default()
    }
}

fn assert_priced_by_the_simulator(workload: &AttentionWorkload) {
    let model = NpuModel::kirin990();
    let heads = model.device().partition_heads(workload.slices());
    for kind in DataflowKind::all() {
        let estimate = model.estimate(kind, workload).unwrap();
        for (i, core) in model.device().cores.iter().enumerate() {
            let priced = estimate.per_core_seconds[i];
            if heads[i] == 0 {
                assert_eq!(priced, 0.0, "{kind} {}", core.name);
                continue;
            }
            let hw = lowered(&model, core);
            let share =
                AttentionWorkload::new("share", 1, heads[i], workload.seq_len, workload.embed);
            let n_q = model.grid_search_n_q(kind, workload, core);
            let tiling = Tiling::new(1, 1, n_q, Tiling::heuristic(&share, &hw).n_kv, &share);
            let schedule = build_dataflow(kind, &share, &tiling, &hw).unwrap();
            let report = Executor::new(hw, EnergyModel::edge_16nm())
                .run(schedule.graph())
                .unwrap();
            assert_eq!(
                priced.to_bits(),
                report.total_seconds.to_bits(),
                "{kind} {} on {}: {priced} vs {}",
                core.name,
                workload.name,
                report.total_seconds
            );
        }
    }
}

#[test]
fn bert_base_is_priced_by_the_simulator() {
    assert_priced_by_the_simulator(&AttentionWorkload::new("BERT-Base", 1, 12, 512, 64));
}

#[test]
fn the_largest_sd_unet_unit_is_priced_by_the_simulator() {
    let units = sd15_reduced_unet(1);
    assert_priced_by_the_simulator(&largest_unit(&units).unwrap().workload);
}

#[test]
fn a_share_past_the_simulated_dram_is_a_typed_error() {
    let model = NpuModel::kirin990();
    let huge = AttentionWorkload::new("huge", 1, 32, 1 << 20, 128);
    for kind in DataflowKind::npu_methods() {
        let err = model.estimate(kind, &huge).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidConfig { .. }),
            "{kind}: {err}"
        );
    }
    assert!(model.figure5_estimates(&huge).is_err());
}
