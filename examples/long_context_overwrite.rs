//! Demonstrate the proactive buffer-overwrite strategy (§4.3): on long
//! sequences the MAS-Attention working set no longer fits the shared L1, so
//! the scheduler sacrifices the resident K/V tiles to keep the softmax
//! output on-chip, reloading them from DRAM and redoing the interrupted
//! MatMul sub-tiles.
//!
//! Each shape below is paired with an L1 size inside the band where
//! `residency_plan` chooses the overwrite: the resident K/V plus one C/P
//! row block fit, but not the two blocks MAS-Attention keeps in flight.
//! Both methods are simulated at full size, and the example checks that the
//! overwrite really engaged.
//!
//! Run with `cargo run --release --example long_context_overwrite`.

use mas::api::{Method, Planner, PlannerConfig};
use mas::dataflow::overwrite::{residency_plan, ResidencyPlan};
use mas::dataflow::{AttentionWorkload, Tiling};
use mas::sim::HardwareConfig;

/// Long-context layers: `(sequence length, key/value sub-tile, L1 MiB)`.
/// Both heads are processed per round, so K/V residency competes with the
/// C/P row blocks.
const SHAPES: [(usize, usize, usize); 2] = [(8192, 512, 8), (16384, 1024, 16)];

fn main() {
    for (seq_len, n_kv, l1_mib) in SHAPES {
        let workload = AttentionWorkload::new("long-context", 1, 2, seq_len, 64);
        let tiling = Tiling::new(1, 2, 64, n_kv, &workload);
        let hardware = HardwareConfig {
            l1_bytes: l1_mib * 1024 * 1024,
            ..HardwareConfig::edge_default()
        };
        assert_eq!(
            residency_plan(&workload, &tiling, &hardware),
            ResidencyPlan::OverwriteKv,
            "{seq_len} tokens on {l1_mib} MiB of L1 must be in the overwrite band"
        );
        let planner = Planner::new(PlannerConfig {
            hardware,
            ..PlannerConfig::default()
        });
        println!("{seq_len} tokens, 2 heads, E=64, tiling {tiling:?}, L1 {l1_mib} MiB:");
        let mut cycles = Vec::new();
        for method in [Method::Flat, Method::MasAttention] {
            let result = planner
                .run_with_tiling(method, &workload, &tiling)
                .expect("simulation");
            println!(
                "  {:<14} cycles {:>12}, DRAM reads {:>12} B, overwrites {:>4}, reloaded {:>10} B",
                method.name(),
                result.report.total_cycles,
                result.report.dram_read_bytes,
                result.build.overwrite_events,
                result.build.reload_bytes
            );
            if method == Method::MasAttention {
                assert!(result.build.overwrite_events > 0, "no overwrite engaged");
                assert!(result.build.reload_bytes > 0, "nothing was reloaded");
            }
            cycles.push(result.report.total_cycles);
        }
        println!(
            "  MAS-Attention / FLAT cycles: {:.3}",
            cycles[1] as f64 / cycles[0] as f64
        );
    }
    println!("\nMAS-Attention keeps each P block on-chip by overwriting and reloading K/V tiles");
    println!("(the extra DRAM reads above); FLAT keeps K/V resident and serializes softmax.");
}
