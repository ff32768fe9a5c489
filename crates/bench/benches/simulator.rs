//! Criterion benchmarks of the event-driven simulator itself: how fast one
//! candidate (schedule build + simulation) can be evaluated, which bounds the
//! throughput of the tiling search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::{EnergyModel, Executor, HardwareConfig};

fn bench_build_and_simulate(c: &mut Criterion) {
    let hw = HardwareConfig::edge_default();
    let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm()).without_trace();
    let w = AttentionWorkload::new("BERT-Base", 1, 12, 512, 64);
    let t = Tiling::heuristic(&w, &hw);
    let mut g = c.benchmark_group("simulate_bert_base");
    g.sample_size(20);
    for kind in [
        DataflowKind::Flat,
        DataflowKind::MasAttention,
        DataflowKind::LayerWise,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let s = build_dataflow(kind, &w, &t, &hw).unwrap();
                    exec.run(s.graph()).unwrap().total_cycles
                })
            },
        );
    }
    g.finish();
}

fn bench_graph_scaling(c: &mut Criterion) {
    let hw = HardwareConfig::edge_default();
    let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm()).without_trace();
    let mut g = c.benchmark_group("simulate_scaling_heads");
    g.sample_size(15);
    for heads in [4usize, 16, 32] {
        let w = AttentionWorkload::new("scale", 1, heads, 512, 64);
        let t = Tiling::heuristic(&w, &hw);
        g.bench_with_input(BenchmarkId::from_parameter(heads), &heads, |b, _| {
            b.iter(|| {
                let s = build_dataflow(DataflowKind::MasAttention, &w, &t, &hw).unwrap();
                exec.run(s.graph()).unwrap().total_cycles
            })
        });
    }
    g.finish();
}

/// Simulation alone on the finest point of the search space: MAS-Attention
/// on BERT-Small at `N_Q = N_KV = 16`. Its long DMA ready queues are where
/// a linear-scan ready queue goes quadratic, so a regression of the
/// scheduler's per-event cost shows here first.
fn bench_fine_tiling(c: &mut Criterion) {
    let hw = HardwareConfig::edge_default();
    let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm()).without_trace();
    let w = AttentionWorkload::new("BERT-Small", 1, 8, 512, 64);
    let t = Tiling::new(1, 1, 16, 16, &w);
    let schedule = build_dataflow(DataflowKind::MasAttention, &w, &t, &hw).unwrap();
    let tasks = schedule.graph().len();
    let mut g = c.benchmark_group("simulate_fine_tiling");
    g.sample_size(10);
    g.bench_function(format!("bert_small_q16_kv16_{tasks}_tasks"), |b| {
        b.iter(|| exec.run(schedule.graph()).unwrap().total_cycles)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_build_and_simulate,
    bench_graph_scaling,
    bench_fine_tiling
);
criterion_main!(benches);
