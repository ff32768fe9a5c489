//! Benchmarks of prefill serving through the `mas-serve` engine.
//!
//! The headline measurement backs the schedule-cache acceptance criterion:
//! on a replayed 200-request trace over three Table 1 networks, steady-state
//! request handling with a warm [`ScheduleCache`] must be ≥ 10× faster than
//! planning every batch from scratch (a cache hit replays the memoized
//! tiling + simulation instead of re-planning). `cold_plan_every_batch`
//! clears the cache each iteration; `warm_cache_replay` reuses it.
//!
//! [`ScheduleCache`]: mas_serve::ScheduleCache

use criterion::{criterion_group, criterion_main, Criterion};
use mas_dataflow::DataflowKind;
use mas_serve::{EngineConfig, ScheduleCache, ServeEngine, ServeRequest};
use mas_workloads::{request_trace, DecodeTrace, Network, TraceConfig};

fn trace_200() -> Vec<ServeRequest> {
    let trace = request_trace(&TraceConfig::poisson(
        vec![Network::BertSmall, Network::VitB16, Network::T5Mini],
        200,
        2000.0,
        42,
    ));
    ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05))
}

fn bench_serve_trace(c: &mut Criterion) {
    let requests = trace_200();
    let mut g = c.benchmark_group("serve_200req_3nets");
    g.sample_size(10);

    // Cold: every iteration starts with an empty cache, so every batch key
    // plans (tiling + simulation) from scratch.
    g.bench_function("cold_plan_every_batch", |b| {
        b.iter(|| {
            ServeEngine::new(EngineConfig::default())
                .run(&requests, &DecodeTrace::empty())
                .unwrap()
        })
    });

    // Warm: one engine keeps its cache across iterations; after the first,
    // every batch key is a hit and replay skips planning entirely.
    let mut warm = ServeEngine::new(EngineConfig::default());
    warm.run(&requests, &DecodeTrace::empty()).unwrap(); // prime
    g.bench_function("warm_cache_replay", |b| {
        b.iter(|| warm.run(&requests, &DecodeTrace::empty()).unwrap())
    });
    g.finish();
}

fn bench_cache_ops(c: &mut Criterion) {
    // Build a realistic cache once (all six methods × three networks).
    let mut engine = ServeEngine::new(EngineConfig::default());
    for method in DataflowKind::all() {
        let trace = request_trace(&TraceConfig::poisson(
            vec![Network::BertSmall, Network::VitB16, Network::T5Mini],
            30,
            2000.0,
            7,
        ));
        let stream = ServeRequest::stream_from_trace(&trace, method, None);
        engine.run(&stream, &DecodeTrace::empty()).unwrap();
    }
    let cache = engine.into_cache();
    let text = cache.to_text();

    let mut g = c.benchmark_group("schedule_cache");
    g.bench_function("serialize", |b| b.iter(|| cache.to_text()));
    g.bench_function("parse", |b| {
        b.iter(|| ScheduleCache::from_text(&text).unwrap())
    });
    g.bench_function("merge_self", |b| {
        b.iter(|| ScheduleCache::merged(cache.clone(), &cache))
    });
    g.finish();
}

criterion_group!(benches, bench_serve_trace, bench_cache_ops);
criterion_main!(benches);
