//! End-to-end tests of prefill serving through the engine: determinism
//! under search tuning, shard-merge equality through serialized caches, and
//! deadline-miss accounting.

use mas_attention::planner::{PlannerConfig, TilingStrategy};
use mas_dataflow::DataflowKind;
use mas_search::tuner::TunerConfig;
use mas_serve::{
    AdmissionPolicy, BatchPolicy, EngineConfig, ScheduleCache, ServeEngine, ServeReport,
    ServeRequest,
};
use mas_workloads::{request_trace, DecodeTrace, Network, TraceConfig};

fn nets() -> Vec<Network> {
    vec![Network::BertSmall, Network::VitB16, Network::T5Mini]
}

fn stream(count: usize, seed: u64) -> Vec<ServeRequest> {
    let trace = request_trace(&TraceConfig::poisson(nets(), count, 2000.0, seed));
    ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05))
}

/// Replays a prefill-only stream and returns its report.
fn replay(engine: &mut ServeEngine, requests: &[ServeRequest]) -> ServeReport {
    engine.run(requests, &DecodeTrace::empty()).unwrap().prefill
}

/// Replays are deterministic under search-based tuning (the expensive
/// planning path the cache amortizes), with tuner-internal parallelism on
/// or off.
#[test]
fn pooled_and_serial_replay_agree_under_search_tuning() {
    use mas_dataflow::AttentionWorkload;
    // Small synthetic shapes: tuning Table-1 shapes twice would dominate the
    // suite's runtime without adding coverage.
    let requests: Vec<ServeRequest> = (0..8)
        .map(|i| {
            let (heads, seq) = if i % 2 == 0 { (2, 128) } else { (2, 96) };
            ServeRequest::new(
                i,
                i as f64 * 2e-4,
                DataflowKind::MasAttention,
                AttentionWorkload::new("toy", 1, heads, seq, 64),
                Some(0.05),
            )
        })
        .collect();
    let mk = |parallel: bool| {
        let mut cfg = EngineConfig::default();
        cfg.batching.max_batch = 2;
        cfg.planner = PlannerConfig {
            tiling: TilingStrategy::Search,
            tuner: if parallel {
                TunerConfig::quick()
            } else {
                TunerConfig::quick().serial()
            },
            ..PlannerConfig::default()
        };
        replay(&mut ServeEngine::new(cfg), &requests)
    };
    let pooled = mk(true);
    assert_eq!(pooled, mk(false));
    assert!(pooled.completed() == 8);
}

/// Sharded tuning: two shards (disjoint network subsets of the same trace)
/// build caches independently; their serialized caches merge — in either
/// order — into a cache equal to the one built jointly over the full trace.
#[test]
fn serialized_shard_caches_merge_into_the_jointly_built_cache() {
    // Decouple admission across keys so shard batching matches joint
    // batching exactly (the backlog bound couples otherwise-independent
    // shapes).
    let mk_config = || EngineConfig {
        admission: AdmissionPolicy::admit_all(),
        ..EngineConfig::default()
    };
    let trace = request_trace(&TraceConfig::poisson(nets(), 90, 3000.0, 23));
    let all = ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, None);
    let shard_a: Vec<ServeRequest> = all
        .iter()
        .filter(|r| r.workload.heads == 8) // BERT-Small & T5-Mini shapes
        .cloned()
        .collect();
    let shard_b: Vec<ServeRequest> = all
        .iter()
        .filter(|r| r.workload.heads != 8)
        .cloned()
        .collect();
    assert!(!shard_a.is_empty() && !shard_b.is_empty());
    assert_eq!(shard_a.len() + shard_b.len(), all.len());

    // Joint build.
    let mut joint_engine = ServeEngine::new(mk_config());
    replay(&mut joint_engine, &all);
    let joint = joint_engine.into_cache();

    // Sharded build, round-tripped through the serialized format.
    // Per-process file names so concurrent test runs on one machine don't
    // race on the shared temp dir.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_a = dir.join(format!("mas-serve-shard-a-{pid}.cache"));
    let path_b = dir.join(format!("mas-serve-shard-b-{pid}.cache"));
    for (path, shard) in [(&path_a, &shard_a), (&path_b, &shard_b)] {
        let mut engine = ServeEngine::new(mk_config());
        replay(&mut engine, shard);
        engine.cache().save(path).unwrap();
    }
    let loaded_a = ScheduleCache::load(&path_a).unwrap();
    let loaded_b = ScheduleCache::load(&path_b).unwrap();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();

    let mut ab = loaded_a.clone();
    ab.merge(&loaded_b);
    let mut ba = loaded_b;
    ba.merge(&loaded_a);
    assert_eq!(ab, ba, "merge(a,b) == merge(b,a)");
    assert_eq!(ab, joint, "merged shards == jointly built cache");

    // The merged cache replays the full trace with zero planning.
    let warm = replay(&mut ServeEngine::with_cache(mk_config(), ab), &all);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_hits, warm.batches);
}

/// Deadline accounting: a burst of serialized identical requests with a
/// deadline between the first and last completion splits deterministically
/// into met and missed.
#[test]
fn deadline_misses_are_accounted_exactly() {
    let workload = Network::BertSmall.attention_workload(1);

    // Learn the per-request service time with a deadline-free probe.
    let mut probe_cfg = EngineConfig::default();
    probe_cfg.batching.window_s = 0.0;
    let probe = replay(
        &mut ServeEngine::new(probe_cfg.clone()),
        &[ServeRequest::new(
            0,
            0.0,
            DataflowKind::MasAttention,
            workload.clone(),
            None,
        )],
    );
    let service_s = probe.outcomes[0].service_s;
    assert!(service_s > 0.0);

    // Five simultaneous arrivals, no batching, one device: completions at
    // k·service for k = 1..=5. A deadline of 2.5·service admits exactly the
    // first two.
    let deadline_s = 2.5 * service_s;
    let burst: Vec<ServeRequest> = (0..5)
        .map(|i| {
            ServeRequest::new(
                i,
                0.0,
                DataflowKind::MasAttention,
                workload.clone(),
                Some(deadline_s),
            )
        })
        .collect();
    let mut cfg = probe_cfg;
    cfg.batching = BatchPolicy {
        max_batch: 1,
        window_s: 0.0,
    };
    let report = replay(&mut ServeEngine::new(cfg), &burst);
    assert_eq!(report.completed(), 5);
    assert_eq!(report.deadline_met(), 2, "{}", report.summary());
    assert_eq!(report.deadline_missed(), 3);
    assert!((report.deadline_miss_rate() - 0.6).abs() < 1e-12);
    // The verdict matches the timeline request by request.
    for o in &report.outcomes {
        assert_eq!(
            o.deadline_met,
            o.latency_s() <= deadline_s,
            "request {}",
            o.id
        );
    }
}

/// Mixed traffic over several networks: every request is accounted for, and
/// the report's aggregates are internally consistent.
#[test]
fn mixed_traffic_accounting_is_consistent() {
    let requests = stream(120, 31);
    let mut engine = ServeEngine::new(EngineConfig::default());
    let report = replay(&mut engine, &requests);
    assert_eq!(report.completed() + report.rejected.len(), 120);
    assert_eq!(report.cache_hits + report.cache_misses, report.batches);
    assert_eq!(
        report.deadline_met() + report.deadline_missed(),
        report.completed()
    );
    let energy_sum: f64 = report.outcomes.iter().map(|o| o.energy_pj).sum();
    assert!((energy_sum - report.total_energy_pj).abs() <= 1e-6 * report.total_energy_pj);
    assert!(report.makespan_s >= report.outcomes.iter().fold(0.0, |m, o| m.max(o.service_s)));
    // Three networks, one method → at most three distinct merged shapes per
    // batch size; the cache stays compact.
    assert!(engine.cache().len() <= report.batches);
}

/// A request whose operands overflow device DRAM is rejected at admission
/// as infeasible even under the unbounded `admit_all` policy, so it never
/// reaches planning, and the rest of the stream completes.
#[test]
fn an_over_dram_request_is_rejected_and_the_rest_complete() {
    use mas_dataflow::AttentionWorkload;
    use mas_serve::RejectReason;
    let mut requests = stream(12, 5);
    let at = requests[6].arrival_s;
    requests.insert(
        6,
        ServeRequest::new(
            1000,
            at,
            DataflowKind::MasAttention,
            AttentionWorkload::new("huge", 1, 32, 1 << 20, 128),
            None,
        ),
    );
    let config = EngineConfig {
        admission: AdmissionPolicy::admit_all(),
        ..EngineConfig::default()
    };
    let report = replay(&mut ServeEngine::new(config), &requests);
    assert_eq!(report.rejected.len(), 1, "{}", report.summary());
    assert_eq!(report.rejected[0].id, 1000);
    assert_eq!(report.rejected[0].reason, RejectReason::InfeasibleWorkload);
    assert_eq!(report.completed(), 12);
}
