//! Golden pins of what the serve engine reports and records.
//!
//! `golden/reports.tsv` holds one row per (trace, configuration): the
//! launch and event counts plus FNV-1a digests of the `Debug` rendering of
//! the [`EngineReport`], the telemetry event log, the peak attribution, the
//! Prometheus text and the Chrome trace (`f64` `Debug` round-trips exactly,
//! so a digest moves with any bit of any figure). The configurations cover
//! all three scheduling policies, chunked prefill, both preemption modes,
//! the track executor, f16 KV, prefix sharing, 1 and 3 devices and a tight
//! and an ample budget, over two seeded mixed traces and one overload
//! burst. The file was generated once, and the Chrome digests of the rows
//! with KV evictions once more when the trace's `shared_budget_bytes`
//! counter began subtracting evicted bytes. An engine change meant to keep
//! behaviour must not touch it.
//!
//! The runs share one schedule cache in row order (each engine starts from
//! the cache the previous row left), so the first rows plan cold and the
//! later ones hit: the pinned hit/miss flags depend on that order.

use std::fmt::Write;

use mas_dataflow::DataflowKind;
use mas_serve::{
    ChunkPolicy, DecodePolicy, DecodeRejectReason, EngineConfig, EngineReport, KvDtype,
    PreemptMode, RejectReason, ScheduleCache, SchedulePolicy, ServeEngine, ServeRequest,
    TelemetryConfig, TrackConfig,
};
use mas_workloads::{
    mixed_trace, overload_burst_trace, MixedTrace, MixedTraceConfig, Network, OverloadBurstConfig,
};

const GOLDEN: &str = include_str!("golden/reports.tsv");

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The three pinned traces with their tight budgets: two seeded Poisson
/// mixed traces (the first with a shared 64-token system prompt, so prefix
/// sharing has groups to share) and a reduced Llama3-8B overload burst of
/// long prefills into steady decode. The tight budgets squeeze the classes
/// against each other (6 MB: prefill activations shed and are shed by
/// decode residency), saturate the pool with decode residency alone (2 MB:
/// pool overflows and KV evictions), and admit one burst prefill beside
/// the sessions' residency with no room to grow.
fn traces() -> Vec<(&'static str, MixedTrace, u64)> {
    let networks = vec![Network::BertSmall, Network::T5Mini];
    let shared = MixedTraceConfig::poisson(networks.clone(), 40, 100.0, 12, 600.0, 42)
        .with_shared_system_prompt(64);
    let private = MixedTraceConfig::poisson(networks, 30, 150.0, 10, 1000.0, 7919);
    let burst = OverloadBurstConfig {
        sessions: 3,
        steps_per_session: 16,
        ..OverloadBurstConfig::new(Network::Llama3_8B)
    };
    vec![
        ("mixed-42", mixed_trace(&shared), 6_000_000),
        ("mixed-7919", mixed_trace(&private), 2_000_000),
        ("burst", overload_burst_trace(&burst), 168_000_000),
    ]
}

/// The configuration matrix: every policy × {1, 3} devices × {tight,
/// ample} budget × four feature sets, labelled for the golden rows.
fn matrix(tight: u64) -> Vec<(String, EngineConfig)> {
    let mut cases = Vec::new();
    for policy in [
        SchedulePolicy::FairShare,
        SchedulePolicy::DecodePriority,
        SchedulePolicy::PrefillPriority,
    ] {
        for devices in [1usize, 3] {
            for (budget_label, budget) in [("tight", Some(tight)), ("ample", None)] {
                let base = EngineConfig {
                    policy,
                    devices,
                    shared_budget_bytes: budget,
                    ..EngineConfig::default()
                };
                let deadline = DecodePolicy {
                    step_deadline_s: Some(0.004),
                    ..DecodePolicy::default()
                };
                let features = [
                    ("plain", base.clone()),
                    (
                        "chunk64+hold+tracks+f16+share",
                        EngineConfig {
                            decode: DecodePolicy {
                                kv_dtype: Some(KvDtype::F16),
                                prefix_share: true,
                                ..deadline
                            },
                            chunked_prefill: Some(ChunkPolicy::new(64)),
                            preempt: Some(PreemptMode::Hold),
                            tracks: Some(TrackConfig::default()),
                            ..base.clone()
                        },
                    ),
                    (
                        "chunk128+recompute+share",
                        EngineConfig {
                            decode: DecodePolicy {
                                prefix_share: true,
                                ..deadline
                            },
                            chunked_prefill: Some(ChunkPolicy::new(128)),
                            preempt: Some(PreemptMode::Recompute),
                            ..base.clone()
                        },
                    ),
                    (
                        "tracks+f16",
                        EngineConfig {
                            decode: DecodePolicy {
                                kv_dtype: Some(KvDtype::F16),
                                ..DecodePolicy::default()
                            },
                            tracks: Some(TrackConfig::default()),
                            ..base.clone()
                        },
                    ),
                ];
                for (feature_label, config) in features {
                    cases.push((
                        format!("{policy}/d{devices}/{budget_label}/{feature_label}"),
                        config,
                    ));
                }
            }
        }
    }
    cases
}

/// Which engine mechanisms the matrix reached, so the pin provably covers
/// every mode it names.
#[derive(Debug, Default)]
struct Coverage {
    memory_pressure: bool,
    pool_exhausted: bool,
    slot_preemptions: bool,
    hold_evictions: bool,
    recompute_evictions: bool,
    shared_sessions: bool,
    chunk_launches: bool,
    overlap_commits: bool,
    cache_hits: bool,
    cache_misses: bool,
}

impl Coverage {
    fn note(&mut self, config: &EngineConfig, engine: &ServeEngine, report: &EngineReport) {
        self.memory_pressure |= report
            .prefill
            .rejected
            .iter()
            .any(|r| r.reason == RejectReason::MemoryPressure);
        self.pool_exhausted |= report
            .decode
            .rejected
            .iter()
            .any(|r| r.reason == DecodeRejectReason::KvPoolExhausted);
        self.slot_preemptions |= report.preemptions_prefill > 0;
        let evicted = report.preemptions_decode > 0;
        self.hold_evictions |= evicted && config.preempt == Some(PreemptMode::Hold);
        self.recompute_evictions |= evicted && config.preempt == Some(PreemptMode::Recompute);
        self.shared_sessions |= report.decode.shared_sessions > 0;
        // A chain looks its plan up once but launches once per chunk.
        self.chunk_launches |=
            report.prefill.batches > report.prefill.cache_hits + report.prefill.cache_misses;
        self.overlap_commits |= engine
            .track_stats()
            .is_some_and(|t| t.iter().any(|d| d.overlap_launches > 0));
        self.cache_hits |= report.prefill.cache_hits > 0;
        self.cache_misses |= report.prefill.cache_misses > 0;
    }
}

/// Runs one configuration with telemetry on and off from the same cache
/// state, checks the recording-invariance and reconstruction contracts,
/// and returns the golden row plus the cache the recorded run left.
fn pin(
    trace_label: &str,
    label: &str,
    config: &EngineConfig,
    trace: &MixedTrace,
    stream: &[ServeRequest],
    cache: ScheduleCache,
    coverage: &mut Coverage,
) -> (String, ScheduleCache) {
    let mut quiet = ServeEngine::with_cache(config.clone(), cache.clone());
    let unrecorded = quiet.run(stream, &trace.decode).unwrap();
    let mut engine = ServeEngine::with_cache(
        EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..config.clone()
        },
        cache,
    );
    let report: EngineReport = engine.run(stream, &trace.decode).unwrap();
    assert_eq!(
        report, unrecorded,
        "{trace_label} {label}: recording changed the report"
    );
    let telemetry = engine.telemetry().unwrap();
    assert_eq!(
        telemetry.report().as_ref(),
        Some(&report),
        "{trace_label} {label}: the event log does not rebuild the report"
    );
    coverage.note(config, &engine, &report);
    let mut row = String::new();
    write!(
        row,
        "{trace_label}\t{label}\t{}\t{}\t{:016x}\t{:016x}\t{:016x}\t{:016x}\t{:016x}",
        report.launches,
        telemetry.events().len(),
        fnv1a(format!("{report:?}").as_bytes()),
        fnv1a(format!("{:?}", telemetry.events()).as_bytes()),
        fnv1a(format!("{:?}", telemetry.peak_attribution()).as_bytes()),
        fnv1a(telemetry.prometheus_text().as_bytes()),
        fnv1a(telemetry.chrome_trace_json().as_bytes()),
    )
    .unwrap();
    (row, engine.into_cache())
}

#[test]
fn engine_reports_and_event_logs_match_the_pinned_digests() {
    let mut rows = Vec::new();
    let mut cache = ScheduleCache::new();
    let mut coverage = Coverage::default();
    for (trace_label, trace, tight) in traces() {
        let cases = matrix(tight);
        let stream =
            ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, Some(0.05));
        for (label, config) in &cases {
            let (row, warm) = pin(
                trace_label,
                label,
                config,
                &trace,
                &stream,
                cache,
                &mut coverage,
            );
            cache = warm;
            rows.push(row);
        }
    }
    let Coverage {
        memory_pressure,
        pool_exhausted,
        slot_preemptions,
        hold_evictions,
        recompute_evictions,
        shared_sessions,
        chunk_launches,
        overlap_commits,
        cache_hits,
        cache_misses,
    } = coverage;
    assert!(
        memory_pressure
            && pool_exhausted
            && slot_preemptions
            && hold_evictions
            && recompute_evictions
            && shared_sessions
            && chunk_launches
            && overlap_commits
            && cache_hits
            && cache_misses,
        "the matrix misses a mechanism: {coverage:?}"
    );
    let golden: Vec<&str> = GOLDEN.lines().collect();
    if rows.len() != golden.len() {
        eprintln!("{}", rows.join("\n"));
    }
    assert_eq!(rows.len(), golden.len(), "golden row count");
    for (got, want) in rows.iter().zip(golden) {
        assert_eq!(got, want);
    }
}
