//! Policy invariance of the engine on single-class streams.
//!
//! The scheduling policy only reorders *mixed* launch queues: with one class
//! present every `SchedulePolicy` must replay bit-identically, across both
//! classes, deadline screening and multiple devices, and the shared figures
//! must collapse onto the one class present.

use mas_dataflow::DataflowKind;
use mas_serve::{
    DecodePolicy, DecodeReport, EngineConfig, SchedulePolicy, ServeEngine, ServeRequest,
};
use mas_workloads::{
    decode_trace, request_trace, DecodeTrace, DecodeTraceConfig, Network, TraceConfig,
};

const POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::FairShare,
    SchedulePolicy::DecodePriority,
    SchedulePolicy::PrefillPriority,
];

fn prefill_stream(count: usize, seed: u64) -> Vec<ServeRequest> {
    let trace = request_trace(&TraceConfig::poisson(
        vec![Network::BertSmall, Network::VitB16, Network::T5Mini],
        count,
        2000.0,
        seed,
    ));
    ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05))
}

#[test]
fn prefill_only_stream_is_policy_invariant() {
    let requests = prefill_stream(60, 11);
    for devices in [1usize, 3] {
        let run = |policy: SchedulePolicy| {
            ServeEngine::new(EngineConfig {
                policy,
                devices,
                ..EngineConfig::default()
            })
            .run(&requests, &DecodeTrace::empty())
            .unwrap()
        };
        let baseline = run(SchedulePolicy::FairShare);
        assert!(baseline.prefill.completed() > 0);
        for policy in POLICIES {
            let report = run(policy);
            assert_eq!(
                report.prefill, baseline.prefill,
                "prefill-only run under {policy} ({devices} devices) must match fair-share"
            );
            // The decode side of a prefill-only run is empty, and the shared
            // figures collapse onto the prefill class.
            assert_eq!(report.decode, DecodeReport::default());
            assert_eq!(report.launches, report.prefill.batches);
            assert_eq!(report.makespan_s, report.prefill.makespan_s);
            assert_eq!(report.mem_peak_decode_bytes, 0);
            assert!(report.mem_peak_bytes <= report.mem_budget_bytes);
            assert_eq!(report.mem_peak_bytes, report.mem_peak_prefill_bytes);
        }
    }
}

#[test]
fn decode_only_trace_is_policy_invariant() {
    let trace = decode_trace(&DecodeTraceConfig::poisson(
        vec![Network::BertSmall, Network::T5Mini, Network::Llama3_8B],
        20,
        200.0,
        9,
    ));
    // Default paged charging and a deadline-screened variant, on one and
    // two devices.
    let decode_policies = [
        DecodePolicy::default(),
        DecodePolicy {
            step_deadline_s: Some(5e-4),
            ..DecodePolicy::default()
        },
    ];
    for decode_policy in decode_policies {
        for devices in [1usize, 2] {
            let run = |policy: SchedulePolicy| {
                ServeEngine::new(EngineConfig {
                    decode: decode_policy,
                    devices,
                    policy,
                    ..EngineConfig::default()
                })
                .run(&[], &trace)
                .unwrap()
            };
            let baseline = run(SchedulePolicy::FairShare).decode;
            assert_eq!(
                baseline.completed() + baseline.rejected.len(),
                trace.total_steps()
            );
            for policy in POLICIES {
                let report = run(policy);
                assert_eq!(
                    report.decode, baseline,
                    "decode-only run under {policy} ({devices} devices) must match fair-share"
                );
                assert_eq!(report.prefill.completed(), 0);
                assert_eq!(report.launches, baseline.launches);
                assert_eq!(report.makespan_s, baseline.makespan_s);
                // The shared-budget peak of a decode-only run is exactly the
                // decode KV peak.
                assert_eq!(report.mem_peak_bytes, baseline.kv_peak_bytes);
                assert_eq!(report.mem_peak_prefill_bytes, 0);
            }
        }
    }
}

#[test]
fn empty_streams_produce_empty_reports() {
    let mut engine = ServeEngine::new(EngineConfig::default());
    let report = engine.run(&[], &DecodeTrace::empty()).unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.rejected(), 0);
    assert_eq!(report.launches, 0);
    assert_eq!(report.makespan_s, 0.0);
    assert_eq!(report.mem_peak_bytes, 0);
    assert!(report.prefill_latency().is_none());
    assert!(report.decode_latency().is_none());
}
