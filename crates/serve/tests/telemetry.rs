//! Telemetry contract tests: recording off is free and bit-identical,
//! recording on conserves every arrival, keeps each track monotone, and
//! carries enough information to reconstruct the engine report exactly —
//! pinned on a hand-built mixed scenario and under proptest-generated
//! mixed traces across policies, budgets and charging modes. The Chrome
//! trace validator also survives corrupted exports.

use std::sync::OnceLock;

use proptest::prelude::*;

use mas_dataflow::{AttentionWorkload, DataflowKind};
use mas_serve::{
    validate_chrome_trace, ChunkPolicy, DecodePolicy, EngineConfig, EventKind, KvDtype, MemOwner,
    PreemptMode, SchedulePolicy, ServeEngine, ServeRequest, TelemetryConfig, TrackConfig,
    WorkClass,
};
use mas_workloads::{
    mixed_trace, DecodeSessionSpec, DecodeStepEvent, DecodeTrace, MixedTraceConfig, Network,
};

/// `sessions` decode sessions in lockstep: step `k` of every session
/// arrives at `k · gap_s` (cross-session simultaneous, so steps batch).
fn lockstep_decode(sessions: u64, steps: usize, prompt: usize, gap_s: f64) -> DecodeTrace {
    let specs: Vec<DecodeSessionSpec> = (0..sessions)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 8,
            kv_heads: 8,
            embed: 64,
            prompt_len: prompt,
            steps,
            prefix_group: None,
            shared_prefix_len: 0,
        })
        .collect();
    let mut events = Vec::new();
    for step_index in 0..steps {
        for id in 0..sessions {
            events.push(DecodeStepEvent {
                session_id: id,
                step_index,
                arrival_s: step_index as f64 * gap_s + 1e-9,
            });
        }
    }
    DecodeTrace {
        sessions: specs,
        steps: events,
    }
}

/// `bursts` bursts of `per_burst` identical prefill requests, burst `k`
/// arriving at `offset_s + k · gap_s`.
fn prefill_bursts(
    bursts: usize,
    per_burst: usize,
    offset_s: f64,
    gap_s: f64,
    workload: &AttentionWorkload,
) -> Vec<ServeRequest> {
    let mut requests = Vec::new();
    for k in 0..bursts {
        for j in 0..per_burst {
            requests.push(ServeRequest::new(
                (k * per_burst + j) as u64,
                offset_s + k as f64 * gap_s,
                DataflowKind::MasAttention,
                workload.clone(),
                None,
            ));
        }
    }
    requests
}

/// A contended mixed scenario: lockstep decode launches and prefill bursts
/// share one device (the `engine_mixed` policy scenario at reduced size).
fn mixed_scenario() -> (Vec<ServeRequest>, DecodeTrace) {
    let decode = lockstep_decode(6, 10, 1500, 0.01);
    let prefill = prefill_bursts(9, 4, 0.001, 0.01, &Network::BertSmall.attention_workload(1));
    (prefill, decode)
}

fn telemetry_config(policy: SchedulePolicy, devices: usize) -> EngineConfig {
    EngineConfig {
        policy,
        devices,
        telemetry: Some(TelemetryConfig::default()),
        ..EngineConfig::default()
    }
}

#[test]
fn recording_off_is_the_default_and_bit_identical_to_recording_on() {
    let (prefill, decode) = mixed_scenario();
    let mut plain = ServeEngine::new(EngineConfig::default());
    let baseline = plain.run(&prefill, &decode).unwrap();
    assert!(plain.telemetry().is_none(), "off by default");

    let mut observed = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 1));
    let recorded = observed.run(&prefill, &decode).unwrap();
    let telemetry = observed.telemetry().expect("recording was enabled");
    assert!(!telemetry.events().is_empty());

    // Recording must never perturb the replay (same f64s, same order).
    assert_eq!(baseline.prefill, recorded.prefill);
    assert_eq!(baseline.decode, recorded.decode);
    assert_eq!(baseline.makespan_s, recorded.makespan_s);
    assert_eq!(baseline.mem_peak_bytes, recorded.mem_peak_bytes);
}

#[test]
fn events_conserve_arrivals_and_every_track_is_monotone() {
    let (prefill, decode) = mixed_scenario();
    let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::DecodePriority, 2));
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    let stats = telemetry.conservation_check().expect("conserved");
    assert_eq!(stats.prefill_arrivals, prefill.len());
    assert_eq!(stats.decode_arrivals, decode.total_steps());
    assert_eq!(
        stats.prefill_completed + stats.prefill_rejected,
        prefill.len()
    );
    assert_eq!(
        stats.decode_completed + stats.decode_rejected,
        decode.total_steps()
    );
    assert_eq!(stats.prefill_completed, report.prefill.completed());
    assert_eq!(stats.decode_completed, report.decode.completed());

    telemetry.tracks_monotone().expect("monotone per track");
}

#[test]
fn report_reconstructed_from_events_matches_the_engine_report_exactly() {
    let (prefill, decode) = mixed_scenario();
    for policy in [
        SchedulePolicy::FairShare,
        SchedulePolicy::DecodePriority,
        SchedulePolicy::PrefillPriority,
    ] {
        let mut engine = ServeEngine::new(telemetry_config(policy, 2));
        let report = engine.run(&prefill, &decode).unwrap();
        let telemetry = engine.telemetry().unwrap();
        let rebuilt = telemetry.report().expect("complete event log");
        assert_eq!(rebuilt, report, "policy {policy:?}");
    }
}

#[test]
fn per_device_utilization_is_attributed_and_consistent() {
    let (prefill, decode) = mixed_scenario();
    let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 2));
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    assert_eq!(report.device_util.len(), 2);
    assert_eq!(telemetry.report().unwrap().device_util, report.device_util);
    let total_launches: usize = report.device_util.iter().map(|d| d.launches).sum();
    assert_eq!(
        total_launches,
        report.prefill.batches + report.decode.launches
    );
    for util in &report.device_util {
        assert!(util.busy_s <= report.makespan_s + 1e-12);
        let frac = util.busy_fraction(report.makespan_s);
        assert!((0.0..=1.0).contains(&frac));
    }
    // The per-class split sums to the combined per-device busy time.
    for (d, util) in report.device_util.iter().enumerate() {
        let prefill_busy = report.prefill.device_busy_s.get(d).copied().unwrap_or(0.0);
        let decode_busy = report.decode.device_busy_s.get(d).copied().unwrap_or(0.0);
        assert!((prefill_busy + decode_busy - util.busy_s).abs() < 1e-12);
    }
    // The summary surfaces the attribution.
    assert!(
        report.summary().contains("devices:"),
        "{}",
        report.summary()
    );
}

#[test]
fn peak_attribution_names_holders_that_sum_to_the_peak() {
    let (prefill, decode) = mixed_scenario();
    let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 1));
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    let peak = telemetry.peak_attribution().expect("work was charged");
    assert_eq!(peak.peak_bytes, report.mem_peak_bytes);
    assert_eq!(
        peak.prefill_bytes + peak.decode_bytes,
        peak.peak_bytes,
        "the per-class split partitions the peak"
    );
    assert!(!peak.holders.is_empty());
    let held: u64 = peak.holders.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(held, peak.peak_bytes, "holders partition the peak");
    // Sorted descending by bytes.
    for pair in peak.holders.windows(2) {
        assert!(pair[0].1 >= pair[1].1);
    }
}

#[test]
fn streaming_histograms_agree_with_exact_latency_stats() {
    let (prefill, decode) = mixed_scenario();
    let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 1));
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    for (class, stats) in [
        (WorkClass::Prefill, report.prefill.latency_stats()),
        (WorkClass::Decode, report.decode.latency_stats()),
    ] {
        let hist = telemetry.latency_histogram(class);
        let stats = stats.expect("both classes completed work");
        assert_eq!(hist.count() as usize, stats.count, "{class:?}");
        // The histogram's mean is exact (sum is exact, only quantiles
        // bucket); the p50 upper bound brackets the exact p50 from above
        // within one octave.
        assert!((hist.sum_s() / hist.count() as f64 - stats.mean_s).abs() < 1e-12);
        let p50_bound = hist.quantile_upper_bound_s(0.5).unwrap();
        assert!(p50_bound >= stats.p50_s);
        assert!(p50_bound <= stats.p50_s * 2.0 + 1e-12);
    }
}

#[test]
fn chrome_trace_validates_and_prometheus_mentions_the_key_series() {
    let (prefill, decode) = mixed_scenario();
    let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 2));
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    let json = telemetry.chrome_trace_json();
    let stats = validate_chrome_trace(&json).expect("well-formed, non-overlapping");
    assert_eq!(
        stats.spans,
        report.prefill.batches + report.decode.launches,
        "one span per launch"
    );

    let prom = telemetry.prometheus_text();
    for series in [
        "mas_engine_arrivals_total{class=\"prefill\"}",
        "mas_engine_completed_total{class=\"decode\"}",
        "mas_engine_rejected_total",
        "mas_engine_mem_peak_bytes",
        "mas_engine_device_busy_seconds{device=\"0\"}",
        "mas_engine_latency_seconds_bucket{class=\"prefill\"",
        "le=\"+Inf\"",
        "# TYPE mas_engine_latency_seconds histogram",
    ] {
        assert!(prom.contains(series), "missing {series} in:\n{prom}");
    }
}

/// The Chrome trace's `shared_budget_bytes` counter follows KV evictions:
/// on a run whose 2 MB budget makes `Hold` preemption evict sessions, no
/// sample exceeds the budget, and once every charge is released the last
/// sample reads zero for both classes. Releases apply at the next arrival
/// past their completion, so a late infeasible request, rejected without a
/// charge, closes the run.
#[test]
fn chrome_budget_counter_subtracts_kv_evictions() {
    let trace = mixed_trace(&MixedTraceConfig::poisson(
        vec![Network::BertSmall, Network::T5Mini],
        30,
        150.0,
        10,
        1000.0,
        7919,
    ));
    let mut stream =
        ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, Some(0.05));
    let late = AttentionWorkload {
        batch: 0,
        ..Network::BertSmall.attention_workload(1)
    };
    stream.push(ServeRequest::new(
        stream.len() as u64,
        3600.0,
        DataflowKind::MasAttention,
        late,
        None,
    ));
    let mut engine = ServeEngine::new(EngineConfig {
        policy: SchedulePolicy::DecodePriority,
        decode: DecodePolicy {
            step_deadline_s: Some(0.003),
            kv_dtype: Some(KvDtype::F16),
            prefix_share: true,
            ..DecodePolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(64)),
        preempt: Some(PreemptMode::Hold),
        tracks: Some(TrackConfig::default()),
        shared_budget_bytes: Some(2_000_000),
        telemetry: Some(TelemetryConfig::default()),
        ..EngineConfig::default()
    });
    let report = engine.run(&stream, &trace.decode).unwrap();
    assert!(report.preemptions_decode > 0, "{}", report.summary());

    let json = engine.telemetry().unwrap().chrome_trace_json();
    let field = |line: &str, name: &str| -> u64 {
        let key = format!("\"{name}\":");
        let value = &line[line.find(&key).unwrap() + key.len()..];
        let end = value.find(|c: char| !c.is_ascii_digit()).unwrap();
        value[..end].parse().unwrap()
    };
    let samples: Vec<(u64, u64)> = json
        .lines()
        .filter(|line| line.contains("\"name\":\"shared_budget_bytes\""))
        .map(|line| (field(line, "prefill"), field(line, "decode")))
        .collect();
    assert!(!samples.is_empty());
    for &(prefill, decode) in &samples {
        assert!(
            prefill + decode <= report.mem_budget_bytes,
            "sample {prefill} + {decode} exceeds the {} byte budget",
            report.mem_budget_bytes
        );
    }
    assert_eq!(samples.last(), Some(&(0, 0)));
}

#[test]
fn prefix_sharing_events_rebuild_the_report_and_release_the_group_last() {
    // 6 sessions in one prefix group sharing a 64-token system prompt,
    // replayed with telemetry on and prefix sharing enabled. A private
    // straggler arrives long after the group finishes so the deferred
    // session releases (and with them the group release) fire in-log.
    let mut decode = lockstep_decode(6, 8, 64, 0.01);
    for spec in &mut decode.sessions {
        spec.prefix_group = Some(3);
        spec.shared_prefix_len = 64;
    }
    decode.sessions.push(DecodeSessionSpec {
        id: 6,
        network: Network::BertSmall,
        start_s: 100.0,
        heads: 8,
        kv_heads: 8,
        embed: 64,
        prompt_len: 16,
        steps: 1,
        prefix_group: None,
        shared_prefix_len: 0,
    });
    decode.steps.push(DecodeStepEvent {
        session_id: 6,
        step_index: 0,
        arrival_s: 100.0,
    });
    let config = EngineConfig {
        decode: DecodePolicy {
            prefix_share: true,
            ..DecodePolicy::default()
        },
        telemetry: Some(TelemetryConfig::default()),
        ..EngineConfig::default()
    };
    let mut engine = ServeEngine::new(config);
    let report = engine.run(&[], &decode).unwrap();
    assert_eq!(report.decode.shared_sessions, 6);
    assert!(report.decode.kv_shared_peak_bytes > 0);
    let telemetry = engine.telemetry().unwrap();

    // One PrefixShared event per admitted session, refs counting up;
    // only the first carries the group's block charge.
    let events = telemetry.events();
    let shares: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PrefixShared {
                group,
                delta_bytes,
                refs,
                ..
            } => Some((group, delta_bytes, refs)),
            _ => None,
        })
        .collect();
    assert_eq!(shares.len(), 6);
    for (i, &(group, delta_bytes, refs)) in shares.iter().enumerate() {
        assert_eq!(group, 3);
        assert_eq!(refs, i as u32 + 1);
        assert_eq!(delta_bytes > 0, i == 0, "only the first member charges");
    }

    // The group's blocks are released exactly once, after every member
    // session's own release.
    let group_release = events
        .iter()
        .position(|e| {
            matches!(
                e.kind,
                EventKind::BudgetRelease {
                    owner: MemOwner::PrefixGroup(3),
                    ..
                }
            )
        })
        .expect("the group must be released");
    let session_releases: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e.kind {
            EventKind::BudgetRelease {
                owner: MemOwner::Session(_),
                ..
            } => Some(i),
            _ => None,
        })
        .collect();
    assert_eq!(session_releases.len(), 6);
    assert!(session_releases.iter().all(|&i| i < group_release));
    let shared_bytes = match events[group_release].kind {
        EventKind::BudgetRelease { bytes, .. } => bytes,
        _ => unreachable!(),
    };
    assert_eq!(shared_bytes, report.decode.kv_shared_peak_bytes);

    // The event log alone rebuilds the sharing-aware report exactly.
    let rebuilt = telemetry.report().expect("complete event log");
    assert_eq!(rebuilt, report);
    telemetry.tracks_monotone().expect("monotone per track");
    validate_chrome_trace(&telemetry.chrome_trace_json()).expect("valid Chrome trace");
}

#[test]
fn queue_depth_and_batch_fill_gauges_reflect_the_replay() {
    let (prefill, decode) = mixed_scenario();
    let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 1));
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    // Every join raises the prefill queue depth and every dispatch empties
    // its members; the walk ends at zero with no negative excursions.
    let mut depth = 0i64;
    let mut joins = 0usize;
    for event in telemetry.events() {
        match &event.kind {
            EventKind::PrefillJoin { .. } => {
                depth += 1;
                joins += 1;
            }
            EventKind::LaunchDispatched { key, members, .. }
                if key.class() == WorkClass::Prefill =>
            {
                depth -= i64::from(*members);
            }
            _ => {}
        }
        assert!(depth >= 0, "negative queue depth at {}", event.t_s);
    }
    assert!(joins > 0);
    assert_eq!(depth, 0);
    assert!(report.prefill.batches > 0);
}

/// The encoded log of a fixed overloaded mixed trace (shared-prefix
/// sessions, chunked prefill, track stages and preemption on two devices)
/// has a pinned event count and byte size, so a bloated encoding fails
/// here. It decodes to as many events as it holds.
#[test]
fn the_log_of_a_fixed_mixed_trace_has_a_pinned_size() {
    let trace = mixed_trace(
        &MixedTraceConfig::poisson(
            vec![Network::BertSmall, Network::T5Mini],
            12,
            2000.0,
            4,
            300.0,
            7,
        )
        .with_shared_system_prompt(64),
    );
    let stream =
        ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, Some(0.05));
    let mut engine = ServeEngine::new(EngineConfig {
        decode: DecodePolicy {
            prefix_share: true,
            kv_dtype: Some(KvDtype::F16),
            step_deadline_s: Some(0.004),
            ..DecodePolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(64)),
        preempt: Some(PreemptMode::Hold),
        tracks: Some(TrackConfig::default()),
        shared_budget_bytes: Some(4_000_000),
        ..telemetry_config(SchedulePolicy::DecodePriority, 2)
    });
    engine.run(&stream, &trace.decode).unwrap();
    let telemetry = engine.telemetry().unwrap();
    assert_eq!(
        (telemetry.len(), telemetry.encoded_bytes()),
        (2_560, 109_493),
        "events and log bytes"
    );
    assert_eq!(telemetry.events().len(), telemetry.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The reconstruction contract under random mixed traces: whatever the
    // interleaving, policy, budget, charging mode, chunking, preemption,
    // device model and KV dtype, the event log alone rebuilds the engine
    // report bit-for-bit and stays conserved/monotone, and recording does
    // not change the report.
    #[test]
    fn event_log_rebuilds_the_report_under_random_mixed_interleavings(
        prefill_count in 0usize..10,
        sessions in 0usize..5,
        seed in 0u64..1000,
        budget_pick in 0usize..4,
        policy_pick in 0usize..3,
        share_pick in 0usize..2,
        devices in 1usize..3,
        chunk_pick in 0usize..3,
        preempt_pick in 0usize..3,
        tracks_pick in 0usize..2,
        f16_pick in 0usize..2,
    ) {
        let budget_mb = [1u64, 4, 16, 3072][budget_pick];
        let policy = [
            SchedulePolicy::FairShare,
            SchedulePolicy::DecodePriority,
            SchedulePolicy::PrefillPriority,
        ][policy_pick];
        let share = share_pick == 1;
        let mut trace_config = MixedTraceConfig::poisson(
            vec![Network::BertSmall, Network::T5Mini],
            prefill_count,
            2000.0,
            sessions,
            300.0,
            seed,
        );
        if share {
            trace_config = trace_config.with_shared_system_prompt(64);
        }
        let trace = mixed_trace(&trace_config);
        let preempt = [None, Some(PreemptMode::Hold), Some(PreemptMode::Recompute)][preempt_pick];
        let config = EngineConfig {
            decode: DecodePolicy {
                prefix_share: share,
                kv_dtype: (f16_pick == 1).then_some(KvDtype::F16),
                // Slot preemption displaces prefill only for decode
                // launches that would miss a step deadline.
                step_deadline_s: preempt.map(|_| 0.004),
                ..DecodePolicy::default()
            },
            policy,
            devices,
            shared_budget_bytes: Some(budget_mb * 1_000_000),
            telemetry: Some(TelemetryConfig::default()),
            chunked_prefill: [None, Some(ChunkPolicy::new(64)), Some(ChunkPolicy::new(200))]
                [chunk_pick],
            preempt,
            tracks: (tracks_pick == 1).then(TrackConfig::default),
            ..EngineConfig::default()
        };
        let stream = ServeRequest::stream_from_trace(
            &trace.prefill,
            DataflowKind::MasAttention,
            Some(0.05),
        );
        let mut engine = ServeEngine::new(config.clone());
        let report = engine.run(&stream, &trace.decode).unwrap();
        let telemetry = engine.telemetry().unwrap();

        let stats = telemetry.conservation_check().expect("conserved");
        prop_assert_eq!(stats.prefill_arrivals, stream.len());
        prop_assert_eq!(stats.decode_arrivals, trace.decode.total_steps());
        telemetry.tracks_monotone().expect("monotone per track");

        let rebuilt = telemetry.report().expect("complete event log");
        prop_assert_eq!(rebuilt, report.clone());
        let unrecorded = ServeEngine::new(EngineConfig { telemetry: None, ..config })
            .run(&stream, &trace.decode)
            .unwrap();
        prop_assert_eq!(&unrecorded, &report);

        let json = telemetry.chrome_trace_json();
        let chrome = validate_chrome_trace(&json).expect("valid Chrome trace");
        let launches = report.prefill.batches + report.decode.launches;
        if config.tracks.is_none() {
            prop_assert_eq!(chrome.spans, launches);
        } else {
            // An overlap-committed launch renders one span per stage.
            prop_assert!(chrome.spans >= launches);
        }
    }
}

/// The exported Chrome trace of the mixed scenario on two devices.
fn exported_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let (prefill, decode) = mixed_scenario();
        let mut engine = ServeEngine::new(telemetry_config(SchedulePolicy::FairShare, 2));
        engine.run(&prefill, &decode).unwrap();
        engine.telemetry().unwrap().chrome_trace_json()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `trace_check` feeds the validator files from disk: a corrupted
    // export yields a verdict, never a panic.
    #[test]
    fn a_bit_flip_in_an_exported_trace_never_panics_the_validator(
        flip_pos in 0usize..1_000_000,
        flip_bit in 0u32..8,
    ) {
        let trace = exported_trace();
        let mut bytes = trace.as_bytes().to_vec();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1u8 << flip_bit;
        // Files are read as strings, so only valid UTF-8 reaches the parser.
        if let Ok(corrupted) = String::from_utf8(bytes) {
            let _ = validate_chrome_trace(&corrupted);
        }
    }

    #[test]
    fn a_truncated_exported_trace_is_rejected_without_panicking(cut in 0usize..1_000_000) {
        let trace = exported_trace();
        // Strictly shorter than the trace minus its final newline, so the
        // top-level array is never closed.
        let cut = cut % (trace.len() - 1);
        if trace.is_char_boundary(cut) {
            prop_assert!(validate_chrome_trace(&trace[..cut]).is_err(), "{}-byte prefix", cut);
        }
    }
}
