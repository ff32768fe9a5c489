//! The overlap-aware track executor's serve-level contracts.
//!
//! * **Bit-identity** — `tracks: None` (the default) and the degenerate
//!   single-queue `TrackConfig` replay every report bitwise-equal to the
//!   scalar device model, across policies × budgets × chunking × 1–2
//!   devices (proptest).
//! * **Never worse** — with the real four-track config the engine's
//!   makespan is ≤ the scalar model's on every workload of a
//!   deterministic differential suite (decode-heavy, prefill-heavy,
//!   mixed, chunked), completing exactly the same work, and strictly
//!   better on the DRAM-bound fine-grained decode grid (≥1.2× at a
//!   one-token prompt).
//! * **Per-queue crossover** — the paper's memory-bound/compute-bound
//!   regimes reappear per track: a KV-streaming decode run keeps the
//!   inbound-DMA track the busiest, a large-batch prefill run the MAC
//!   track.
//! * **Telemetry** — stage events validate per-track (monotone tracks,
//!   conserved arrivals, bit-identical report reconstruction), and the
//!   Chrome trace passes `validate_chrome_trace` while genuinely
//!   overlapping stages across different track rows of one device.

use proptest::prelude::*;

use mas_dataflow::DataflowKind;
use mas_serve::{
    ChunkPolicy, EngineConfig, EngineReport, EventKind, SchedulePolicy, ServeEngine, ServeRequest,
    TelemetryConfig, TrackConfig, TrackKind,
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

/// `count` identical prefill requests arriving `gap_s` apart.
fn prefill_stream(count: usize, gap_s: f64, network: Network, batch: usize) -> Vec<ServeRequest> {
    (0..count)
        .map(|i| {
            ServeRequest::new(
                i as u64,
                i as f64 * gap_s,
                DataflowKind::MasAttention,
                network.attention_workload(batch),
                None,
            )
        })
        .collect()
}

/// The differential pair: one scalar run and one run differing only in
/// `tracks`, over the same inputs.
fn run_pair(
    mut config: EngineConfig,
    tracks: TrackConfig,
    prefill: &[ServeRequest],
    decode: &DecodeTrace,
) -> (EngineReport, EngineReport) {
    config.tracks = None;
    let scalar = ServeEngine::new(config.clone())
        .run(prefill, decode)
        .unwrap();
    config.tracks = Some(tracks);
    let overlap = ServeEngine::new(config).run(prefill, decode).unwrap();
    (scalar, overlap)
}

/// Asserts the overlap run finishes no later than the scalar run while
/// completing exactly the same work set.
fn assert_never_worse(scalar: &EngineReport, overlap: &EngineReport, label: &str) {
    assert!(
        overlap.makespan_s <= scalar.makespan_s,
        "{label}: overlap makespan {:.6e} s exceeds scalar {:.6e} s",
        overlap.makespan_s,
        scalar.makespan_s,
    );
    assert_eq!(
        overlap.prefill.completed(),
        scalar.prefill.completed(),
        "{label}: prefill work set changed"
    );
    assert_eq!(
        overlap.decode.completed(),
        scalar.decode.completed(),
        "{label}: decode work set changed"
    );
    assert_eq!(
        overlap.rejected(),
        scalar.rejected(),
        "{label}: reject set changed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The degenerate single-queue config serializes every stage DAG, which
    // is provably never faster than the scalar span — so the min-clamp
    // always commits the scalar candidate and the replay must be
    // bit-identical to `tracks: None`, across the whole configuration
    // grid the scalar engine is pinned on.
    #[test]
    fn degenerate_track_config_replays_bitwise_equal_to_scalar(
        prefill_count in 0usize..8,
        sessions in 0usize..4,
        seed in 0u64..1000,
        budget_pick in 0usize..3,
        policy_pick in 0usize..3,
        devices in 1usize..3,
        chunk_pick in 0usize..2,
    ) {
        let budget_mb = [4u64, 16, 3072][budget_pick];
        let policy = [
            SchedulePolicy::FairShare,
            SchedulePolicy::DecodePriority,
            SchedulePolicy::PrefillPriority,
        ][policy_pick];
        let trace = mixed_trace(&MixedTraceConfig::poisson(
            vec![Network::BertSmall, Network::T5Mini],
            prefill_count,
            2000.0,
            sessions,
            300.0,
            seed,
        ));
        let stream = ServeRequest::stream_from_trace(
            &trace.prefill,
            DataflowKind::MasAttention,
            Some(0.05),
        );
        let config = EngineConfig {
            policy,
            devices,
            shared_budget_bytes: Some(budget_mb * 1_000_000),
            chunked_prefill: if chunk_pick == 1 {
                Some(ChunkPolicy::new(64))
            } else {
                None
            },
            ..EngineConfig::default()
        };
        let (scalar, degenerate) =
            run_pair(config, TrackConfig::degenerate(), &stream, &trace.decode);
        prop_assert_eq!(scalar, degenerate);
    }
}

/// The deterministic differential suite: every workload shape the engine
/// serves, each replayed scalar-vs-overlap on one device with an ample
/// budget (no preemption — displacement decisions depend on start times,
/// which overlap legitimately moves).
#[test]
fn overlap_makespan_never_exceeds_scalar_across_the_differential_suite() {
    let base = EngineConfig {
        devices: 1,
        shared_budget_bytes: Some(3_000_000_000),
        ..EngineConfig::default()
    };
    let empty = DecodeTrace::empty();

    // Decode-heavy: contexts from KV-trivial to KV-dominated.
    for prompt in [1usize, 16, 64, 256, 2000] {
        let decode = lockstep_decode(8, 12, prompt, 1e-6);
        let (scalar, overlap) = run_pair(base.clone(), TrackConfig::default(), &[], &decode);
        assert_never_worse(&scalar, &overlap, &format!("decode prompt={prompt}"));
    }

    // Prefill-heavy: compute-bound (BertBase) and smaller (BertSmall).
    for (network, batch) in [(Network::BertBase, 4), (Network::BertSmall, 1)] {
        let prefill = prefill_stream(12, 1e-5, network, batch);
        let (scalar, overlap) = run_pair(base.clone(), TrackConfig::default(), &prefill, &empty);
        assert_never_worse(&scalar, &overlap, &format!("prefill {network:?}"));
    }

    // Mixed random interleavings.
    for seed in [7u64, 42, 1234] {
        let trace = mixed_trace(&MixedTraceConfig::poisson(
            vec![Network::BertSmall, Network::T5Mini],
            8,
            2000.0,
            3,
            300.0,
            seed,
        ));
        let stream =
            ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, None);
        let (scalar, overlap) =
            run_pair(base.clone(), TrackConfig::default(), &stream, &trace.decode);
        assert_never_worse(&scalar, &overlap, &format!("mixed seed={seed}"));
    }

    // Chunked prefill chains.
    let chunked = EngineConfig {
        chunked_prefill: Some(ChunkPolicy::new(64)),
        ..base.clone()
    };
    let prefill = prefill_stream(4, 1e-5, Network::BertBase, 2);
    let decode = lockstep_decode(4, 8, 64, 1e-4);
    let (scalar, overlap) = run_pair(chunked, TrackConfig::default(), &prefill, &decode);
    assert_never_worse(&scalar, &overlap, "chunked mixed");
}

/// The DRAM-bound fine-grained decode grid: short contexts make the
/// appended-row writeback a fixed ~25% of each step's traffic, so routing
/// the two DMA directions onto separate queues (plus pipelining launches
/// on the track clocks) must beat the scalar sum-of-directions model
/// strictly. On the 16-session × 8-step sweep the win decays toward 1.0×
/// as the KV stream swamps the fixed writeback: overlap is never worse
/// from prompt 1 to 1024, and wins ≥1.2× at prompt 1.
#[test]
fn overlap_strictly_beats_scalar_on_dram_bound_fine_grained_decode() {
    let config = EngineConfig {
        devices: 1,
        shared_budget_bytes: Some(3_000_000_000),
        ..EngineConfig::default()
    };
    let decode = lockstep_decode(16, 24, 1, 1e-7);
    let (scalar, overlap) = run_pair(config.clone(), TrackConfig::default(), &[], &decode);
    assert_never_worse(&scalar, &overlap, "dram-bound decode");
    assert!(
        overlap.makespan_s < 0.95 * scalar.makespan_s,
        "direction-split overlap must strictly beat the scalar model on \
         write-heavy short-context decode: {:.6e} s vs {:.6e} s",
        overlap.makespan_s,
        scalar.makespan_s,
    );

    for prompt in [1usize, 8, 64, 256, 1024] {
        let decode = lockstep_decode(16, 8, prompt, 1e-7);
        let (scalar, overlap) = run_pair(config.clone(), TrackConfig::default(), &[], &decode);
        assert_never_worse(&scalar, &overlap, &format!("decode sweep prompt={prompt}"));
        let win = scalar.makespan_s / overlap.makespan_s;
        assert!(
            prompt != 1 || win >= 1.2,
            "the writeback-dominated prompt-1 leg must win >= 1.2x, got {win:.3}x"
        );
    }
}

/// The paper's memory-bound/compute-bound crossover, reproduced per
/// queue: the busiest track of a KV-streaming decode run is inbound DMA,
/// of a large compute-bound prefill run the MAC queue.
#[test]
fn track_busy_reproduces_the_memory_compute_crossover_per_queue() {
    let config = EngineConfig {
        devices: 1,
        shared_budget_bytes: Some(3_000_000_000),
        tracks: Some(TrackConfig::default()),
        ..EngineConfig::default()
    };

    let mut engine = ServeEngine::new(config.clone());
    engine.run(&[], &lockstep_decode(8, 16, 512, 1e-6)).unwrap();
    let stats = engine.track_stats().expect("tracks configured")[0];
    let busy = stats.busy_s();
    let busiest = (0..busy.len()).max_by(|&a, &b| busy[a].total_cmp(&busy[b]));
    assert_eq!(
        busiest,
        Some(TrackKind::DmaIn.index()),
        "KV-streaming decode must be DMA-in bound per queue: {busy:?}"
    );

    // Fine-grained short-context decode: writeback is a fixed quarter of
    // each step's traffic, so the flow-shop candidate strictly wins and
    // the commit counter proves the overlap path engaged — while inbound
    // DMA stays the busiest queue.
    let mut engine = ServeEngine::new(config.clone());
    engine.run(&[], &lockstep_decode(16, 24, 1, 1e-7)).unwrap();
    let stats = engine.track_stats().expect("tracks configured")[0];
    assert!(
        stats.overlap_launches > 0,
        "short-context decode must commit overlap placements"
    );
    let busy = stats.busy_s();
    let busiest = (0..busy.len()).max_by(|&a, &b| busy[a].total_cmp(&busy[b]));
    assert_eq!(busiest, Some(TrackKind::DmaIn.index()), "{busy:?}");

    let mut engine = ServeEngine::new(config);
    engine
        .run(
            &prefill_stream(8, 1e-5, Network::BertBase, 4),
            &DecodeTrace::empty(),
        )
        .unwrap();
    let stats = engine.track_stats().expect("tracks configured")[0];
    let busy = stats.busy_s();
    let busiest = (0..busy.len()).max_by(|&a, &b| busy[a].total_cmp(&busy[b]));
    assert_eq!(
        busiest,
        Some(TrackKind::Mac.index()),
        "compute-bound prefill must be MAC bound per queue: {busy:?}"
    );
}

/// Telemetry under the track executor: the event log stays monotone per
/// track and conserved, reconstructs the engine report bit-for-bit with
/// stage events present, and the Chrome export passes the per-row overlap
/// validator while stages on *different* tracks of one device really do
/// overlap in time.
#[test]
fn stage_events_validate_and_overlap_across_track_rows() {
    let mut engine = ServeEngine::new(EngineConfig {
        devices: 1,
        shared_budget_bytes: Some(3_000_000_000),
        tracks: Some(TrackConfig::default()),
        telemetry: Some(TelemetryConfig::default()),
        ..EngineConfig::default()
    });
    let prefill = prefill_stream(4, 1e-5, Network::BertSmall, 1);
    let decode = lockstep_decode(8, 12, 64, 1e-6);
    let report = engine.run(&prefill, &decode).unwrap();
    let telemetry = engine.telemetry().unwrap();

    telemetry.tracks_monotone().expect("per-track monotonicity");
    telemetry.conservation_check().expect("conserved arrivals");
    assert_eq!(telemetry.report().expect("complete log"), report);

    // Collect stage spans; they must exist and overlap across tracks.
    let mut stages: Vec<(TrackKind, f64, f64)> = Vec::new();
    for event in telemetry.events() {
        if let EventKind::LaunchStage {
            track,
            start_s,
            end_s,
            device: 0,
            ..
        } = &event.kind
        {
            stages.push((*track, *start_s, *end_s));
        }
    }
    assert!(!stages.is_empty(), "overlap commits must emit stage events");
    let cross_track_overlap = stages.iter().any(|&(ta, sa, ea)| {
        stages
            .iter()
            .any(|&(tb, sb, eb)| ta != tb && sa < eb && sb < ea)
    });
    assert!(
        cross_track_overlap,
        "stages on different tracks of one device must overlap in time"
    );

    // The Chrome export is per-row serial even though the rows overlap.
    let json = telemetry.chrome_trace_json();
    let stats = mas_serve::validate_chrome_trace(&json).expect("valid trace");
    assert!(stats.spans > 0);
    // Device 0 exports more than one span row: its scalar row plus the
    // track rows the staged launches landed on.
    assert!(
        stats.span_tracks > 1,
        "track rows must appear as separate tids: {stats:?}"
    );
}
