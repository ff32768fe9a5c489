//! Mixed prefill+decode behavior of the unified engine: the iteration-level
//! scheduling policy observably moves per-class tail latency, f16 KV
//! storage never worsens DRAM-bound decode tail latency, the shared
//! memory budget couples the two classes in both directions, and the budget
//! accounting is violation-free under proptest-generated interleavings.

use proptest::prelude::*;

use mas_dataflow::{AttentionWorkload, DataflowKind, DecodeStep};
use mas_serve::{
    BatchPolicy, ChunkKey, ChunkPolicy, DecodePolicy, EngineConfig, EventKind, KvDtype, LaunchKey,
    PreemptMode, PreemptVictim, RejectReason, SchedulePolicy, ServeEngine, ServeRequest,
    TelemetryConfig, TrackConfig,
};
use mas_sim::HardwareConfig;
use mas_workloads::{
    mixed_trace, overload_burst_trace, DecodeSessionSpec, DecodeStepEvent, DecodeTrace,
    MixedTraceConfig, Network, OverloadBurstConfig,
};

fn hw() -> HardwareConfig {
    HardwareConfig::edge_default()
}

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

fn engine(policy: SchedulePolicy) -> ServeEngine {
    ServeEngine::new(EngineConfig {
        policy,
        ..EngineConfig::default()
    })
}

/// The policy scenario: decode launches (ready at tick + window) and
/// prefill batches (ready 1 ms later) contend for one device at every tick.
/// Long decode contexts make the batched cache stream DRAM-bound (~ms per
/// launch), so each class can visibly delay the other.
fn policy_scenario() -> (Vec<ServeRequest>, DecodeTrace) {
    // 12 sessions < max_steps_per_launch, so the decode launch waits out
    // its window instead of fill-dispatching past the policy ordering.
    let decode = lockstep_decode(12, 30, 2000, 0.01);
    // 6 requests per burst < max_batch 8, so prefill waits out its window
    // and meets the decode launch at the next tick's dispatch instant. One
    // fewer burst than decode ticks, so every prefill batch dispatches at a
    // policy-ordered event rather than in the end-of-trace flush.
    let prefill = prefill_bursts(
        29,
        6,
        0.001,
        0.01,
        &Network::BertSmall.attention_workload(1),
    );
    (prefill, decode)
}

#[test]
fn scheduling_policy_observably_moves_per_class_p99() {
    let (prefill, decode) = policy_scenario();
    let run = |policy: SchedulePolicy| engine(policy).run(&prefill, &decode).unwrap();
    let decode_first = run(SchedulePolicy::DecodePriority);
    let prefill_first = run(SchedulePolicy::PrefillPriority);
    let fair = run(SchedulePolicy::FairShare);

    // The policy reorders contended launch slots; it never changes what
    // completes.
    for report in [&decode_first, &prefill_first, &fair] {
        assert_eq!(report.decode.completed(), 360, "{}", report.summary());
        assert_eq!(report.prefill.completed(), 174, "{}", report.summary());
        assert_eq!(report.rejected(), 0, "{}", report.summary());
        assert!(report.mem_peak_bytes <= report.mem_budget_bytes);
    }

    let d_dp = decode_first.decode_latency().unwrap();
    let d_pp = prefill_first.decode_latency().unwrap();
    let p_dp = decode_first.prefill_latency().unwrap();
    let p_pp = prefill_first.prefill_latency().unwrap();
    // Decode-priority must visibly protect decode p99 against the prefill
    // burst, and prefill-priority must visibly protect prefill p99.
    assert!(
        d_pp.p99_s > 1.5 * d_dp.p99_s,
        "prefill-priority decode p99 ({:.3} ms) must exceed decode-priority \
         decode p99 ({:.3} ms) by >1.5x",
        d_pp.p99_s * 1e3,
        d_dp.p99_s * 1e3,
    );
    assert!(
        p_dp.p99_s > p_pp.p99_s,
        "decode-priority prefill p99 ({:.3} ms) must exceed prefill-priority \
         prefill p99 ({:.3} ms)",
        p_dp.p99_s * 1e3,
        p_pp.p99_s * 1e3,
    );

    // Decode-priority keeps decode p99 within 2x of the decode-only
    // baseline (the co-scheduling acceptance bar).
    let baseline = engine(SchedulePolicy::DecodePriority)
        .run(&[], &decode)
        .unwrap();
    let d_base = baseline.decode_latency().unwrap();
    assert!(
        d_dp.p99_s <= 2.0 * d_base.p99_s,
        "decode-priority decode p99 ({:.3} ms) must stay within 2x of the \
         decode-only baseline ({:.3} ms)",
        d_dp.p99_s * 1e3,
        d_base.p99_s * 1e3,
    );

    // The decode-only leg's 2000-token contexts are DRAM-bound, so storing
    // the KV cache at f16 (half the cache-stream bytes) must not worsen
    // decode p99 over f32.
    let decode_p99 = |kv_dtype: KvDtype| {
        let decode_policy = DecodePolicy {
            kv_dtype: Some(kv_dtype),
            ..DecodePolicy::default()
        };
        ServeEngine::new(EngineConfig {
            decode: decode_policy,
            ..EngineConfig::default()
        })
        .run(&[], &decode)
        .unwrap()
        .decode_latency()
        .unwrap()
        .p99_s
    };
    let (f32_p99, f16_p99) = (decode_p99(KvDtype::F32), decode_p99(KvDtype::F16));
    assert!(
        f16_p99 <= f32_p99,
        "f16 KV decode p99 ({:.3} ms) must not exceed f32's ({:.3} ms)",
        f16_p99 * 1e3,
        f32_p99 * 1e3,
    );

    // Determinism: the mixed replay is a pure function of its inputs.
    assert_eq!(decode_first, run(SchedulePolicy::DecodePriority));
}

#[test]
fn decode_residency_sheds_prefill_under_a_shared_budget() {
    let hw = hw();
    let prefill_workload = Network::BertSmall.attention_workload(1);
    let prefill_charge = 4 * prefill_workload.operand_bytes(hw.element_bytes);
    // One decode session whose 128 allocated blocks (2048 tokens) fill the
    // budget to within half a prefill charge.
    let session_tokens = 2048usize;
    let session_bytes =
        DecodeStep::new("s", 1, 8, session_tokens, 64).kv_cache_bytes(hw.element_bytes);
    let budget = session_bytes + prefill_charge / 2;

    let decode = lockstep_decode(1, 8, session_tokens - 8, 0.01);
    // The prefill request arrives while the session is resident.
    let prefill = vec![ServeRequest::new(
        0,
        0.035,
        DataflowKind::MasAttention,
        prefill_workload,
        None,
    )];
    let config = EngineConfig {
        shared_budget_bytes: Some(budget),
        ..EngineConfig::default()
    };

    let mixed = ServeEngine::new(config.clone())
        .run(&prefill, &decode)
        .unwrap();
    assert_eq!(mixed.decode.sessions_admitted, 1, "{}", mixed.summary());
    assert_eq!(mixed.prefill.completed(), 0, "{}", mixed.summary());
    assert_eq!(mixed.prefill.rejected.len(), 1);
    assert_eq!(
        mixed.prefill.rejected[0].reason,
        RejectReason::MemoryPressure
    );
    assert!(mixed.mem_peak_bytes <= budget);

    // Without the decode residency the same request fits the same budget.
    let alone = ServeEngine::new(config)
        .run(&prefill, &DecodeTrace::empty())
        .unwrap();
    assert_eq!(alone.prefill.completed(), 1);
    assert!(alone.prefill.rejected.is_empty());
}

#[test]
fn prefill_pressure_sheds_decode_under_a_shared_budget() {
    let hw = hw();
    let prefill_workload = Network::BertSmall.attention_workload(1);
    let prefill_charge = 4 * prefill_workload.operand_bytes(hw.element_bytes);
    let session_tokens = 2048usize;
    let session_bytes =
        DecodeStep::new("s", 1, 8, session_tokens, 64).kv_cache_bytes(hw.element_bytes);
    // Ten queued prefill charges fill the budget; the session alone fits.
    let budget = 10 * prefill_charge + session_bytes / 2;

    // Burst of 10 at t=0 (queued until their batch completes); the session
    // opens at 1 ms, mid-pressure.
    let prefill = prefill_bursts(1, 10, 0.0, 0.01, &prefill_workload);
    let mut decode = lockstep_decode(1, 4, session_tokens - 4, 0.01);
    for event in &mut decode.steps {
        event.arrival_s += 0.001;
    }
    let config = EngineConfig {
        shared_budget_bytes: Some(budget),
        ..EngineConfig::default()
    };

    let mixed = ServeEngine::new(config.clone())
        .run(&prefill, &decode)
        .unwrap();
    assert!(mixed.prefill.completed() > 0, "{}", mixed.summary());
    assert_eq!(
        mixed.decode.sessions_admitted,
        0,
        "the prefill burst must squeeze the session out: {}",
        mixed.summary()
    );
    assert_eq!(mixed.decode.rejected_sessions.len(), 1);
    assert!(mixed.mem_peak_bytes <= budget);

    // Decode-only under the same budget: the session is admitted.
    let alone = ServeEngine::new(config).run(&[], &decode).unwrap();
    assert_eq!(alone.decode.sessions_admitted, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Budget-accounting invariants under random mixed interleavings: every
    // work item is accounted exactly once, the shared peak never exceeds
    // the budget, the peak split sums, and the replay is deterministic.
    #[test]
    fn budget_accounting_holds_under_random_mixed_interleavings(
        prefill_count in 0usize..10,
        sessions in 0usize..5,
        seed in 0u64..1000,
        budget_pick in 0usize..4,
        policy_pick in 0usize..3,
    ) {
        let budget_mb = [1u64, 4, 16, 3072][budget_pick];
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
        let config = EngineConfig {
            policy,
            shared_budget_bytes: Some(budget_mb * 1_000_000),
            ..EngineConfig::default()
        };
        let stream = ServeRequest::stream_from_trace(
            &trace.prefill,
            DataflowKind::MasAttention,
            Some(0.05),
        );
        let report = ServeEngine::new(config.clone()).run(&stream, &trace.decode).unwrap();

        // Conservation: every prefill request and every decode step is
        // either completed or rejected, exactly once.
        prop_assert_eq!(
            report.prefill.completed() + report.prefill.rejected.len(),
            stream.len()
        );
        prop_assert_eq!(
            report.decode.completed() + report.decode.rejected.len(),
            trace.decode.total_steps()
        );

        // Budget: the shared peak never exceeds the enforced budget, and
        // its per-class split is exact.
        prop_assert!(report.mem_peak_bytes <= report.mem_budget_bytes);
        prop_assert_eq!(
            report.mem_peak_bytes,
            report.mem_peak_prefill_bytes + report.mem_peak_decode_bytes
        );
        // The decode-class KV peak can never exceed the shared peak's
        // decode share at some instant, which itself is bounded by the
        // budget.
        prop_assert!(report.decode.kv_peak_bytes <= report.mem_budget_bytes);

        // Determinism: a second replay is bit-identical.
        let again = ServeEngine::new(config).run(&stream, &trace.decode).unwrap();
        prop_assert_eq!(report, again);
    }
}

/// The overload scenario's engine config: decode-priority scheduling with
/// a 4 ms per-step SLO, and chunked prefill + iteration-level preemption
/// either both off (the head-of-line-blocking shape) or both on.
fn overload_config(chunk: Option<ChunkPolicy>, preempt: Option<PreemptMode>) -> EngineConfig {
    EngineConfig {
        policy: SchedulePolicy::DecodePriority,
        decode: DecodePolicy {
            step_deadline_s: Some(0.004),
            ..DecodePolicy::default()
        },
        chunked_prefill: chunk,
        preempt,
        ..EngineConfig::default()
    }
}

/// The overload acceptance scenario: a convoy of distinct multi-ms
/// monolithic prefills lands mid-stream on steady decode traffic. With
/// chunking and preemption off, decode launches wall behind whole prefill
/// services (unbounded head-of-line blocking); with both on, decode p99
/// stays within 2x of the uncontended decode-only baseline while the same
/// work completes, the telemetry replay stays bit-identical, and no budget
/// release is ever dropped.
#[test]
fn chunked_prefill_and_preemption_bound_decode_tail_under_overload() {
    let trace = overload_burst_trace(&OverloadBurstConfig::new(Network::Llama3_8B));
    let stream = ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, None);
    let chunk = Some(ChunkPolicy::new(64));
    let preempt = Some(PreemptMode::Hold);

    let baseline = ServeEngine::new(overload_config(chunk, preempt))
        .run(&[], &trace.decode)
        .unwrap();
    let base_p99 = baseline.decode_latency().unwrap().p99_s;

    let off = ServeEngine::new(overload_config(None, None))
        .run(&stream, &trace.decode)
        .unwrap();
    let off_p99 = off.decode_latency().unwrap().p99_s;
    assert!(
        off_p99 > 2.0 * base_p99,
        "without chunking/preemption the convoy must blow decode p99 past \
         2x the decode-only baseline ({:.3} ms vs {:.3} ms)",
        off_p99 * 1e3,
        base_p99 * 1e3,
    );
    assert_eq!(off.preemptions_prefill + off.preemptions_decode, 0);

    let mut engine = ServeEngine::new(EngineConfig {
        telemetry: Some(TelemetryConfig::default()),
        ..overload_config(chunk, preempt)
    });
    let on = engine.run(&stream, &trace.decode).unwrap();
    let on_p99 = on.decode_latency().unwrap().p99_s;
    assert!(
        on_p99 <= 2.0 * base_p99,
        "chunking + preemption must bound decode p99 to 2x the decode-only \
         baseline ({:.3} ms vs {:.3} ms)",
        on_p99 * 1e3,
        base_p99 * 1e3,
    );
    assert!(on.preemptions_prefill > 0, "{}", on.summary());

    // Both shapes complete the same work: bounding the tail sheds nothing.
    for report in [&off, &on] {
        assert_eq!(report.decode.completed(), trace.decode.total_steps());
        assert_eq!(report.prefill.completed(), stream.len());
        assert_eq!(report.rejected(), 0, "{}", report.summary());
    }

    // Telemetry replays the preempting run bit-identically, no release is
    // ever dropped, and the event log carries exactly the counted launch
    // displacements.
    let telemetry = engine.telemetry().unwrap();
    assert_eq!(telemetry.report().expect("complete event log"), on);
    assert_eq!(telemetry.release_drops(), 0);
    let preempted_launches = telemetry
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Preempted {
                    victim: PreemptVictim::Launch { .. }
                }
            )
        })
        .count();
    assert_eq!(preempted_launches, on.preemptions_prefill);

    // Determinism: telemetry never perturbs the replay.
    let again = ServeEngine::new(overload_config(chunk, preempt))
        .run(&stream, &trace.decode)
        .unwrap();
    assert_eq!(on, again);
}

/// One decode session of the KV-preemption scenario: a 255-token prompt
/// at 2 KiB/token (f16 KV), so admission charges 16 blocks (512 KiB) and
/// the session's second step crosses into a 17th block.
fn kv_swap_spec(id: u64, start_s: f64, steps: usize) -> DecodeSessionSpec {
    DecodeSessionSpec {
        id,
        network: Network::BertSmall,
        start_s,
        heads: 8,
        kv_heads: 8,
        embed: 64,
        prompt_len: 255,
        steps,
        prefix_group: None,
        shared_prefix_len: 0,
    }
}

/// KV-side preemption: when a session's block growth cannot fit the shared
/// pool, an idle session is swapped out (charges freed, residency stashed)
/// instead of shedding the step, and it resumes at its next surviving
/// step. `Hold` restores the stash off the timeline; `Recompute`
/// additionally re-prices the evicted context as prefill work folded into
/// the resuming launch, so the resumed step is strictly slower.
#[test]
fn kv_pressure_swaps_idle_session_and_resumes_it() {
    // The budget fits both admissions (1 MiB) plus one growth block, so
    // the second session's growth at 0.07 must evict the idle first
    // session rather than shed the step.
    let step_times = [
        (0u64, 0usize, 0.01),
        (0, 1, 0.02), // session 0 grows its 17th block
        (1, 0, 0.06),
        (1, 1, 0.07), // session 1's growth evicts the idle session 0
        (0, 2, 0.20), // session 0 resumes here
        (0, 3, 0.21),
    ];
    let trace = DecodeTrace {
        sessions: vec![kv_swap_spec(0, 0.0, 4), kv_swap_spec(1, 0.05, 2)],
        steps: step_times
            .iter()
            .map(|&(session_id, step_index, arrival_s)| DecodeStepEvent {
                session_id,
                step_index,
                arrival_s,
            })
            .collect(),
    };
    let run = |mode: PreemptMode| {
        let mut engine = ServeEngine::new(EngineConfig {
            shared_budget_bytes: Some(1_100_000),
            preempt: Some(mode),
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        let report = engine.run(&[], &trace).unwrap();
        let telemetry = engine.telemetry().unwrap();
        assert_eq!(telemetry.report().expect("complete event log"), report);
        assert_eq!(telemetry.release_drops(), 0);
        let swaps = telemetry
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Preempted {
                        victim: PreemptVictim::Session { session_id: 0, .. }
                    }
                )
            })
            .count();
        let resumes = telemetry
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SessionResumed { session_id: 0, .. }))
            .count();
        assert_eq!((swaps, resumes), (1, 1), "{}", report.summary());
        report
    };
    let hold = run(PreemptMode::Hold);
    let recompute = run(PreemptMode::Recompute);
    for report in [&hold, &recompute] {
        assert_eq!(report.decode.completed(), 6, "{}", report.summary());
        assert_eq!(report.rejected(), 0, "{}", report.summary());
        assert_eq!(report.preemptions_decode, 1);
        assert_eq!(report.preemptions_prefill, 0);
    }
    let step_latency = |report: &mas_serve::EngineReport, step_index: usize| {
        let o = report
            .decode
            .outcomes
            .iter()
            .find(|o| o.session_id == 0 && o.step_index == step_index)
            .expect("step completed");
        o.completion_s - o.arrival_s
    };
    // The resumed step pays the recompute cost; before the swap the two
    // modes price identically.
    assert!(step_latency(&recompute, 2) > step_latency(&hold, 2));
    assert_eq!(step_latency(&recompute, 0), step_latency(&hold, 0));
}

/// A recompute resume re-prices the evicted context as one prefill chunk.
/// Over a 10⁸-token context and 4,096 query heads its MAC and softmax
/// counts pass `u64::MAX`: they must saturate, not panic (debug) or wrap
/// to a smaller price (release), so the resumed step never costs less than
/// the resume of a shorter context.
#[test]
fn recompute_resume_of_a_huge_context_prices_without_overflow() {
    let resumed_service_s = |prompt_len: usize| {
        let spec = |id, start_s, heads, prompt_len| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s,
            heads,
            kv_heads: 1,
            embed: 1,
            prompt_len,
            steps: 2,
            prefix_group: None,
            shared_prefix_len: 0,
        };
        let step = |session_id, step_index, arrival_s| DecodeStepEvent {
            session_id,
            step_index,
            arrival_s,
        };
        // The budget is the huge session's first-step blocks plus one
        // block, so the small session's growth at 1.1 s evicts it.
        let decode = DecodePolicy {
            kv_dtype: Some(KvDtype::F16),
            window_s: 0.0,
            ..DecodePolicy::default()
        };
        let first = DecodeStep::new("a", 1, 4096, prompt_len + 1, 1).with_kv_heads(1);
        let bt = decode.kv_block_tokens;
        let budget = first.paged_kv_bytes(bt, 2) + first.kv_block_bytes(bt, 2);
        let trace = DecodeTrace {
            sessions: vec![spec(1, 0.0, 4096, prompt_len), spec(0, 1.0, 1, 15)],
            steps: vec![
                step(1, 0, 0.0),
                step(0, 0, 1.0),
                step(0, 1, 1.1),
                step(1, 1, 100.0),
            ],
        };
        let report = ServeEngine::new(EngineConfig {
            decode,
            preempt: Some(PreemptMode::Recompute),
            shared_budget_bytes: Some(budget),
            ..EngineConfig::default()
        })
        .run(&[], &trace)
        .unwrap();
        assert_eq!(report.preemptions_decode, 1, "{}", report.summary());
        assert_eq!(report.decode.completed(), 4, "{}", report.summary());
        let resumed = (report.decode.outcomes.iter())
            .find(|o| o.session_id == 1 && o.step_index == 1)
            .expect("the resumed step completes");
        resumed.service_s
    };
    let (shorter, full) = (
        resumed_service_s(90_000_000),
        resumed_service_s(100_000_000),
    );
    assert!(
        full >= shorter,
        "a 10^8-token resume priced {full} s, below a 9*10^7-token one's {shorter} s"
    );
}

/// A zero batching window disables coalescing, and chunked prefill must
/// preserve that: each request lowers into its own chunk chain whose
/// launches dispatch in chain order (indices 0..of ascending, starts
/// nondecreasing) with exactly one member request each.
#[test]
fn zero_window_dispatches_chunks_in_chain_order_without_coalescing() {
    let requests = vec![
        ServeRequest::new(
            0,
            0.001,
            DataflowKind::MasAttention,
            Network::BertSmall.attention_workload(1),
            None,
        ),
        ServeRequest::new(
            1,
            0.002,
            DataflowKind::MasAttention,
            Network::BertBase.attention_workload(1),
            None,
        ),
    ];
    let mut engine = ServeEngine::new(EngineConfig {
        batching: BatchPolicy {
            window_s: 0.0,
            ..BatchPolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(128)),
        telemetry: Some(TelemetryConfig::default()),
        ..EngineConfig::default()
    });
    let empty = DecodeTrace {
        sessions: Vec::new(),
        steps: Vec::new(),
    };
    let report = engine.run(&requests, &empty).unwrap();
    assert_eq!(report.prefill.completed(), 2, "{}", report.summary());
    assert_eq!(report.rejected(), 0);

    // Chunk launches in event order, per chain: indices must ascend 0..of
    // contiguously and starts must never regress within a chain.
    let telemetry = engine.telemetry().unwrap();
    let mut per_chain: std::collections::BTreeMap<u64, Vec<(u32, u32, u32, f64)>> =
        std::collections::BTreeMap::new();
    for event in telemetry.events() {
        if let EventKind::LaunchDispatched {
            key: LaunchKey::PrefillChunk(chunk_key),
            members,
            start_s,
            ..
        } = event.kind
        {
            per_chain.entry(chunk_key.chain).or_default().push((
                chunk_key.index,
                chunk_key.of,
                members,
                start_s,
            ));
        }
    }
    // Both 512-token requests chunk at 128 tokens: two chains of four.
    assert_eq!(per_chain.len(), 2);
    for chunks in per_chain.values() {
        assert_eq!(chunks.len(), 4);
        for (position, &(index, of, members, start_s)) in chunks.iter().enumerate() {
            assert_eq!(index as usize, position, "chain order violated");
            assert_eq!(of, 4);
            assert_eq!(members, 1, "zero window must never coalesce");
            if position > 0 {
                assert!(start_s >= chunks[position - 1].3);
            }
        }
    }
}

/// `DecodePolicy::max_steps_per_launch == 0` is normalized to 1 (every
/// step launches alone) rather than wedging the launch-full check.
#[test]
fn zero_max_steps_per_launch_behaves_as_one() {
    let decode = lockstep_decode(3, 10, 512, 0.005);
    let run = |max_steps: usize| {
        ServeEngine::new(EngineConfig {
            decode: DecodePolicy {
                max_steps_per_launch: max_steps,
                ..DecodePolicy::default()
            },
            ..EngineConfig::default()
        })
        .run(&[], &decode)
        .unwrap()
    };
    let zero = run(0);
    assert_eq!(zero.decode.completed(), 30, "{}", zero.summary());
    assert_eq!(zero, run(1));
    // The normalization is observable: real batching prices differently.
    assert_ne!(zero, run(16));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // A chunk policy that lowers every batch into exactly one chunk (a
    // zero budget means "whole prompt") must replay bit-identically to
    // the monolithic engine with chunking disabled.
    #[test]
    fn single_chunk_layouts_replay_bitwise_equal_to_monolithic(
        prefill_count in 1usize..8,
        sessions in 0usize..4,
        seed in 0u64..1000,
        whole_prompt in 0usize..2,
    ) {
        let chunk_tokens = if whole_prompt == 1 { 0 } else { 1 << 20 };
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
        let monolithic = ServeEngine::new(EngineConfig::default())
            .run(&stream, &trace.decode)
            .unwrap();
        let chunked = ServeEngine::new(EngineConfig {
            chunked_prefill: Some(ChunkPolicy::new(chunk_tokens)),
            ..EngineConfig::default()
        })
        .run(&stream, &trace.decode)
        .unwrap();
        prop_assert_eq!(monolithic, chunked);
    }
}

/// Session ids are labels, not slab indices. A seeded mixed trace whose
/// sessions are relabelled with sparse ids, and listed in reverse, replays
/// to the dense-id report once the ids are mapped back: under the default
/// configuration, and under the overload mechanisms with a budget tight
/// enough that `Hold` preemption evicts sessions. The relabelling keeps the
/// ids' order, so the largest-id-first victim order is unchanged.
#[test]
fn sparse_session_ids_replay_like_dense_ones() {
    let trace = mixed_trace(&MixedTraceConfig::poisson(
        vec![Network::BertSmall, Network::T5Mini],
        30,
        150.0,
        10,
        1000.0,
        7919,
    ));
    let stream =
        ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, Some(0.05));
    let sparse = |id: u64| id * 1_000_003 + 17;
    let dense = |id: u64| (id - 17) / 1_000_003;
    let mut relabelled = trace.decode.clone();
    relabelled.sessions.reverse();
    for spec in &mut relabelled.sessions {
        spec.id = sparse(spec.id);
    }
    for step in &mut relabelled.steps {
        step.session_id = sparse(step.session_id);
    }
    let overload = EngineConfig {
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
        ..EngineConfig::default()
    };
    for (label, config) in [("default", EngineConfig::default()), ("overload", overload)] {
        let expected = ServeEngine::new(config.clone())
            .run(&stream, &trace.decode)
            .unwrap();
        let mut report = ServeEngine::new(config).run(&stream, &relabelled).unwrap();
        assert!(report.decode.completed() > 0, "{label}");
        if label == "overload" {
            assert!(expected.preemptions_decode > 1, "{}", expected.summary());
        }
        for outcome in &mut report.decode.outcomes {
            outcome.session_id = dense(outcome.session_id);
        }
        for step in &mut report.decode.rejected {
            step.session_id = dense(step.session_id);
        }
        for (id, _) in &mut report.decode.rejected_sessions {
            *id = dense(*id);
        }
        assert_eq!(report, expected, "{label}");
    }
}

/// Chunk chains keep their order when a chunk is displaced. Under decode
/// priority with `Hold` preemption and the track executor, an overloaded
/// mixed trace keeps several chains live at once while decode launches
/// displace staged chunks mid-chain. From the event log (one device, so
/// every prefill-class placement hardens the staged incumbent first and
/// the log lists chunk launches in placement order):
///
/// * each chain's chunks dispatch in index order, each ready no earlier
///   than its predecessor's completion;
/// * chunks after a chain's first, which place from the ready-chunk queue,
///   dispatch in strictly ascending `(ready, chain id)` order: none places
///   while another chain's chunk that was ready earlier, or at the same
///   instant with a lower chain id, is still waiting. (Chunk 0 places with
///   its batch, by window or fill, and is not ordered against the queue.)
#[test]
fn chunk_chains_keep_their_order_when_a_chunk_is_displaced() {
    let trace = mixed_trace(
        &MixedTraceConfig::poisson(
            vec![Network::BertSmall, Network::T5Mini, Network::Llama3_8B],
            300,
            3_000.0,
            60,
            1_000.0,
            42,
        )
        .with_shared_system_prompt(64),
    );
    let stream =
        ServeRequest::stream_from_trace(&trace.prefill, DataflowKind::MasAttention, Some(0.05));
    let mut engine = ServeEngine::new(EngineConfig {
        policy: SchedulePolicy::DecodePriority,
        decode: DecodePolicy {
            step_deadline_s: Some(0.003),
            ..DecodePolicy::default()
        },
        chunked_prefill: Some(ChunkPolicy::new(64)),
        preempt: Some(PreemptMode::Hold),
        tracks: Some(TrackConfig::default()),
        telemetry: Some(TelemetryConfig::default()),
        ..EngineConfig::default()
    });
    let report = engine.run(&stream, &trace.decode).unwrap();
    assert_eq!(report.device_util.len(), 1);
    assert!(report.preemptions_prefill > 0, "{}", report.summary());

    // Every chunk launch in log order, and how many chunks were displaced
    // while their chain still had chunks after them.
    struct ChunkLaunch {
        key: ChunkKey,
        ready_s: f64,
        start_s: f64,
        completion_s: f64,
    }
    let mut chunks: Vec<ChunkLaunch> = Vec::new();
    let mut displaced_mid_chain = 0;
    for event in engine.telemetry().unwrap().events() {
        match event.kind {
            EventKind::LaunchDispatched {
                key: LaunchKey::PrefillChunk(key),
                ready_s,
                start_s,
                completion_s,
                ..
            } => chunks.push(ChunkLaunch {
                key,
                ready_s,
                start_s,
                completion_s,
            }),
            EventKind::Preempted {
                victim:
                    PreemptVictim::Launch {
                        key: LaunchKey::PrefillChunk(key),
                        ..
                    },
            } if key.index + 1 < key.of => displaced_mid_chain += 1,
            _ => {}
        }
    }
    assert!(displaced_mid_chain > 0, "no chunk was displaced mid-chain");

    // Per chain: indices 0..of in order, each ready at or after its
    // predecessor's completion; and chains overlap in time.
    let mut per_chain: std::collections::BTreeMap<u64, Vec<&ChunkLaunch>> =
        std::collections::BTreeMap::new();
    for chunk in &chunks {
        per_chain.entry(chunk.key.chain).or_default().push(chunk);
    }
    for (chain, launches) in &per_chain {
        assert_eq!(launches.len(), launches[0].key.of as usize, "chain {chain}");
        for (position, pair) in launches.windows(2).enumerate() {
            let (index, next) = (pair[0].key.index, pair[1].key.index);
            assert_eq!((index, next), (position as u32, position as u32 + 1));
            assert!(
                pair[1].ready_s >= pair[0].completion_s,
                "chain {chain}: chunk {next} ready at {} before chunk {index} completes",
                pair[1].ready_s
            );
        }
    }
    let lives: Vec<(f64, f64)> = (per_chain.values())
        .map(|launches| {
            (
                launches[0].start_s,
                launches[launches.len() - 1].completion_s,
            )
        })
        .collect();
    let overlapping = (lives.iter().enumerate())
        .any(|(i, a)| lives[i + 1..].iter().any(|b| a.0 < b.1 && b.0 < a.1));
    assert!(overlapping, "no two chains were live at once");

    // Queued chunks dispatch in strictly ascending (ready, chain id).
    let queued: Vec<(f64, u64)> = (chunks.iter())
        .filter(|c| c.key.index > 0)
        .map(|c| (c.ready_s, c.key.chain))
        .collect();
    assert!(queued.len() > per_chain.len());
    for pair in queued.windows(2) {
        assert!(
            pair[0].0 < pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1),
            "chunk of chain {} (ready {}) dispatched before chain {}'s (ready {})",
            pair[0].1,
            pair[0].0,
            pair[1].1,
            pair[1].0
        );
    }
}
