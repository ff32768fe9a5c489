//! Block-granular KV admission, pinned end to end: reserving every
//! session's KV at its *declared maximum context* for its whole lifetime
//! would admit only `budget / max_context_bytes` concurrent sessions — even
//! when actual contexts stay tiny. Block-granular charging bills only the
//! blocks a session has actually grown into, so the same budget admits
//! strictly more (here 4×) concurrent sessions with zero pool overflows
//! during replay, and at 1 GiB at least 2× (f16 KV: at least 1.8× the f32
//! count).
//!
//! Plus the cross-session prefix-sharing extension: under
//! [`DecodePolicy::prefix_share`], sessions declaring the same
//! `prefix_group` charge the whole blocks of their shared prompt prefix
//! once group-wide, so the same budget admits ≥2× the sessions of private
//! paged charging on a shared-system-prompt trace, also at 1 GiB on a GQA
//! f16 shape — and the group's blocks are released exactly once, with its
//! last member.

use mas_dataflow::decode::DecodeStep;
use mas_serve::{DecodePolicy, DecodeReport, EngineConfig, KvDtype, ServeEngine};
use mas_sim::HardwareConfig;
use mas_workloads::{DecodeSessionSpec, DecodeStepEvent, DecodeTrace, Network};

/// Replays a decode-only trace through the engine under `policy`.
fn replay(policy: DecodePolicy, trace: &DecodeTrace) -> DecodeReport {
    let config = EngineConfig {
        decode: policy,
        ..EngineConfig::default()
    };
    ServeEngine::new(config).run(&[], trace).unwrap().decode
}

/// A long-max-context / short-actual-context trace: `n` simultaneous
/// sessions each *declare* a generation budget of `declared_steps` (the
/// worst case a max-context reservation would hold) but the trace replays
/// only `actual_steps` of each.
fn overcommit_trace(
    n: u64,
    prompt: usize,
    declared_steps: usize,
    actual_steps: usize,
) -> DecodeTrace {
    assert!(actual_steps <= declared_steps);
    let sessions: Vec<DecodeSessionSpec> = (0..n)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 8,
            kv_heads: 8,
            embed: 64,
            prompt_len: prompt,
            steps: declared_steps,
            prefix_group: None,
            shared_prefix_len: 0,
        })
        .collect();
    let mut steps = Vec::new();
    for step_index in 0..actual_steps {
        for id in 0..n {
            steps.push(DecodeStepEvent {
                session_id: id,
                step_index,
                arrival_s: step_index as f64 * 0.01 + 1e-9,
            });
        }
    }
    DecodeTrace { sessions, steps }
}

#[test]
fn paged_charging_admits_at_least_twice_the_sessions_of_max_context_reservation() {
    let hw = HardwareConfig::edge_default();
    let block_tokens = 16;

    // 16 sessions, prompt 32, declared max context 512, but only 8 steps
    // actually replayed (actual context ≤ 40 tokens).
    let trace = overcommit_trace(16, 32, 480, 8);

    // Budget: exactly four sessions' worth of max-context KV, so a
    // max-context reservation would admit four sessions.
    let max_context_bytes = DecodeStep::new("max", 1, 8, 512, 64).kv_cache_bytes(hw.element_bytes);
    let budget = 4 * max_context_bytes;
    let max_context_sessions = (budget / max_context_bytes) as usize;

    let paged = replay(
        DecodePolicy {
            kv_budget_bytes: Some(budget),
            kv_block_tokens: block_tokens,
            ..DecodePolicy::default()
        },
        &trace,
    );

    // Block-granular charging admits every session — at least twice the
    // max-context count — with zero pool overflows during replay.
    assert_eq!(paged.sessions_admitted, 16, "{}", paged.summary());
    assert!(paged.sessions_admitted >= 2 * max_context_sessions);
    assert!(paged.rejected_sessions.is_empty());
    assert_eq!(paged.pool_overflows(), 0, "no step may be shed for blocks");
    assert!(paged.rejected.is_empty());

    // Every admitted session's steps completed.
    assert_eq!(paged.completed(), 16 * 8);

    // The peak is the actual working set (3 blocks of 16 tokens per
    // session), far under the reservation.
    assert!(paged.kv_peak_bytes <= budget);
    let block_bytes = DecodeStep::new("b", 1, 8, 1, 64).kv_block_bytes(16, hw.element_bytes);
    assert_eq!(paged.kv_peak_blocks, 16 * 3, "3 blocks cover 40 tokens");
    assert_eq!(paged.kv_peak_bytes, 16 * 3 * block_bytes);
    // Aggregate peak: 4x the sessions at under half the reserved budget.
    // Per session, the 48-token working set is ~10x under the 512-token
    // reservation.
    assert!(paged.kv_peak_bytes < budget / 2);
    assert!(paged.kv_peak_bytes / 16 < max_context_bytes / 10);

    // Waste at peak is only the partial tail block.
    assert!(paged.kv_frag_at_peak < 0.5, "{}", paged.kv_frag_at_peak);

    // The same trace shape at scale: 4,096 sessions against 1 GiB of KV,
    // where max-context reservation admits 1 GiB / max_context_bytes.
    let gib = 1u64 << 30;
    let reserved_sessions = gib / max_context_bytes;
    let at_scale = replay(
        DecodePolicy {
            kv_budget_bytes: Some(gib),
            kv_block_tokens: block_tokens,
            ..DecodePolicy::default()
        },
        &overcommit_trace(4096, 32, 480, 8),
    );
    assert_eq!(at_scale.pool_overflows(), 0, "{}", at_scale.summary());
    assert!(at_scale.kv_peak_bytes <= gib);
    assert!(
        at_scale.sessions_admitted as u64 >= 2 * reserved_sessions,
        "paged charging must admit >= 2x the sessions of max-context \
         reservation at 1 GiB: {} vs {reserved_sessions}",
        at_scale.sessions_admitted,
    );

    // f16 KV storage halves every block, so at the same budget it must
    // admit >= 1.8x the f32 sessions. 16,384 sessions are offered, more
    // than either dtype can hold, so both runs are budget-limited.
    let trace = overcommit_trace(16384, 32, 480, 8);
    let by_dtype = |kv_dtype: KvDtype| {
        let policy = DecodePolicy {
            kv_budget_bytes: Some(gib),
            kv_dtype: Some(kv_dtype),
            ..DecodePolicy::default()
        };
        replay(policy, &trace)
    };
    let (f32_run, f16_run) = (by_dtype(KvDtype::F32), by_dtype(KvDtype::F16));
    for r in [&f32_run, &f16_run] {
        assert!(r.kv_peak_bytes <= gib, "{}", r.summary());
        assert_eq!(r.pool_overflows(), 0, "{}", r.summary());
    }
    let ratio = f16_run.sessions_admitted as f64 / f32_run.sessions_admitted.max(1) as f64;
    assert!(
        ratio >= 1.8,
        "f16 KV must admit >= 1.8x the f32 sessions at 1 GiB: {} vs {} ({ratio:.2}x)",
        f16_run.sessions_admitted,
        f32_run.sessions_admitted,
    );
}

#[test]
fn paged_charging_still_bounds_the_budget_under_real_pressure() {
    // When sessions really do grow past the budget, paged charging sheds
    // *steps* (pool overflows) rather than over-admitting: the charge never
    // exceeds the budget.
    let hw = HardwareConfig::edge_default();
    let block_bytes = DecodeStep::new("b", 1, 8, 1, 64).kv_block_bytes(16, hw.element_bytes);
    let budget = 20 * block_bytes;
    let policy = DecodePolicy {
        kv_budget_bytes: Some(budget),
        kv_block_tokens: 16,
        ..DecodePolicy::default()
    };
    // 4 sessions that genuinely decode 96 steps each (context up to 128
    // tokens = 8 blocks per session, 32 blocks demanded > 20 budgeted).
    let trace = overcommit_trace(4, 32, 96, 96);
    let report = replay(policy, &trace);
    assert_eq!(report.sessions_admitted, 4, "{}", report.summary());
    assert!(
        report.pool_overflows() > 0,
        "pressure must surface as overflows"
    );
    assert!(report.kv_peak_bytes <= budget, "the budget is a hard bound");
    assert_eq!(report.kv_peak_blocks, 20);
    // Sessions kept decoding at their capped residency: every non-overflow
    // step completed.
    assert_eq!(report.completed() + report.pool_overflows(), 4 * 96);
}

/// `n` simultaneous sessions of shape `(heads, kv_heads, embed)` all
/// declaring the same `prefix_group` whose first `shared_prefix_len` prompt
/// tokens are a shared system prompt; every session replays `steps` decode
/// steps.
fn shared_prompt_trace(
    n: u64,
    (heads, kv_heads, embed): (usize, usize, usize),
    prompt: usize,
    shared_prefix_len: usize,
    steps: usize,
) -> DecodeTrace {
    let sessions: Vec<DecodeSessionSpec> = (0..n)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads,
            kv_heads,
            embed,
            prompt_len: prompt,
            steps,
            prefix_group: Some(7),
            shared_prefix_len,
        })
        .collect();
    let mut events = Vec::new();
    for step_index in 0..steps {
        for id in 0..n {
            events.push(DecodeStepEvent {
                session_id: id,
                step_index,
                arrival_s: step_index as f64 * 0.01 + 1e-9,
            });
        }
    }
    DecodeTrace {
        sessions,
        steps: events,
    }
}

#[test]
fn prefix_sharing_charges_the_shared_prompt_once_and_admits_twice_the_sessions() {
    let hw = HardwareConfig::edge_default();
    let block_tokens = 16;
    let block_bytes =
        DecodeStep::new("b", 1, 8, 1, 64).kv_block_bytes(block_tokens, hw.element_bytes);

    // 8 sessions, 64-token shared system prompt (exactly 4 blocks), 8
    // decode steps each (context 65..=72 tokens = 5 blocks). Budget: 16
    // blocks of KV.
    let trace = shared_prompt_trace(8, (8, 8, 64), 64, 64, 8);
    let budget = 16 * block_bytes;

    let private_policy = DecodePolicy {
        kv_budget_bytes: Some(budget),
        kv_block_tokens: block_tokens,
        ..DecodePolicy::default()
    };
    let shared_policy = DecodePolicy {
        prefix_share: true,
        ..private_policy
    };

    // Private paged charging: each session charges 5 blocks at open
    // (context 65 tokens), so 16 blocks admit only 3 sessions.
    let private = replay(private_policy, &trace);
    assert_eq!(private.sessions_admitted, 3, "{}", private.summary());
    assert_eq!(private.shared_sessions, 0);
    assert_eq!(private.kv_shared_peak_bytes, 0);

    // Prefix sharing: the 4 prefix blocks are charged once group-wide;
    // each session privately holds only its 1-block decode tail, so all 8
    // sessions fit (4 + 8 = 12 blocks) — ≥2x the private admissions.
    let shared = replay(shared_policy, &trace);
    assert_eq!(shared.sessions_admitted, 8, "{}", shared.summary());
    assert!(shared.sessions_admitted >= 2 * private.sessions_admitted);
    assert!(shared.rejected_sessions.is_empty());
    assert_eq!(shared.pool_overflows(), 0);
    assert_eq!(shared.completed(), 8 * 8);

    // The shared-residency split is exact: 4 group blocks + 8 private
    // tail blocks at peak, with the shared peak counted once.
    assert_eq!(shared.shared_sessions, 8);
    assert_eq!(shared.kv_shared_peak_bytes, 4 * block_bytes);
    assert_eq!(shared.kv_peak_blocks, 4 + 8);
    assert_eq!(shared.kv_peak_bytes, (4 + 8) * block_bytes);
    assert!(shared.kv_peak_bytes <= budget);
    assert!(shared.kv_peak_bytes < private.kv_peak_bytes);

    // The summary surfaces the sharing.
    assert!(
        shared.summary().contains("shared prefixes: 8 sessions"),
        "{}",
        shared.summary()
    );

    // At scale on an edge chat shape: GQA 32q/8kv heads 128 wide, f16 KV,
    // a 72-token prompt whose first 64 tokens (4 blocks) are the system
    // prompt, and 16,384 sessions offered against 1 GiB, so both runs are
    // budget-limited.
    let gib = 1u64 << 30;
    let trace = shared_prompt_trace(16384, (32, 8, 128), 72, 64, 8);
    let run = |prefix_share: bool| {
        let policy = DecodePolicy {
            kv_budget_bytes: Some(gib),
            kv_block_tokens: block_tokens,
            kv_dtype: Some(KvDtype::F16),
            prefix_share,
            ..DecodePolicy::default()
        };
        replay(policy, &trace)
    };
    let (private, shared) = (run(false), run(true));
    for r in [&private, &shared] {
        assert!(r.kv_peak_bytes <= gib, "{}", r.summary());
        assert_eq!(r.pool_overflows(), 0, "{}", r.summary());
    }
    assert_eq!(private.shared_sessions, 0);
    assert_eq!(shared.shared_sessions, shared.sessions_admitted);
    assert!(shared.kv_shared_peak_bytes > 0);
    assert!(
        shared.sessions_admitted >= 2 * private.sessions_admitted,
        "prefix sharing must admit >= 2x the sessions of private paged \
         charging at 1 GiB: {} vs {}",
        shared.sessions_admitted,
        private.sessions_admitted,
    );
}

#[test]
fn sharing_with_a_partial_tail_charges_only_whole_prefix_blocks_group_wide() {
    let hw = HardwareConfig::edge_default();
    let block_tokens = 16;
    let block_bytes =
        DecodeStep::new("b", 1, 8, 1, 64).kv_block_bytes(block_tokens, hw.element_bytes);

    // A 40-token shared prefix covers only 2 whole 16-token blocks; the
    // 8-token tail of the prefix plus the 24 private prompt tokens live in
    // each session's private blocks (blocks 3 and 4 of the 64-token
    // prompt, plus the decode tail's block 5).
    let trace = shared_prompt_trace(4, (8, 8, 64), 64, 40, 4);
    let policy = DecodePolicy {
        kv_budget_bytes: Some(64 * block_bytes),
        kv_block_tokens: block_tokens,
        prefix_share: true,
        ..DecodePolicy::default()
    };
    let report = replay(policy, &trace);
    assert_eq!(report.sessions_admitted, 4, "{}", report.summary());
    assert_eq!(report.shared_sessions, 4);
    assert_eq!(report.kv_shared_peak_bytes, 2 * block_bytes);
    // 2 shared + 4 sessions x 3 private blocks (tokens 33..=68 span
    // blocks 3..=5 of each session's context).
    assert_eq!(report.kv_peak_blocks, 2 + 4 * 3);
    assert_eq!(report.pool_overflows(), 0);
}
