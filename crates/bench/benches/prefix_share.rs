//! Bench smoke for cross-session KV prefix sharing, pinned by assertions
//! so a regression fails the CI bench smoke: on a shared-system-prompt
//! trace (every session's prompt starts with the same 64-token system
//! prompt), charging the shared prefix blocks once per group must admit
//! ≥ 2× the sessions of fully private paged charging under the same KV
//! budget, with zero pool overflows and the peak charge within budget.
//!
//! The shape mirrors an edge chat deployment: GQA 32q/8kv heads, 128-wide
//! heads, f16 KV storage, 16-token blocks. Each session privately holds
//! only its prompt tail + decode tail (1 block), while the 4 system-prompt
//! blocks are resident once group-wide — so the expected win is ~5×, well
//! clear of the 2× assertion.

use criterion::{criterion_group, criterion_main, Criterion};
use mas_serve::{DecodePolicy, EngineConfig, KvDtype, ServeEngine};
use mas_workloads::{DecodeSessionSpec, DecodeStepEvent, DecodeTrace, Network};

const HEADS: usize = 32;
const KV_HEADS: usize = 8;
const EMBED: usize = 128;
const BLOCK_TOKENS: usize = 16;
const SYSTEM_PROMPT: usize = 64; // 4 whole blocks
const PROMPT: usize = 72; // system prompt + 8 private tokens
const STEPS: usize = 8; // max context 80 tokens = 5 blocks

/// `sessions` chat sessions sharing one system prompt, each replaying
/// `STEPS` decode steps in lockstep.
fn shared_prompt_trace(sessions: u64) -> DecodeTrace {
    let specs: Vec<DecodeSessionSpec> = (0..sessions)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::Llama3_8B,
            start_s: 0.0,
            heads: HEADS,
            kv_heads: KV_HEADS,
            embed: EMBED,
            prompt_len: PROMPT,
            steps: STEPS,
            prefix_group: Some(1),
            shared_prefix_len: SYSTEM_PROMPT,
        })
        .collect();
    let mut steps = Vec::new();
    for step_index in 0..STEPS {
        for id in 0..sessions {
            steps.push(DecodeStepEvent {
                session_id: id,
                step_index,
                arrival_s: step_index as f64 * 0.01 + 1e-9,
            });
        }
    }
    DecodeTrace {
        sessions: specs,
        steps,
    }
}

/// Replays the shared-system-prompt trace with prefix sharing off and on
/// at the same 1 GiB budget and pins the sessions-per-GiB win.
fn pin_shared_prefix_sessions_per_gb(_c: &mut Criterion) {
    let budget: u64 = 1 << 30; // 1 GiB of KV

    // More offered sessions than even the sharing run can hold, so both
    // runs are budget-limited and the ratio is meaningful.
    let trace = shared_prompt_trace(16384);

    let run = |prefix_share: bool| {
        let decode = DecodePolicy {
            kv_budget_bytes: Some(budget),
            kv_block_tokens: BLOCK_TOKENS,
            kv_dtype: Some(KvDtype::F16),
            prefix_share,
            ..DecodePolicy::default()
        };
        let config = EngineConfig {
            decode,
            ..EngineConfig::default()
        };
        ServeEngine::new(config).run(&[], &trace).unwrap().decode
    };
    let private = run(false);
    let shared = run(true);

    let gib = budget as f64 / f64::from(1u32 << 30);
    println!(
        "\nsessions per GiB of KV budget, {SYSTEM_PROMPT}-token shared system prompt \
         (GQA {HEADS}q/{KV_HEADS}kv, E={EMBED}, f16 KV, block {BLOCK_TOKENS}):"
    );
    println!("| charging | sessions admitted | sessions/GiB | peak KV MB | shared peak MB | pool overflows |");
    println!("|---|---|---|---|---|---|");
    for (name, r) in [("private paged", &private), ("prefix-shared", &shared)] {
        println!(
            "| {name} | {} | {:.0} | {:.1} | {:.1} | {} |",
            r.sessions_admitted,
            r.sessions_admitted as f64 / gib,
            r.kv_peak_bytes as f64 / 1e6,
            r.kv_shared_peak_bytes as f64 / 1e6,
            r.pool_overflows(),
        );
    }

    for (name, r) in [("private", &private), ("shared", &shared)] {
        assert!(
            r.kv_peak_bytes <= budget,
            "{name} run violated the KV budget: {} > {budget}",
            r.kv_peak_bytes
        );
        assert_eq!(r.pool_overflows(), 0, "{name} run must not overflow");
    }
    assert_eq!(private.shared_sessions, 0);
    assert_eq!(shared.shared_sessions, shared.sessions_admitted);
    assert!(shared.kv_shared_peak_bytes > 0);
    let ratio = shared.sessions_admitted as f64 / private.sessions_admitted.max(1) as f64;
    assert!(
        ratio >= 2.0,
        "prefix sharing must admit >= 2x the sessions of private paged \
         charging on a shared-system-prompt trace: {} vs {} ({ratio:.2}x)",
        shared.sessions_admitted,
        private.sessions_admitted
    );
}

criterion_group!(benches, pin_shared_prefix_sessions_per_gb);
criterion_main!(benches);
