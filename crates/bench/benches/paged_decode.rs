//! Benchmarks of the paged (block-granular) KV decode path.
//!
//! Two questions, both pinned by assertions so a regression fails the CI
//! bench smoke:
//!
//! 1. **Kernel overhead** — sweeping a block table instead of one
//!    contiguous buffer must cost at most a small constant factor per step
//!    (`pin_paged_overhead` asserts ≤ 3× across the context sweep; the two
//!    paths are bit-identical numerically, so this is pure traversal
//!    overhead).
//! 2. **Sessions per GB** — the point of paged allocation: under the same
//!    KV budget, block-granular charging at actual context must admit ≥ 2×
//!    the sessions of worst-case max-context reservation
//!    (`pin_sessions_per_gb`: a long-max-context/short-actual-context trace
//!    replayed through `ServeEngine`, against the closed-form reservation
//!    count `budget / kv_cache_bytes(max_context)`).

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mas_dataflow::decode::DecodeStep;
use mas_serve::{DecodePolicy, DecodeReport, EngineConfig, KvDtype, ServeEngine};
use mas_sim::HardwareConfig;
use mas_tensor::decode::{decode_attention, KvCache};
use mas_tensor::init::random_qkv;
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::Tensor;
use mas_workloads::{DecodeSessionSpec, DecodeStepEvent, DecodeTrace, Network};

const HEADS: usize = 8;
const EMBED: usize = 64;
const BLOCK_TOKENS: usize = 16;
const CONTEXTS: [usize; 3] = [64, 128, 256];

fn gather(src: &Tensor, r: usize) -> Vec<f32> {
    (0..HEADS).flat_map(|h| src.row(0, h, r).to_vec()).collect()
}

/// Builds matching contiguous and paged caches holding `context` tokens,
/// plus the step's query row.
#[allow(clippy::type_complexity)]
fn dual_setup(context: usize) -> (KvCache, KvBlockPool, PagedKvCache, Vec<f32>) {
    let (q, k, v) = random_qkv(1, HEADS, context, EMBED, 42);
    let mut contiguous = KvCache::new(HEADS, EMBED);
    let mut pool = KvBlockPool::new(BLOCK_TOKENS, HEADS, EMBED);
    let mut paged = PagedKvCache::new(HEADS, HEADS, EMBED, BLOCK_TOKENS).unwrap();
    for t in 0..context {
        let (ks, vs) = (gather(&k, t), gather(&v, t));
        contiguous.append(&ks, &vs).unwrap();
        paged.append(&mut pool, &ks, &vs).unwrap();
    }
    (contiguous, pool, paged, gather(&q, context - 1))
}

fn bench_paged_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("paged_decode_step_8h_64e");
    for context in CONTEXTS {
        let (contiguous, pool, paged, q_step) = dual_setup(context);
        let mut out = vec![0.0f32; HEADS * EMBED];
        g.bench_function(BenchmarkId::new("contiguous", context), |b| {
            b.iter(|| {
                decode_attention(black_box(&contiguous), black_box(&q_step), &mut out).unwrap()
            })
        });
        g.bench_function(BenchmarkId::new("paged_block16", context), |b| {
            b.iter(|| {
                decode_attention_paged(
                    black_box(&pool),
                    black_box(&paged),
                    black_box(&q_step),
                    &mut out,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// Times `f` with a short warmup, returning the mean duration per call.
fn time_per_call<F: FnMut()>(mut f: F) -> Duration {
    let warmup = Instant::now();
    let mut warm_iters: u32 = 0;
    while warmup.elapsed() < Duration::from_millis(50) || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let per_iter = warmup.elapsed() / warm_iters;
    let iters = (Duration::from_millis(300).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(1, 1_000_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

/// Pins the paged kernel's traversal overhead: ≤ 3× the contiguous step at
/// every context in the sweep (the arithmetic is identical; only the
/// block-table walk differs).
fn pin_paged_overhead(_c: &mut Criterion) {
    println!("\npaged vs contiguous decode step (H={HEADS}, E={EMBED}, block={BLOCK_TOKENS}):");
    println!("| context | contiguous | paged | ratio |");
    println!("|---|---|---|---|");
    for context in CONTEXTS {
        let (contiguous, pool, paged, q_step) = dual_setup(context);
        let mut out = vec![0.0f32; HEADS * EMBED];
        let c_s = time_per_call(|| {
            decode_attention(black_box(&contiguous), black_box(&q_step), &mut out).unwrap();
        });
        let p_s = time_per_call(|| {
            decode_attention_paged(
                black_box(&pool),
                black_box(&paged),
                black_box(&q_step),
                &mut out,
            )
            .unwrap();
        });
        let ratio = p_s.as_secs_f64() / c_s.as_secs_f64();
        println!(
            "| {context} | {:.2} µs | {:.2} µs | {ratio:.2}x |",
            c_s.as_secs_f64() * 1e6,
            p_s.as_secs_f64() * 1e6,
        );
        assert!(
            ratio <= 3.0,
            "paged decode must stay within 3x of the contiguous step at \
             context {context}, measured {ratio:.2}x"
        );
    }
}

/// The long-max-context/short-actual-context admission trace shared by the
/// sessions-per-GiB pins.
fn admission_trace(sessions: u64, prompt: usize, declared: usize, actual: usize) -> DecodeTrace {
    let specs: Vec<DecodeSessionSpec> = (0..sessions)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: HEADS,
            kv_heads: HEADS,
            embed: EMBED,
            prompt_len: prompt,
            steps: declared,
            prefix_group: None,
            shared_prefix_len: 0,
        })
        .collect();
    let mut steps = Vec::new();
    for step_index in 0..actual {
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

/// Replays a decode-only trace through the engine under `policy`.
fn replay(policy: DecodePolicy, trace: &DecodeTrace) -> DecodeReport {
    let config = EngineConfig {
        decode: policy,
        ..EngineConfig::default()
    };
    ServeEngine::new(config).run(&[], trace).unwrap().decode
}

/// Replays a long-max-context/short-actual-context trace under paged
/// charging and pins its sessions-per-GB win over reserving every session's
/// max-context KV up front, whose admission count at the same budget is
/// the closed form `budget / kv_cache_bytes(max_context)`.
fn pin_sessions_per_gb(_c: &mut Criterion) {
    let hw = HardwareConfig::edge_default();
    let budget: u64 = 1 << 30; // 1 GiB of KV
    let (prompt, declared, actual) = (32usize, 480usize, 8usize);
    let trace = admission_trace(4096, prompt, declared, actual);

    let max_context = prompt + declared;
    let reservation =
        DecodeStep::new("max", 1, HEADS, max_context, EMBED).kv_cache_bytes(hw.element_bytes);
    let reserved_sessions = budget / reservation;
    let paged = replay(
        DecodePolicy {
            kv_budget_bytes: Some(budget),
            kv_block_tokens: BLOCK_TOKENS,
            ..DecodePolicy::default()
        },
        &trace,
    );

    println!(
        "\nsessions per GiB of KV budget (prompt {prompt}, declared max context {max_context}):"
    );
    println!("| charging | sessions admitted | peak KV MB | frag at peak | pool overflows |");
    println!("|---|---|---|---|---|");
    println!(
        "| max-context (closed form) | {reserved_sessions} | {:.1} | {:.1}% | 0 |",
        (reserved_sessions * reservation) as f64 / 1e6,
        (1.0 - (prompt + actual) as f64 / max_context as f64) * 100.0,
    );
    println!(
        "| paged block16 | {} | {:.1} | {:.1}% | {} |",
        paged.sessions_admitted,
        paged.kv_peak_bytes as f64 / 1e6,
        paged.kv_frag_at_peak * 100.0,
        paged.pool_overflows(),
    );
    assert_eq!(paged.pool_overflows(), 0, "the paged run must not overflow");
    assert!(paged.kv_peak_bytes <= budget);
    assert!(
        paged.sessions_admitted as u64 >= 2 * reserved_sessions,
        "block-granular charging must admit >= 2x the sessions of \
         max-context reservation at the same budget: {} vs {reserved_sessions}",
        paged.sessions_admitted,
    );
}

/// Same trace and budget, paged charging, KV priced at f32 vs f16: halving
/// the stored bytes per element must admit ≥ 1.8× the sessions with no
/// budget violations and no pool overflows.
fn pin_f16_sessions_per_gb(_c: &mut Criterion) {
    let budget: u64 = 1 << 30; // 1 GiB of KV
    let (prompt, declared, actual) = (32usize, 480usize, 8usize);
    // More offered sessions than even the f16 run can hold, so admission is
    // budget-limited under both dtypes and the ratio is meaningful.
    let trace = admission_trace(16384, prompt, declared, actual);

    let run = |kv_dtype: KvDtype| {
        let policy = DecodePolicy {
            kv_budget_bytes: Some(budget),
            kv_dtype: Some(kv_dtype),
            ..DecodePolicy::default()
        };
        replay(policy, &trace)
    };
    let f32_run = run(KvDtype::F32);
    let f16_run = run(KvDtype::F16);

    println!("\nsessions per GiB of KV budget by storage dtype (paged block16):");
    println!("| kv dtype | sessions admitted | sessions/GiB | peak KV MB | pool overflows |");
    println!("|---|---|---|---|---|");
    for (name, r) in [("f32", &f32_run), ("f16", &f16_run)] {
        println!(
            "| {name} | {} | {:.0} | {:.1} | {} |",
            r.sessions_admitted,
            r.sessions_admitted as f64 / (budget as f64 / (1u64 << 30) as f64),
            r.kv_peak_bytes as f64 / 1e6,
            r.pool_overflows(),
        );
    }
    for (name, r) in [("f32", &f32_run), ("f16", &f16_run)] {
        assert!(
            r.kv_peak_bytes <= budget,
            "{name} run violated the KV budget: {} > {budget}",
            r.kv_peak_bytes
        );
        assert_eq!(r.pool_overflows(), 0, "{name} run must not overflow");
    }
    let ratio = f16_run.sessions_admitted as f64 / f32_run.sessions_admitted.max(1) as f64;
    assert!(
        ratio >= 1.8,
        "f16 KV storage must admit >= 1.8x the f32 session count under the \
         same budget: {} vs {} ({ratio:.2}x)",
        f16_run.sessions_admitted,
        f32_run.sessions_admitted
    );
}

criterion_group!(
    benches,
    bench_paged_step,
    pin_paged_overhead,
    pin_sessions_per_gb,
    pin_f16_sessions_per_gb
);
criterion_main!(benches);
