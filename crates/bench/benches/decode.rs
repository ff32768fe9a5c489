//! Benchmarks of the autoregressive decode path: KV-cached incremental
//! steps vs full recompute per step.
//!
//! The headline measurement backs the decode acceptance criterion: at a
//! 256-token context the KV-cached step (`decode_attention` over a
//! [`KvCache`]) must be ≥ 5× faster than recomputing prefill attention over
//! the whole sequence for every generated token — and per-step cost must
//! grow ~linearly with the context for the cached path vs ~quadratically
//! for recompute. The bench measures both paths across a context sweep
//! with [`time_per_call`] and *asserts* the 5× threshold and
//! the growth-shape separation, so a regression fails `cargo bench`.
//!
//! [`KvCache`]: mas_tensor::decode::KvCache

use std::hint::black_box;

use mas_bench::time_per_call;
use mas_tensor::decode::{decode_attention, KvCache};
use mas_tensor::init::random_qkv;
use mas_tensor::tiled::{fused_online_attention, TileSizes};
use mas_tensor::Tensor;

const HEADS: usize = 8;
const EMBED: usize = 64;
const CONTEXTS: [usize; 3] = [64, 128, 256];

/// Builds a KV cache holding `context` tokens plus the step's query row.
fn cached_setup(context: usize) -> (KvCache, Vec<f32>) {
    let (q, k, v) = random_qkv(1, HEADS, context, EMBED, 42);
    let mut cache = KvCache::new(HEADS, EMBED);
    let gather = |src: &Tensor, r: usize| -> Vec<f32> {
        (0..HEADS).flat_map(|h| src.row(0, h, r).to_vec()).collect()
    };
    for t in 0..context {
        cache.append(&gather(&k, t), &gather(&v, t)).unwrap();
    }
    (cache, gather(&q, context - 1))
}

/// Measures the context sweep and pins the acceptance criterion: a ≥ 5×
/// KV-cache advantage at 256 tokens and linear-vs-quadratic growth shape.
fn main() {
    let mut cached_s = Vec::new();
    let mut recompute_s = Vec::new();
    println!("\ndecode per-step cost (H={HEADS}, E={EMBED}):");
    println!("| context | kv-cached | recompute | ratio | kv steps/s |");
    println!("|---|---|---|---|---|");
    for context in CONTEXTS {
        let (cache, q_step) = cached_setup(context);
        let mut out = vec![0.0f32; HEADS * EMBED];
        let cached = time_per_call(|| {
            decode_attention(black_box(&cache), black_box(&q_step), &mut out).unwrap()
        });

        let (q, k, v) = random_qkv(1, HEADS, context, EMBED, 42);
        let tiles = TileSizes::new(64, 64, context).unwrap();
        let recompute = time_per_call(|| {
            black_box(
                fused_online_attention(black_box(&q), black_box(&k), black_box(&v), tiles).unwrap(),
            );
        });
        let ratio = recompute.as_secs_f64() / cached.as_secs_f64();
        println!(
            "| {context} | {:.2} µs | {:.2} µs | {ratio:.1}x | {:.0} |",
            cached.as_secs_f64() * 1e6,
            recompute.as_secs_f64() * 1e6,
            1.0 / cached.as_secs_f64(),
        );
        cached_s.push(cached.as_secs_f64());
        recompute_s.push(recompute.as_secs_f64());
    }

    // Acceptance: ≥ 5× advantage at the 256-token context (the true ratio is
    // ~the context length, so 5× leaves a wide margin for timer noise).
    let ratio_256 = recompute_s[2] / cached_s[2];
    assert!(
        ratio_256 >= 5.0,
        "KV-cached decode must be ≥ 5x faster than per-step recompute at a \
         256-token context, measured {ratio_256:.1}x"
    );

    // Growth shape: quadrupling the context (64 → 256) should scale the
    // KV-cached step ~linearly (≈4×) and recompute ~quadratically (≈16×).
    // Assert the separation rather than exact constants: recompute must grow
    // superlinearly faster than the cached path.
    let cached_growth = cached_s[2] / cached_s[0];
    let recompute_growth = recompute_s[2] / recompute_s[0];
    println!(
        "growth 64→256: kv-cached {cached_growth:.1}x (linear ≈ 4x), \
         recompute {recompute_growth:.1}x (quadratic ≈ 16x)"
    );
    assert!(
        recompute_growth > 1.8 * cached_growth,
        "recompute per-step cost must grow ~quadratically vs the KV cache's \
         ~linear growth: cached {cached_growth:.1}x vs recompute {recompute_growth:.1}x"
    );
}
