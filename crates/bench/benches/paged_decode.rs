//! Host-timed gate of the paged (block-granular) KV decode kernel.
//!
//! Sweeping a block table instead of one contiguous buffer must cost at
//! most a small constant factor per step: the bench asserts ≤ 3× the
//! contiguous step across the context sweep. The two paths are
//! bit-identical numerically, so this is pure traversal overhead. The
//! sessions-per-GiB gates of paged charging are deterministic and live in
//! `crates/serve/tests/paged_admission.rs`.

use std::hint::black_box;

use mas_bench::time_per_call;
use mas_tensor::decode::{decode_attention, KvCache};
use mas_tensor::init::random_qkv;
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::Tensor;

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

/// Pins the paged kernel's traversal overhead: ≤ 3× the contiguous step at
/// every context in the sweep (the arithmetic is identical; only the
/// block-table walk differs).
fn main() {
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
