//! Decode steps called from inside a pool job.
//!
//! `decode_attention` and `decode_attention_paged` run each KV head's query
//! group as its own rayon job. A pooled caller (a parallel batch of
//! sessions, say) calls them from a job of its own, so the step's fan-out
//! nests inside another. Each such call must return, and its output must
//! equal the same call made on the test thread bit for bit: a head's
//! arithmetic does not depend on which thread runs it. Covered for MHA,
//! GQA and MQA caches (8, 2 and 1 KV heads for 8 query heads), contiguous
//! f32 and paged f16, at a context past one 64-row tile.

use mas_tensor::decode::{decode_attention, KvCache};
use mas_tensor::half::KvDtype;
use mas_tensor::init::random_qkv;
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::Tensor;
use rayon::prelude::*;

const HEADS: usize = 8;
const EMBED: usize = 16;
const CONTEXT: usize = 80;
const BLOCK_TOKENS: usize = 16;
/// Query rows decoded against each cache, one pool job each.
const QUERIES: usize = 6;

fn step(src: &Tensor, r: usize) -> Vec<f32> {
    let [_, heads, _, _] = src.shape().dims();
    (0..heads).flat_map(|h| src.row(0, h, r).to_vec()).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn nested_decode_matches_the_calling_thread_bitwise() {
    for kv_heads in [8, 2, 1] {
        let seed = 40 + kv_heads as u64;
        let (q, _, _) = random_qkv(1, HEADS, QUERIES, EMBED, seed);
        let (_, k, v) = random_qkv(1, kv_heads, CONTEXT, EMBED, seed + 1);
        let mut contiguous = KvCache::grouped(HEADS, kv_heads, EMBED).unwrap();
        let mut pool = KvBlockPool::new(BLOCK_TOKENS, kv_heads, EMBED).with_dtype(KvDtype::F16);
        let mut paged = PagedKvCache::new(HEADS, kv_heads, EMBED, BLOCK_TOKENS).unwrap();
        for r in 0..CONTEXT {
            let (k_step, v_step) = (step(&k, r), step(&v, r));
            contiguous.append(&k_step, &v_step).unwrap();
            paged.append(&mut pool, &k_step, &v_step).unwrap();
        }
        let decode = |q_step: &Vec<f32>| {
            let mut out = vec![0.0f32; HEADS * EMBED];
            let mut paged_out = vec![0.0f32; HEADS * EMBED];
            decode_attention(&contiguous, q_step, &mut out).unwrap();
            decode_attention_paged(&pool, &paged, q_step, &mut paged_out).unwrap();
            (bits(&out), bits(&paged_out))
        };
        let queries: Vec<Vec<f32>> = (0..QUERIES).map(|r| step(&q, r)).collect();
        let inline: Vec<_> = queries.iter().map(decode).collect();
        let nested: Vec<_> = queries.par_iter().map(decode).collect();
        assert_eq!(
            nested, inline,
            "{HEADS} query heads over {kv_heads} KV heads"
        );
        paged.release(&mut pool);
    }
}
