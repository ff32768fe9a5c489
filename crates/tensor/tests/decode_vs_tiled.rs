//! A decode step is the one-row case of tiled attention, bit for bit.
//!
//! `decode_attention` and `decode_attention_paged` score the cached rows
//! with `dot_many`, apply `softmax_row_in_place` to the whole score row and
//! accumulate the value rows with `axpy_many` — the three steps
//! `tiled_attention` runs on each query row. Both block primitives are
//! bit-identical to their one-row loops, so decode step `t` (context `t`)
//! must equal row `t − 1` of `tiled_attention` over the `t`-token prefix
//! *bitwise*, at every `n_kv` tile size, for contiguous and paged caches of
//! any block size, f32 and f16 storage, and any query-head grouping (the
//! tiled oracle runs on head-replicated K/V). f16 caches are compared with
//! `tiled_attention` on `quantize_tensor_f16` K/V, which rounds each value
//! exactly as the KV store does for finite in-range inputs. Contexts run
//! past `F16_TILE_TOKENS` and across many block boundaries.

use mas_tensor::decode::{decode_attention, expand_kv_heads, KvCache, F16_TILE_TOKENS};
use mas_tensor::half::{quantize_tensor_f16, KvDtype};
use mas_tensor::init::random_qkv;
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::tiled::{tiled_attention, TileSizes};
use mas_tensor::Tensor;

/// Tile sizes of the tiled oracle; decode must match it at each.
const N_KV: [usize; 4] = [1, 7, 16, 64];
/// Paged-cache block sizes, each compared with the contiguous cache.
const BLOCKS: [usize; 3] = [1, 3, 16];

fn gather_step(src: &Tensor, r: usize) -> Vec<f32> {
    let [_, heads, _, _] = src.shape().dims();
    (0..heads).flat_map(|h| src.row(0, h, r).to_vec()).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs `t` decode steps of a `heads`/`kv_heads` session through a
/// contiguous cache and one paged cache per [`BLOCKS`] entry, and checks
/// every step bitwise against the paged outputs and against row `t − 1` of
/// `tiled_attention` over the prefix. The oracle's `n_kv` cycles through
/// [`N_KV`] from step to step, so each tile size is checked at contexts
/// below, at and above it without a quadratic oracle per size.
fn check(heads: usize, kv_heads: usize, embed: usize, t: usize, dtype: KvDtype, seed: u64) {
    let (q, _, _) = random_qkv(1, heads, t, embed, seed);
    let (_, k, v) = random_qkv(1, kv_heads, t, embed, seed.wrapping_add(1));
    let stored = |x: &Tensor| match dtype {
        KvDtype::F32 => x.clone(),
        KvDtype::F16 => quantize_tensor_f16(x),
    };
    let k_full = expand_kv_heads(&stored(&k), heads).unwrap();
    let v_full = expand_kv_heads(&stored(&v), heads).unwrap();

    let mut contiguous = KvCache::grouped(heads, kv_heads, embed)
        .unwrap()
        .with_dtype(dtype);
    let mut paged: Vec<(KvBlockPool, PagedKvCache)> = BLOCKS
        .iter()
        .map(|&b| {
            (
                KvBlockPool::new(b, kv_heads, embed).with_dtype(dtype),
                PagedKvCache::new(heads, kv_heads, embed, b).unwrap(),
            )
        })
        .collect();
    let mut out = vec![0.0f32; heads * embed];
    let mut paged_out = vec![0.0f32; heads * embed];
    for i in 0..t {
        let (k_step, v_step) = (gather_step(&k, i), gather_step(&v, i));
        let q_step = gather_step(&q, i);
        contiguous.append(&k_step, &v_step).unwrap();
        decode_attention(&contiguous, &q_step, &mut out).unwrap();
        let label = format!(
            "{heads}q/{kv_heads}kv e={embed} {dtype:?} context {}",
            i + 1
        );
        for ((pool, cache), block) in paged.iter_mut().zip(BLOCKS) {
            cache.append(pool, &k_step, &v_step).unwrap();
            decode_attention_paged(pool, cache, &q_step, &mut paged_out).unwrap();
            assert_eq!(
                bits(&paged_out),
                bits(&out),
                "{label}: paged (block {block})"
            );
        }

        let prefix = i + 1;
        let sub = |x: &Tensor| x.block([0, 0, 0, 0], [1, heads, prefix, embed]).unwrap();
        let n_kv = N_KV[i % N_KV.len()];
        let tiles = TileSizes::new(5, n_kv, prefix).unwrap();
        let oracle = tiled_attention(&sub(&q), &sub(&k_full), &sub(&v_full), tiles).unwrap();
        for h in 0..heads {
            assert_eq!(
                bits(&out[h * embed..(h + 1) * embed]),
                bits(oracle.row(0, h, i)),
                "{label}: head {h} vs tiled_attention at n_kv {n_kv}"
            );
        }
    }
}

/// Past one f16 widening tile and across every block size's boundaries.
const CONTEXT: usize = F16_TILE_TOKENS + 6;

#[test]
fn mha_decode_equals_the_last_tiled_row_bitwise() {
    for dtype in [KvDtype::F32, KvDtype::F16] {
        check(3, 3, 8, CONTEXT, dtype, 11);
    }
}

#[test]
fn grouped_decode_equals_the_last_tiled_row_bitwise() {
    // Group sizes 1, 2, 4 and 8, at widths that are a tail only, two
    // vectors plus a tail, one full eight-vector register strip, and one
    // vector plus a tail.
    for (heads, kv_heads, embed) in [(4, 4, 5), (8, 4, 20), (4, 1, 64), (8, 1, 13)] {
        for dtype in [KvDtype::F32, KvDtype::F16] {
            check(
                heads,
                kv_heads,
                embed,
                CONTEXT,
                dtype,
                29 + heads as u64 + kv_heads as u64,
            );
        }
    }
}
