//! Differential paged-vs-contiguous property tests — the oracle harness the
//! block-granular KV path hangs on.
//!
//! For random shapes, block sizes (including single-token blocks and blocks
//! larger than the whole context), step counts and sliding windows, running
//! the autoregressive loop through `PagedKvCache` + `decode_attention_paged`
//! must be **bit-identical** to the contiguous `KvCache` +
//! `decode_attention` path at every step — the paged kernel visits the same
//! rows in the same order, so any divergence is a block-table sweep bug, not
//! float drift — and must match the prefill oracle
//! (`fused_online_attention` over each step's context prefix) within
//! `golden_check` tolerance.

use proptest::prelude::*;

use mas::api::verify_decode_paged;
use mas::dataflow::DecodeStep;
use mas::tensor::decode::{decode_attention, KvCache};
use mas::tensor::golden::{golden_check, Tolerance};
use mas::tensor::half::KvDtype;
use mas::tensor::init::random_qkv;
use mas::tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas::tensor::tiled::{fused_online_attention, TileSizes};
use mas::tensor::Tensor;

/// Copies row `r` of every head of `src` into one head-major step slice.
fn gather_step(src: &Tensor, r: usize) -> Vec<f32> {
    let [_, heads, _, _] = src.shape().dims();
    (0..heads).flat_map(|h| src.row(0, h, r).to_vec()).collect()
}

/// Runs `t` decode steps through both the contiguous and the paged path,
/// asserting bit-identical outputs at every step; returns the stacked
/// per-step outputs as a `(1, H, t, E)` tensor.
fn decode_both_paths(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    contiguous: &mut KvCache,
    pool: &mut KvBlockPool,
    paged: &mut PagedKvCache,
) -> Tensor {
    let [_, heads, t, embed] = q.shape().dims();
    let mut decoded = Tensor::zeros(*q.shape());
    let mut out_c = vec![0.0f32; heads * embed];
    let mut out_p = vec![0.0f32; heads * embed];
    for i in 0..t {
        let (ks, vs, qs) = (gather_step(k, i), gather_step(v, i), gather_step(q, i));
        contiguous.append(&ks, &vs).unwrap();
        paged.append(pool, &ks, &vs).unwrap();
        decode_attention(contiguous, &qs, &mut out_c).unwrap();
        decode_attention_paged(pool, paged, &qs, &mut out_p).unwrap();
        assert_eq!(
            out_c, out_p,
            "paged decode diverged bitwise from contiguous at step {i}"
        );
        for h in 0..heads {
            decoded
                .row_mut(0, h, i)
                .copy_from_slice(&out_p[h * embed..(h + 1) * embed]);
        }
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paged_decode_is_bit_identical_and_matches_the_prefix_oracles(
        heads in 1usize..4,
        t in 2usize..33,
        e in 2usize..17,
        block_tokens in 1usize..48, // spans 1, odd sizes and > context
        nq in 1usize..33,
        nkv in 1usize..33,
        seed in 0u64..1000,
    ) {
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let mut contiguous = KvCache::new(heads, e);
        let mut pool = KvBlockPool::new(block_tokens, heads, e);
        let mut paged = PagedKvCache::new(heads, heads, e, block_tokens).unwrap();
        let decoded = decode_both_paths(&q, &k, &v, &mut contiguous, &mut pool, &mut paged);
        prop_assert_eq!(paged.allocated_blocks(), t.div_ceil(block_tokens));

        // Golden: for each step, the prefill oracle over the step's prefix
        // (arbitrary tiling), taking its last query row.
        let mut golden = Tensor::zeros(*q.shape());
        for i in 0..t {
            let prefix = i + 1;
            let sub = |src: &Tensor| src.block([0, 0, 0, 0], [1, heads, prefix, e]).unwrap();
            let tiles = TileSizes::new(nq, nkv, prefix).unwrap();
            let oracle = fused_online_attention(&sub(&q), &sub(&k), &sub(&v), tiles).unwrap();
            for h in 0..heads {
                golden.row_mut(0, h, i).copy_from_slice(oracle.row(0, h, i));
            }
        }
        let report = golden_check(&decoded, &golden, Tolerance::default()).unwrap();
        prop_assert!(
            report.passed,
            "paged decode diverged from the prefill oracle: {} mismatches, max abs diff {}, worst {:?}",
            report.mismatches, report.max_abs_diff, report.worst_index
        );
    }

    #[test]
    fn f16_decode_matches_the_f32_prefill_oracle_at_half_precision(
        heads in 1usize..4,
        t in 2usize..33,
        e in 2usize..17,
        block_tokens in 1usize..48,
        seed in 0u64..1000,
    ) {
        // KV rows stored as f16 bits, widened to f32 per tile inside the
        // decode sweep: paged and contiguous stay bit-identical to each
        // other (same visited row sequence), and both track the f32
        // prefill oracle within half-precision tolerance at every step.
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let mut contiguous = KvCache::new(heads, e).with_dtype(KvDtype::F16);
        let mut pool = KvBlockPool::new(block_tokens, heads, e).with_dtype(KvDtype::F16);
        let mut paged = PagedKvCache::new(heads, heads, e, block_tokens).unwrap();
        let decoded = decode_both_paths(&q, &k, &v, &mut contiguous, &mut pool, &mut paged);

        let mut golden = Tensor::zeros(*q.shape());
        for i in 0..t {
            let prefix = i + 1;
            let sub = |src: &Tensor| src.block([0, 0, 0, 0], [1, heads, prefix, e]).unwrap();
            let tiles = TileSizes::new(prefix, 1, prefix).unwrap();
            let oracle = fused_online_attention(&sub(&q), &sub(&k), &sub(&v), tiles).unwrap();
            for h in 0..heads {
                golden.row_mut(0, h, i).copy_from_slice(oracle.row(0, h, i));
            }
        }
        let report = golden_check(&decoded, &golden, Tolerance::half_precision()).unwrap();
        prop_assert!(
            report.passed,
            "f16 decode diverged from the f32 prefill oracle: {} mismatches, max abs diff {}, worst {:?}",
            report.mismatches, report.max_abs_diff, report.worst_index
        );
    }

    #[test]
    fn windowed_paged_decode_is_bit_identical_to_the_contiguous_window(
        heads in 1usize..4,
        t in 4usize..29,
        e in 2usize..9,
        capacity in 2usize..25,
        block_tokens in 1usize..12,
        seed in 0u64..1000,
    ) {
        let capacity = capacity.min(t);
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let mut contiguous = KvCache::new(heads, e).with_window(capacity);
        let mut pool = KvBlockPool::new(block_tokens, heads, e);
        let mut paged = PagedKvCache::new(heads, heads, e, block_tokens)
            .unwrap()
            .with_window(capacity);
        let decoded = decode_both_paths(&q, &k, &v, &mut contiguous, &mut pool, &mut paged);

        // The attended sets stayed in lockstep...
        prop_assert_eq!(paged.len(), contiguous.len());
        prop_assert_eq!(paged.evicted_tokens(), contiguous.evicted_tokens());
        // ...and whole-block eviction returned every fully stale block.
        prop_assert!(paged.resident_tokens() <= capacity + block_tokens);
        prop_assert_eq!(
            pool.live_blocks() + pool.free_blocks(),
            pool.total_blocks()
        );

        // Final step against the window oracle: prefill over the newest
        // `capacity` tokens, last query row.
        let start = t - capacity;
        let sub = |src: &Tensor| {
            src.block([0, 0, start, 0], [1, heads, capacity, e]).unwrap()
        };
        let tiles = TileSizes::new(capacity, 1, capacity).unwrap();
        let oracle = fused_online_attention(&sub(&q), &sub(&k), &sub(&v), tiles).unwrap();
        let tol = Tolerance::default();
        for h in 0..heads {
            let got = decoded.row(0, h, t - 1);
            let want = oracle.row(0, h, capacity - 1);
            for (c, (&x, &g)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    tol.matches(x, g),
                    "windowed paged decode diverged at head {} col {}: {} vs {}", h, c, x, g
                );
            }
        }
    }

    #[test]
    fn verify_decode_paged_passes_for_random_steps_and_block_sizes(
        heads in 1usize..6,
        context in 1usize..49,
        e in 2usize..25,
        block_tokens in 1usize..64,
        seed in 0u64..1000,
    ) {
        let step = DecodeStep::new("prop-paged", 1, heads, context, e);
        let report = verify_decode_paged(&step, block_tokens, seed).unwrap();
        prop_assert!(
            report.passed,
            "{} (block {}): {} mismatches (max abs diff {})",
            step, block_tokens, report.mismatches, report.max_abs_diff
        );
    }

    #[test]
    fn paged_residency_is_within_one_block_of_token_bytes(
        heads in 1usize..5,
        context in 1usize..200,
        e in 1usize..65,
        block_tokens in 1usize..64,
    ) {
        // The cost-model view of block-granular residency agrees with the
        // allocator: ceil(context / block) blocks, wasting under one block.
        let step = DecodeStep::new("prop-blocks", 1, heads, context, e);
        let paged = step.paged_kv_bytes(block_tokens, 2);
        let exact = step.kv_cache_bytes(2);
        prop_assert!(paged >= exact);
        prop_assert!(paged < exact + step.kv_block_bytes(block_tokens, 2));
        prop_assert!(step.kv_fragmentation(block_tokens) < 1.0);
    }
}

/// The pinned block-size sweep the issue names: 1, a prime, the serving
/// default and a block larger than the whole context.
#[test]
fn pinned_block_size_sweep_stays_bit_identical() {
    let (heads, t, e, seed) = (2, 19, 6, 77);
    for block_tokens in [1usize, 7, 16, 64] {
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let mut contiguous = KvCache::new(heads, e);
        let mut pool = KvBlockPool::new(block_tokens, heads, e);
        let mut paged = PagedKvCache::new(heads, heads, e, block_tokens).unwrap();
        decode_both_paths(&q, &k, &v, &mut contiguous, &mut pool, &mut paged);
        assert_eq!(paged.allocated_blocks(), t.div_ceil(block_tokens));
        if block_tokens > t {
            assert_eq!(paged.allocated_blocks(), 1, "one block covers everything");
        }
    }
}
