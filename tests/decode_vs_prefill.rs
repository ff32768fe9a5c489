//! Differential decode-vs-prefill property tests — the oracle harness the
//! KV-cache streaming path hangs on.
//!
//! For random shapes, tilings and step counts, running `t` autoregressive
//! decode steps through `KvCache` + `decode_attention` must reproduce the
//! prefill oracle (`fused_online_attention`) within `golden_check`
//! tolerance: step `i` computes exactly what the oracle's last query row
//! computes over the `(i+1)`-token prefix, and the final step matches the
//! full `t`-length sequence. The sliding-window variant is pinned against
//! the oracle over the window's tokens, and the closed-form `DecodeStep`
//! cost model is cross-checked against its prefill equivalent.

use proptest::prelude::*;

use mas::api::verify_decode;
use mas::dataflow::DecodeStep;
use mas::tensor::decode::{decode_attention, KvCache};
use mas::tensor::golden::{golden_check, Tolerance};
use mas::tensor::init::random_qkv;
use mas::tensor::tiled::{fused_online_attention, TileSizes};
use mas::tensor::Tensor;

/// Copies row `r` of every head of `src` into one head-major step slice.
fn gather_step(src: &Tensor, r: usize) -> Vec<f32> {
    let [_, heads, _, _] = src.shape().dims();
    (0..heads).flat_map(|h| src.row(0, h, r).to_vec()).collect()
}

/// Runs `t` decode steps over the rows of `(1, H, t, E)` tensors, returning
/// the per-step outputs stacked into a tensor of the same shape.
fn decode_all_steps(q: &Tensor, k: &Tensor, v: &Tensor, cache: &mut KvCache) -> Tensor {
    let [_, heads, t, embed] = q.shape().dims();
    let mut decoded = Tensor::zeros(*q.shape());
    let mut out = vec![0.0f32; heads * embed];
    for i in 0..t {
        cache
            .append(&gather_step(k, i), &gather_step(v, i))
            .unwrap();
        decode_attention(cache, &gather_step(q, i), &mut out).unwrap();
        for h in 0..heads {
            decoded
                .row_mut(0, h, i)
                .copy_from_slice(&out[h * embed..(h + 1) * embed]);
        }
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decode_steps_match_prefix_prefill_oracles(
        heads in 1usize..4,
        t in 2usize..33,
        e in 2usize..17,
        nq in 1usize..33,
        nkv in 1usize..33,
        seed in 0u64..1000,
    ) {
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let decoded = decode_all_steps(&q, &k, &v, &mut KvCache::new(heads, e));

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
            "decode diverged from the prefill oracle: {} mismatches, max abs diff {}, worst {:?}",
            report.mismatches, report.max_abs_diff, report.worst_index
        );
    }

    #[test]
    fn final_decode_step_matches_the_full_sequence_prefill(
        heads in 1usize..5,
        t in 1usize..41,
        e in 2usize..17,
        nkv in 1usize..41,
        seed in 0u64..1000,
    ) {
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let mut cache = KvCache::new(heads, e);
        let decoded = decode_all_steps(&q, &k, &v, &mut cache);
        prop_assert_eq!(cache.len(), t);
        prop_assert_eq!(cache.evicted_tokens(), 0);

        let tiles = TileSizes::new(t, nkv, t).unwrap();
        let oracle = fused_online_attention(&q, &k, &v, tiles).unwrap();
        let tol = Tolerance::default();
        for h in 0..heads {
            let got = decoded.row(0, h, t - 1);
            let want = oracle.row(0, h, t - 1);
            for (c, (&x, &g)) in got.iter().zip(want).enumerate() {
                prop_assert!(
                    tol.matches(x, g),
                    "head {} col {}: decode {} vs full-prefill {}", h, c, x, g
                );
            }
        }
    }

    #[test]
    fn sliding_window_decode_matches_the_window_oracle(
        heads in 1usize..4,
        t in 4usize..25,
        e in 2usize..9,
        capacity in 2usize..25,
        seed in 0u64..1000,
    ) {
        let capacity = capacity.min(t);
        let (q, k, v) = random_qkv(1, heads, t, e, seed);
        let mut cache = KvCache::new(heads, e).with_window(capacity);
        let mut out = vec![0.0f32; heads * e];
        for i in 0..t {
            cache.append(&gather_step(&k, i), &gather_step(&v, i)).unwrap();
            decode_attention(&cache, &gather_step(&q, i), &mut out).unwrap();
        }
        prop_assert_eq!(cache.len(), capacity);
        prop_assert_eq!(cache.appended_tokens(), t);
        prop_assert_eq!(cache.evicted_tokens(), t - capacity);

        // The last step attends exactly the newest `capacity` tokens: the
        // oracle is prefill over that window with the final query row.
        let start = t - capacity;
        let kw = k.block([0, 0, start, 0], [1, heads, capacity, e]).unwrap();
        let vw = v.block([0, 0, start, 0], [1, heads, capacity, e]).unwrap();
        let qw = {
            // The window oracle needs the final query in its last row; reuse
            // the real query rows of the window (only the last row matters).
            q.block([0, 0, start, 0], [1, heads, capacity, e]).unwrap()
        };
        let tiles = TileSizes::new(capacity, 1, capacity).unwrap();
        let oracle = fused_online_attention(&qw, &kw, &vw, tiles).unwrap();
        let tol = Tolerance::default();
        for h in 0..heads {
            let want = oracle.row(0, h, capacity - 1);
            for (c, &g) in want.iter().enumerate() {
                prop_assert!(
                    tol.matches(out[h * e + c], g),
                    "windowed decode diverged at head {} col {}", h, c
                );
            }
        }
    }

    #[test]
    fn verify_decode_passes_for_random_decode_steps(
        heads in 1usize..6,
        context in 1usize..49,
        e in 2usize..25,
        seed in 0u64..1000,
    ) {
        let step = DecodeStep::new("prop-decode", 1, heads, context, e);
        let report = verify_decode(&step, seed).unwrap();
        prop_assert!(
            report.passed,
            "{}: {} mismatches (max abs diff {})",
            step, report.mismatches, report.max_abs_diff
        );
    }

    #[test]
    fn decode_cost_model_is_consistent_with_prefill(
        batch in 1usize..3,
        heads in 1usize..13,
        context in 1usize..2049,
        e in 1usize..129,
    ) {
        let step = DecodeStep::new("prop-cost", batch, heads, context, e);
        let prefill = step.prefill_equivalent();
        let row = step.to_chunk();
        // One decode step is exactly one query row of the prefill layer.
        prop_assert_eq!(prefill.total_mac_ops(), context as u64 * row.mac_ops());
        prop_assert_eq!(prefill.softmax_elements(), context as u64 * row.softmax_elements());
        // KV-cached DRAM traffic never exceeds the recompute baseline's.
        prop_assert!(
            row.min_dram_traffic_bytes_split(2, 2) <= prefill.min_dram_traffic_bytes(2)
                + 4 * row.new_row_bytes(2)
        );
        // The KV cache is the K/V halves of the prefill operands.
        prop_assert_eq!(step.kv_cache_bytes(2), 2 * prefill.operand_bytes(2));
    }
}
