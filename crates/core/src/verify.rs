//! Golden-data verification entry point (paper §5.1), extended to the
//! decode path: KV-cached autoregressive steps — contiguous and paged
//! (block-table), MHA and grouped-query — are checked differentially
//! against the prefill oracle (head-replicated for GQA).

use mas_dataflow::numeric::golden_check_method;
use mas_dataflow::{AttentionWorkload, DataflowKind, DecodeStep, Tiling};
use mas_tensor::decode::{decode_attention, expand_kv_heads, KvCache};
use mas_tensor::golden::{golden_check, GoldenReport, Tolerance};
use mas_tensor::init::random_qkv;
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::tiled::{fused_online_attention, TileSizes};
use mas_tensor::{Result, Tensor};

/// Runs the golden-data check for one method on a seeded random instance of
/// the workload: the method's tiled numerical executor must match the
/// unfused reference attention within floating-point tolerance.
///
/// For very large workloads the check is performed on a proportionally
/// scaled-down instance (the sequence length is capped at 256 and the head
/// count at 4) — the blocking structure, which is what the check validates,
/// is preserved by scaling the tiling with the workload.
///
/// # Errors
///
/// Returns a [`mas_tensor::TensorError`] if tensor shapes are inconsistent.
pub fn verify_method(
    method: DataflowKind,
    workload: &AttentionWorkload,
    tiling: &Tiling,
    seed: u64,
) -> Result<GoldenReport> {
    // Scale down huge workloads so verification stays fast while keeping the
    // same number of tiles per dimension.
    let (seq, heads) = (workload.seq_len.min(256), workload.heads.min(4));
    let scale = workload.seq_len as f64 / seq as f64;
    let scaled_tiling = Tiling::new(
        tiling.b_b,
        tiling.h_h.min(heads),
        ((tiling.n_q as f64 / scale).round() as usize).max(1),
        ((tiling.n_kv as f64 / scale).round() as usize).max(1),
        &AttentionWorkload::new("verify", workload.batch, heads, seq, workload.embed),
    );
    let (q, k, v) = random_qkv(workload.batch, heads, seq, workload.embed, seed);
    golden_check_method(method, &q, &k, &v, &scaled_tiling)
}

/// Scales a decode step's head grouping down with its head count: the
/// verification cap on `heads` must keep `kv_heads` a divisor.
fn scaled_decode_shape(step: &DecodeStep) -> (usize, usize, usize, usize) {
    let t = step.context_len.min(128);
    let heads = step.heads.min(4);
    let mut kv_heads = step.kv_heads.min(heads);
    while !heads.is_multiple_of(kv_heads) {
        kv_heads -= 1;
    }
    (t, heads, kv_heads, step.embed)
}

/// Copies row `i` of every head of `src` into the head-major `dst` slice.
fn gather_row(src: &Tensor, i: usize, dst: &mut [f32]) {
    let [_, heads, _, embed] = src.shape().dims();
    for h in 0..heads {
        dst[h * embed..(h + 1) * embed].copy_from_slice(src.row(0, h, i));
    }
}

/// Seeded random decode inputs at the step's (scaled) shape: queries with
/// `heads` heads, keys/values with `kv_heads` heads, plus the
/// head-replicated K/V the MHA oracle consumes.
#[allow(clippy::type_complexity)]
fn decode_inputs(
    step: &DecodeStep,
    seed: u64,
) -> Result<(
    usize,
    usize,
    usize,
    usize,
    Tensor,
    Tensor,
    Tensor,
    Tensor,
    Tensor,
)> {
    let (t, heads, kv_heads, embed) = scaled_decode_shape(step);
    let (q, _, _) = random_qkv(1, heads, t, embed, seed);
    let (_, k, v) = random_qkv(1, kv_heads, t, embed, seed.wrapping_add(0x9e37_79b9));
    let k_full = expand_kv_heads(&k, heads)?;
    let v_full = expand_kv_heads(&v, heads)?;
    Ok((t, heads, kv_heads, embed, q, k, v, k_full, v_full))
}

/// The prefix-prefill golden tensor: for each step `i`, row `i` holds the
/// last query row of [`fused_online_attention`] over the `(i+1)`-token
/// prefix of the (head-replicated) inputs — exactly what the decode step
/// computes. Grouped-query decode is checked against this *head-replicated
/// MHA oracle*: G query heads reading one shared KV head must match G MHA
/// heads reading G copies of it.
fn prefix_prefill_golden(q: &Tensor, k_full: &Tensor, v_full: &Tensor) -> Result<Tensor> {
    let [_, heads, t, embed] = q.shape().dims();
    let mut golden = Tensor::zeros(*q.shape());
    for i in 0..t {
        let prefix = i + 1;
        let sub = |src: &Tensor| src.block([0, 0, 0, 0], [1, heads, prefix, embed]);
        let tiles = TileSizes::new(prefix, prefix.min(32), prefix)?;
        let oracle = fused_online_attention(&sub(q)?, &sub(k_full)?, &sub(v_full)?, tiles)?;
        for h in 0..heads {
            golden.row_mut(0, h, i).copy_from_slice(oracle.row(0, h, i));
        }
    }
    Ok(golden)
}

/// Differential golden check of the KV-cached decode path: runs the full
/// autoregressive loop (append the step's `K`/`V` rows to a [`KvCache`],
/// then [`decode_attention`] for the step's query) over a seeded random
/// sequence, and compares every step's output against the prefill oracle —
/// [`fused_online_attention`] over the step's context prefix, whose last row
/// computes the same attention the decode step does. Grouped-query steps
/// (`kv_heads < heads`) are checked against the head-replicated MHA oracle.
///
/// Like [`verify_method`], huge workloads are scaled down (context capped at
/// 128 tokens, heads at 4, the head grouping scaled with them) — the check
/// validates the incremental algorithm, which is context-length independent.
/// The decode batch dimension is verified per session (batch 1): a batched
/// decode launch is numerically the per-session kernels side by side.
///
/// # Errors
///
/// Returns a [`mas_tensor::TensorError`] if tensor shapes are inconsistent.
pub fn verify_decode(step: &DecodeStep, seed: u64) -> Result<GoldenReport> {
    let (t, heads, kv_heads, embed, q, k, v, k_full, v_full) = decode_inputs(step, seed)?;

    let mut cache = KvCache::grouped(heads, kv_heads, embed)?;
    let mut decoded = Tensor::zeros(*q.shape());
    let mut q_in = vec![0.0f32; heads * embed];
    let mut k_in = vec![0.0f32; kv_heads * embed];
    let mut v_in = vec![0.0f32; kv_heads * embed];
    let mut step_out = vec![0.0f32; heads * embed];
    for i in 0..t {
        gather_row(&k, i, &mut k_in);
        gather_row(&v, i, &mut v_in);
        cache.append(&k_in, &v_in)?;
        gather_row(&q, i, &mut q_in);
        decode_attention(&cache, &q_in, &mut step_out)?;
        for h in 0..heads {
            decoded
                .row_mut(0, h, i)
                .copy_from_slice(&step_out[h * embed..(h + 1) * embed]);
        }
    }
    let golden = prefix_prefill_golden(&q, &k_full, &v_full)?;
    golden_check(&decoded, &golden, Tolerance::default())
}

/// Differential golden check of the *paged* decode path: runs the same
/// autoregressive loop as [`verify_decode`] through a
/// [`PagedKvCache`]/[`KvBlockPool`] block table at `block_tokens` tokens per
/// block, requires the result to be **bit-identical** to the contiguous
/// [`KvCache`] path at every step, and then checks it against the
/// prefix-prefill oracle within the usual tolerance.
///
/// A paged-vs-contiguous divergence is reported as a failed [`GoldenReport`]
/// (zero tolerance), so callers distinguish "the paged sweep broke"
/// (bitwise mismatch) from ordinary float drift against the oracle.
///
/// # Errors
///
/// Returns a [`mas_tensor::TensorError`] if tensor shapes are inconsistent
/// or the block geometry is invalid.
pub fn verify_decode_paged(
    step: &DecodeStep,
    block_tokens: usize,
    seed: u64,
) -> Result<GoldenReport> {
    let (t, heads, kv_heads, embed, q, k, v, k_full, v_full) = decode_inputs(step, seed)?;

    let mut contiguous = KvCache::grouped(heads, kv_heads, embed)?;
    // The cache checks the block geometry, so it is built before the pool,
    // whose constructor would panic on it.
    let mut paged = PagedKvCache::new(heads, kv_heads, embed, block_tokens)?;
    let mut pool = KvBlockPool::new(block_tokens, kv_heads, embed);
    let mut decoded_contig = Tensor::zeros(*q.shape());
    let mut decoded_paged = Tensor::zeros(*q.shape());
    let mut q_in = vec![0.0f32; heads * embed];
    let mut k_in = vec![0.0f32; kv_heads * embed];
    let mut v_in = vec![0.0f32; kv_heads * embed];
    let mut out_c = vec![0.0f32; heads * embed];
    let mut out_p = vec![0.0f32; heads * embed];
    for i in 0..t {
        gather_row(&k, i, &mut k_in);
        gather_row(&v, i, &mut v_in);
        contiguous.append(&k_in, &v_in)?;
        paged.append(&mut pool, &k_in, &v_in)?;
        gather_row(&q, i, &mut q_in);
        decode_attention(&contiguous, &q_in, &mut out_c)?;
        decode_attention_paged(&pool, &paged, &q_in, &mut out_p)?;
        for h in 0..heads {
            let cols = h * embed..(h + 1) * embed;
            decoded_contig
                .row_mut(0, h, i)
                .copy_from_slice(&out_c[cols.clone()]);
            decoded_paged.row_mut(0, h, i).copy_from_slice(&out_p[cols]);
        }
    }
    // Bitwise paged-vs-contiguous equality first: any divergence is a bug in
    // the block-table sweep, not float drift.
    let exact = golden_check(
        &decoded_paged,
        &decoded_contig,
        Tolerance {
            abs_tol: 0.0,
            rel_tol: 0.0,
        },
    )?;
    if !exact.passed {
        return Ok(exact);
    }
    let golden = prefix_prefill_golden(&q, &k_full, &v_full)?;
    golden_check(&decoded_paged, &golden, Tolerance::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_method_passes_on_a_bert_like_layer() {
        let w = AttentionWorkload::new("BERT-like", 1, 12, 512, 64);
        let t = Tiling::new(1, 1, 64, 128, &w);
        for method in DataflowKind::all() {
            let report = verify_method(method, &w, &t, 11).unwrap();
            assert!(
                report.passed,
                "{method}: {} mismatches (max abs diff {})",
                report.mismatches, report.max_abs_diff
            );
            assert!(report.elements > 0);
        }
    }

    #[test]
    fn verification_scales_down_long_sequences() {
        let w = AttentionWorkload::new("long", 1, 2, 8192, 64);
        let t = Tiling::new(1, 1, 256, 1024, &w);
        let report = verify_method(DataflowKind::MasAttention, &w, &t, 3).unwrap();
        assert!(report.passed);
        // 8192 tokens would be 8192² elements per head; the scaled check is
        // bounded by 256² per head.
        assert!(report.elements <= 2 * 256 * 64);
    }

    #[test]
    fn decode_matches_the_prefill_oracle_step_by_step() {
        let step = DecodeStep::new("decode-verify", 1, 3, 40, 16);
        let report = verify_decode(&step, 29).unwrap();
        assert!(
            report.passed,
            "{} mismatches (max abs diff {})",
            report.mismatches, report.max_abs_diff
        );
        assert_eq!(report.elements, 3 * 40 * 16);
    }

    #[test]
    fn decode_verification_scales_down_long_contexts() {
        let step = DecodeStep::new("long-decode", 1, 8, 4096, 32);
        let report = verify_decode(&step, 5).unwrap();
        assert!(report.passed);
        // Context capped at 128 and heads at 4.
        assert_eq!(report.elements, 4 * 128 * 32);
    }

    #[test]
    fn grouped_query_decode_matches_the_replicated_oracle() {
        for kv_heads in [1, 2, 4] {
            let step = DecodeStep::new("gqa-verify", 1, 4, 37, 8).with_kv_heads(kv_heads);
            let report = verify_decode(&step, 13).unwrap();
            assert!(
                report.passed,
                "kv_heads={kv_heads}: {} mismatches (max abs diff {})",
                report.mismatches, report.max_abs_diff
            );
        }
    }

    #[test]
    fn grouped_scaling_keeps_the_divisor_property() {
        // 32 query heads / 8 KV heads scales to 4 query heads; kv_heads must
        // scale to a divisor of 4, and the check must still pass.
        let step = DecodeStep::new("llama-decode", 1, 32, 300, 16).with_kv_heads(8);
        let report = verify_decode(&step, 3).unwrap();
        assert!(report.passed);
        assert_eq!(report.elements, 4 * 128 * 16);
    }

    #[test]
    fn paged_decode_verifies_across_block_sizes() {
        let step = DecodeStep::new("paged-verify", 1, 3, 40, 16);
        for block_tokens in [1, 7, 16, 64] {
            let report = verify_decode_paged(&step, block_tokens, 29).unwrap();
            assert!(
                report.passed,
                "block {block_tokens}: {} mismatches (max abs diff {})",
                report.mismatches, report.max_abs_diff
            );
        }
        // Paged GQA too.
        let gqa = DecodeStep::new("paged-gqa", 1, 4, 25, 8).with_kv_heads(2);
        assert!(verify_decode_paged(&gqa, 7, 31).unwrap().passed);
    }

    #[test]
    fn zero_block_size_is_a_typed_error() {
        let step = DecodeStep::new("paged-verify", 1, 3, 40, 16);
        assert_eq!(
            verify_decode_paged(&step, 0, 29).unwrap_err(),
            mas_tensor::TensorError::ZeroDimension {
                dim: "block_tokens"
            }
        );
    }
}
