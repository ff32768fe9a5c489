//! `kernels`: numeric CPU attention through [`mas_tensor`].
//!
//! One pass computes tiled prefill attention on a Table 1 shape and runs
//! one grouped-query decode session from an empty cache to
//! [`DECODE_CONTEXT`] tokens twice: through [`decode_attention`] on a
//! contiguous f32 cache and through [`decode_attention_paged`] on a paged
//! f16 cache. A contiguous f16 cache rides along (appends only) so the
//! paged kernel can be compared bitwise with it at the checkpoint
//! contexts. Set-up generates the seeded operands and the reference
//! attention the tiled output is checked against.

use std::hint::black_box;

use mas_tensor::attention::reference_attention;
use mas_tensor::decode::{decode_attention, KvCache};
use mas_tensor::golden::{golden_check, Tolerance};
use mas_tensor::half::KvDtype;
use mas_tensor::init::{random_qkv, random_tensor};
use mas_tensor::paged::{decode_attention_paged, KvBlockPool, PagedKvCache};
use mas_tensor::simd::dot_many;
use mas_tensor::tiled::{tiled_attention, TileSizes};
use mas_tensor::{Shape, Tensor};
use mas_workloads::Network;

use crate::spans::Tracer;
use crate::{
    record_end_to_end, record_tracing_overhead, repeated_setup, timed_passes, Outcome, RunConfig,
    Timing,
};

/// Table 1 network whose prefill shape the tiled kernel computes.
pub const PREFILL_NETWORK: Network = Network::BertSmall;
/// Query-row and key-row tile sizes of the tiled kernel.
const TILE_ROWS: usize = 64;
/// Grouped-query decode geometry: Llama3-8B's grouping (4 query heads per
/// KV head) at BERT-Small's head count and width, so a 1024-token session's
/// f32 cache (1 MiB) stays in a core's private cache and the timing does
/// not hinge on a shared last-level cache.
pub const DECODE_HEADS: usize = 8;
/// Shared key/value heads of the decode session.
pub const DECODE_KV_HEADS: usize = 2;
/// Per-head embedding size of the decode session.
pub const DECODE_EMBED: usize = 64;
/// Tokens each decode session grows to.
pub const DECODE_CONTEXT: usize = 1024;
/// KV block size of the paged cache, in tokens.
const BLOCK_TOKENS: usize = 16;
/// Contexts at which per-step times are reported and the paged f16 output
/// is compared bitwise with the contiguous f16 output.
pub const CHECKPOINTS: [usize; 3] = [64, 256, 1024];
/// Span names of the checkpoint steps: `[context][contiguous f32, paged f16]`.
const CHECKPOINT_SPANS: [[&str; 2]; 3] = [
    [
        "tensor.decode_step_us.64.contiguous.f32",
        "tensor.decode_step_us.64.paged.f16",
    ],
    [
        "tensor.decode_step_us.256.contiguous.f32",
        "tensor.decode_step_us.256.paged.f16",
    ],
    [
        "tensor.decode_step_us.1024.contiguous.f32",
        "tensor.decode_step_us.1024.paged.f16",
    ],
];

/// The generated operands.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelInputs {
    /// Prefill query, key and value tensors (`1 × H × N × E`).
    pub qkv: (Tensor, Tensor, Tensor),
    /// Per decode step: the query row of every head (`heads · embed`).
    pub decode_q: Vec<Vec<f32>>,
    /// Per decode step: the new key row of every KV head (`kv_heads · embed`).
    pub decode_k: Vec<Vec<f32>>,
    /// Per decode step: the new value row of every KV head.
    pub decode_v: Vec<Vec<f32>>,
}

fn step_rows(t: &Tensor, heads: usize, step: usize) -> Vec<f32> {
    (0..heads)
        .flat_map(|h| t.row(0, h, step).to_vec())
        .collect()
}

/// Generates the operands for `seed`.
///
/// # Panics
///
/// Panics if a constant shape above is zero (it is not).
#[must_use]
pub fn inputs(seed: u64) -> KernelInputs {
    let w = PREFILL_NETWORK.attention_workload(1);
    let qkv = random_qkv(w.batch, w.heads, w.seq_len, w.embed, seed);
    let shape = |heads| Shape::new(1, heads, DECODE_CONTEXT, DECODE_EMBED).expect("non-zero");
    let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let q_scale = 1.0 / (DECODE_EMBED as f32).sqrt();
    let q = random_tensor(shape(DECODE_HEADS), q_scale, seed.wrapping_add(1));
    let k = random_tensor(shape(DECODE_KV_HEADS), 1.0, seed.wrapping_add(2));
    let v = random_tensor(shape(DECODE_KV_HEADS), 1.0, seed.wrapping_add(3));
    let rows = |t: &Tensor, heads| {
        (0..DECODE_CONTEXT)
            .map(|s| step_rows(t, heads, s))
            .collect::<Vec<_>>()
    };
    KernelInputs {
        qkv,
        decode_q: rows(&q, DECODE_HEADS),
        decode_k: rows(&k, DECODE_KV_HEADS),
        decode_v: rows(&v, DECODE_KV_HEADS),
    }
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    /// The tiled prefill output.
    prefill: Option<Tensor>,
    /// Per checkpoint: paged f16 and contiguous f16 outputs.
    checkpoints: Vec<(Vec<f32>, Vec<f32>)>,
    errors: Vec<String>,
}

/// Query rows one pass computes: the prefill rows plus both sessions' steps.
fn rows_per_pass() -> usize {
    PREFILL_NETWORK.attention_workload(1).seq_len + 2 * DECODE_CONTEXT
}

fn pass(inputs: &KernelInputs, tracer: &mut Tracer) -> Pass {
    tracer.span("bench.pass", |tracer| {
        let mut pass = Pass::default();
        let (q, k, v) = &inputs.qkv;
        let seq_len = q.shape().dims()[2];
        let prefill = TileSizes::new(TILE_ROWS, TILE_ROWS, seq_len).and_then(|tiles| {
            tracer.span("tensor.tiled_attention", |_| {
                tiled_attention(q, k, v, tiles)
            })
        });
        match prefill {
            Ok(out) => pass.prefill = Some(out),
            Err(e) => pass.errors.push(format!("tiled attention: {e}")),
        }
        if let Err(e) = decode_sessions(inputs, tracer, &mut pass) {
            pass.errors.push(format!("decode: {e}"));
        }
        pass
    })
}

fn decode_sessions(
    inputs: &KernelInputs,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> mas_tensor::Result<()> {
    let (h, kvh, e) = (DECODE_HEADS, DECODE_KV_HEADS, DECODE_EMBED);
    let mut out = vec![0.0f32; h * e];
    let mut contiguous = KvCache::grouped(h, kvh, e)?;
    for step in 0..DECODE_CONTEXT {
        contiguous.append(&inputs.decode_k[step], &inputs.decode_v[step])?;
        let name =
            checkpoint(step + 1).map_or("tensor.decode_attention", |c| CHECKPOINT_SPANS[c][0]);
        tracer.span(name, |_| {
            decode_attention(&contiguous, &inputs.decode_q[step], &mut out)
        })?;
    }
    black_box(&out);

    let mut pool = KvBlockPool::new(BLOCK_TOKENS, kvh, e).with_dtype(KvDtype::F16);
    let mut paged = PagedKvCache::new(h, kvh, e, BLOCK_TOKENS)?;
    let mut reference = KvCache::grouped(h, kvh, e)?.with_dtype(KvDtype::F16);
    let mut reference_out = vec![0.0f32; h * e];
    for step in 0..DECODE_CONTEXT {
        paged.append(&mut pool, &inputs.decode_k[step], &inputs.decode_v[step])?;
        reference.append(&inputs.decode_k[step], &inputs.decode_v[step])?;
        let at = checkpoint(step + 1);
        let name = at.map_or("tensor.decode_attention_paged", |c| CHECKPOINT_SPANS[c][1]);
        tracer.span(name, |_| {
            decode_attention_paged(&pool, &paged, &inputs.decode_q[step], &mut out)
        })?;
        if at.is_some() {
            decode_attention(&reference, &inputs.decode_q[step], &mut reference_out)?;
            pass.checkpoints.push((out.clone(), reference_out.clone()));
        }
    }
    paged.release(&mut pool);
    Ok(())
}

fn checkpoint(context: usize) -> Option<usize> {
    CHECKPOINTS.iter().position(|&c| c == context)
}

/// Runs `kernels`.
#[must_use]
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let ((inputs, golden), setup) = repeated_setup(|| {
        let inputs = inputs(config.seed);
        let (q, k, v) = &inputs.qkv;
        let golden = reference_attention(q, k, v);
        (inputs, golden)
    });
    let golden = match golden {
        Ok(golden) => golden,
        Err(e) => {
            outcome.failed += 1;
            outcome.failures.push(format!("reference attention: {e}"));
            return outcome;
        }
    };

    // Each pass is checked as it completes and then dropped, so memory does
    // not grow with the number of passes.
    let mut keep = |p: Pass| check(&p, &golden, &mut outcome);
    let mut untraced = Tracer::new(false);
    let untraced_timing = timed_passes(
        config.phase_budget(),
        2,
        || pass(&inputs, &mut untraced),
        &mut keep,
    );
    let mut tracer = Tracer::new(config.trace);
    let traced_timing = if config.trace {
        timed_passes(
            config.phase_budget(),
            2,
            || pass(&inputs, &mut tracer),
            &mut keep,
        )
    } else {
        Timing::default()
    };
    outcome.notes.push(setup.summary("setup"));
    outcome.notes.push(untraced_timing.summary("untraced"));
    if config.trace {
        outcome.notes.push(traced_timing.summary("traced"));
    }
    let rows = rows_per_pass() as f64;

    if config.trace {
        record_tracing_overhead(&mut outcome, rows, &untraced_timing, &traced_timing);
        record_layers(&inputs, &mut tracer, &mut outcome);
        outcome.notes.extend(tracer.summary());
    } else {
        record_end_to_end(&mut outcome, rows, &setup, &untraced_timing);
    }
    outcome.notes.push(format!(
        "kernels: {rows} query rows/pass, {} passes, simd backend {}",
        untraced_timing.passes.len() + traced_timing.passes.len(),
        mas_tensor::simd::backend()
    ));
    outcome
}

/// Correctness: the tiled output passes the golden check, and the paged f16
/// decode output equals the contiguous f16 output bitwise at every
/// checkpoint.
fn check(p: &Pass, golden: &Tensor, outcome: &mut Outcome) {
    outcome.attempted += (1 + 2 * DECODE_CONTEXT) as u64;
    outcome.failed += p.errors.len() as u64;
    outcome.failures.extend(p.errors.iter().cloned());
    if let Some(out) = &p.prefill {
        match golden_check(out, golden, Tolerance::strict()) {
            Ok(report) => outcome.check(report.passed, || {
                format!(
                    "tiled attention golden check: {} mismatches, max |diff| {:e}",
                    report.mismatches, report.max_abs_diff
                )
            }),
            Err(e) => outcome.failures.push(format!("golden check: {e}")),
        }
    }
    outcome.check(p.checkpoints.len() == CHECKPOINTS.len(), || {
        "decode checkpoints missing".into()
    });
    for (paged, contiguous) in &p.checkpoints {
        let equal = paged
            .iter()
            .zip(contiguous)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        outcome.check(equal, || "paged f16 differs from contiguous f16".into());
    }
}

fn record_layers(inputs: &KernelInputs, tracer: &mut Tracer, outcome: &mut Outcome) {
    let passes = tracer.count("bench.pass").max(1) as f64;
    let mut decode_s = tracer.total_self_s("tensor.decode_attention")
        + tracer.total_self_s("tensor.decode_attention_paged");
    for name in CHECKPOINT_SPANS.iter().flatten() {
        decode_s += tracer.total_self_s(name);
        outcome.set(name, tracer.mean_self_s(name) * 1e6);
    }
    outcome.set(
        "kernels.decode_tokens_per_s",
        2.0 * DECODE_CONTEXT as f64 * passes / decode_s,
    );
    let tiled_s = tracer.mean_self_s("tensor.tiled_attention");
    let seq_len = inputs.qkv.0.shape().dims()[2] as f64;
    outcome.set("tensor.tiled_attention_ms", tiled_s * 1e3);
    outcome.set("kernels.prefill_tokens_per_s", seq_len / tiled_s);

    // The SIMD primitive under the decode score pass: one query row against
    // a session's worth of key rows.
    let rows = &inputs.decode_k;
    let x = &inputs.decode_q[0][..DECODE_EMBED];
    let keys: Vec<f32> = rows
        .iter()
        .flat_map(|r| r[..DECODE_EMBED].to_vec())
        .collect();
    let mut scores = vec![0.0f32; rows.len()];
    const REPEATS: usize = 200;
    for _ in 0..REPEATS {
        tracer.span("simd.dot_many", |_| {
            dot_many(x, black_box(&keys), &mut scores)
        });
    }
    black_box(&scores);
    let flops = 2.0 * keys.len() as f64 * REPEATS as f64;
    outcome.set(
        "simd.dot_many_gflops",
        flops / tracer.total_self_s("simd.dot_many") / 1e9,
    );
}
