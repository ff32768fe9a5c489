//! Scalar-vs-dispatched throughput of the explicit SIMD kernels.
//!
//! `mas_tensor::simd` promises that the runtime-dispatched backend is
//! bit-identical to the scalar 8-lane reference — this bench pins the other
//! half of the contract: that dispatch actually pays. It times the scalar
//! reference (`simd::scalar`) against the dispatched entry points on a
//! dot-dominated attention score pass (one query row against a key matrix,
//! the shape `matmul_nt` and the decode step feed `dot_many`), the
//! value-block accumulation (one output row from a probability-weighted
//! value matrix, the shape the decode step and `tiled_attention` feed
//! `axpy_many`), the axpy pass and one softmax row (`softmax_row_in_place`
//! against the scalar composition `slice_max`, `exp_sum`, `scale`), prints
//! the selected backend and the speedups, and asserts the dispatched path
//! is never slower than scalar. With a SIMD backend selected (AVX2/NEON)
//! the score pass is expected well above the bar — the batched `dot_many`
//! hides the add-latency chain that caps a single vectorized dot — and so
//! is the softmax row, whose exponentials `exp_sum` computes eight lanes
//! at a time.

use std::hint::black_box;

use mas_bench::time_per_call;
use mas_tensor::simd;
use mas_tensor::softmax::softmax_row_in_place;

/// Keys × embed of the score pass: a decode-like dot-dominated shape.
const KEYS: usize = 2048;
const EMBED: usize = 64;

fn filled(len: usize, seed: u32) -> Vec<f32> {
    // Small deterministic LCG; values in (-1, 1).
    let mut state = seed.wrapping_mul(2654435761).max(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

/// Prints the selected backend and the scalar-vs-dispatched speedup per
/// kernel, asserting the dispatched path never loses to the reference.
fn main() {
    let backend = simd::backend();
    let q = filled(EMBED, 7);
    let keys = filled(KEYS * EMBED, 11);
    let row = filled(KEYS, 13);
    let mut scores = vec![0.0f32; KEYS];
    let mut acc = vec![0.0f32; KEYS];

    let dispatched_score = time_per_call(|| {
        simd::dot_many(black_box(&q), black_box(&keys), &mut scores);
    });
    let scalar_score = time_per_call(|| {
        for (i, s) in scores.iter_mut().enumerate() {
            *s = simd::scalar::dot(black_box(&q), &keys[i * EMBED..(i + 1) * EMBED]);
        }
    });
    let mut out = vec![0.0f32; EMBED];
    let dispatched_axpy_many = time_per_call(|| {
        simd::axpy_many(black_box(&row), black_box(&keys), &mut out);
    });
    let scalar_axpy_many = time_per_call(|| {
        simd::scalar::axpy_many(black_box(&row), black_box(&keys), &mut out);
    });
    black_box(&out);
    let dispatched_axpy = time_per_call(|| {
        simd::axpy(black_box(0.5), black_box(&row), &mut acc);
    });
    let scalar_axpy = time_per_call(|| {
        simd::scalar::axpy(black_box(0.5), black_box(&row), &mut acc);
    });
    // Each call refreshes the row from `row` first (both sides alike), so
    // every softmax runs on the same logits.
    let dispatched_softmax = time_per_call(|| {
        scores.copy_from_slice(black_box(&row));
        softmax_row_in_place(&mut scores);
    });
    let scalar_softmax = time_per_call(|| {
        scores.copy_from_slice(black_box(&row));
        let m = simd::scalar::slice_max(&scores);
        let denom = simd::scalar::exp_sum(m, &mut scores);
        simd::scalar::scale(1.0 / denom, &mut scores);
    });

    println!("\nsimd kernel throughput, backend `{backend}` ({KEYS} keys x {EMBED} embed):");
    println!("| kernel | scalar | dispatched | speedup |");
    println!("|---|---|---|---|");
    let rows = [
        ("score pass (dot_many)", scalar_score, dispatched_score),
        (
            "value block (axpy_many)",
            scalar_axpy_many,
            dispatched_axpy_many,
        ),
        ("axpy", scalar_axpy, dispatched_axpy),
        ("softmax row", scalar_softmax, dispatched_softmax),
    ];
    for (name, s, d) in rows {
        println!(
            "| {name} | {:.2} µs | {:.2} µs | {:.2}x |",
            s.as_secs_f64() * 1e6,
            d.as_secs_f64() * 1e6,
            s.as_secs_f64() / d.as_secs_f64(),
        );
    }

    // With a SIMD backend the dot-dominated score pass, the value-block
    // accumulation (which keeps its output row in registers across the
    // 2048 value rows) and the softmax row (whose exponentials are vector
    // code) must win outright — they are the kernels dispatch exists for.
    // Axpy is memory-bound at this row length, so it is a parity kernel
    // kept for bit-compatibility: its bar only guards against a real
    // regression hiding under timing jitter. Under forced-scalar dispatch
    // both sides run the same code everywhere and every bar is a noise
    // guard.
    let strict = if backend == "scalar" { 0.85 } else { 1.0 };
    let parity = 0.85;
    let bars = [
        (
            "score pass (dot_many)",
            scalar_score,
            dispatched_score,
            strict,
        ),
        (
            "value block (axpy_many)",
            scalar_axpy_many,
            dispatched_axpy_many,
            strict,
        ),
        ("axpy", scalar_axpy, dispatched_axpy, parity),
        ("softmax row", scalar_softmax, dispatched_softmax, strict),
    ];
    for (name, s, d, bar) in bars {
        let speedup = s.as_secs_f64() / d.as_secs_f64();
        assert!(
            speedup >= bar,
            "dispatched {name} must not lose to the scalar reference on \
             backend {backend}: {speedup:.2}x (bar {bar})"
        );
    }
}
