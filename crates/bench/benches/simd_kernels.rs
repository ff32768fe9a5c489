//! Scalar-vs-dispatched throughput of the explicit SIMD kernels.
//!
//! `mas_tensor::simd` promises that the runtime-dispatched backend is
//! bit-identical to the scalar 8-lane reference — this bench pins the other
//! half of the contract: that dispatch actually pays. It times the scalar
//! reference (`simd::scalar`) against the dispatched entry points on a
//! dot-dominated attention score pass (one query row against a key matrix,
//! the shape `matmul_nt` feeds `dot_many`) plus the axpy accumulation and
//! softmax row passes, prints the selected backend and the speedups, and
//! asserts the dispatched path is never slower than scalar. With a SIMD
//! backend selected (AVX2/NEON) the score pass is expected well above the
//! bar — the batched `dot_many` hides the add-latency chain that caps a
//! single vectorized dot.

use std::hint::black_box;

use mas_bench::time_per_call;
use mas_tensor::simd;

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
    let dispatched_axpy = time_per_call(|| {
        simd::axpy(black_box(0.5), black_box(&row), &mut acc);
    });
    let scalar_axpy = time_per_call(|| {
        simd::scalar::axpy(black_box(0.5), black_box(&row), &mut acc);
    });
    let dispatched_softmax = time_per_call(|| {
        let m = simd::slice_max(black_box(&row));
        for (d, &x) in scores.iter_mut().zip(&row) {
            *d = (x - m).exp();
        }
        let denom = simd::sum8(&scores);
        simd::scale(1.0 / denom, &mut scores);
    });
    let scalar_softmax = time_per_call(|| {
        let m = simd::scalar::slice_max(black_box(&row));
        for (d, &x) in scores.iter_mut().zip(&row) {
            *d = (x - m).exp();
        }
        let denom = simd::scalar::sum8(&scores);
        simd::scalar::scale(1.0 / denom, &mut scores);
    });

    println!("\nsimd kernel throughput, backend `{backend}` ({KEYS} keys x {EMBED} embed):");
    println!("| kernel | scalar | dispatched | speedup |");
    println!("|---|---|---|---|");
    let rows = [
        ("score pass (dot_many)", scalar_score, dispatched_score),
        ("axpy", scalar_axpy, dispatched_axpy),
        ("softmax row passes", scalar_softmax, dispatched_softmax),
    ];
    for (name, s, d) in rows {
        println!(
            "| {name} | {:.2} µs | {:.2} µs | {:.2}x |",
            s.as_secs_f64() * 1e6,
            d.as_secs_f64() * 1e6,
            s.as_secs_f64() / d.as_secs_f64(),
        );
    }

    // With a SIMD backend the dot-dominated score pass must win outright —
    // it is the kernel dispatch exists for. Axpy and the softmax row passes
    // are memory-bound at this row length (and the exp loop is identical
    // scalar code on both sides), so they are parity kernels kept for
    // bit-compatibility: their bar only guards against a real regression
    // hiding under timing jitter. Under forced-scalar dispatch both sides
    // run the same code everywhere and every bar is a noise guard.
    let strict = if backend == "scalar" { 0.85 } else { 1.0 };
    let parity = 0.85;
    let bars = [
        (
            "score pass (dot_many)",
            scalar_score,
            dispatched_score,
            strict,
        ),
        ("axpy", scalar_axpy, dispatched_axpy, parity),
        (
            "softmax row passes",
            scalar_softmax,
            dispatched_softmax,
            parity,
        ),
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
