//! SIMD/scalar bit-compatibility proptests.
//!
//! The dispatched kernels in `mas_tensor::simd` promise *bitwise* equality
//! with the documented scalar 8-lane reference (`mas_tensor::simd::scalar`)
//! for every input length — full 8-lane chunks, ragged tails of 1..=7
//! elements, and the empty slice. These properties drive random lengths
//! (biased to cover every tail residue) and random finite values through
//! both paths and require identical bits, so a vectorized backend that
//! reassociates the accumulation (or sneaks in an FMA) fails loudly on any
//! host where it is selected. `slice_max` is the documented exception: it
//! is value-equal, not bit-equal, and softmax outputs built on it must
//! still match bitwise (max is subtracted, so its association cannot leak
//! into the result).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mas_tensor::simd;
use mas_tensor::softmax::softmax_row;

/// Random finite values in `[-8, 8)` — wide enough to vary exponents,
/// bounded so products and sums stay finite.
fn vec_of(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dispatched_dot_is_bitwise_equal_to_the_scalar_reference(
        len in 0usize..133,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (x, y) = (vec_of(len, &mut rng), vec_of(len, &mut rng));
        prop_assert_eq!(
            simd::dot(&x, &y).to_bits(),
            simd::scalar::dot(&x, &y).to_bits(),
            "backend {}", simd::backend()
        );
    }

    #[test]
    fn dispatched_dot_many_is_bitwise_equal_to_per_row_scalar_dots(
        n in 1usize..132,
        rows in 1usize..10,
        seed in 0u64..10_000,
    ) {
        // dot_many batches rows for instruction-level parallelism; every
        // row must still reduce in the canonical order.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = vec_of(n, &mut rng);
        let r = vec_of(rows * n, &mut rng);
        let mut out = vec![0.0f32; rows];
        simd::dot_many(&x, &r, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let want = simd::scalar::dot(&x, &r[i * n..(i + 1) * n]);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "row {} of {}", i, rows);
        }
    }

    #[test]
    fn dispatched_axpy_is_bitwise_equal_to_the_scalar_reference(
        len in 0usize..133,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rng.gen_range(-4.0f32..4.0);
        let x = vec_of(len, &mut rng);
        let base = vec_of(len, &mut rng);
        let mut got = base.clone();
        let mut want = base;
        simd::axpy(a, &x, &mut got);
        simd::scalar::axpy(a, &x, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "element {}", i);
        }
    }

    #[test]
    fn dispatched_axpy_many_is_bitwise_equal_to_repeated_scalar_axpy(
        rows in 0usize..71,
        n in 1usize..131,
        seed in 0u64..10_000,
    ) {
        // axpy_many keeps `out` in registers across rows; every element must
        // still see one multiply and one add per row, rows in order.
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f32> = (0..rows)
            .map(|_| match rng.gen_range(0u32..4) {
                0 => 0.0,
                1 => -rng.gen_range(0.0f32..4.0),
                2 => {
                    let subnormal = f32::from_bits(rng.gen_range(1u32..0x0080_0000));
                    if rng.gen_bool(0.5) { -subnormal } else { subnormal }
                }
                _ => rng.gen_range(-4.0f32..4.0),
            })
            .collect();
        let x = vec_of(rows * n, &mut rng);
        let base = vec_of(n, &mut rng);
        let mut got = base.clone();
        let mut want = base;
        simd::axpy_many(&weights, &x, &mut got);
        for (r, &w) in weights.iter().enumerate() {
            simd::scalar::axpy(w, &x[r * n..(r + 1) * n], &mut want);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "element {} of {}, {} rows", i, n, rows);
        }
    }

    #[test]
    fn dispatched_sum8_and_scale_are_bitwise_equal_to_scalar(
        len in 0usize..133,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = vec_of(len, &mut rng);
        prop_assert_eq!(
            simd::sum8(&x).to_bits(),
            simd::scalar::sum8(&x).to_bits()
        );
        let s = rng.gen_range(-2.0f32..2.0);
        let mut got = x.clone();
        let mut want = x;
        simd::scale(s, &mut got);
        simd::scalar::scale(s, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "element {}", i);
        }
    }

    #[test]
    fn dispatched_slice_max_is_value_equal_to_scalar(
        len in 1usize..133,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = vec_of(len, &mut rng);
        // Value equality only: max is associative over finite floats, and
        // the module docs exempt slice_max from the bitwise contract.
        prop_assert_eq!(simd::slice_max(&x), simd::scalar::slice_max(&x));
    }

    #[test]
    fn softmax_rows_are_bitwise_equal_to_the_scalar_composition(
        len in 1usize..133,
        seed in 0u64..10_000,
    ) {
        // The full softmax row pass (max, shift+exp, 8-lane denominator,
        // normalize) must produce identical bits however its inner kernels
        // dispatch: the max is subtracted out, and every other pass is
        // bitwise-pinned above.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = vec_of(len, &mut rng);
        let mut got = vec![0.0f32; len];
        softmax_row(&x, &mut got);
        let row_max = simd::scalar::slice_max(&x);
        let mut want: Vec<f32> = x.iter().map(|&v| (v - row_max).exp()).collect();
        let denom = simd::scalar::sum8(&want);
        simd::scalar::scale(1.0 / denom, &mut want);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "element {} of {}", i, len);
        }
    }

    #[test]
    fn dispatched_f16_widening_matches_the_software_converter(
        len in 0usize..133,
        seed in 0u64..10_000,
    ) {
        use mas_tensor::half::{f16_bits_to_f32, f32_to_f16_bits_saturating};
        let mut rng = StdRng::seed_from_u64(seed);
        // Bits as the KV store writes them: saturating conversions of
        // finite values (never NaN payloads beyond the canonical one).
        let bits: Vec<u16> = (0..len)
            .map(|_| f32_to_f16_bits_saturating(rng.gen_range(-70000.0f32..70000.0)))
            .collect();
        let mut got = vec![0.0f32; len];
        simd::f16_to_f32_slice(&bits, &mut got);
        for (i, (&g, &b)) in got.iter().zip(&bits).enumerate() {
            prop_assert_eq!(g.to_bits(), f16_bits_to_f32(b).to_bits(), "element {}", i);
        }
    }
}
