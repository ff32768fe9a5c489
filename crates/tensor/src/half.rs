//! IEEE-754 binary16 (half precision) storage emulation.
//!
//! The paper's edge deployments store activations in FP16 (§5.6 analyses the
//! maximum sequence length "in half precision (FP16)"). This module provides
//! a software f32↔f16 round-trip so the reproduction can (a) account for FP16
//! footprints and (b) quantify the numerical effect of storing intermediates
//! in half precision, without pulling in an external `half` crate.
//!
//! The conversion implements round-to-nearest-even, gradual underflow to
//! subnormals, and saturation to ±infinity, which is what edge NPUs implement
//! in hardware.

use crate::tensor::Tensor;

/// Element type used for KV-cache *storage* (as opposed to the f32 compute
/// type every kernel consumes).
///
/// With [`F16`](KvDtype::F16) the contiguous and paged caches store K/V rows
/// as raw binary16 bit patterns (`u16`), written through the saturating
/// converter [`f32_to_f16_bits_saturating`] and expanded back to f32 per row
/// tile inside the decode sweep — the same place a device DMA engine would
/// widen the stream. This halves the resident KV bytes and the decode-step
/// DRAM traffic relative to [`F32`](KvDtype::F32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KvDtype {
    /// Full-precision storage: K/V rows are kept as `f32` (4 bytes/element).
    #[default]
    F32,
    /// Half-precision storage: K/V rows are kept as binary16 bits
    /// (2 bytes/element) and widened to f32 on load.
    F16,
}

impl KvDtype {
    /// Bytes per stored KV element (4 for f32, 2 for f16).
    #[must_use]
    pub const fn element_bytes(self) -> usize {
        match self {
            KvDtype::F32 => 4,
            KvDtype::F16 => 2,
        }
    }

    /// Lower-case display name (`"f32"` / `"f16"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KvDtype::F32 => "f32",
            KvDtype::F16 => "f16",
        }
    }

    /// Parses a case-insensitive dtype name as accepted by the CLI bins.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "fp32" => Some(KvDtype::F32),
            "f16" | "fp16" | "half" => Some(KvDtype::F16),
            _ => None,
        }
    }
}

impl std::fmt::Display for KvDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts an `f32` to its nearest IEEE-754 binary16 bit pattern
/// (round-to-nearest-even).
#[must_use]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // NaN or infinity.
        if mant != 0 {
            return sign | 0x7e00; // quiet NaN
        }
        return sign | 0x7c00; // infinity
    }

    // Re-bias exponent from 127 (f32) to 15 (f16).
    let unbiased = exp - 127;
    let new_exp = unbiased + 15;

    if new_exp >= 0x1f {
        // Overflow: saturate to infinity.
        return sign | 0x7c00;
    }

    if new_exp <= 0 {
        // Subnormal or zero in f16.
        if new_exp < -10 {
            // Too small: flush to signed zero.
            return sign;
        }
        // Build the subnormal mantissa: implicit leading 1 plus stored bits,
        // shifted right by the deficit.
        let mant_with_hidden = mant | 0x0080_0000;
        let shift = (14 - new_exp) as u32;
        let half_mant = mant_with_hidden >> shift;
        // Round to nearest even.
        let round_bit = 1u32 << (shift - 1);
        let remainder = mant_with_hidden & ((1u32 << shift) - 1);
        let mut result = half_mant as u16;
        if remainder > round_bit || (remainder == round_bit && (half_mant & 1) == 1) {
            result += 1;
        }
        return sign | result;
    }

    // Normalized result. Round mantissa from 23 to 10 bits, nearest even.
    let mut half_exp = new_exp as u16;
    let mut half_mant = (mant >> 13) as u16;
    let remainder = mant & 0x1fff;
    if remainder > 0x1000 || (remainder == 0x1000 && (half_mant & 1) == 1) {
        half_mant += 1;
        if half_mant == 0x400 {
            // Mantissa overflowed into the exponent.
            half_mant = 0;
            half_exp += 1;
            if half_exp >= 0x1f {
                return sign | 0x7c00;
            }
        }
    }
    sign | (half_exp << 10) | half_mant
}

/// Converts an `f32` to binary16 bits, saturating finite overflow to
/// ±[`F16_MAX`] (`0x7bff` / `0xfbff`) instead of rounding to infinity.
///
/// [`f32_to_f16_bits`] follows IEEE round-to-nearest-even, under which any
/// finite magnitude ≥ 65520 becomes ±infinity. That is correct for activation
/// quantization, but fatal for KV storage: one outsized logit row stored as
/// `inf` turns the softmax of every later decode step that attends to it into
/// `inf - inf = NaN`, poisoning the whole session. KV writes therefore clamp
/// finite values into the representable range and only pass through genuine
/// infinities and NaNs (which were already poisoned upstream).
#[must_use]
pub fn f32_to_f16_bits_saturating(value: f32) -> u16 {
    if value.is_infinite() || value.is_nan() {
        return f32_to_f16_bits(value);
    }
    if value > F16_MAX {
        return 0x7bff;
    }
    if value < -F16_MAX {
        return 0xfbff;
    }
    f32_to_f16_bits(value)
}

/// Converts an IEEE-754 binary16 bit pattern back to `f32`.
#[must_use]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1f;
    let mant = u32::from(bits & 0x03ff);

    let out_bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize it.
            let mut e = 0i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            let new_exp = (127 - 15 + e + 1) as u32;
            sign | (new_exp << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        if mant == 0 {
            sign | 0x7f80_0000
        } else {
            sign | 0x7fc0_0000
        }
    } else {
        let new_exp = u32::from(exp) + 127 - 15;
        sign | (new_exp << 23) | (mant << 13)
    };
    f32::from_bits(out_bits)
}

/// Rounds an `f32` value through binary16 precision and back.
#[must_use]
pub fn round_to_f16(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Rounds every element of a tensor through binary16 precision, simulating
/// FP16 on-chip storage of intermediates.
#[must_use]
pub fn quantize_tensor_f16(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    for v in out.data_mut() {
        *v = round_to_f16(*v);
    }
    out
}

/// Maximum finite value representable in binary16 (65504.0).
pub const F16_MAX: f32 = 65504.0;

/// Smallest positive normal binary16 value (2⁻¹⁴).
pub const F16_MIN_POSITIVE: f32 = 6.103_515_6e-5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_tensor;
    use crate::shape::Shape;

    #[test]
    fn exact_small_integers_round_trip() {
        for v in [-8.0f32, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 100.0, 2048.0] {
            assert_eq!(round_to_f16(v), v, "value {v} should be exact in f16");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(1e6)).is_infinite());
        assert!(f16_bits_to_f32(f32_to_f16_bits(-1e6)).is_infinite());
    }

    #[test]
    fn tiny_values_flush_or_become_subnormal() {
        let tiny = 1e-9f32;
        let rt = round_to_f16(tiny);
        assert!(rt == 0.0 || rt.abs() < F16_MIN_POSITIVE);
        // A representable subnormal survives approximately.
        let sub = 3.0e-6f32;
        let rt = round_to_f16(sub);
        assert!(rt > 0.0);
        assert!((rt - sub).abs() / sub < 0.2);
    }

    #[test]
    fn nan_round_trips_as_nan() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn relative_error_is_bounded_for_normal_range() {
        // binary16 has 11 significand bits: relative error <= 2^-11.
        let t = random_tensor(Shape::new(1, 1, 32, 32).unwrap(), 100.0, 13);
        for &v in t.data() {
            let r = round_to_f16(v);
            if v.abs() > F16_MIN_POSITIVE {
                assert!(((r - v) / v).abs() <= 1.0 / 2048.0 + 1e-7, "v={v} r={r}");
            }
        }
    }

    #[test]
    fn quantize_tensor_preserves_shape_and_is_idempotent() {
        let t = random_tensor(Shape::new(2, 2, 4, 4).unwrap(), 10.0, 5);
        let q1 = quantize_tensor_f16(&t);
        let q2 = quantize_tensor_f16(&q1);
        assert_eq!(q1.shape(), t.shape());
        assert_eq!(q1, q2, "f16 quantization must be idempotent");
    }

    #[test]
    fn saturating_conversion_clamps_finite_overflow_to_f16_max() {
        // Regression: the rounding converter sends these to ±inf, which would
        // poison softmax for every step attending to the stored row.
        for v in [65520.0f32, 1e6, 3.4e38, f32::MAX] {
            assert_eq!(f32_to_f16_bits_saturating(v), 0x7bff, "v={v}");
            assert_eq!(f32_to_f16_bits_saturating(-v), 0xfbff, "v=-{v}");
            assert!(f16_bits_to_f32(f32_to_f16_bits(v)).is_infinite());
        }
        assert_eq!(f16_bits_to_f32(0x7bff), F16_MAX);
        // In-range values and specials are untouched.
        for v in [0.0f32, -0.5, 1.0, 2048.0, F16_MAX, -F16_MAX] {
            assert_eq!(f32_to_f16_bits_saturating(v), f32_to_f16_bits(v));
        }
        assert_eq!(f32_to_f16_bits_saturating(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits_saturating(f32::NEG_INFINITY), 0xfc00);
        assert!(f16_bits_to_f32(f32_to_f16_bits_saturating(f32::NAN)).is_nan());
    }

    #[test]
    fn all_65536_bit_patterns_round_trip() {
        for bits in 0..=u16::MAX {
            let f = f16_bits_to_f32(bits);
            let exp = (bits >> 10) & 0x1f;
            let mant = bits & 0x03ff;
            if exp == 0x1f && mant != 0 {
                // NaN payloads collapse to the canonical quiet NaN but must
                // stay NaN with the sign preserved.
                assert!(f.is_nan(), "bits {bits:#06x} must decode to NaN");
                let back = f32_to_f16_bits(f);
                assert_eq!(back, (bits & 0x8000) | 0x7e00, "bits {bits:#06x}");
                assert_eq!(f32_to_f16_bits_saturating(f), back);
            } else {
                // Every non-NaN pattern (zeros, subnormals, normals,
                // infinities) is exactly representable: identity round trip.
                assert_eq!(f32_to_f16_bits(f), bits, "bits {bits:#06x} f={f}");
                assert_eq!(
                    f32_to_f16_bits_saturating(f),
                    bits,
                    "bits {bits:#06x} f={f}"
                );
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn round_to_f16_relative_error_within_2_pow_neg_11(
                mant in 0u32..(1 << 24),
                exp in 0u32..30,
                sign in 0u32..2,
            ) {
                // A float with uniform significand in [1, 2) and an exponent
                // spanning the whole f16 normal range 2^-14 ..= 2^15.
                let frac = 1.0 + mant as f32 / (1u32 << 24) as f32;
                let v = if sign == 0 { frac } else { -frac }
                    * 2.0f32.powi(exp as i32 - 14);
                // binary16 keeps 11 significand bits: round-to-nearest-even
                // guarantees relative error <= 2^-11. In the top binade the
                // rounding converter overflows to inf above 65504 + half an
                // ulp, so the saturating converter (the KV store path) takes
                // over; its clamp to ±F16_MAX stays within the same bound for
                // every magnitude below 2^16.
                let r = f16_bits_to_f32(f32_to_f16_bits_saturating(v));
                prop_assert!(r.is_finite());
                prop_assert!(((r - v) / v).abs() <= 1.0 / 2048.0, "v={v} r={r}");
                if v.abs() < 32768.0 {
                    let r = round_to_f16(v);
                    prop_assert!(r.is_finite());
                    prop_assert!(((r - v) / v).abs() <= 1.0 / 2048.0, "v={v} r={r}");
                }
            }
        }
    }
}
