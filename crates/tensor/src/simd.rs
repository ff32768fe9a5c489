//! Runtime-dispatched SIMD kernels with a fixed accumulation contract.
//!
//! The paper's roofline places edge attention on the vector/MAC pipes and the
//! DRAM stream; this module supplies the explicit `std::arch` inner loops the
//! tiled, fused and decode kernels run on, replacing reliance on LLVM
//! autovectorization. Besides the one-row kernels there are two block
//! primitives, which take a whole tile of rows per call the way the MAC
//! stream takes a tile: [`dot_many`] (one row against many, the `Q·Kᵀ`
//! scores) and [`axpy_many`] (many weighted rows into one, the `P·V`
//! accumulation). Three backends exist:
//!
//! * **AVX2** on `x86_64` (plus an F16C fast path for widening stored f16 KV
//!   rows),
//! * **NEON** on `aarch64` (two 128-bit registers emulate one 8-lane vector),
//! * a **scalar** fallback on everything else, exposed verbatim in
//!   [`scalar`].
//!
//! The backend is chosen **once** per process via
//! `std::arch::is_*_feature_detected!` and cached; setting the environment
//! variable `MAS_FORCE_SCALAR=1` before first use pins the scalar fallback
//! (CI runs the whole suite under it).
//!
//! ## Accumulation-order contract
//!
//! Every reduction in this module — dispatched or scalar — produces
//! **bit-identical** results by construction, because all backends follow one
//! fixed accumulation order:
//!
//! 1. **Eight independent lanes.** A reduction over `n` elements maintains
//!    [`LANES`] (= 8) partial accumulators; element `i` of a full 8-wide
//!    chunk updates lane `i % 8` with exactly one rounding per operation
//!    (`lane += x * y` is one f32 multiply then one f32 add — never a fused
//!    multiply-add, which rounds once and would diverge from the scalar
//!    path).
//! 2. **Scalar tail.** The final `n % 8` elements accumulate left-to-right
//!    into a single scalar `tail` accumulator.
//! 3. **Fixed lane reduction.** The result is
//!    `((((lane0 + lane1) + lane2) + …) + lane7) + tail` — lanes summed
//!    left-to-right, then the tail added last.
//!
//! Elementwise kernels ([`axpy`], [`scale`]) perform the same single-rounding
//! operation per element in every backend, so they are trivially
//! bit-identical. The block kernels are defined by their one-row forms:
//! [`dot_many`] is `dot` per row and [`axpy_many`] is [`axpy`] per row in
//! row order, so each output element sees exactly the roundings of the
//! one-row loop however a backend groups rows or holds `out` in registers
//! (the NEON backend runs `axpy_many` as that loop). [`slice_max`] is
//! reduced in a different association (pairwise in the vector backends)
//! which is value-equal for every input without NaNs; like hardware min/max
//! trees, it does not define NaN propagation order. Property tests in `tests/simd_bitcompat.rs` pin the
//! dispatched backend to [`scalar`] bit-for-bit.

use std::sync::OnceLock;

use crate::half::f16_bits_to_f32;

/// Number of independent accumulator lanes in every reduction (one 256-bit
/// f32 vector; NEON splits them into two 128-bit registers).
pub const LANES: usize = 8;

#[derive(Clone, Copy)]
struct Caps {
    avx2: bool,
    f16c: bool,
    neon: bool,
}

const SCALAR_CAPS: Caps = Caps {
    avx2: false,
    f16c: false,
    neon: false,
};

fn detect() -> Caps {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        Caps {
            avx2,
            f16c: avx2 && std::arch::is_x86_feature_detected!("f16c"),
            neon: false,
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Caps {
            avx2: false,
            f16c: false,
            neon: std::arch::is_aarch64_feature_detected!("neon"),
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SCALAR_CAPS
    }
}

fn caps() -> Caps {
    static CAPS: OnceLock<Caps> = OnceLock::new();
    *CAPS.get_or_init(|| {
        if std::env::var("MAS_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            return SCALAR_CAPS;
        }
        detect()
    })
}

/// Name of the backend selected at first use: `"scalar"`, `"avx2"`,
/// `"avx2+f16c"`, or `"neon"`. Benches print this next to their throughput
/// numbers.
#[must_use]
pub fn backend() -> &'static str {
    let c = caps();
    if c.f16c {
        "avx2+f16c"
    } else if c.avx2 {
        "avx2"
    } else if c.neon {
        "neon"
    } else {
        "scalar"
    }
}

/// Dot product of two equal-length slices under the module's fixed 8-lane
/// accumulation order.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot operands must have equal length");
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        return unsafe { x86::dot(x, y) };
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        // SAFETY: NEON support was verified by the cached feature detection.
        return unsafe { neon::dot(x, y) };
    }
    scalar::dot(x, y)
}

/// Dot products of `x` against `out.len()` consecutive rows of `rows`, each
/// of length `x.len()`, writing result `r` to `out[r]`.
///
/// This is the matmul-NT inner loop: the rows share every load of `x`, and
/// the AVX2 backend keeps six independent row accumulators in flight to hide
/// the add-latency chain a single running dot is bound by. Each row's result
/// follows the canonical accumulation order exactly, so any grouping is
/// bit-identical to `out[r] = dot(x, row_r)`.
///
/// # Panics
///
/// Panics if `rows.len() != out.len() * x.len()`.
#[inline]
pub fn dot_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
    let k = x.len();
    assert_eq!(
        rows.len(),
        out.len() * k,
        "dot_many rows must hold out.len() rows of x.len() elements"
    );
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        unsafe { x86::dot_many(x, rows, out) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        // SAFETY: NEON support was verified by the cached feature detection.
        unsafe { neon::dot_many(x, rows, out) };
        return;
    }
    for (r, o) in out.iter_mut().enumerate() {
        *o = scalar::dot(x, &rows[r * k..(r + 1) * k]);
    }
}

/// `out += a * x` over equal-length slices; one multiply and one add
/// rounding per element in every backend.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "axpy operands must have equal length");
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        unsafe { x86::axpy(a, x, out) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        // SAFETY: NEON support was verified by the cached feature detection.
        unsafe { neon::axpy(a, x, out) };
        return;
    }
    scalar::axpy(a, x, out);
}

/// `out += weights[r] * row_r` for every row `r` of `rows` in order, where
/// `rows` holds `weights.len()` consecutive rows of `out.len()` elements:
/// the `P·V` accumulation of a whole tile of value rows into one output row.
///
/// Every element receives the same multiply-then-add roundings in the same
/// row order as repeated [`axpy`], so the result is bit-identical to
/// `for r in rows { axpy(weights[r], row_r, out) }` in every backend. The
/// AVX2 backend holds `out` in registers across all rows, in strips of up to
/// eight vectors, instead of loading and storing it once per row.
///
/// # Panics
///
/// Panics if `rows.len() != weights.len() * out.len()`.
#[inline]
pub fn axpy_many(weights: &[f32], rows: &[f32], out: &mut [f32]) {
    assert_eq!(
        rows.len(),
        weights.len() * out.len(),
        "axpy_many rows must hold weights.len() rows of out.len() elements"
    );
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        unsafe { x86::axpy_many(weights, rows, out) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        let n = out.len();
        for (r, &w) in weights.iter().enumerate() {
            // SAFETY: NEON support was verified by the cached feature detection.
            unsafe { neon::axpy(w, &rows[r * n..(r + 1) * n], out) };
        }
        return;
    }
    scalar::axpy_many(weights, rows, out);
}

/// Maximum value of a slice (`-inf` when empty). Value-equal across backends
/// for NaN-free input; the reduction association is backend-defined.
#[must_use]
#[inline]
pub fn slice_max(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        return unsafe { x86::slice_max(x) };
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        // SAFETY: NEON support was verified by the cached feature detection.
        return unsafe { neon::slice_max(x) };
    }
    scalar::slice_max(x)
}

/// Sum of a slice under the module's fixed 8-lane accumulation order (the
/// softmax denominator pass).
#[must_use]
#[inline]
pub fn sum8(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        return unsafe { x86::sum8(x) };
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        // SAFETY: NEON support was verified by the cached feature detection.
        return unsafe { neon::sum8(x) };
    }
    scalar::sum8(x)
}

/// Multiplies every element of `xs` by `s` in place (the softmax normalize
/// pass); one rounding per element in every backend.
#[inline]
pub fn scale(s: f32, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if caps().avx2 {
        // SAFETY: AVX2 support was verified by the cached feature detection.
        unsafe { x86::scale(s, xs) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if caps().neon {
        // SAFETY: NEON support was verified by the cached feature detection.
        unsafe { neon::scale(s, xs) };
        return;
    }
    scalar::scale(s, xs);
}

/// Widens a slice of binary16 bit patterns to `f32` (the KV load path).
///
/// The F16C backend (`vcvtph2ps`) is exact and bit-identical to the software
/// converter for every pattern the KV store path can produce: all non-NaN
/// values plus the canonical quiet NaN `0x7e00` that
/// [`f32_to_f16_bits_saturating`](crate::half::f32_to_f16_bits_saturating)
/// emits.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn f16_to_f32_slice(bits: &[u16], out: &mut [f32]) {
    assert_eq!(bits.len(), out.len(), "f16 widen length mismatch");
    #[cfg(target_arch = "x86_64")]
    if caps().f16c {
        // SAFETY: AVX2+F16C support was verified by the cached detection.
        unsafe { x86::f16_to_f32_slice(bits, out) };
        return;
    }
    scalar::f16_to_f32_slice(bits, out);
}

/// The scalar reference implementations of every dispatched kernel: the
/// 8-lane accumulation-order contract, written as plain Rust. The vector
/// backends are pinned bit-for-bit against these in `tests/simd_bitcompat.rs`
/// (and run in their place under `MAS_FORCE_SCALAR=1`).
pub mod scalar {
    use super::{f16_bits_to_f32, LANES};

    /// Reference dot product: 8 independent lanes, scalar tail, fixed
    /// left-to-right lane reduction.
    #[must_use]
    #[inline]
    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        let split = x.len() - x.len() % LANES;
        let mut lanes = [0.0f32; LANES];
        for (xv, yv) in x[..split]
            .chunks_exact(LANES)
            .zip(y[..split].chunks_exact(LANES))
        {
            for l in 0..LANES {
                lanes[l] += xv[l] * yv[l];
            }
        }
        let mut tail = 0.0f32;
        for (a, b) in x[split..].iter().zip(&y[split..]) {
            tail += a * b;
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// Reference AXPY: `out[i] += a * x[i]`, one multiply and one add
    /// rounding per element.
    #[inline]
    pub fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o += a * v;
        }
    }

    /// Reference block AXPY: repeated [`axpy`] over the rows in order.
    #[inline]
    pub fn axpy_many(weights: &[f32], rows: &[f32], out: &mut [f32]) {
        let n = out.len();
        for (r, &w) in weights.iter().enumerate() {
            axpy(w, &rows[r * n..(r + 1) * n], out);
        }
    }

    /// Reference maximum: a left-to-right `f32::max` fold (`-inf` when
    /// empty).
    #[must_use]
    #[inline]
    pub fn slice_max(x: &[f32]) -> f32 {
        x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
    }

    /// Reference sum: 8 independent lanes, scalar tail, fixed left-to-right
    /// lane reduction.
    #[must_use]
    #[inline]
    pub fn sum8(x: &[f32]) -> f32 {
        let split = x.len() - x.len() % LANES;
        let mut lanes = [0.0f32; LANES];
        for chunk in x[..split].chunks_exact(LANES) {
            for l in 0..LANES {
                lanes[l] += chunk[l];
            }
        }
        let mut tail = 0.0f32;
        for &v in &x[split..] {
            tail += v;
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// Reference in-place scale: `xs[i] *= s`, one rounding per element.
    #[inline]
    pub fn scale(s: f32, xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v *= s;
        }
    }

    /// Reference f16 widening via the software converter.
    #[inline]
    pub fn f16_to_f32_slice(bits: &[u16], out: &mut [f32]) {
        for (o, &b) in out.iter_mut().zip(bits) {
            *o = f16_bits_to_f32(b);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{f16_bits_to_f32, LANES};
    use core::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let xv = _mm256_loadu_ps(xp.add(c * LANES));
            let yv = _mm256_loadu_ps(yp.add(c * LANES));
            // add(mul(...)) — two roundings, matching the scalar lanes; FMA
            // would round once and break bit-compatibility.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, yv));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let split = chunks * LANES;
        let mut tail = 0.0f32;
        for (a, b) in x[split..].iter().zip(&y[split..]) {
            tail += a * b;
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// `K` simultaneous dots of `x` against `K` consecutive `stride`-spaced
    /// rows, sharing each load of `x`. Every row follows the canonical
    /// accumulation order independently.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `rows` must hold `K` rows of `x.len()` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn dotn<const K: usize>(x: &[f32], rows: &[f32], out: &mut [f32]) {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let rp = rows.as_ptr();
        let mut acc = [_mm256_setzero_ps(); K];
        for c in 0..chunks {
            let xv = _mm256_loadu_ps(xp.add(c * LANES));
            for (k, a) in acc.iter_mut().enumerate() {
                let yv = _mm256_loadu_ps(rp.add(k * n + c * LANES));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, yv));
            }
        }
        let split = chunks * LANES;
        let mut tails = [0.0f32; K];
        for (k, tail) in tails.iter_mut().enumerate() {
            let row = &rows[k * n..(k + 1) * n];
            for (xa, ya) in x[split..].iter().zip(&row[split..]) {
                *tail += xa * ya;
            }
        }
        if K == LANES {
            transposed_lane_sums(&acc, &tails, out);
            return;
        }
        for (k, a) in acc.iter().enumerate() {
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), *a);
            out[k] = lanes.iter().sum::<f32>() + tails[k];
        }
    }

    /// `out[k] = (Σ lanes of acc[k], left to right) + tails[k]` for eight
    /// rows at once. After an 8×8 transpose, vector `i` holds lane `i` of
    /// every row's accumulator, so adding the vectors in lane order performs
    /// each row's left-to-right lane sum in its own lane — the same
    /// additions in the same order as the per-row reduction in `dotn`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `acc`, `tails` and `out` hold 8 elements each.
    #[target_feature(enable = "avx2")]
    unsafe fn transposed_lane_sums(acc: &[__m256], tails: &[f32], out: &mut [f32]) {
        let (t0, t1) = (
            _mm256_unpacklo_ps(acc[0], acc[1]),
            _mm256_unpackhi_ps(acc[0], acc[1]),
        );
        let (t2, t3) = (
            _mm256_unpacklo_ps(acc[2], acc[3]),
            _mm256_unpackhi_ps(acc[2], acc[3]),
        );
        let (t4, t5) = (
            _mm256_unpacklo_ps(acc[4], acc[5]),
            _mm256_unpackhi_ps(acc[4], acc[5]),
        );
        let (t6, t7) = (
            _mm256_unpacklo_ps(acc[6], acc[7]),
            _mm256_unpackhi_ps(acc[6], acc[7]),
        );
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xee>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xee>(t5, t7);
        let lanes = [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ];
        // The per-row reduction is `lanes.iter().sum()`, a left fold from
        // `f32`'s empty sum; start from that same value.
        let mut sum = _mm256_set1_ps(core::iter::empty::<f32>().sum());
        for lane in lanes {
            sum = _mm256_add_ps(sum, lane);
        }
        sum = _mm256_add_ps(sum, _mm256_loadu_ps(tails.as_ptr()));
        _mm256_storeu_ps(out.as_mut_ptr(), sum);
    }

    /// # Safety
    ///
    /// Requires AVX2; `rows.len() == out.len() * x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
        // Eight rows in flight: enough independent accumulators to hide the
        // vaddps latency chain, and one per lane for the transposed lane
        // reduction.
        const GROUP: usize = 8;
        let k = x.len();
        let n = out.len();
        let mut r = 0;
        while r + GROUP <= n {
            dotn::<GROUP>(x, &rows[r * k..(r + GROUP) * k], &mut out[r..r + GROUP]);
            r += GROUP;
        }
        let rows = &rows[r * k..];
        let out = &mut out[r..];
        match n - r {
            1 => dotn::<1>(x, rows, out),
            2 => dotn::<2>(x, rows, out),
            3 => dotn::<3>(x, rows, out),
            4 => dotn::<4>(x, rows, out),
            5 => dotn::<5>(x, rows, out),
            6 => dotn::<6>(x, rows, out),
            7 => dotn::<7>(x, rows, out),
            _ => {}
        }
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let chunks = n / LANES;
        let av = _mm256_set1_ps(a);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        for c in 0..chunks {
            let xv = _mm256_loadu_ps(xp.add(c * LANES));
            let ov = _mm256_loadu_ps(op.add(c * LANES));
            _mm256_storeu_ps(op.add(c * LANES), _mm256_add_ps(ov, _mm256_mul_ps(av, xv)));
        }
        let split = chunks * LANES;
        for (o, &v) in out[split..].iter_mut().zip(&x[split..]) {
            *o += a * v;
        }
    }

    /// Adds `w_r · row_r[col..col + V·8]` for every row into the `V`
    /// vectors of `out` starting at `col`, holding them in registers across
    /// the rows.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `rows` must hold `weights.len()` rows of `n` elements
    /// and `col + V·8 <= n`, `out` `n` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_strip<const V: usize>(
        weights: &[f32],
        rows: *const f32,
        n: usize,
        col: usize,
        out: *mut f32,
    ) {
        let mut acc = [_mm256_setzero_ps(); V];
        for (v, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_ps(out.add(col + v * LANES));
        }
        for (r, &w) in weights.iter().enumerate() {
            let wv = _mm256_set1_ps(w);
            let rp = rows.add(r * n + col);
            for (v, a) in acc.iter_mut().enumerate() {
                let xv = _mm256_loadu_ps(rp.add(v * LANES));
                // add(mul(...)) per row, as in `axpy`: never a fused multiply-add.
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
            }
        }
        for (v, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.add(col + v * LANES), *a);
        }
    }

    /// # Safety
    ///
    /// Requires AVX2; `rows.len() == weights.len() * out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_many(weights: &[f32], rows: &[f32], out: &mut [f32]) {
        // Eight accumulators per strip: with the broadcast weight and one
        // load in flight they fit the sixteen ymm registers without spills.
        const STRIP: usize = 8;
        let n = out.len();
        let vectors = n / LANES;
        let rp = rows.as_ptr();
        let op = out.as_mut_ptr();
        let mut v = 0;
        while v + STRIP <= vectors {
            axpy_strip::<STRIP>(weights, rp, n, v * LANES, op);
            v += STRIP;
        }
        let col = v * LANES;
        match vectors - v {
            1 => axpy_strip::<1>(weights, rp, n, col, op),
            2 => axpy_strip::<2>(weights, rp, n, col, op),
            3 => axpy_strip::<3>(weights, rp, n, col, op),
            4 => axpy_strip::<4>(weights, rp, n, col, op),
            5 => axpy_strip::<5>(weights, rp, n, col, op),
            6 => axpy_strip::<6>(weights, rp, n, col, op),
            7 => axpy_strip::<7>(weights, rp, n, col, op),
            _ => {}
        }
        let split = vectors * LANES;
        if split < n {
            for (r, &w) in weights.iter().enumerate() {
                let row = &rows[r * n + split..(r + 1) * n];
                for (o, &x) in out[split..].iter_mut().zip(row) {
                    *o += w * x;
                }
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn slice_max(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        for c in 0..chunks {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(xp.add(c * LANES)));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut m = lanes.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        for &v in &x[chunks * LANES..] {
            m = m.max(v);
        }
        m
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum8(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(xp.add(c * LANES)));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut tail = 0.0f32;
        for &v in &x[chunks * LANES..] {
            tail += v;
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(s: f32, xs: &mut [f32]) {
        let n = xs.len();
        let chunks = n / LANES;
        let sv = _mm256_set1_ps(s);
        let p = xs.as_mut_ptr();
        for c in 0..chunks {
            let v = _mm256_loadu_ps(p.add(c * LANES));
            _mm256_storeu_ps(p.add(c * LANES), _mm256_mul_ps(v, sv));
        }
        for v in &mut xs[chunks * LANES..] {
            *v *= s;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn f16_to_f32_slice(bits: &[u16], out: &mut [f32]) {
        let n = bits.len();
        let chunks = n / LANES;
        let bp = bits.as_ptr();
        let op = out.as_mut_ptr();
        for c in 0..chunks {
            let h = _mm_loadu_si128(bp.add(c * LANES).cast());
            _mm256_storeu_ps(op.add(c * LANES), _mm256_cvtph_ps(h));
        }
        let split = chunks * LANES;
        for (o, &b) in out[split..].iter_mut().zip(&bits[split..]) {
            *o = f16_bits_to_f32(b);
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::LANES;
    use core::arch::aarch64::*;

    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        // Two 128-bit registers form lanes 0..=3 and 4..=7 of the contract.
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for c in 0..chunks {
            let x0 = vld1q_f32(xp.add(c * LANES));
            let x1 = vld1q_f32(xp.add(c * LANES + 4));
            let y0 = vld1q_f32(yp.add(c * LANES));
            let y1 = vld1q_f32(yp.add(c * LANES + 4));
            lo = vaddq_f32(lo, vmulq_f32(x0, y0));
            hi = vaddq_f32(hi, vmulq_f32(x1, y1));
        }
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let split = chunks * LANES;
        let mut tail = 0.0f32;
        for (a, b) in x[split..].iter().zip(&y[split..]) {
            tail += a * b;
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// # Safety
    ///
    /// Requires NEON; `rows.len() == out.len() * x.len()`.
    #[target_feature(enable = "neon")]
    pub unsafe fn dot_many(x: &[f32], rows: &[f32], out: &mut [f32]) {
        let k = x.len();
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(x, &rows[r * k..(r + 1) * k]);
        }
    }

    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn axpy(a: f32, x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let chunks = n / LANES;
        let av = vdupq_n_f32(a);
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        for c in 0..chunks {
            let x0 = vld1q_f32(xp.add(c * LANES));
            let x1 = vld1q_f32(xp.add(c * LANES + 4));
            let o0 = vld1q_f32(op.add(c * LANES));
            let o1 = vld1q_f32(op.add(c * LANES + 4));
            vst1q_f32(op.add(c * LANES), vaddq_f32(o0, vmulq_f32(av, x0)));
            vst1q_f32(op.add(c * LANES + 4), vaddq_f32(o1, vmulq_f32(av, x1)));
        }
        let split = chunks * LANES;
        for (o, &v) in out[split..].iter_mut().zip(&x[split..]) {
            *o += a * v;
        }
    }

    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn slice_max(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let mut lo = vdupq_n_f32(f32::NEG_INFINITY);
        let mut hi = vdupq_n_f32(f32::NEG_INFINITY);
        for c in 0..chunks {
            lo = vmaxq_f32(lo, vld1q_f32(xp.add(c * LANES)));
            hi = vmaxq_f32(hi, vld1q_f32(xp.add(c * LANES + 4)));
        }
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let mut m = lanes.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        for &v in &x[chunks * LANES..] {
            m = m.max(v);
        }
        m
    }

    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn sum8(x: &[f32]) -> f32 {
        let n = x.len();
        let chunks = n / LANES;
        let xp = x.as_ptr();
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        for c in 0..chunks {
            lo = vaddq_f32(lo, vld1q_f32(xp.add(c * LANES)));
            hi = vaddq_f32(hi, vld1q_f32(xp.add(c * LANES + 4)));
        }
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        let mut tail = 0.0f32;
        for &v in &x[chunks * LANES..] {
            tail += v;
        }
        lanes.iter().sum::<f32>() + tail
    }

    /// # Safety
    ///
    /// Requires NEON.
    #[target_feature(enable = "neon")]
    pub unsafe fn scale(s: f32, xs: &mut [f32]) {
        let n = xs.len();
        let chunks = n / LANES;
        let sv = vdupq_n_f32(s);
        let p = xs.as_mut_ptr();
        for c in 0..chunks {
            let v0 = vld1q_f32(p.add(c * LANES));
            let v1 = vld1q_f32(p.add(c * LANES + 4));
            vst1q_f32(p.add(c * LANES), vmulq_f32(v0, sv));
            vst1q_f32(p.add(c * LANES + 4), vmulq_f32(v1, sv));
        }
        for v in &mut xs[chunks * LANES..] {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::half::f32_to_f16_bits_saturating;

    fn vecs(len: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
        // Cheap deterministic LCG values in roughly [-4, 4).
        let mut state = seed as u64 * 2654435761 + 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 28) as f32) - 4.0
        };
        let x: Vec<f32> = (0..len).map(|_| next()).collect();
        let y: Vec<f32> = (0..len).map(|_| next()).collect();
        (x, y)
    }

    #[test]
    fn dispatched_dot_matches_scalar_bitwise() {
        for len in [0, 1, 3, 7, 8, 9, 15, 16, 17, 48, 63, 64, 65, 257] {
            let (x, y) = vecs(len, len as u32 + 1);
            assert_eq!(
                dot(&x, &y).to_bits(),
                scalar::dot(&x, &y).to_bits(),
                "len {len} backend {}",
                backend()
            );
        }
    }

    #[test]
    fn dot_many_matches_per_row_dot_bitwise() {
        for (k, n) in [(1, 1), (7, 3), (8, 6), (64, 13), (65, 29), (96, 7)] {
            let (x, _) = vecs(k, 3);
            let (rows, _) = vecs(k * n, 5);
            let mut out = vec![0.0f32; n];
            dot_many(&x, &rows, &mut out);
            for (r, &o) in out.iter().enumerate() {
                let expect = scalar::dot(&x, &rows[r * k..(r + 1) * k]);
                assert_eq!(o.to_bits(), expect.to_bits(), "k={k} n={n} row {r}");
            }
        }
    }

    #[test]
    fn dispatched_axpy_matches_scalar_bitwise() {
        for len in [0, 1, 7, 8, 9, 16, 31, 64, 100] {
            let (x, base) = vecs(len, 7 + len as u32);
            let mut fast = base.clone();
            let mut slow = base.clone();
            axpy(1.7, &x, &mut fast);
            scalar::axpy(1.7, &x, &mut slow);
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.to_bits(), s.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn dispatched_axpy_many_matches_repeated_scalar_axpy_bitwise() {
        for (rows, n) in [
            (0, 5),
            (1, 1),
            (3, 7),
            (6, 8),
            (9, 63),
            (64, 64),
            (17, 65),
            (5, 130),
        ] {
            let (x, base) = vecs(rows * n, 19 + n as u32);
            let mut weights = base[..rows].to_vec();
            if rows > 2 {
                weights[0] = 0.0;
                weights[1] = -f32::MIN_POSITIVE / 4.0;
            }
            let (start, _) = vecs(n, 23);
            let mut fast = start.clone();
            let mut slow = start;
            axpy_many(&weights, &x, &mut fast);
            for (r, &w) in weights.iter().enumerate() {
                scalar::axpy(w, &x[r * n..(r + 1) * n], &mut slow);
            }
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(f.to_bits(), s.to_bits(), "rows {rows} n {n} element {i}");
            }
        }
    }

    #[test]
    fn dispatched_reductions_match_scalar() {
        for len in [0, 1, 7, 8, 9, 16, 31, 64, 129] {
            let (x, _) = vecs(len, 11 + len as u32);
            assert_eq!(sum8(&x).to_bits(), scalar::sum8(&x).to_bits(), "len {len}");
            assert_eq!(slice_max(&x), scalar::slice_max(&x), "len {len}");
        }
    }

    #[test]
    fn dispatched_scale_matches_scalar_bitwise() {
        let (base, _) = vecs(41, 13);
        let mut fast = base.clone();
        let mut slow = base;
        scale(0.37, &mut fast);
        scalar::scale(0.37, &mut slow);
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn dispatched_f16_widen_matches_software_converter() {
        // Every pattern the KV store path can produce: saturated finite
        // values, zeros, subnormals and the canonical quiet NaN.
        let mut values: Vec<f32> = vec![0.0, -0.0, 1.0, -2.5, 65504.0, 1e6, -1e6, 3e-6, 1e-9];
        let (mut more, _) = vecs(37, 17);
        values.append(&mut more);
        values.push(f32::NAN);
        values.push(f32::INFINITY);
        let bits: Vec<u16> = values
            .iter()
            .map(|&v| f32_to_f16_bits_saturating(v))
            .collect();
        let mut fast = vec![0.0f32; bits.len()];
        let mut slow = vec![0.0f32; bits.len()];
        f16_to_f32_slice(&bits, &mut fast);
        scalar::f16_to_f32_slice(&bits, &mut slow);
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(f.to_bits(), s.to_bits(), "index {i} bits {:#06x}", bits[i]);
        }
    }

    #[test]
    fn backend_reports_a_known_name() {
        assert!(["scalar", "avx2", "avx2+f16c", "neon"].contains(&backend()));
    }
}
