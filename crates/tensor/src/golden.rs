//! Golden-data checking.
//!
//! "each workload in our experiments undergoes a rigorous golden data check
//! for all methods, including our proposed approach, ensuring that all methods
//! pass this validation" (paper §5.1). This module packages that check: a
//! candidate output is compared against the reference attention output with
//! both absolute and relative tolerances, and a structured verdict is
//! returned so experiment harnesses can record it.

use crate::error::Result;
use crate::tensor::Tensor;

/// Tolerances for the golden-data comparison.
///
/// A candidate element `c` matches the golden element `g` if
/// `|c - g| <= abs_tol + rel_tol * |g|` — the standard mixed tolerance used by
/// numerical test suites. Defaults are generous enough for f32 accumulation
/// order differences between dataflows but tight enough to catch any actual
/// algorithmic error (which produces O(1) discrepancies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Absolute tolerance floor.
    pub abs_tol: f32,
    /// Relative tolerance factor.
    pub rel_tol: f32,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            abs_tol: 1e-4,
            rel_tol: 1e-4,
        }
    }
}

impl Tolerance {
    /// A strict tolerance for comparing implementations expected to follow an
    /// identical accumulation order.
    #[must_use]
    pub fn strict() -> Self {
        Self {
            abs_tol: 1e-6,
            rel_tol: 1e-6,
        }
    }

    /// A loose tolerance for FP16-storage comparisons.
    #[must_use]
    pub fn half_precision() -> Self {
        Self {
            abs_tol: 5e-3,
            rel_tol: 5e-3,
        }
    }

    /// Whether the pair `(candidate, golden)` matches under this tolerance.
    #[must_use]
    pub fn matches(&self, candidate: f32, golden: f32) -> bool {
        if candidate == golden {
            return true;
        }
        if !candidate.is_finite() || !golden.is_finite() {
            return false;
        }
        (candidate - golden).abs() <= self.abs_tol + self.rel_tol * golden.abs()
    }
}

/// Result of a golden-data check.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenReport {
    /// Whether every element matched within tolerance.
    pub passed: bool,
    /// Number of elements compared.
    pub elements: usize,
    /// Number of mismatching elements.
    pub mismatches: usize,
    /// Maximum absolute difference observed.
    pub max_abs_diff: f32,
    /// Maximum relative difference observed (0 when golden element is 0).
    pub max_rel_diff: f32,
    /// Index `(b, h, r, c)` of the worst mismatch, if any element mismatched.
    pub worst_index: Option<[usize; 4]>,
}

impl GoldenReport {
    /// A report for a zero-element comparison (always passes).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            passed: true,
            elements: 0,
            mismatches: 0,
            max_abs_diff: 0.0,
            max_rel_diff: 0.0,
            worst_index: None,
        }
    }
}

/// Compares `candidate` against `golden` element-by-element.
///
/// # Errors
///
/// Returns a [`crate::TensorError::ShapeMismatch`] if shapes differ.
pub fn golden_check(candidate: &Tensor, golden: &Tensor, tol: Tolerance) -> Result<GoldenReport> {
    // Reuse the shape check from max_abs_diff.
    candidate.max_abs_diff(golden)?;

    // Single pass over the contiguous storage; the 4-D index of the worst
    // mismatch is reconstructed from its flat offset afterwards.
    let [_, h_n, r_n, c_n] = golden.shape().dims();
    let mut report = GoldenReport::empty();
    report.elements = golden.shape().volume();
    let mut worst_abs = -1.0f32;
    let mut worst_flat = 0usize;
    for (i, (&x, &g)) in candidate
        .data()
        .iter()
        .zip(golden.data().iter())
        .enumerate()
    {
        let abs = (x - g).abs();
        let rel = if g != 0.0 { abs / g.abs() } else { 0.0 };
        report.max_abs_diff = report.max_abs_diff.max(abs);
        report.max_rel_diff = report.max_rel_diff.max(rel);
        if !tol.matches(x, g) {
            report.mismatches += 1;
            // A NaN difference (either side NaN) is the most severe defect:
            // rank it above every finite mismatch when picking the worst.
            let severity = if abs.is_nan() { f32::INFINITY } else { abs };
            if severity > worst_abs {
                worst_abs = severity;
                worst_flat = i;
            }
        }
    }
    if report.mismatches > 0 {
        let c = worst_flat % c_n;
        let r = (worst_flat / c_n) % r_n;
        let h = (worst_flat / (c_n * r_n)) % h_n;
        let b = worst_flat / (c_n * r_n * h_n);
        report.worst_index = Some([b, h, r, c]);
    }
    report.passed = report.mismatches == 0;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_tensor;
    use crate::shape::Shape;

    fn shape(b: usize, h: usize, r: usize, c: usize) -> Shape {
        Shape::new(b, h, r, c).unwrap()
    }

    #[test]
    fn identical_tensors_pass() {
        let t = random_tensor(shape(1, 2, 4, 4), 1.0, 3);
        let report = golden_check(&t, &t, Tolerance::strict()).unwrap();
        assert!(report.passed);
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.elements, 32);
        assert!(report.worst_index.is_none());
    }

    #[test]
    fn small_perturbation_within_default_tolerance_passes() {
        let t = random_tensor(shape(1, 1, 4, 4), 1.0, 4);
        let mut c = t.clone();
        for v in c.data_mut() {
            *v += 1e-6;
        }
        let report = golden_check(&c, &t, Tolerance::default()).unwrap();
        assert!(report.passed);
        assert!(report.max_abs_diff > 0.0);
    }

    #[test]
    fn large_error_is_detected_and_located() {
        let t = Tensor::full(shape(1, 1, 2, 2), 1.0);
        let mut c = t.clone();
        c.set(0, 0, 1, 0, 2.0).unwrap();
        let report = golden_check(&c, &t, Tolerance::default()).unwrap();
        assert!(!report.passed);
        assert_eq!(report.mismatches, 1);
        assert_eq!(report.worst_index, Some([0, 0, 1, 0]));
        assert!((report.max_abs_diff - 1.0).abs() < 1e-6);
        assert!((report.max_rel_diff - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nan_never_matches() {
        let t = Tensor::full(shape(1, 1, 1, 1), 1.0);
        let mut c = t.clone();
        c.set(0, 0, 0, 0, f32::NAN).unwrap();
        let report = golden_check(&c, &t, Tolerance::default()).unwrap();
        assert!(!report.passed);
    }

    #[test]
    fn nan_mismatch_is_ranked_worst() {
        // A NaN mismatch must win the worst-index slot over a larger-looking
        // finite mismatch, wherever it appears.
        let golden = Tensor::full(shape(1, 1, 1, 4), 1.0);
        let mut c = golden.clone();
        c.set(0, 0, 0, 1, 5.0).unwrap();
        c.set(0, 0, 0, 2, f32::NAN).unwrap();
        let report = golden_check(&c, &golden, Tolerance::default()).unwrap();
        assert_eq!(report.mismatches, 2);
        assert_eq!(report.worst_index, Some([0, 0, 0, 2]));

        // NaN on the golden side is located too.
        let mut g2 = golden.clone();
        g2.set(0, 0, 0, 3, f32::NAN).unwrap();
        let report = golden_check(&golden, &g2, Tolerance::default()).unwrap();
        assert_eq!(report.mismatches, 1);
        assert_eq!(report.worst_index, Some([0, 0, 0, 3]));
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros(shape(1, 1, 2, 2));
        let b = Tensor::zeros(shape(1, 1, 2, 3));
        assert!(golden_check(&a, &b, Tolerance::default()).is_err());
    }

    #[test]
    fn tolerance_presets_are_ordered() {
        let strict = Tolerance::strict();
        let default = Tolerance::default();
        let half = Tolerance::half_precision();
        assert!(strict.abs_tol < default.abs_tol);
        assert!(default.abs_tol < half.abs_tol);
        assert!(strict.matches(1.0, 1.0));
        assert!(half.matches(1.0, 1.003));
        assert!(!strict.matches(1.0, 1.003));
    }
}
