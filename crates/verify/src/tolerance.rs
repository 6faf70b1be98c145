//! ULP-bounded floating-point comparison.
//!
//! The fast kernels and the oracles sum products in different orders (and
//! the oracles accumulate in f64), so their outputs differ by reassociation
//! rounding — an error that grows with the reduction length `k` and is
//! *relative* to the magnitude of the result. Absolute-epsilon comparisons
//! either mask real bugs on small outputs or flag legitimate rounding on
//! large ones. Units-in-the-last-place distance measures relative error
//! directly, with one exception: near-cancellation, where the true result is
//! tiny but the intermediate partial sums are not, relative error is
//! unbounded for *any* correct implementation. The [`UlpTolerance`] pairs a
//! ULP bound with a small absolute floor to cover exactly that case.
//!
//! Quantized executors sit outside this framework entirely: int8 PTQ is
//! *designed* to move values by far more than reassociation noise, so no
//! ULP bound distinguishes a healthy quantizer from a broken one. The
//! [`AccuracyBudget`] mode replaces the per-element question with the
//! end-task one — how much top-1 accuracy the lossy path gives up against
//! the exact executor on the same eval set.

/// Maps a float to an integer such that consecutive representable floats map
/// to consecutive integers (a total order matching `<` on non-NaN values).
fn ordered_bits(x: f32) -> i64 {
    let b = x.to_bits();
    if b & 0x8000_0000 != 0 {
        -((b & 0x7fff_ffff) as i64)
    } else {
        b as i64
    }
}

/// Number of representable f32 values strictly between `a` and `b` plus one
/// (0 when equal, 1 for adjacent floats). `u64::MAX` if either is non-finite.
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a == b {
        return 0; // also handles +0.0 vs -0.0
    }
    if !a.is_finite() || !b.is_finite() {
        return u64::MAX;
    }
    (ordered_bits(a) - ordered_bits(b)).unsigned_abs()
}

/// A two-sided comparison bound: values agree when they are within
/// `max_ulps` units in the last place, *or* within the absolute floor
/// `abs_floor` (which absorbs cancellation noise near zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlpTolerance {
    /// Maximum allowed ULP distance.
    pub max_ulps: u64,
    /// Absolute difference below which values always agree.
    pub abs_floor: f32,
}

impl UlpTolerance {
    /// An exact-match bound (bitwise, modulo signed zero).
    pub fn exact() -> Self {
        UlpTolerance {
            max_ulps: 0,
            abs_floor: 0.0,
        }
    }

    /// The bound for comparing two correct length-`k` reductions computed in
    /// different orders, with inputs of order 1.
    ///
    /// A naive f32 sum of `k` terms carries worst-case relative error
    /// `~k * eps` versus the exactly rounded result, i.e. about `k` ULPs;
    /// the constant covers the epilogue and the oracle's own final rounding.
    /// The absolute floor scales with `sqrt(k)` — the typical magnitude of
    /// partial sums of random order-1 inputs — so cancellation to a tiny
    /// output doesn't fail on unbounded relative error.
    pub fn for_reduction(k: usize) -> Self {
        UlpTolerance {
            max_ulps: 32 + 2 * k as u64,
            abs_floor: 1e-6 * (k as f32).sqrt().max(1.0),
        }
    }

    /// True when `a` and `b` agree under this bound.
    pub fn ok(&self, a: f32, b: f32) -> bool {
        if (a - b).abs() <= self.abs_floor {
            return true;
        }
        ulp_distance(a, b) <= self.max_ulps
    }
}

/// Pass criterion for lossy executors (the quantized-plan parity column):
/// the candidate may trail the exact reference by at most `max_drop` top-1
/// accuracy on a shared eval set. Outperforming the reference always passes
/// — quantization noise can flip borderline samples either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyBudget {
    /// Largest tolerated accuracy drop, in percentage points (the unit
    /// `nb_metrics::Accuracy::top1` reports; 5.0 = 5 points of top-1).
    pub max_drop: f32,
}

impl AccuracyBudget {
    /// The `+plan-quant` budget: int8 PTQ with per-channel weights and
    /// calibrated per-tensor activations should cost a few points at most
    /// on the synthetic eval sets; 10 points also absorbs the small-val-set
    /// granularity (1/32 per sample at smoke scale) without masking a
    /// genuinely broken quantizer, which collapses toward chance. (The
    /// budget was previously written as a 0–1 fraction while `top1()`
    /// reports percent, which made it a near-exact-match requirement; it
    /// went unnoticed while only the dense GEMMs quantized.)
    pub fn for_quantized() -> Self {
        AccuracyBudget { max_drop: 10.0 }
    }

    /// Accuracy the candidate gave up (0 when it matched or outperformed).
    pub fn drop(reference: f32, candidate: f32) -> f32 {
        (reference - candidate).max(0.0)
    }

    /// True when the candidate's accuracy is within budget of the reference.
    pub fn ok(&self, reference: f32, candidate: f32) -> bool {
        Self::drop(reference, candidate) <= self.max_drop
    }
}

/// Worst observed divergence between two equally shaped buffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Largest ULP distance among elements outside the absolute floor
    /// (0 when every element is within the floor).
    pub max_ulps: u64,
    /// Largest absolute difference over all elements.
    pub max_abs: f32,
    /// Flat index of the element with the largest ULP distance.
    pub worst_index: usize,
    /// Number of elements that violate the tolerance.
    pub violations: usize,
}

impl Divergence {
    /// Compares `got` against `want` element-wise under `tol`.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length.
    pub fn measure(got: &[f32], want: &[f32], tol: &UlpTolerance) -> Divergence {
        assert_eq!(got.len(), want.len(), "divergence buffer lengths");
        let mut d = Divergence {
            max_ulps: 0,
            max_abs: 0.0,
            worst_index: 0,
            violations: 0,
        };
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let abs = (g - w).abs();
            if abs > d.max_abs || !abs.is_finite() {
                d.max_abs = if abs.is_finite() { abs } else { f32::INFINITY };
            }
            if abs > tol.abs_floor {
                let u = ulp_distance(g, w);
                if u > d.max_ulps {
                    d.max_ulps = u;
                    d.worst_index = i;
                }
                if u > tol.max_ulps {
                    d.violations += 1;
                }
            }
        }
        d
    }

    /// True when no element violated the tolerance.
    pub fn passes(&self) -> bool {
        self.violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_and_signed_zero() {
        assert_eq!(ulp_distance(1.5, 1.5), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
    }

    #[test]
    fn adjacent_floats_are_one_ulp() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        assert_eq!(ulp_distance(a, b), 1);
        let c = -2.5f32;
        let d = f32::from_bits(c.to_bits() + 1); // toward zero for negatives
        assert_eq!(ulp_distance(c, d), 1);
    }

    #[test]
    fn distance_crosses_zero_symmetrically() {
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert_eq!(ulp_distance(0.0, tiny), 1);
    }

    #[test]
    fn non_finite_is_max() {
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(f32::INFINITY, 1.0), u64::MAX);
    }

    #[test]
    fn tolerance_floor_absorbs_cancellation() {
        let tol = UlpTolerance {
            max_ulps: 4,
            abs_floor: 1e-5,
        };
        // hugely different in ULP terms but tiny in absolute terms
        assert!(tol.ok(1e-7, -1e-7));
        // clearly different values fail
        assert!(!tol.ok(1.0, 1.001));
        // a few ULPs apart passes
        let b = f32::from_bits(1.0f32.to_bits() + 3);
        assert!(tol.ok(1.0, b));
    }

    #[test]
    fn reduction_bound_grows_with_k() {
        let small = UlpTolerance::for_reduction(1);
        let big = UlpTolerance::for_reduction(1024);
        assert!(big.max_ulps > small.max_ulps);
        assert!(big.abs_floor > small.abs_floor);
    }

    #[test]
    fn reduction_bound_edge_depths() {
        // k = 0 (empty reduction): the constant term alone, with the floor
        // clamped to its minimum rather than collapsing to 0.
        let zero = UlpTolerance::for_reduction(0);
        assert_eq!(zero.max_ulps, 32);
        assert!((zero.abs_floor - 1e-6).abs() < 1e-12);
        // k = 1: one extra ULP pair over the constant, same floor clamp
        // (sqrt(1) hits the same max(.., 1.0) branch).
        let one = UlpTolerance::for_reduction(1);
        assert_eq!(one.max_ulps, 34);
        assert!((one.abs_floor - 1e-6).abs() < 1e-12);
        // Large k: linear ULP growth, sqrt floor growth, no overflow.
        let k = 1usize << 20;
        let big = UlpTolerance::for_reduction(k);
        assert_eq!(big.max_ulps, 32 + 2 * k as u64);
        assert!((big.abs_floor - 1e-6 * 1024.0).abs() < 1e-7);
        // Monotone in between.
        let mut last = zero;
        for k in [1usize, 16, 256, 4096, 65536] {
            let t = UlpTolerance::for_reduction(k);
            assert!(t.max_ulps >= last.max_ulps && t.abs_floor >= last.abs_floor);
            last = t;
        }
    }

    #[test]
    fn accuracy_budget_bounds_the_drop() {
        let b = AccuracyBudget { max_drop: 0.05 };
        assert!(b.ok(0.90, 0.90)); // equal
        assert!(b.ok(0.90, 0.85)); // exactly at budget
        assert!(!b.ok(0.90, 0.84)); // over budget
        assert!(b.ok(0.90, 0.95)); // improvement always passes
        assert_eq!(AccuracyBudget::drop(0.9, 0.95), 0.0);
        assert!((AccuracyBudget::drop(0.9, 0.8) - 0.1).abs() < 1e-7);
    }

    #[test]
    fn accuracy_budget_edge_budgets() {
        // Zero budget is an exact-accuracy requirement...
        let strict = AccuracyBudget { max_drop: 0.0 };
        assert!(strict.ok(50.0, 50.0));
        assert!(!strict.ok(50.0, 49.9));
        // ...a full budget accepts collapse to chance...
        let lax = AccuracyBudget { max_drop: 100.0 };
        assert!(lax.ok(100.0, 0.0));
        // ...and the quantized default sits strictly between.
        let q = AccuracyBudget::for_quantized();
        assert!(q.max_drop > 0.0 && q.max_drop < 100.0);
        assert!(!q.ok(100.0, 0.0));
    }

    #[test]
    fn divergence_measures_worst_element() {
        let want = [1.0f32, 2.0, 3.0];
        let mut got = want;
        got[1] = f32::from_bits(2.0f32.to_bits() + 10);
        let tol = UlpTolerance {
            max_ulps: 4,
            abs_floor: 0.0,
        };
        let d = Divergence::measure(&got, &want, &tol);
        assert_eq!(d.worst_index, 1);
        assert_eq!(d.max_ulps, 10);
        assert_eq!(d.violations, 1);
        assert!(!d.passes());
        let ok = Divergence::measure(&want, &want, &tol);
        assert!(ok.passes());
        assert_eq!(ok.max_abs, 0.0);
    }
}
