//! Matrix multiplication entry points.
//!
//! All variants — `matmul`, `matmul_nt`, `matmul_tn`, and the raw
//! [`matmul_into`] — route through the blocked, packed kernel in
//! [`crate::gemm`]; transposition is absorbed at pack time, so no transpose
//! is ever materialized. Which schedule runs for a given `(m, k, n)` is a
//! pure function of the shape ([`crate::gemm::variant`]). Large problems
//! are split over row blocks on the persistent worker pool (see
//! [`crate::threadpool`]); the k-accumulation order per output element is
//! fixed, so results do not depend on the thread count.

use crate::gemm::gemm;
use crate::Tensor;

/// `C = A * B` for row-major matrices given as flat slices.
///
/// `a` is `m x k`, `b` is `k x n`, and `c` (the output) is `m x n`. `c` is
/// fully overwritten.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm(a, false, b, false, c, m, k, n, None, false);
}

/// Number of worker threads data-parallel kernels will use (including the
/// calling thread). Honors the `NB_NUM_THREADS` override.
pub fn available_threads() -> usize {
    crate::threadpool::num_threads()
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dimensions differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use nb_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
    /// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
    /// assert_eq!(a.matmul(&i), a);
    /// # Ok::<(), nb_tensor::TensorError>(())
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape().rc();
        let (k2, n) = other.shape().rc();
        assert_eq!(
            k,
            k2,
            "matmul inner dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros([m, n]);
        gemm(
            self.as_slice(),
            false,
            other.as_slice(),
            false,
            out.as_mut_slice(),
            m,
            k,
            n,
            None,
            false,
        );
        out
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// `self` is `m x k`, `other` is `n x k`; the result is `m x n`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the `k` dimensions differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape().rc();
        let (n, k2) = other.shape().rc();
        assert_eq!(
            k,
            k2,
            "matmul_nt inner dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros([m, n]);
        gemm(
            self.as_slice(),
            false,
            other.as_slice(),
            true,
            out.as_mut_slice(),
            m,
            k,
            n,
            None,
            false,
        );
        out
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// `self` is `k x m`, `other` is `k x n`; the result is `m x n`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the `k` dimensions differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = self.shape().rc();
        let (k2, n) = other.shape().rc();
        assert_eq!(
            k,
            k2,
            "matmul_tn inner dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros([m, n]);
        gemm(
            self.as_slice(),
            true,
            other.as_slice(),
            false,
            out.as_mut_slice(),
            m,
            k,
            n,
            None,
            false,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().rc();
        let (_, n) = b.shape().rc();
        Tensor::from_fn([m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k).map(|p| a.at2(i, p) * b.at2(p, j)).sum()
        })
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn([7, 5], &mut rng);
        let b = Tensor::randn([5, 9], &mut rng);
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn matches_naive_parallel_path() {
        // Big enough to cross the parallel threshold.
        let mut rng = StdRng::seed_from_u64(13);
        let a = Tensor::randn([160, 128], &mut rng);
        let b = Tensor::randn([128, 160], &mut rng);
        assert!(a.matmul(&b).allclose(&naive(&a, &b), 1e-3));
    }

    #[test]
    fn nt_and_tn_agree_with_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = Tensor::randn([6, 4], &mut rng);
        let b = Tensor::randn([5, 4], &mut rng);
        assert!(a.matmul_nt(&b).allclose(&a.matmul(&b.transpose2d()), 1e-4));
        let c = Tensor::randn([4, 6], &mut rng);
        let d = Tensor::randn([4, 5], &mut rng);
        assert!(c.matmul_tn(&d).allclose(&c.transpose2d().matmul(&d), 1e-4));
    }

    #[test]
    fn nt_and_tn_agree_with_explicit_transpose_large() {
        // Large enough to take the blocked (and parallel) path.
        let mut rng = StdRng::seed_from_u64(23);
        let a = Tensor::randn([96, 130], &mut rng);
        let b = Tensor::randn([70, 130], &mut rng);
        assert!(a.matmul_nt(&b).allclose(&a.matmul(&b.transpose2d()), 1e-3));
        let c = Tensor::randn([130, 96], &mut rng);
        let d = Tensor::randn([130, 70], &mut rng);
        assert!(c.matmul_tn(&d).allclose(&c.transpose2d().matmul(&d), 1e-3));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(19);
        let a = Tensor::randn([8, 8], &mut rng);
        let eye = Tensor::from_fn([8, 8], |i| if i / 8 == i % 8 { 1.0 } else { 0.0 });
        assert!(a.matmul(&eye).allclose(&a, 1e-6));
        assert!(eye.matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn degenerate_dims() {
        let a = Tensor::ones([1, 3]);
        let b = Tensor::ones([3, 1]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[1, 1]);
        assert_eq!(c.item(), 3.0);
    }
}
