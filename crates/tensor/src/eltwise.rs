//! Shared elementwise forward kernels.
//!
//! These are the single source of truth for the pointwise math that both
//! execution paths run: the taped autograd forward (`nb-autograd`) and the
//! compiled inference plan (`nb-nn`'s `CompiledPlan`) call the same
//! functions here, so their outputs are bitwise identical by construction.
//! Every kernel is in-place over an exclusively-owned tensor (the COW layer
//! detaches shared buffers first), iterates in flat row-major order, and
//! uses exactly one f32 expression per element — keep it that way: any
//! reassociation or fusing here changes bits on *both* paths at once, which
//! is the point.

use crate::Tensor;

/// Adds a `[c]` bias across the channels of an `[n,c,h,w]` tensor in place.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or `bias` is not `[c]`.
pub fn add_bias4_inplace(x: &mut Tensor, bias: &Tensor) {
    let (_, c, h, w) = x.shape().nchw();
    assert_eq!(bias.dims(), &[c], "add_bias4 bias shape");
    let bs = bias.as_slice();
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v += bs[(i / (h * w)) % c];
    }
}

/// Adds an `[f]` bias across the rows of an `[n,f]` tensor in place.
///
/// # Panics
///
/// Panics if `x` is not rank 2 or `bias` is not `[f]`.
pub fn add_bias2_inplace(x: &mut Tensor, bias: &Tensor) {
    let (_, f) = x.shape().rc();
    assert_eq!(bias.dims(), &[f], "add_bias2 bias shape");
    let bs = bias.as_slice();
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        *v += bs[i % f];
    }
}

/// Per-channel inverse standard deviation `1 / sqrt(var + eps)`.
pub fn bn_invstd(var: &Tensor, eps: f32) -> Tensor {
    var.map(|v| 1.0 / (v + eps).sqrt())
}

/// Applies the batch-norm affine transform
/// `y = gamma * (x - mean) * invstd + beta` per channel, in place, over an
/// `[n,c,h,w]` tensor.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or the statistics are not `[c]`.
pub fn bn_apply_inplace(
    x: &mut Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    invstd: &Tensor,
) {
    let (_, c, h, w) = x.shape().nchw();
    assert_eq!(gamma.dims(), &[c], "bn gamma shape");
    assert_eq!(beta.dims(), &[c], "bn beta shape");
    assert_eq!(mean.dims(), &[c], "bn mean shape");
    assert_eq!(invstd.dims(), &[c], "bn invstd shape");
    let g = gamma.as_slice();
    let b = beta.as_slice();
    let ms = mean.as_slice();
    let is = invstd.as_slice();
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        let ci = (i / (h * w)) % c;
        *v = g[ci] * (*v - ms[ci]) * is[ci] + b[ci];
    }
}

/// Decayable ReLU `y = max(alpha*x, x)` in place (NetBooster Eq. 2).
pub fn relu_decay_inplace(x: &mut Tensor, alpha: f32) {
    relu_decay_slice(x.as_mut_slice(), alpha);
}

/// Decayable ReLU6 `y = max(alpha*x, x) - (1-alpha)*max(0, x-6)` in place.
pub fn relu6_decay_inplace(x: &mut Tensor, alpha: f32) {
    relu6_decay_slice(x.as_mut_slice(), alpha);
}

/// [`relu_decay_inplace`] over a raw buffer — the same single f32
/// expression, callable from kernel epilogues that hold a slice rather
/// than a tensor.
pub fn relu_decay_slice(x: &mut [f32], alpha: f32) {
    for v in x {
        *v = v.max(alpha * *v);
    }
}

/// [`relu6_decay_inplace`] over a raw buffer.
pub fn relu6_decay_slice(x: &mut [f32], alpha: f32) {
    for v in x {
        *v = v.max(alpha * *v) - (1.0 - alpha) * (*v - 6.0).max(0.0);
    }
}

/// A pointwise activation fused into a GEMM / convolution epilogue.
///
/// The variants delegate to the slice kernels above, so a fused epilogue
/// produces exactly the bits a separate elementwise pass would: fusing
/// changes *when* the expression runs, never *what* it computes.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Epilogue {
    /// No activation; the output is left as the kernel produced it.
    #[default]
    None,
    /// Decayable ReLU `y = max(alpha*x, x)`.
    Relu {
        /// PLT decay slope (1.0 = identity).
        alpha: f32,
    },
    /// Decayable ReLU6 `y = max(alpha*x, x) - (1-alpha)*max(0, x-6)`.
    Relu6 {
        /// PLT decay slope (1.0 = identity).
        alpha: f32,
    },
}

impl Epilogue {
    /// Applies the activation to a finished output buffer (no-op for
    /// [`Epilogue::None`]).
    #[inline]
    pub fn apply(self, x: &mut [f32]) {
        match self {
            Epilogue::None => {}
            Epilogue::Relu { alpha } => relu_decay_slice(x, alpha),
            Epilogue::Relu6 { alpha } => relu6_decay_slice(x, alpha),
        }
    }

    /// True when applying this epilogue would leave the buffer unchanged.
    pub fn is_identity(self) -> bool {
        match self {
            Epilogue::None => true,
            Epilogue::Relu { alpha } | Epilogue::Relu6 { alpha } => alpha >= 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias4_broadcasts_per_channel() {
        let mut x = Tensor::zeros([1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        add_bias4_inplace(&mut x, &b);
        assert_eq!(x.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn bias2_broadcasts_per_row() {
        let mut x = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap();
        add_bias2_inplace(&mut x, &b);
        assert_eq!(x.as_slice(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn bn_affine_matches_formula() {
        let mut x = Tensor::full([2, 1, 1, 1], 10.0);
        let invstd = bn_invstd(&Tensor::full([1], 4.0), 0.0);
        bn_apply_inplace(
            &mut x,
            &Tensor::full([1], 2.0),
            &Tensor::full([1], 1.0),
            &Tensor::full([1], 8.0),
            &invstd,
        );
        // 2 * (10-8)/2 + 1 = 3
        assert!(x.allclose(&Tensor::full([2, 1, 1, 1], 3.0), 1e-6));
    }

    #[test]
    fn relu_decay_endpoints() {
        let base = Tensor::from_vec(vec![-2.0, 3.0], [2]).unwrap();
        let mut t = base.clone();
        relu_decay_inplace(&mut t, 0.0);
        assert_eq!(t.as_slice(), &[0.0, 3.0]);
        let mut t = base.clone();
        relu_decay_inplace(&mut t, 1.0);
        assert_eq!(t.as_slice(), &[-2.0, 3.0]);
        let mut t = base;
        relu_decay_inplace(&mut t, 0.5);
        assert_eq!(t.as_slice(), &[-1.0, 3.0]);
    }

    #[test]
    fn relu6_decay_endpoints() {
        let base = Tensor::from_vec(vec![-2.0, 3.0, 8.0], [3]).unwrap();
        let mut t = base.clone();
        relu6_decay_inplace(&mut t, 0.0);
        assert_eq!(t.as_slice(), &[0.0, 3.0, 6.0]);
        let mut t = base;
        relu6_decay_inplace(&mut t, 1.0);
        assert_eq!(t.as_slice(), &[-2.0, 3.0, 8.0]);
    }
}
