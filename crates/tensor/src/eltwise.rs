//! Shared elementwise and batch-norm kernels.
//!
//! These are the single source of truth for the pointwise math that both
//! execution paths run: the taped autograd forward (`nb-autograd`) and the
//! compiled inference plan (`nb-nn`'s `CompiledPlan`) call the same
//! functions here, so their outputs are bitwise identical by construction.
//! The elementwise kernels are in-place over an exclusively-owned tensor (the
//! COW layer detaches shared buffers first) and use exactly one f32
//! expression per element — keep it that way: any reassociation or fusing
//! here changes bits on *both* paths at once, which is the point.
//!
//! ## Batch norm
//!
//! Batch norm's training statistics, normalize and backward live here too,
//! and loop over the `(sample, channel)` planes of an `[n,c,h,w]` tensor, so
//! no element divides to find its channel. The per-element expressions keep
//! the textbook formula's operation order; only a left-most subexpression
//! that depends on the channel alone is hoisted out of a plane. Each
//! channel's reductions — the f64 mean and variance sums of the training
//! forward, the f32 `dgamma` and `dbeta` sums of the backward — run in flat
//! `(sample, pixel)` order. Several channels' sums run side by side in one
//! task (`BN_GROUP`, four) and channel groups run on the worker pool, but each
//! channel's sum has one owner and none is split or reassociated, so the
//! bits depend neither on the grouping nor on the pool width.

use crate::threadpool::{self, SharedMut};
use crate::Tensor;

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
/// `[n,c,h,w]` tensor, one `(sample, channel)` plane at a time.
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
    if c * h * w == 0 {
        return;
    }
    for sample in x.as_mut_slice().chunks_exact_mut(c * h * w) {
        for (ci, plane) in sample.chunks_exact_mut(h * w).enumerate() {
            let (gc, mc, ic, bc) = (g[ci], ms[ci], is[ci], b[ci]);
            for v in plane {
                *v = gc * (*v - mc) * ic + bc;
            }
        }
    }
}

/// Channels whose reductions one batch-norm task runs side by side. One
/// channel's sum is a serial chain of dependent adds; interleaving this
/// many independent chains hides the add latency without splitting any.
const BN_GROUP: usize = 4;

/// Runs `group(c0, len)` for the channel groups `[c0, c0 + len)` of a
/// `c`-channel tensor on the worker pool: full groups of [`BN_GROUP`]
/// channels, then the remainder one channel at a time.
fn for_channel_groups(c: usize, group: &(dyn Fn(usize, usize) + Sync)) {
    let full = c / BN_GROUP;
    threadpool::parallel_for(full + c % BN_GROUP, &|t| {
        if t < full {
            group(t * BN_GROUP, BN_GROUP);
        } else {
            group(full * BN_GROUP + (t - full), 1);
        }
    });
}

/// The `(sample, pixel)` planes of channels `[c0, c0 + L)` in sample `ni`
/// of an `[n,c,hw]`-laid-out buffer.
fn planes<const L: usize>(xs: &[f32], c: usize, hw: usize, ni: usize, c0: usize) -> [&[f32]; L] {
    std::array::from_fn(|l| &xs[(ni * c + c0 + l) * hw..(ni * c + c0 + l + 1) * hw])
}

/// Training-mode batch statistics of an `[n,c,h,w]` tensor: the
/// per-channel mean and *biased* variance over `n * h * w` elements,
/// accumulated in f64 in flat `(sample, pixel)` order (the variance from
/// the f64 mean) and rounded to f32 once. Returns `(mean, var)`, each `[c]`.
///
/// # Panics
///
/// Panics if `x` is not rank 4.
pub fn bn_batch_stats(x: &Tensor) -> (Tensor, Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    let xs = x.as_slice();
    let mut mean = Tensor::zeros([c]);
    let mut var = Tensor::zeros([c]);
    let shared_mean = SharedMut::new(mean.as_mut_slice());
    let shared_var = SharedMut::new(var.as_mut_slice());
    for_channel_groups(c, &|c0, len| {
        // Safety: channels [c0, c0 + len) belong to this task only.
        let (mo, vo) = unsafe { (shared_mean.slice(c0, len), shared_var.slice(c0, len)) };
        if len == BN_GROUP {
            stats_group::<BN_GROUP>(xs, n, c, h * w, c0, mo, vo);
        } else {
            stats_group::<1>(xs, n, c, h * w, c0, mo, vo);
        }
    });
    (mean, var)
}

// `j` walks the group's `L` planes in lockstep.
#[allow(clippy::needless_range_loop)]
fn stats_group<const L: usize>(
    xs: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    c0: usize,
    mean_out: &mut [f32],
    var_out: &mut [f32],
) {
    let m = (n * hw) as f64;
    let mut sum = [0.0f64; L];
    for ni in 0..n {
        let p = planes::<L>(xs, c, hw, ni, c0);
        for j in 0..hw {
            for l in 0..L {
                sum[l] += p[l][j] as f64;
            }
        }
    }
    let mean = sum.map(|s| s / m);
    let mut sq = [0.0f64; L];
    for ni in 0..n {
        let p = planes::<L>(xs, c, hw, ni, c0);
        for j in 0..hw {
            for l in 0..L {
                let d = p[l][j] as f64 - mean[l];
                sq[l] += d * d;
            }
        }
    }
    for l in 0..L {
        mean_out[l] = mean[l] as f32;
        var_out[l] = (sq[l] / m) as f32;
    }
}

/// Batch-norm backward over an `[n,c,h,w]` input `x` and upstream gradient
/// `dy`, given the `mean` and `invstd` the forward normalized with. Returns
/// `(dx, dgamma, dbeta)`.
///
/// With `xhat = (x - mean) * invstd` and `m = n * h * w`, `dgamma` and
/// `dbeta` sum `dy * xhat` and `dy` per channel in f32, and `dx` is
/// `gamma * invstd / m * (m * dy - dbeta - xhat * dgamma)` in training mode
/// (batch statistics) or `dy * gamma * invstd` in eval mode (fixed
/// statistics).
///
/// # Panics
///
/// Panics if `x` is not rank 4, `dy` differs from it in shape, or the
/// per-channel tensors are not `[c]`.
pub fn bn_backward(
    x: &Tensor,
    dy: &Tensor,
    gamma: &Tensor,
    mean: &Tensor,
    invstd: &Tensor,
    training: bool,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    assert_eq!(dy.dims(), x.dims(), "bn backward dy shape");
    assert_eq!(gamma.dims(), &[c], "bn gamma shape");
    assert_eq!(mean.dims(), &[c], "bn mean shape");
    assert_eq!(invstd.dims(), &[c], "bn invstd shape");
    let mut dx = Tensor::zeros(x.shape().clone());
    let mut dgamma = Tensor::zeros([c]);
    let mut dbeta = Tensor::zeros([c]);
    let args = BnBackward {
        xs: x.as_slice(),
        gs: dy.as_slice(),
        gam: gamma.as_slice(),
        ms: mean.as_slice(),
        is: invstd.as_slice(),
        n,
        c,
        hw: h * w,
        training,
    };
    let shared_dx = SharedMut::new(dx.as_mut_slice());
    let shared_dg = SharedMut::new(dgamma.as_mut_slice());
    let shared_db = SharedMut::new(dbeta.as_mut_slice());
    for_channel_groups(c, &|c0, len| {
        // Safety: channels [c0, c0 + len) — their dgamma and dbeta entries
        // and their dx planes in every sample — belong to this task only.
        let (dg, db) = unsafe { (shared_dg.slice(c0, len), shared_db.slice(c0, len)) };
        if len == BN_GROUP {
            args.group::<BN_GROUP>(c0, dg, db);
        } else {
            args.group::<1>(c0, dg, db);
        }
        for ci in c0..c0 + len {
            for ni in 0..n {
                // Safety: plane (ni, ci) belongs to this task, as above.
                let dxp = unsafe { shared_dx.slice((ni * c + ci) * h * w, h * w) };
                args.dx_plane(ni, ci, dg[ci - c0], db[ci - c0], dxp);
            }
        }
    });
    (dx, dgamma, dbeta)
}

/// The inputs of [`bn_backward`], shared by its channel tasks.
struct BnBackward<'a> {
    xs: &'a [f32],
    gs: &'a [f32],
    gam: &'a [f32],
    ms: &'a [f32],
    is: &'a [f32],
    n: usize,
    c: usize,
    hw: usize,
    training: bool,
}

impl BnBackward<'_> {
    /// `dgamma` and `dbeta` of channels `[c0, c0 + L)`.
    fn group<const L: usize>(&self, c0: usize, dg_out: &mut [f32], db_out: &mut [f32]) {
        let mc: [f32; L] = std::array::from_fn(|l| self.ms[c0 + l]);
        let ic: [f32; L] = std::array::from_fn(|l| self.is[c0 + l]);
        let mut dg = [0.0f32; L];
        let mut db = [0.0f32; L];
        for ni in 0..self.n {
            let xp = planes::<L>(self.xs, self.c, self.hw, ni, c0);
            let gp = planes::<L>(self.gs, self.c, self.hw, ni, c0);
            for j in 0..self.hw {
                for l in 0..L {
                    let gv = gp[l][j];
                    let xhat = (xp[l][j] - mc[l]) * ic[l];
                    dg[l] += gv * xhat;
                    db[l] += gv;
                }
            }
        }
        dg_out.copy_from_slice(&dg);
        db_out.copy_from_slice(&db);
    }

    /// `dx` of the plane `(ni, ci)`, given that channel's `dgamma` and
    /// `dbeta`.
    fn dx_plane(&self, ni: usize, ci: usize, dg: f32, db: f32, dx: &mut [f32]) {
        let off = (ni * self.c + ci) * self.hw;
        let xp = &self.xs[off..off + self.hw];
        let gp = &self.gs[off..off + self.hw];
        let (gc, mc, ic) = (self.gam[ci], self.ms[ci], self.is[ci]);
        if self.training {
            let m = (self.n * self.hw) as f32;
            // `gamma * invstd / m` is the formula's left-most subexpression,
            // so hoisting it out of the plane changes no rounding.
            let k = gc * ic / m;
            for ((d, &xv), &gv) in dx.iter_mut().zip(xp).zip(gp) {
                let xhat = (xv - mc) * ic;
                *d = k * (m * gv - db - xhat * dg);
            }
        } else {
            for (d, &gv) in dx.iter_mut().zip(gp) {
                *d = gv * gc * ic;
            }
        }
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
    use crate::threadpool::with_thread_cap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-element batch-norm loops the plane kernels replaced: every
    /// element finds its channel by division, and every channel's sum
    /// visits the tensor in flat order. The reference for the bit tests.
    fn bn_stats_ref(x: &Tensor) -> (Tensor, Tensor) {
        let (n, c, h, w) = x.shape().nchw();
        let hw = h * w;
        let m = (n * hw) as f64;
        let xs = x.as_slice();
        let mut mean = vec![0.0f64; c];
        let mut var = vec![0.0f64; c];
        for (i, &v) in xs.iter().enumerate() {
            mean[i / hw % c] += v as f64;
        }
        for v in &mut mean {
            *v /= m;
        }
        for (i, &v) in xs.iter().enumerate() {
            let d = v as f64 - mean[i / hw % c];
            var[i / hw % c] += d * d;
        }
        for v in &mut var {
            *v /= m;
        }
        (
            Tensor::from_fn([c], |i| mean[i] as f32),
            Tensor::from_fn([c], |i| var[i] as f32),
        )
    }

    fn bn_apply_ref(x: &mut Tensor, g: &[f32], b: &[f32], ms: &[f32], is: &[f32]) {
        let (_, c, h, w) = x.shape().nchw();
        let hw = h * w;
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            let ci = i / hw % c;
            *v = g[ci] * (*v - ms[ci]) * is[ci] + b[ci];
        }
    }

    fn bn_backward_ref(
        x: &Tensor,
        dy: &Tensor,
        gam: &[f32],
        ms: &[f32],
        is: &[f32],
        training: bool,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, c, h, w) = x.shape().nchw();
        let hw = h * w;
        let m = (n * hw) as f32;
        let xs = x.as_slice();
        let gs = dy.as_slice();
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for (i, &gv) in gs.iter().enumerate() {
            let ci = i / hw % c;
            let xhat = (xs[i] - ms[ci]) * is[ci];
            dgamma[ci] += gv * xhat;
            dbeta[ci] += gv;
        }
        let dx = Tensor::from_fn(x.shape().clone(), |i| {
            let ci = i / hw % c;
            if training {
                let xhat = (xs[i] - ms[ci]) * is[ci];
                gam[ci] * is[ci] / m * (m * gs[i] - dbeta[ci] - xhat * dgamma[ci])
            } else {
                gs[i] * gam[ci] * is[ci]
            }
        });
        (
            dx,
            Tensor::from_vec(dgamma, [c]).unwrap(),
            Tensor::from_vec(dbeta, [c]).unwrap(),
        )
    }

    fn assert_bits(name: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.dims(), want.dims(), "{name} shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name} differs at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn bn_plane_kernels_match_per_element_loops_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xB4);
        // 13 channels fill no whole number of groups; 1x1 planes make every
        // plane one element
        for c in [1usize, 3, 5, 8, 13] {
            for n in [1usize, 3] {
                for hw in [1usize, 7, 16] {
                    let shape = [n, c, hw, hw];
                    // an offset mean, so the variance pass matters
                    let x = Tensor::randn(shape, &mut rng).scale(2.0).add_scalar(0.75);
                    let mut dy = Tensor::randn(shape, &mut rng);
                    for (i, v) in dy.as_mut_slice().iter_mut().enumerate() {
                        if i % 3 == 0 {
                            *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                    let gamma = Tensor::randn([c], &mut rng);
                    let beta = Tensor::randn([c], &mut rng);
                    let run_mean = Tensor::randn([c], &mut rng);
                    let run_var = Tensor::randn([c], &mut rng).map(|v| v * v + 0.1);
                    let case = format!("n{n} c{c} {hw}x{hw}");
                    let (want_mean, want_var) = bn_stats_ref(&x);
                    let invstd = bn_invstd(&want_var, 1e-5);
                    let run_invstd = bn_invstd(&run_var, 1e-5);
                    let mut want_y = x.clone();
                    bn_apply_ref(
                        &mut want_y,
                        gamma.as_slice(),
                        beta.as_slice(),
                        want_mean.as_slice(),
                        invstd.as_slice(),
                    );
                    let g = gamma.as_slice();
                    let want_train =
                        bn_backward_ref(&x, &dy, g, want_mean.as_slice(), invstd.as_slice(), true);
                    let want_eval = bn_backward_ref(
                        &x,
                        &dy,
                        g,
                        run_mean.as_slice(),
                        run_invstd.as_slice(),
                        false,
                    );
                    for width in [1, 2] {
                        with_thread_cap(width, || {
                            let case = format!("{case} width {width}");
                            let (mean, var) = bn_batch_stats(&x);
                            assert_bits(&format!("{case} mean"), &mean, &want_mean);
                            assert_bits(&format!("{case} var"), &var, &want_var);
                            let mut y = x.clone();
                            bn_apply_inplace(&mut y, &gamma, &beta, &mean, &invstd);
                            assert_bits(&format!("{case} normalize"), &y, &want_y);
                            for (mode, ms, is, want) in [
                                ("train", &mean, &invstd, &want_train),
                                ("eval", &run_mean, &run_invstd, &want_eval),
                            ] {
                                let training = mode == "train";
                                let (dx, dg, db) = bn_backward(&x, &dy, &gamma, ms, is, training);
                                assert_bits(&format!("{case} {mode} dx"), &dx, &want.0);
                                assert_bits(&format!("{case} {mode} dgamma"), &dg, &want.1);
                                assert_bits(&format!("{case} {mode} dbeta"), &db, &want.2);
                            }
                        });
                    }
                }
            }
        }
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
