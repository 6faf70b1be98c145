//! Shared elementwise and batch-norm kernels.
//!
//! These are the single source of truth for the pointwise math that both
//! execution paths run: the taped autograd forward (`nb-autograd`) and the
//! compiled inference plan (`nb-nn`'s `CompiledPlan`) use the same
//! per-element expressions here, so their outputs are bitwise identical by
//! construction. The plan calls the in-place kernels over buffers it owns;
//! the tape calls the out-of-place twins ([`bn_normalize`], [`relu_decay`],
//! [`relu6_decay`] and the activation gradients), which write each output
//! element once, in pool tasks, instead of copying the input first. Each
//! twin pair shares one `#[inline(always)]` expression per element — keep it
//! that way: any reassociation or fusing here changes bits on *both* paths
//! at once, which is the point. Elementwise work has no reduction, so how it
//! is split across the pool never changes a bit.
//!
//! ## Batch norm
//!
//! Batch norm's training statistics, normalize and backward live here too,
//! and loop over the `(sample, channel)` planes of an `[n,c,h,w]` tensor, so
//! no element divides to find its channel. The per-element expressions keep
//! the textbook formula's operation order; only a left-most subexpression
//! that depends on the channel alone is hoisted out of a plane.
//!
//! Each channel's reductions — the f64 mean and variance sums of the
//! training forward, the f32 `dgamma` and `dbeta` sums of the backward — are
//! one serial chain per channel in flat `(sample, pixel)` order: f32→f64
//! conversion, `sub`, `mul` and `add` for the statistics, f32 `mul` and
//! `add` for the backward sums, never FMA. On an AVX2 host, full groups of
//! eight channels run as *channel lanes* (see `simd`): lane `l` of one
//! register carries channel `c0 + l`'s unchanged chain, the planes read
//! through 8x8 in-register transposes. The remaining `c % 8` channels, and
//! hosts without AVX2, run the same chains as scalar loops, four channels
//! side by side (`BN_GROUP`). Channel groups run on the worker pool, but each
//! channel's sum has one owner and none is split or reassociated, so the
//! bits depend neither on the lanes, the grouping nor the pool width.

use crate::simd::{have_avx2, LANES};
use crate::threadpool::{self, SharedMut};
use crate::{Shape, Tensor};
use std::mem::MaybeUninit;

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

/// Elements one elementwise pool task writes (rounded up to whole planes
/// for batch norm).
const ELTWISE_CHUNK: usize = 1 << 14;

/// A new tensor of `shape` whose elements `init` writes; the buffer is
/// never zeroed first.
///
/// # Safety
///
/// `init` must write every element of the slice it is given.
unsafe fn new_with(shape: &Shape, init: impl FnOnce(&mut [MaybeUninit<f32>])) -> Tensor {
    let len = shape.numel();
    let mut data = Vec::with_capacity(len);
    init(&mut data.spare_capacity_mut()[..len]);
    // Safety: `init` initialized every element of [0, len); had it
    // panicked, the unwind would have skipped this point.
    unsafe { data.set_len(len) };
    Tensor::from_vec(data, shape.clone()).expect("new tensor matches its shape")
}

/// [`new_with`] on the pool: `fill(start, out)` writes the window
/// `out = [start, start + out.len())` of whole `unit`s of elements, one
/// pool task per window of about [`ELTWISE_CHUNK`] elements.
///
/// # Safety
///
/// `fill` must write every element of each window it is given.
unsafe fn new_filled(
    shape: &Shape,
    unit: usize,
    fill: &(dyn Fn(usize, &mut [MaybeUninit<f32>]) + Sync),
) -> Tensor {
    // Safety: the windows cover [0, len), and `fill` writes each (the
    // caller's contract).
    new_with(shape, |out| {
        let len = out.len();
        if len == 0 {
            return;
        }
        let per_task = (ELTWISE_CHUNK / unit).max(1) * unit;
        let out = SharedMut::new(out);
        threadpool::parallel_for(len.div_ceil(per_task), &|t| {
            let start = t * per_task;
            // Safety: task windows are disjoint.
            fill(start, unsafe {
                out.slice(start, per_task.min(len - start))
            });
        });
    })
}

/// `f` applied to every element of `x`, out of place on the pool.
///
/// Each task works on its own copy of `f` (hence `Copy`): the window it
/// writes is reached through a raw pointer, so a value `f` captured behind a
/// shared reference would be reloaded per element, and a branch that reads
/// it would stay a branch instead of becoming a vector blend.
fn map_new(x: &Tensor, f: impl Fn(f32) -> f32 + Sync + Copy) -> Tensor {
    let xs = x.as_slice();
    // Safety: a window is never longer than `xs[start..]`, so the loop
    // writes all of it.
    unsafe {
        new_filled(x.shape(), 1, &|start, out| {
            let task_f = f;
            for (o, &v) in out.iter_mut().zip(&xs[start..]) {
                o.write(task_f(v));
            }
        })
    }
}

/// `f` applied to the element pairs of two same-shape tensors, out of place
/// on the pool; `Copy` for the reason [`map_new`] gives.
fn zip_new(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Copy) -> Tensor {
    assert_eq!(a.dims(), b.dims(), "elementwise operand shapes");
    let (xs, ys) = (a.as_slice(), b.as_slice());
    // Safety: a window is never longer than `xs[start..]` or `ys[start..]`
    // (same shape), so the loop writes all of it.
    unsafe {
        new_filled(a.shape(), 1, &|start, out| {
            let task_f = f;
            for ((o, &u), &v) in out.iter_mut().zip(&xs[start..]).zip(&ys[start..]) {
                o.write(task_f(u, v));
            }
        })
    }
}

/// The batch-norm affine transform of one element,
/// `gamma * (x - mean) * invstd + beta`.
#[inline(always)]
fn bn_affine(v: f32, gamma: f32, mean: f32, invstd: f32, beta: f32) -> f32 {
    gamma * (v - mean) * invstd + beta
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
                *v = bn_affine(*v, gc, mc, ic, bc);
            }
        }
    }
}

/// [`bn_apply_inplace`] out of place: returns the normalized tensor,
/// writing each element once, whole `(sample, channel)` planes per pool
/// task. Same expression, same bits.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or the statistics are not `[c]`.
pub fn bn_normalize(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    invstd: &Tensor,
) -> Tensor {
    let (_, c, h, w) = x.shape().nchw();
    assert_eq!(gamma.dims(), &[c], "bn gamma shape");
    assert_eq!(beta.dims(), &[c], "bn beta shape");
    assert_eq!(mean.dims(), &[c], "bn mean shape");
    assert_eq!(invstd.dims(), &[c], "bn invstd shape");
    let (g, b) = (gamma.as_slice(), beta.as_slice());
    let (ms, is) = (mean.as_slice(), invstd.as_slice());
    let (xs, hw) = (x.as_slice(), h * w);
    // Safety: every window holds whole planes, and the loop writes every
    // element of each.
    unsafe {
        new_filled(x.shape(), hw, &|start, out| {
            let planes = out.chunks_exact_mut(hw).zip(xs[start..].chunks_exact(hw));
            for (k, (o_plane, x_plane)) in planes.enumerate() {
                let ci = (start / hw + k) % c;
                let (gc, mc, ic, bc) = (g[ci], ms[ci], is[ci], b[ci]);
                for (o, &v) in o_plane.iter_mut().zip(x_plane) {
                    o.write(bn_affine(v, gc, mc, ic, bc));
                }
            }
        })
    }
}

/// Channels whose reductions one scalar batch-norm task runs side by side.
/// One channel's sum is a serial chain of dependent adds; interleaving this
/// many independent chains hides the add latency without splitting any.
const BN_GROUP: usize = 4;

/// Runs `group(c0, len)` on the worker pool for the channel groups
/// `[c0, c0 + len)` of a `c`-channel tensor: with `simd`, full groups of
/// [`LANES`] channels for the lane kernels first; then the remaining
/// channels in scalar groups of [`BN_GROUP`], and one at a time.
pub(crate) fn for_channel_groups(c: usize, simd: bool, group: &(dyn Fn(usize, usize) + Sync)) {
    let lane_groups = if simd { c / LANES } else { 0 };
    let quads_at = lane_groups * LANES;
    let quads = (c - quads_at) / BN_GROUP;
    let singles_at = quads_at + quads * BN_GROUP;
    threadpool::parallel_for(lane_groups + quads + c - singles_at, &|t| {
        if t < lane_groups {
            group(t * LANES, LANES);
        } else if t < lane_groups + quads {
            group(quads_at + (t - lane_groups) * BN_GROUP, BN_GROUP);
        } else {
            group(singles_at + (t - lane_groups - quads), 1);
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
    batch_stats(x, true)
}

/// [`bn_batch_stats`], with the channel lanes only where `simd` allows
/// them (and the host has AVX2). The bits are the same either way.
fn batch_stats(x: &Tensor, simd: bool) -> (Tensor, Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    let xs = x.as_slice();
    let mut mean = Tensor::zeros([c]);
    let mut var = Tensor::zeros([c]);
    let shared_mean = SharedMut::new(mean.as_mut_slice());
    let shared_var = SharedMut::new(var.as_mut_slice());
    for_channel_groups(c, simd && have_avx2(), &|c0, len| {
        // Safety: channels [c0, c0 + len) belong to this task only.
        let (mo, vo) = unsafe { (shared_mean.slice(c0, len), shared_var.slice(c0, len)) };
        match len {
            1 => stats_group::<1>(xs, n, c, h * w, c0, mo, vo),
            BN_GROUP => stats_group::<BN_GROUP>(xs, n, c, h * w, c0, mo, vo),
            _ => {
                // Safety: lane groups exist only on AVX2 hosts, and the
                // group's channels lie inside `c`.
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    lanes::stats(xs, n, c, h * w, c0, mo, vo)
                };
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("channel lanes need AVX2");
            }
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
    backward(x, dy, gamma, mean, invstd, training, true)
}

/// [`bn_backward`], with the channel lanes only where `simd` allows them
/// (and the host has AVX2). The bits are the same either way.
fn backward(
    x: &Tensor,
    dy: &Tensor,
    gamma: &Tensor,
    mean: &Tensor,
    invstd: &Tensor,
    training: bool,
    simd: bool,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    assert_eq!(dy.dims(), x.dims(), "bn backward dy shape");
    assert_eq!(gamma.dims(), &[c], "bn gamma shape");
    assert_eq!(mean.dims(), &[c], "bn mean shape");
    assert_eq!(invstd.dims(), &[c], "bn invstd shape");
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
    let shared_dg = SharedMut::new(dgamma.as_mut_slice());
    let shared_db = SharedMut::new(dbeta.as_mut_slice());
    let write_dx = |dx: &mut [MaybeUninit<f32>]| {
        let shared_dx = SharedMut::new(dx);
        for_channel_groups(c, simd && have_avx2(), &|c0, len| {
            // Safety: channels [c0, c0 + len) — their dgamma and dbeta
            // entries and their dx planes in every sample — belong to this
            // task only.
            let (dg, db) = unsafe { (shared_dg.slice(c0, len), shared_db.slice(c0, len)) };
            match len {
                1 => args.group::<1>(c0, dg, db),
                BN_GROUP => args.group::<BN_GROUP>(c0, dg, db),
                _ => {
                    // Safety: lane groups exist only on AVX2 hosts, and the
                    // group's channels lie inside `c`.
                    #[cfg(target_arch = "x86_64")]
                    unsafe {
                        lanes::bn_sums(&args, c0, dg, db)
                    };
                    #[cfg(not(target_arch = "x86_64"))]
                    unreachable!("channel lanes need AVX2");
                }
            }
            for ci in c0..c0 + len {
                for ni in 0..n {
                    // Safety: plane (ni, ci) belongs to this task, as above.
                    let dxp = unsafe { shared_dx.slice((ni * c + ci) * args.hw, args.hw) };
                    args.dx_plane(ni, ci, dg[ci - c0], db[ci - c0], dxp);
                }
            }
        });
    };
    // Safety: the channel groups cover all `c` channels, and each writes
    // every element of its channels' planes in every sample.
    let dx = unsafe { new_with(x.shape(), write_dx) };
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
    fn dx_plane(&self, ni: usize, ci: usize, dg: f32, db: f32, dx: &mut [MaybeUninit<f32>]) {
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
                d.write(k * (m * gv - db - xhat * dg));
            }
        } else {
            for (d, &gv) in dx.iter_mut().zip(gp) {
                d.write(gv * gc * ic);
            }
        }
    }
}

/// The batch-norm channel-lane kernels: [`stats_group`] and
/// [`BnBackward::group`] for eight channels at once, lane `l` running
/// channel `c0 + l`'s chain with the same operations in the same order.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::BnBackward;
    use crate::simd::x86::{for_each_lane_pixel, load_f32x8, load_f64x4, store_f32x8, store_f64x4};
    use crate::simd::LANES;
    use std::arch::x86_64::*;

    /// The f64 sums of eight lanes' f32 values, four lanes per register.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen(v: __m256) -> (__m256d, __m256d) {
        (
            _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
            _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)),
        )
    }

    /// Mean and biased variance of channels `[c0, c0 + 8)`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present, `c0 + 8 <= c` and `xs` must hold `n * c * hw`
    /// elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stats(
        xs: &[f32],
        n: usize,
        c: usize,
        hw: usize,
        c0: usize,
        mean_out: &mut [f32],
        var_out: &mut [f32],
    ) {
        let m = (n * hw) as f64;
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for_each_lane_pixel([xs], n, c, hw, c0, |[v]| {
            let (vlo, vhi) = widen(*v);
            lo = _mm256_add_pd(lo, vlo);
            hi = _mm256_add_pd(hi, vhi);
        });
        let mut mean = [0.0f64; LANES];
        store_f64x4(&mut mean, 0, lo);
        store_f64x4(&mut mean, 4, hi);
        let mean = mean.map(|s| s / m);
        let (mean_lo, mean_hi) = (load_f64x4(&mean, 0), load_f64x4(&mean, 4));
        let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        for_each_lane_pixel([xs], n, c, hw, c0, |[v]| {
            let (vlo, vhi) = widen(*v);
            let (dlo, dhi) = (_mm256_sub_pd(vlo, mean_lo), _mm256_sub_pd(vhi, mean_hi));
            lo = _mm256_add_pd(lo, _mm256_mul_pd(dlo, dlo));
            hi = _mm256_add_pd(hi, _mm256_mul_pd(dhi, dhi));
        });
        let mut sq = [0.0f64; LANES];
        store_f64x4(&mut sq, 0, lo);
        store_f64x4(&mut sq, 4, hi);
        for l in 0..LANES {
            mean_out[l] = mean[l] as f32;
            var_out[l] = (sq[l] / m) as f32;
        }
    }

    /// `dgamma` and `dbeta` of channels `[c0, c0 + 8)`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `c0 + 8 <= c`; the outputs hold eight
    /// elements.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bn_sums(
        args: &BnBackward<'_>,
        c0: usize,
        dg_out: &mut [f32],
        db_out: &mut [f32],
    ) {
        let mc = load_f32x8(args.ms, c0);
        let ic = load_f32x8(args.is, c0);
        let (mut dg, mut db) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let bufs = [args.xs, args.gs];
        for_each_lane_pixel(bufs, args.n, args.c, args.hw, c0, |[xv, gv]| {
            let xhat = _mm256_mul_ps(_mm256_sub_ps(*xv, mc), ic);
            dg = _mm256_add_ps(dg, _mm256_mul_ps(*gv, xhat));
            db = _mm256_add_ps(db, *gv);
        });
        store_f32x8(dg_out, 0, dg);
        store_f32x8(db_out, 0, db);
    }
}

/// Decayable ReLU `y = max(alpha*x, x)` of one element (NetBooster Eq. 2).
#[inline(always)]
fn relu_decay_elem(v: f32, alpha: f32) -> f32 {
    v.max(alpha * v)
}

/// Decayable ReLU6 `y = max(alpha*x, x) - (1-alpha)*max(0, x-6)` of one
/// element.
#[inline(always)]
fn relu6_decay_elem(v: f32, alpha: f32) -> f32 {
    v.max(alpha * v) - (1.0 - alpha) * (v - 6.0).max(0.0)
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
        *v = relu_decay_elem(*v, alpha);
    }
}

/// [`relu6_decay_inplace`] over a raw buffer.
pub fn relu6_decay_slice(x: &mut [f32], alpha: f32) {
    for v in x {
        *v = relu6_decay_elem(*v, alpha);
    }
}

/// [`relu_decay_inplace`] out of place: returns the activation, writing
/// each element once on the pool. Same expression, same bits.
pub fn relu_decay(x: &Tensor, alpha: f32) -> Tensor {
    map_new(x, move |v| relu_decay_elem(v, alpha))
}

/// [`relu6_decay_inplace`] out of place, as [`relu_decay`].
pub fn relu6_decay(x: &Tensor, alpha: f32) -> Tensor {
    map_new(x, move |v| relu6_decay_elem(v, alpha))
}

/// Gradient of [`relu_decay`] with respect to its input `x`, given the
/// upstream gradient `dy`: `dy` where `x >= 0`, `alpha * dy` elsewhere.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn relu_decay_backward(x: &Tensor, dy: &Tensor, alpha: f32) -> Tensor {
    zip_new(x, dy, move |xv, gv| if xv >= 0.0 { gv } else { alpha * gv })
}

/// Gradient of [`relu6_decay`] with respect to its input `x`, given the
/// upstream gradient `dy`: `dy` where `0 <= x <= 6`, `alpha * dy`
/// elsewhere.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn relu6_decay_backward(x: &Tensor, dy: &Tensor, alpha: f32) -> Tensor {
    zip_new(x, dy, move |xv, gv| {
        if (0.0..=6.0).contains(&xv) {
            gv
        } else {
            alpha * gv
        }
    })
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
        // Channel counts below, at and between whole lane groups (and with
        // scalar remainders of every kind); planes of one pixel, of no
        // whole block of eight pixels, and with a pixel tail.
        for c in [1usize, 7, 8, 9, 13, 16, 24] {
            for n in [1usize, 3] {
                for (h, w) in [(1usize, 1usize), (3, 5), (7, 7), (16, 16)] {
                    let shape = [n, c, h, w];
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
                    let case = format!("n{n} c{c} {h}x{w}");
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
                    // the scalar loops, and the channel lanes where the
                    // host has AVX2
                    for simd in [false, true] {
                        for width in [1, 2] {
                            with_thread_cap(width, || {
                                let case = format!("{case} simd {simd} width {width}");
                                let (mean, var) = batch_stats(&x, simd);
                                assert_bits(&format!("{case} mean"), &mean, &want_mean);
                                assert_bits(&format!("{case} var"), &var, &want_var);
                                let y = bn_normalize(&x, &gamma, &beta, &mean, &invstd);
                                assert_bits(&format!("{case} normalize"), &y, &want_y);
                                let mut y = x.clone();
                                bn_apply_inplace(&mut y, &gamma, &beta, &mean, &invstd);
                                assert_bits(&format!("{case} normalize in place"), &y, &want_y);
                                for (mode, ms, is, want) in [
                                    ("train", &mean, &invstd, &want_train),
                                    ("eval", &run_mean, &run_invstd, &want_eval),
                                ] {
                                    let training = mode == "train";
                                    let (dx, dg, db) =
                                        backward(&x, &dy, &gamma, ms, is, training, simd);
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
    }

    #[test]
    fn out_of_place_activations_match_in_place_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xAC);
        // one element, one task's worth, and several tasks with a short
        // last one
        for len in [1usize, 300, 3 * ELTWISE_CHUNK + 5] {
            // spread over both ReLU6 kinks, with exact zeros and sixes
            let mut x = Tensor::randn([len], &mut rng).scale(5.0).add_scalar(2.0);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                match i % 11 {
                    0 => *v = 0.0,
                    5 => *v = -0.0,
                    7 => *v = 6.0,
                    _ => {}
                }
            }
            let dy = Tensor::randn([len], &mut rng);
            for alpha in [0.0f32, 0.3, 1.0] {
                let mut want = x.clone();
                relu_decay_inplace(&mut want, alpha);
                let mut want6 = x.clone();
                relu6_decay_inplace(&mut want6, alpha);
                let want_d = x.zip_with(&dy, |xv, gv| if xv >= 0.0 { gv } else { alpha * gv });
                let want_d6 = x.zip_with(&dy, |xv, gv| {
                    if (0.0..=6.0).contains(&xv) {
                        gv
                    } else {
                        alpha * gv
                    }
                });
                for width in [1, 2] {
                    with_thread_cap(width, || {
                        let case = format!("len {len} alpha {alpha} width {width}");
                        assert_bits(&format!("{case} relu"), &relu_decay(&x, alpha), &want);
                        assert_bits(&format!("{case} relu6"), &relu6_decay(&x, alpha), &want6);
                        let d = relu_decay_backward(&x, &dy, alpha);
                        assert_bits(&format!("{case} relu grad"), &d, &want_d);
                        let d6 = relu6_decay_backward(&x, &dy, alpha);
                        assert_bits(&format!("{case} relu6 grad"), &d6, &want_d6);
                    });
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
