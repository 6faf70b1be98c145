//! 2-D convolution kernels: im2col lowering, dense and depthwise variants,
//! and their gradients.
//!
//! Layout conventions:
//! - activations: `NCHW`
//! - dense conv weights: `[c_out, c_in, kh, kw]`
//! - depthwise conv weights: `[c, kh, kw]` (one filter per channel)
//! - biases: `[c_out]`
//!
//! Dense convolution *forward* is an implicit GEMM: the weight matrix
//! multiplies the input viewed through a virtual im2col layout
//! ([`crate::gemm::Im2colRef`]), so the GEMM packing loop gathers panel
//! slivers straight out of the image and the `[c_in*kh*kw, ho*wo]` column
//! matrix is never written to memory. The *gradients* still lower
//! explicitly through [`im2col`] / [`col2im`] (the backward GEMMs read the
//! column matrix twice, so materializing it once pays for itself), except
//! for the pointwise (1x1, stride-1, unpadded) geometry, whose column matrix
//! is the sample itself: its backward GEMMs read `x` and write `dx` in
//! place. Depthwise convolution is computed directly. All kernels
//! parallelize over the batch dimension on the persistent worker pool, and
//! the backward-path column matrices live in thread-local scratch buffers,
//! so a steady-state training step performs no kernel-side heap allocation
//! beyond the output tensors themselves. The conv bias is fused into the
//! GEMM epilogue rather than added in a second pass.

use crate::eltwise::Epilogue;
use crate::gemm::{
    gemm, gemm_conv_batch, gemm_conv_packed, gemm_conv_packed_mat, Im2colRef, PackedA,
};
use crate::simd::{have_avx2, LANES};
use crate::threadpool::{self, with_scratch, SharedMut, CONV_COLS, CONV_DCOLS, CONV_DW_PARTS};
use crate::{ConvGeometry, Tensor};

/// Unfolds one image `[c, h, w]` into a `[c*kh*kw, ho*wo]` column matrix.
///
/// `x` is the flat slice of one sample; `cols` must have length
/// `c * kh * kw * ho * wo` and is fully overwritten.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the geometry.
pub fn im2col(x: &[f32], c: usize, h: usize, w: usize, geom: ConvGeometry, cols: &mut [f32]) {
    let (ho, wo) = geom.output_hw(h, w);
    assert_eq!(x.len(), c * h * w, "im2col input length");
    assert_eq!(
        cols.len(),
        c * geom.kh * geom.kw * ho * wo,
        "im2col output length"
    );
    let out_hw = ho * wo;
    let mut row = 0usize;
    for ci in 0..c {
        let plane = &x[ci * h * w..(ci + 1) * h * w];
        for ki in 0..geom.kh {
            for kj in 0..geom.kw {
                let dst = &mut cols[row * out_hw..(row + 1) * out_hw];
                row += 1;
                for oi in 0..ho {
                    let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                    let dst_row = &mut dst[oi * wo..(oi + 1) * wo];
                    if ii < 0 || ii >= h as isize {
                        dst_row.iter_mut().for_each(|v| *v = 0.0);
                        continue;
                    }
                    let src_row = &plane[ii as usize * w..(ii as usize + 1) * w];
                    for (oj, v) in dst_row.iter_mut().enumerate() {
                        let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                        *v = if jj < 0 || jj >= w as isize {
                            0.0
                        } else {
                            src_row[jj as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Folds a `[c*kh*kw, ho*wo]` column-gradient matrix back onto an image
/// gradient `[c, h, w]`, accumulating overlapping contributions.
///
/// `dx` must have length `c * h * w`; it is fully overwritten.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the geometry.
pub fn col2im(dcols: &[f32], c: usize, h: usize, w: usize, geom: ConvGeometry, dx: &mut [f32]) {
    let (ho, wo) = geom.output_hw(h, w);
    assert_eq!(dx.len(), c * h * w, "col2im output length");
    assert_eq!(
        dcols.len(),
        c * geom.kh * geom.kw * ho * wo,
        "col2im input length"
    );
    dx.iter_mut().for_each(|v| *v = 0.0);
    let out_hw = ho * wo;
    let mut row = 0usize;
    for ci in 0..c {
        let plane = &mut dx[ci * h * w..(ci + 1) * h * w];
        for ki in 0..geom.kh {
            for kj in 0..geom.kw {
                let src = &dcols[row * out_hw..(row + 1) * out_hw];
                row += 1;
                for oi in 0..ho {
                    let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    let dst_row = &mut plane[ii as usize * w..(ii as usize + 1) * w];
                    let src_row = &src[oi * wo..(oi + 1) * wo];
                    for (oj, &g) in src_row.iter().enumerate() {
                        let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                        if jj >= 0 && jj < w as isize {
                            dst_row[jj as usize] += g;
                        }
                    }
                }
            }
        }
    }
}

fn conv_shapes(
    x: &Tensor,
    w: &Tensor,
    geom: ConvGeometry,
) -> (usize, usize, usize, usize, usize, usize, usize) {
    let (n, c_in, h, wd) = x.shape().nchw();
    let wd4 = w.dims();
    assert_eq!(wd4.len(), 4, "conv weight must be [c_out,c_in,kh,kw]");
    let (c_out, wc_in, kh, kw) = (wd4[0], wd4[1], wd4[2], wd4[3]);
    assert_eq!(
        wc_in,
        c_in,
        "conv channel mismatch: input {} vs weight {}",
        x.shape(),
        w.shape()
    );
    assert_eq!((kh, kw), (geom.kh, geom.kw), "weight kernel vs geometry");
    let (ho, wo) = geom.output_hw(h, wd);
    (n, c_in, h, wd, c_out, ho, wo)
}

/// Dense 2-D convolution (cross-correlation, as in every DL framework).
///
/// # Panics
///
/// Panics on any shape inconsistency between `x` `[n,c_in,h,w]`, `w`
/// `[c_out,c_in,kh,kw]`, `b` `[c_out]`, and `geom`.
pub fn conv2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, geom: ConvGeometry) -> Tensor {
    let (n, _, _, _, c_out, ho, wo) = conv_shapes(x, w, geom);
    let mut out = Tensor::zeros([n, c_out, ho, wo]);
    conv2d_into(x, w, b, geom, out.as_mut_slice());
    out
}

/// [`conv2d`] writing into a caller-provided flat output buffer of length
/// `n * c_out * ho * wo`. Every element of `out` is overwritten (the bias is
/// the GEMM row initializer), so the buffer's prior contents are irrelevant
/// and a recycled buffer needs no zeroing pass.
///
/// The forward lowering is *implicit*: each sample is handed to the GEMM as
/// a virtual im2col view, so the packing loop reads the image directly and
/// no column matrix is materialized. Bits match a GEMM over the materialized
/// column matrix exactly — the packed panel bytes are identical by
/// construction.
///
/// # Panics
///
/// Panics on shape inconsistencies or a wrong `out` length.
pub fn conv2d_into(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    geom: ConvGeometry,
    out: &mut [f32],
) {
    let (n, c_in, h, wd, c_out, ho, wo) = conv_shapes(x, w, geom);
    if let Some(b) = b {
        assert_eq!(b.dims(), &[c_out], "conv bias shape");
    }
    assert_eq!(out.len(), n * c_out * ho * wo, "conv2d_into output length");
    let in_sz = c_in * h * wd;
    let xs = x.as_slice();
    let ws = w.as_slice();
    let bias = b.map(Tensor::as_slice);
    if n == 0 {
        return;
    }
    let im = Im2colRef {
        x: &xs[..in_sz],
        c_in,
        h,
        w: wd,
        geom,
        ho,
        wo,
    };
    // One weight pack for the whole batch; samples run in parallel on wide
    // pools. Bias rides along as the GEMM row initializer (one value per
    // output channel), so no second pass over the output is needed.
    gemm_conv_batch(ws, &im, xs, out, c_out, bias);
}

/// [`conv2d_into`] against a prepacked weight, with the bias as the GEMM row
/// initializer and an activation fused into the epilogue — the serving-path
/// kernel behind `CompiledPlan`.
///
/// `wp` packs the `[c_out, c_in*kh*kw]` weight matrix as the GEMM left
/// operand; the input rides through the same virtual im2col view as
/// [`conv2d_into`], so neither operand of the serving-path GEMM touches a
/// scratch matrix. Output bits match [`conv2d_into`] followed by a separate
/// elementwise activation pass for every thread count: the prepacked panels
/// hold the bytes the unpacked path packs, and both run the one blocked
/// schedule. 1x1 stride-1 unpadded convolutions skip
/// the virtual view's coordinate math entirely: the column matrix of a
/// pointwise conv is the input sample itself, so the sample slice feeds the
/// GEMM directly — same bytes, no copy.
///
/// # Panics
///
/// Panics on shape inconsistencies between `x` `[n,c_in,h,w]`, the packed
/// weight, `bias` `[c_out]`, `geom`, and `out`.
pub fn conv2d_packed_into(
    x: &Tensor,
    wp: &PackedA,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
    act: Epilogue,
    out: &mut [f32],
) {
    let (n, c_in, h, wd) = x.shape().nchw();
    let col_rows = c_in * geom.kh * geom.kw;
    assert_eq!(wp.k(), col_rows, "packed conv weight inner dimension");
    let c_out = wp.m();
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "conv bias shape");
    }
    let (ho, wo) = geom.output_hw(h, wd);
    assert_eq!(
        out.len(),
        n * c_out * ho * wo,
        "conv2d_packed_into output length"
    );
    let in_sz = c_in * h * wd;
    let out_sz = c_out * ho * wo;
    let pointwise = geom == ConvGeometry::pointwise();
    let xs = x.as_slice();
    let shared_out = SharedMut::new(out);
    threadpool::parallel_for(n, &|ni| {
        // Safety: each task writes only its own sample's output window.
        let o_sample = unsafe { shared_out.slice(ni * out_sz, out_sz) };
        let x_s = &xs[ni * in_sz..(ni + 1) * in_sz];
        if pointwise {
            gemm_conv_packed_mat(wp, x_s, o_sample, ho * wo, bias, act);
        } else {
            let im = Im2colRef {
                x: x_s,
                c_in,
                h,
                w: wd,
                geom,
                ho,
                wo,
            };
            gemm_conv_packed(wp, &im, o_sample, bias, act);
        }
    });
}

/// Gradients of [`conv2d`] with respect to input, weight, and bias.
///
/// Returns `(dx, dw, db)`; `dx` is present iff `want_dx` (nothing computes
/// it otherwise) and `db` iff `has_bias`.
///
/// # Panics
///
/// Panics on shape inconsistencies (same contract as [`conv2d`]).
pub fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    geom: ConvGeometry,
    has_bias: bool,
    want_dx: bool,
) -> (Option<Tensor>, Tensor, Option<Tensor>) {
    conv_backward(x, w, dy, geom, has_bias, want_dx, true)
}

/// [`conv2d_backward`]; `direct` lets the pointwise geometry skip the
/// `im2col` / `col2im` copies. Both lowerings give the same bits: the dW
/// GEMM reads the same bytes, and the dX GEMM starts every element from
/// `+0.0`, so it never produces `-0.0` and its output is exactly what
/// `col2im` adds onto a zeroed `dx`.
#[allow(clippy::too_many_arguments)]
fn conv_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    geom: ConvGeometry,
    has_bias: bool,
    want_dx: bool,
    direct: bool,
) -> (Option<Tensor>, Tensor, Option<Tensor>) {
    let (n, c_in, h, wd, c_out, ho, wo) = conv_shapes(x, w, geom);
    assert_eq!(dy.dims(), &[n, c_out, ho, wo], "conv2d_backward dy shape");
    let col_rows = c_in * geom.kh * geom.kw;
    let in_sz = c_in * h * wd;
    let out_sz = c_out * ho * wo;
    let out_hw = ho * wo;
    // The pointwise geometry's im2col column matrix is the sample itself.
    let direct = direct && geom == ConvGeometry::pointwise();
    let xs = x.as_slice();
    let dys = dy.as_slice();
    // The weight tensor is already the [c_out, col_rows] matrix, row-major.
    let ws = w.as_slice();

    let mut dx = want_dx.then(|| Tensor::zeros(x.shape().clone()));
    // Per-sample dW/db partials, written into disjoint windows of one caller
    // scratch buffer and reduced in ascending sample order below. The
    // partitioning is by *sample*, never by worker count, so the gradient
    // bits are a function of the batch alone — invariant under pool width,
    // `with_thread_cap`, and task scheduling. The data-parallel trainer's
    // bitwise dp(N) == dp(1) contract rests on this.
    let part_sz = c_out * col_rows + c_out;
    let shared_dx = dx.as_mut().map(|dx| SharedMut::new(dx.as_mut_slice()));
    let mut dw = Tensor::zeros(w.shape().clone());
    let mut db = Tensor::zeros([c_out]);
    with_scratch(&CONV_DW_PARTS, n * part_sz, |parts| {
        let shared_parts = SharedMut::new(parts);
        threadpool::parallel_for(n, &|ni| {
            // Safety: sample windows of the partials buffer are disjoint
            // across tasks.
            let part = unsafe { shared_parts.slice(ni * part_sz, part_sz) };
            let (dw_part, db_part) = part.split_at_mut(c_out * col_rows);
            let x_s = &xs[ni * in_sz..(ni + 1) * in_sz];
            let dy_s = &dys[ni * out_sz..(ni + 1) * out_sz];
            // dW_s = dY_s * cols^T, overwriting the sample's window (scratch
            // is not pre-zeroed).
            if direct {
                gemm(
                    dy_s, false, x_s, true, dw_part, c_out, out_hw, col_rows, None, false,
                );
            } else {
                with_scratch(&CONV_COLS, col_rows * out_hw, |cols| {
                    im2col(x_s, c_in, h, wd, geom, cols);
                    gemm(
                        dy_s, false, cols, true, dw_part, c_out, out_hw, col_rows, None, false,
                    );
                });
            }
            for (co, db_v) in db_part.iter_mut().enumerate() {
                *db_v = if has_bias {
                    dy_s[co * out_hw..(co + 1) * out_hw].iter().sum::<f32>()
                } else {
                    0.0
                };
            }
            let Some(shared_dx) = &shared_dx else {
                return;
            };
            // Safety: sample windows of dx are disjoint across tasks.
            let dx_sample = unsafe { shared_dx.slice(ni * in_sz, in_sz) };
            // dcols = W^T * dY_s (reading W transposed at pack time), folded
            // back onto this sample's dx — no per-sample tensor allocation.
            if direct {
                gemm(
                    ws, true, dy_s, false, dx_sample, col_rows, c_out, out_hw, None, false,
                );
            } else {
                with_scratch(&CONV_DCOLS, col_rows * out_hw, |dcols| {
                    gemm(
                        ws, true, dy_s, false, dcols, col_rows, c_out, out_hw, None, false,
                    );
                    col2im(dcols, c_in, h, wd, geom, dx_sample);
                });
            }
        });
        // Fixed reduction order: ascending sample index, left to right.
        for ni in 0..n {
            let part = &parts[ni * part_sz..(ni + 1) * part_sz];
            let (dw_p, db_p) = part.split_at(c_out * col_rows);
            for (d, s) in dw.as_mut_slice().iter_mut().zip(dw_p) {
                *d += s;
            }
            for (d, s) in db.as_mut_slice().iter_mut().zip(db_p) {
                *d += s;
            }
        }
    });
    (dx, dw, if has_bias { Some(db) } else { None })
}

fn dw_shapes(
    x: &Tensor,
    w: &Tensor,
    geom: ConvGeometry,
) -> (usize, usize, usize, usize, usize, usize) {
    let (n, c, h, wd) = x.shape().nchw();
    let wdims = w.dims();
    assert_eq!(wdims.len(), 3, "depthwise weight must be [c,kh,kw]");
    assert_eq!(wdims[0], c, "depthwise channel mismatch");
    assert_eq!(
        (wdims[1], wdims[2]),
        (geom.kh, geom.kw),
        "depthwise kernel vs geometry"
    );
    let (ho, wo) = geom.output_hw(h, wd);
    (n, c, h, wd, ho, wo)
}

/// Depthwise 2-D convolution: each channel is filtered independently.
///
/// # Panics
///
/// Panics on shape inconsistencies between `x` `[n,c,h,w]`, `w` `[c,kh,kw]`,
/// `b` `[c]`, and `geom`.
pub fn depthwise_conv2d(x: &Tensor, w: &Tensor, b: Option<&Tensor>, geom: ConvGeometry) -> Tensor {
    let (n, c, _, _, ho, wo) = dw_shapes(x, w, geom);
    let mut out = Tensor::zeros([n, c, ho, wo]);
    depthwise_conv2d_fused_into(x, w, b, geom, Epilogue::None, out.as_mut_slice());
    out
}

/// [`depthwise_conv2d`] with an activation fused into the epilogue, writing
/// into a caller-provided flat output buffer of length `n * c * ho * wo`;
/// every element is overwritten.
///
/// One task per sample runs the stencil and then the (possibly identity)
/// epilogue over the finished sample, so the bits match the plain
/// convolution followed by a separate elementwise pass, at every thread
/// width. On an AVX2 host the stencil runs in channel lanes, eight channels
/// per register, for every geometry but the 1x1 one; elsewhere, and for
/// 1x1, each channel runs [`crate::depthwise::dw_channel_rows`]. Both give
/// the same bits.
///
/// # Panics
///
/// Panics on shape inconsistencies or a wrong `out` length.
pub fn depthwise_conv2d_fused_into(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    geom: ConvGeometry,
    act: Epilogue,
    out: &mut [f32],
) {
    let (n, c, h, wd, ho, wo) = dw_shapes(x, w, geom);
    assert_eq!(
        out.len(),
        n * c * ho * wo,
        "depthwise_conv2d_fused_into length"
    );
    if let Some(b) = b {
        assert_eq!(b.dims(), &[c], "depthwise bias shape");
    }
    if out.is_empty() {
        return;
    }
    let xs = x.as_slice();
    let ws = w.as_slice();
    let bias = b.map(Tensor::as_slice);
    let in_sz = c * h * wd;
    let out_sz = c * ho * wo;
    #[cfg(target_arch = "x86_64")]
    let lanes = have_avx2() && geom != ConvGeometry::pointwise();
    let shared_out = SharedMut::new(out);
    threadpool::parallel_for(n, &|ni| {
        // Safety: each task writes only its own sample's output window.
        let o_sample = unsafe { shared_out.slice(ni * out_sz, out_sz) };
        let x_s = &xs[ni * in_sz..(ni + 1) * in_sz];
        #[cfg(target_arch = "x86_64")]
        if lanes {
            // Safety: `lanes` implies AVX2; the slices are the sample's.
            unsafe {
                crate::depthwise::dw_sample_lanes(x_s, c, h, wd, ws, bias, geom, ho, wo, o_sample)
            };
            act.apply(o_sample);
            return;
        }
        for ci in 0..c {
            let plane = &x_s[ci * h * wd..(ci + 1) * h * wd];
            let ker = &ws[ci * geom.kh * geom.kw..(ci + 1) * geom.kh * geom.kw];
            let o_plane = &mut o_sample[ci * ho * wo..(ci + 1) * ho * wo];
            let bv = bias.map(|b| b[ci]).unwrap_or(0.0);
            crate::depthwise::dw_channel_rows(plane, 0, h, wd, ker, bv, geom, wo, 0, ho, o_plane);
        }
        act.apply(o_sample);
    });
}

/// The pointwise (1x1, stride-1, unpadded) conv forward over a materialized
/// `[c_in, n]` activation matrix against a prepacked weight: a pointwise
/// conv's im2col matrix *is* the input, so the GEMM runs on it directly.
/// This is the stage kernel the fused inverted-residual executor in `nb-nn`
/// drives over output-row strips; it shares the plan pointwise fast path's
/// kernel, and an output element's bits do not depend on `n`, so a strip's
/// columns equal the same columns of the full-plane call bit for bit.
///
/// # Panics
///
/// Panics if `x.len() != pa.k() * n` or `out.len() != pa.m() * n`.
pub fn conv2d_pointwise_mat_into(
    pa: &PackedA,
    x: &[f32],
    out: &mut [f32],
    n: usize,
    bias: Option<&[f32]>,
    act: Epilogue,
) {
    assert_eq!(out.len(), pa.m() * n, "pointwise conv output length");
    if out.is_empty() {
        return;
    }
    gemm_conv_packed_mat(pa, x, out, n, bias, act);
}

/// Serial depthwise backward for one channel across every sample: the
/// register kernels of the 1x1 kernel NetBooster's expansion inserts
/// ([`dw_sums_1x1`] and [`dw_dx_1x1`]), the general per-pixel loop
/// ([`dw_backward_channel_generic`]) for the rest. Both produce the same
/// bits, and write the channel's `dx` planes only when `DX`. `dims` is
/// `(c, h, w, ho, wo)` and `kj_ranges[oj]` holds the in-bounds kernel-column
/// range for output column `oj`. Returns the channel's bias gradient.
#[allow(clippy::too_many_arguments)]
fn dw_backward_channel<const DX: bool>(
    ci: usize,
    xs: &[f32],
    dys: &[f32],
    shared_dx: &SharedMut<f32>,
    ker: &[f32],
    dker: &mut [f32],
    dims: (usize, usize, usize, usize, usize),
    geom: ConvGeometry,
    kj_ranges: &[(usize, usize)],
) -> f32 {
    if geom != ConvGeometry::pointwise() {
        return dw_backward_channel_generic::<DX>(
            ci, xs, dys, shared_dx, ker, dker, dims, geom, kj_ranges,
        );
    }
    let (c, h, wd, _, _) = dims;
    let (dk, db) = dw_sums_1x1(ci, xs, dys, c, h * wd);
    dker[0] = dk;
    if DX {
        dw_dx_1x1(ci, dys, shared_dx, ker[0], c, h * wd);
    }
    db
}

/// The general depthwise backward for one channel: every output pixel
/// visits its in-bounds taps in `(ki, kj)` order, samples and pixels in
/// row-major order, skipping zero upstream gradients. This order is the
/// bit contract the 1x1 register kernels and the 3x3 channel lanes
/// reproduce, and the reference their tests compare against. Kept as a plain function (outside the worker
/// closure) so the hot loops compile against ordinary slice parameters.
#[allow(clippy::too_many_arguments)]
fn dw_backward_channel_generic<const DX: bool>(
    ci: usize,
    xs: &[f32],
    dys: &[f32],
    shared_dx: &SharedMut<f32>,
    ker: &[f32],
    dker: &mut [f32],
    dims: (usize, usize, usize, usize, usize),
    geom: ConvGeometry,
    kj_ranges: &[(usize, usize)],
) -> f32 {
    let (c, h, wd, ho, wo) = dims;
    let n = xs.len() / (c * h * wd);
    let mut db_acc = 0.0f32;
    for ni in 0..n {
        let plane = &xs[(ni * c + ci) * h * wd..(ni * c + ci + 1) * h * wd];
        let dy_plane = &dys[(ni * c + ci) * ho * wo..(ni * c + ci + 1) * ho * wo];
        // Safety: plane (ni, ci) is written only by channel ci's task.
        let dplane = unsafe { dx_plane::<DX>(shared_dx, (ni * c + ci) * h * wd, h * wd) };
        for oi in 0..ho {
            // In-bounds kernel-row range for this output row, hoisted out of
            // the tap loops: ki must satisfy 0 <= oi*sh + ki - ph < h.
            let ki_lo = geom.ph.saturating_sub(oi * geom.sh);
            let ki_hi = (h + geom.ph).saturating_sub(oi * geom.sh).min(geom.kh);
            let dy_row = &dy_plane[oi * wo..(oi + 1) * wo];
            for (oj, &g) in dy_row.iter().enumerate() {
                // Zero upstream gradients (common after ReLU) contribute
                // nothing to any of the three outputs.
                if g == 0.0 {
                    continue;
                }
                db_acc += g;
                let (kj_lo, kj_hi) = kj_ranges[oj];
                for ki in ki_lo..ki_hi {
                    let ii = oi * geom.sh + ki - geom.ph;
                    let x_row = &plane[ii * wd..(ii + 1) * wd];
                    let kr = &ker[ki * geom.kw..(ki + 1) * geom.kw];
                    let dkr = &mut dker[ki * geom.kw..(ki + 1) * geom.kw];
                    for kj in kj_lo..kj_hi {
                        let jj = oj * geom.sw + kj - geom.pw;
                        dkr[kj] += g * x_row[jj];
                        if DX {
                            dplane[ii * wd + jj] += g * kr[kj];
                        }
                    }
                }
            }
        }
    }
    db_acc
}

/// The `dx` window `[off, off + len)` when `DX`, an empty slice otherwise.
///
/// # Safety
///
/// With `DX`, the window must be in bounds and no other window of
/// `shared_dx` that overlaps it may be alive.
#[allow(clippy::mut_from_ref)]
unsafe fn dx_plane<const DX: bool>(
    shared_dx: &SharedMut<f32>,
    off: usize,
    len: usize,
) -> &mut [f32] {
    if DX {
        shared_dx.slice(off, len)
    } else {
        &mut []
    }
}

/// The weight and bias gradients of the 1x1, stride-1, unpadded depthwise
/// kernel NetBooster's expansion inserts, for channel `ci` of `[n, c, hw]`
/// buffers: output pixel `i` touches input pixel `i` alone, so one pass in
/// [`dw_backward_channel_generic`]'s order (samples, then pixels, zero
/// upstream gradients skipped) sums `g * x` and `g` in two serial chains.
/// Returns `(dk, db)`. [`x86::dw_sums_1x1_lanes`] runs eight of these
/// chains at once.
fn dw_sums_1x1(ci: usize, xs: &[f32], dys: &[f32], c: usize, hw: usize) -> (f32, f32) {
    let n = xs.len() / (c * hw);
    let (mut dk, mut db) = (0.0f32, 0.0f32);
    for ni in 0..n {
        let off = (ni * c + ci) * hw;
        for (&xv, &g) in xs[off..off + hw].iter().zip(&dys[off..off + hw]) {
            if g == 0.0 {
                continue;
            }
            db += g;
            dk += g * xv;
        }
    }
    (dk, db)
}

/// Channel `ci`'s input gradient under the 1x1 depthwise kernel `k`:
/// `dx += g * k` per pixel, zero upstream gradients skipped, as the generic
/// loop does. The skip is a select rather than a branch, so the loop
/// vectorizes whatever the pattern of zeros.
fn dw_dx_1x1(ci: usize, dys: &[f32], shared_dx: &SharedMut<f32>, k: f32, c: usize, hw: usize) {
    let n = dys.len() / (c * hw);
    for ni in 0..n {
        let off = (ni * c + ci) * hw;
        // Safety: plane (ni, ci) is written only by channel ci's task.
        let dplane = unsafe { shared_dx.slice(off, hw) };
        for (d, &g) in dplane.iter_mut().zip(&dys[off..off + hw]) {
            let sum = *d + g * k;
            *d = if g == 0.0 { *d } else { sum };
        }
    }
}

/// In-bounds kernel-column range per output column, shared by every
/// channel: `kj` must satisfy `0 <= oj*sw + kj - pw < w`.
fn dw_kj_ranges(geom: ConvGeometry, w: usize, wo: usize) -> Vec<(usize, usize)> {
    (0..wo)
        .map(|oj| {
            let lo = geom.pw.saturating_sub(oj * geom.sw);
            let hi = (w + geom.pw).saturating_sub(oj * geom.sw).min(geom.kw);
            (lo, hi.max(lo))
        })
        .collect()
}

/// Gradients of [`depthwise_conv2d`]; returns `(dx, dw, db)`, with `dx`
/// present iff `want_dx` (nothing computes it otherwise) and `db` iff
/// `has_bias`.
///
/// Parallelizes over *channels*: depthwise gradients never mix channels, so
/// each task owns its channels' `dw`/`db` rows outright — no mutex, no
/// partial buffers, no reduction pass. A channel's accumulation runs
/// serially over samples in a fixed order, which also makes `dw`/`db`
/// thread-count-invariant (the sample-chunked dense path is only
/// width-stable). On an AVX2 host the 1x1 and 3x3 kernels' tasks take
/// eight channels each and run their `dw`/`db` chains as channel lanes,
/// one lane per channel, with the same bits; the 3x3 kernel's `dx` then
/// runs one task per sample and lane group.
///
/// # Panics
///
/// Panics on shape inconsistencies (same contract as [`depthwise_conv2d`]).
pub fn depthwise_conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    geom: ConvGeometry,
    has_bias: bool,
    want_dx: bool,
) -> (Option<Tensor>, Tensor, Option<Tensor>) {
    let mut dx = want_dx.then(|| Tensor::zeros(x.shape().clone()));
    let shared_dx = SharedMut::new(dx.as_mut().map_or(&mut [][..], |t| t.as_mut_slice()));
    let (dw, db) = if want_dx {
        depthwise_backward::<true>(x, w, dy, geom, &shared_dx, true)
    } else {
        depthwise_backward::<false>(x, w, dy, geom, &shared_dx, true)
    };
    (dx, dw, has_bias.then_some(db))
}

/// The body of [`depthwise_conv2d_backward`]: writes `dx` through
/// `shared_dx` when `DX` and returns `(dw, db)`. `simd` allows the 1x1 and
/// 3x3 channel lanes (where the host has AVX2); the bits are the same
/// either way.
fn depthwise_backward<const DX: bool>(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    geom: ConvGeometry,
    shared_dx: &SharedMut<f32>,
    simd: bool,
) -> (Tensor, Tensor) {
    let (n, c, h, wd, ho, wo) = dw_shapes(x, w, geom);
    assert_eq!(dy.dims(), &[n, c, ho, wo], "depthwise backward dy shape");
    let xs = x.as_slice();
    let ws = w.as_slice();
    let dys = dy.as_slice();
    let ker_sz = geom.kh * geom.kw;
    let mut dw = Tensor::zeros(w.shape().clone());
    let mut db = Tensor::zeros([c]);
    let shared_dw = SharedMut::new(dw.as_mut_slice());
    let shared_db = SharedMut::new(db.as_mut_slice());
    #[cfg(target_arch = "x86_64")]
    if simd && (geom.kh, geom.kw) == (3, 3) && have_avx2() {
        // Each lane group's dw/db walk is one task, listed first so the
        // long serial walks start first; with DX, one task per sample and
        // group then computes that sample's dx planes of the group.
        let groups = c.div_ceil(LANES);
        let (hw, ohw) = (h * wd, ho * wo);
        let dims = (h, wd, ho, wo);
        threadpool::parallel_for(groups + if DX { n * groups } else { 0 }, &|t| {
            let c0 = t % groups * LANES;
            let cl = LANES.min(c - c0);
            if t < groups {
                // Safety: channels [c0, c0 + cl)'s dw rows and db entries
                // belong to this task only; AVX2 was checked above.
                unsafe {
                    let (dk, db_c) = (shared_dw.slice(c0 * 9, cl * 9), shared_db.slice(c0, cl));
                    x86::dw_sums_3x3_lanes(xs, dys, n, c, dims, geom, c0, dk, db_c);
                }
                return;
            }
            let at = (t / groups - 1) * c + c0;
            // Safety: the dx planes of sample t / groups - 1, channels
            // [c0, c0 + cl), belong to this task only; AVX2 was checked.
            unsafe {
                let dx = shared_dx.slice(at * hw, cl * hw);
                let dy = &dys[at * ohw..(at + cl) * ohw];
                x86::dw_dx_3x3_lanes(dy, &ws[c0 * 9..(c0 + cl) * 9], dims, geom, dx);
            }
        });
        return (dw, db);
    }
    let kj_ranges = dw_kj_ranges(geom, wd, wo);
    let lane_groups = if simd && geom == ConvGeometry::pointwise() && have_avx2() {
        c / LANES
    } else {
        0
    };
    let lane_channels = lane_groups * LANES;
    threadpool::parallel_for(lane_groups + c - lane_channels, &|t| {
        if t < lane_groups {
            let c0 = t * LANES;
            // Safety: channels [c0, c0 + 8) — their dw and db entries and
            // their dx planes — belong to this task only.
            let (dk, db_c) = unsafe { (shared_dw.slice(c0, LANES), shared_db.slice(c0, LANES)) };
            // Safety: lane groups exist only on AVX2 hosts, and the group's
            // channels lie inside `c`.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                x86::dw_sums_1x1_lanes(xs, dys, n, c, h * wd, c0, dk, db_c)
            };
            if DX {
                for (ci, &k) in ws.iter().enumerate().skip(c0).take(LANES) {
                    dw_dx_1x1(ci, dys, shared_dx, k, c, h * wd);
                }
            }
            return;
        }
        let ci = lane_channels + t - lane_groups;
        // Safety: channel ci's dw row and db element belong to this task only.
        let dker = unsafe { shared_dw.slice(ci * ker_sz, ker_sz) };
        let db_c = unsafe { shared_db.slice(ci, 1) };
        db_c[0] = dw_backward_channel::<DX>(
            ci,
            xs,
            dys,
            shared_dx,
            &ws[ci * ker_sz..(ci + 1) * ker_sz],
            dker,
            (c, h, wd, ho, wo),
            geom,
            &kj_ranges,
        );
    });
    (dw, db)
}

/// The depthwise backward's channel-lane kernels: the 1x1 kernel's sums,
/// and the 3x3 kernel's sums and input gradient.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::simd::x86::{
        for_each_lane_pixel, gather_lanes, load_f32x8, scatter_lanes, store_f32x8,
    };
    use crate::simd::LANES;
    use crate::threadpool::{with_scratch, DW_LANES};
    use crate::ConvGeometry;
    use std::arch::x86_64::*;

    /// `acc + g * v`, with the product masked to `+0.0` where `skip` (`g`
    /// is zero): the generic loop skips a pixel whose upstream gradient is
    /// zero, and adding `+0.0` keeps the sum as the skip does — every sum
    /// starts at `+0.0`, so it is never `-0.0`, and `s + 0.0 == s` for every
    /// other `s` — where the product itself could be NaN (`0 · inf`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_unless_zero(acc: __m256, g: __m256, v: __m256, skip: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_andnot_ps(skip, _mm256_mul_ps(g, v)))
    }

    /// The `dw` and `db` sums of the 3x3 depthwise backward for the lane
    /// group of channels `[c0, c0 + cl)` (`cl = db_out.len()`, one to
    /// eight), lane `l` running channel `c0 + l`'s chains of
    /// [`super::dw_backward_channel_generic`] in its order: samples, then
    /// output pixels row-major, then in-bounds taps in `(ki, kj)` order,
    /// each sum kept in a register. Each sample's `x` and `dy` planes are
    /// gathered channel-interleaved first; a partial group's dead lanes
    /// read zero gradients, so they skip every pixel, and are never stored.
    /// `dims` is `(h, w, ho, wo)`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present, `xs` and `dys` must hold `n * c` planes of
    /// `h * w` and `ho * wo` elements, and `dk_out` `cl * 9`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dw_sums_3x3_lanes(
        xs: &[f32],
        dys: &[f32],
        n: usize,
        c: usize,
        dims: (usize, usize, usize, usize),
        geom: ConvGeometry,
        c0: usize,
        dk_out: &mut [f32],
        db_out: &mut [f32],
    ) {
        let (h, w, ho, wo) = dims;
        let (sh, sw, ph, pw) = (geom.sh, geom.sw, geom.ph, geom.pw);
        let (hw, ohw, cl) = (h * w, ho * wo, db_out.len());
        let int_lo = crate::depthwise::interior_lo(pw, sw, wo);
        let int_hi = crate::depthwise::interior_hi(w, pw, 3, sw, wo, int_lo);
        let zero = _mm256_setzero_ps();
        // The sums live inside the closure, so they stay in registers.
        let (dk, db) = with_scratch(&DW_LANES, (hw + ohw) * LANES, |s| {
            let mut dk = [zero; 9];
            let mut db = zero;
            let (xg, gg) = s.split_at_mut(hw * LANES);
            for ni in 0..n {
                let at = ni * c + c0;
                gather_lanes(&xs[at * hw..(at + cl) * hw], hw, xg);
                gather_lanes(&dys[at * ohw..(at + cl) * ohw], ohw, gg);
                for oi in 0..ho {
                    let ki_lo = ph.saturating_sub(oi * sh);
                    let ki_hi = (h + ph).saturating_sub(oi * sh).min(3);
                    let full_rows = ki_lo == 0 && ki_hi == 3;
                    for oj in 0..wo {
                        let g = load_f32x8(gg, (oi * wo + oj) * LANES);
                        let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(g, zero);
                        // `db` needs no mask: a zero gradient's `+ ±0.0`
                        // leaves the sum as the skip does (see
                        // `add_unless_zero`), and no product is formed.
                        db = _mm256_add_ps(db, g);
                        if full_rows && (int_lo..int_hi).contains(&oj) {
                            let at = (oi * sh - ph) * w + oj * sw - pw;
                            for ki in 0..3 {
                                for kj in 0..3 {
                                    let xv = load_f32x8(xg, (at + ki * w + kj) * LANES);
                                    dk[ki * 3 + kj] = add_unless_zero(dk[ki * 3 + kj], g, xv, skip);
                                }
                            }
                            continue;
                        }
                        let kj_lo = pw.saturating_sub(oj * sw);
                        let kj_hi = (w + pw).saturating_sub(oj * sw).min(3);
                        // Constant tap indices keep `dk` in registers.
                        for ki in 0..3 {
                            for kj in 0..3 {
                                if (ki_lo..ki_hi).contains(&ki) && (kj_lo..kj_hi).contains(&kj) {
                                    let i = (oi * sh + ki - ph) * w + oj * sw + kj - pw;
                                    let xv = load_f32x8(xg, i * LANES);
                                    dk[ki * 3 + kj] = add_unless_zero(dk[ki * 3 + kj], g, xv, skip);
                                }
                            }
                        }
                    }
                }
            }
            (dk, db)
        });
        let mut lanes = [[0.0f32; LANES]; 9];
        for (t, v) in lanes.iter_mut().zip(dk) {
            store_f32x8(t, 0, v);
        }
        for (l, row) in dk_out.chunks_exact_mut(9).enumerate() {
            for (d, t) in row.iter_mut().zip(&lanes) {
                *d = t[l];
            }
        }
        let mut db_lanes = [0.0f32; LANES];
        store_f32x8(&mut db_lanes, 0, db);
        db_out.copy_from_slice(&db_lanes[..cl]);
    }

    /// One sample's input gradient of the 3x3 depthwise backward for a lane
    /// group of one to eight channels: `dy` holds the group's `ho * wo`
    /// gradient planes, `ker` its `[cl, 3, 3]` filters, and `dx` receives
    /// its `h * w` planes. `dims` is `(h, w, ho, wo)`.
    ///
    /// Each `dx` element is gathered once, from its up to nine `dy`
    /// neighbours in the order [`super::dw_backward_channel_generic`] would
    /// have added them — output pixels row-major, so taps in reverse `(ki,
    /// kj)` order — starting from `+0.0`, a zero upstream gradient skipped.
    /// Along an axis of stride `s` and padding `p`, input index `i` is
    /// reached from output `(i + p - k) / s` by the taps `k ≡ i + p` (mod
    /// `s`), so the input indices of one residue class share one list of
    /// taps at fixed offsets: the class runs as a small stencil
    /// ([`dx_class`]) over the group's gradient, gathered channel-interleaved
    /// with a zero border so that an output index past either edge reads a
    /// zero gradient, which the skip ignores.
    ///
    /// A zero gradient's product is masked to `+0.0` (`add_unless_zero`),
    /// which leaves the sum as the skip does, also where the tap is not
    /// finite and the product would be NaN.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and the buffers must match the shapes above.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dw_dx_3x3_lanes(
        dy: &[f32],
        ker: &[f32],
        dims: (usize, usize, usize, usize),
        geom: ConvGeometry,
        dx: &mut [f32],
    ) {
        let (h, w, ho, wo) = dims;
        let (hw, ohw) = (h * w, ho * wo);
        // The zero border: two rows and columns before (a tap reaches at
        // most two outputs back) and enough after for the last input.
        let bottom = ((h - 1 + geom.ph) / geom.sh + 1).saturating_sub(ho);
        let right = ((w - 1 + geom.pw) / geom.sw + 1).saturating_sub(wo);
        let row = 2 + wo + right;
        let padded = (2 + ho + bottom) * row;
        with_scratch(&DW_LANES, (padded + ohw + hw + 9) * LANES, |s| {
            let (gg, rest) = s.split_at_mut(padded * LANES);
            let (flat, rest) = rest.split_at_mut(ohw * LANES);
            let (dxg, kg) = rest.split_at_mut(hw * LANES);
            gather_lanes(dy, ohw, flat);
            gg.fill(0.0);
            for (oi, src) in flat.chunks_exact(wo * LANES).enumerate() {
                let at = (2 + oi) * row + 2;
                gg[at * LANES..(at + wo) * LANES].copy_from_slice(src);
            }
            gather_lanes(ker, 9, kg);
            let grid = Grid { gg, kg, row, w };
            let rows = Axis {
                s: geom.sh,
                p: geom.ph,
                n: h,
                tap: 3,
                step: row,
            };
            let cols = Axis {
                s: geom.sw,
                p: geom.pw,
                n: w,
                tap: 1,
                step: 1,
            };
            for ri in 0..rows.s {
                for rj in 0..cols.s {
                    let (rc, cc) = (rows.class(ri), cols.class(rj));
                    let kernel = match (rc.len, cc.len) {
                        (3, 3) => dx_class::<3, 3>,
                        (3, 2) => dx_class::<3, 2>,
                        (3, 1) => dx_class::<3, 1>,
                        (2, 3) => dx_class::<2, 3>,
                        (2, 2) => dx_class::<2, 2>,
                        (2, 1) => dx_class::<2, 1>,
                        (1, 3) => dx_class::<1, 3>,
                        (1, 2) => dx_class::<1, 2>,
                        (1, 1) => dx_class::<1, 1>,
                        // no tap reaches the class: its dx is zero
                        _ => dx_class::<0, 0>,
                    };
                    kernel(&grid, (&rc, rows.s), (&cc, cols.s), dxg);
                }
            }
            scatter_lanes(dxg, hw, dx);
        });
    }

    /// One residue class of [`dw_dx_3x3_lanes`]: each input pixel of row
    /// class `rows` and column class `cols` (each with its stride) sums its
    /// `R * C` contributions, the rows' taps outer and the columns' inner,
    /// each output-ascending, into `dxg`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present, the classes must hold `R` and `C` taps, and
    /// `dxg` must be the `[h * w][8]` input gradient.
    #[target_feature(enable = "avx2")]
    unsafe fn dx_class<const R: usize, const C: usize>(
        grid: &Grid,
        (rows, sh): (&Class, usize),
        (cols, sw): (&Class, usize),
        dxg: &mut [f32],
    ) {
        let rt: [(usize, usize); R] = std::array::from_fn(|t| rows.taps[t]);
        let ct: [(usize, usize); C] = std::array::from_fn(|t| cols.taps[t]);
        let zero = _mm256_setzero_ps();
        for t in 0..rows.count {
            let ii = rows.first + t * sh;
            // consecutive members read consecutive outputs
            let first = (2 + rows.out + t) * grid.row + 2 + cols.out;
            for u in 0..cols.count {
                let at = first + u;
                let mut acc = zero;
                for &(ki, mi) in &rt {
                    for &(kj, mj) in &ct {
                        let g = load_f32x8(grid.gg, (at - mi - mj) * LANES);
                        let k = load_f32x8(grid.kg, (ki + kj) * LANES);
                        let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(g, zero);
                        acc = add_unless_zero(acc, g, k, skip);
                    }
                }
                store_f32x8(dxg, (ii * grid.w + cols.first + u * sw) * LANES, acc);
            }
        }
    }

    /// One axis of [`dw_dx_3x3_lanes`]' gather: stride `s`, padding `p`,
    /// `n` input indices; a tap `k` adds `k * tap` to the tap index, and
    /// one output back along the axis is `step` pixels back in the
    /// gathered gradient.
    struct Axis {
        s: usize,
        p: usize,
        n: usize,
        tap: usize,
        step: usize,
    }

    /// One residue class along an [`Axis`]: the input indices `first + t *
    /// s` for `t` in `0..count`, member `t` reading output `out + t` and,
    /// back from it, `taps[..len]`.
    struct Class {
        first: usize,
        count: usize,
        out: usize,
        taps: [(usize, usize); 3],
        len: usize,
    }

    impl Axis {
        /// The class of inputs `i` with `(i + p) % s == r`: they are reached
        /// by the taps `k ≡ r` (mod `s`), listed output-ascending (tap
        /// descending) as `(k * tap, (k - r) / s * step)`, since input `i`
        /// reads output `(i + p) / s - (k - r) / s` through tap `k`.
        fn class(&self, r: usize) -> Class {
            let first = (r + self.s - self.p % self.s) % self.s;
            let mut class = Class {
                first,
                count: self.n.saturating_sub(first).div_ceil(self.s),
                out: (first + self.p) / self.s,
                taps: [(0, 0); 3],
                len: 0,
            };
            for k in (r..3).step_by(self.s).rev() {
                class.taps[class.len] = (k * self.tap, (k - r) / self.s * self.step);
                class.len += 1;
            }
            class
        }
    }

    /// The gathered gradient `gg` with its zero border and row length
    /// `row`, the gathered taps `kg`, and the input width `w`.
    struct Grid<'a> {
        gg: &'a [f32],
        kg: &'a [f32],
        row: usize,
        w: usize,
    }

    /// [`super::dw_sums_1x1`] for channels `[c0, c0 + 8)`, lane `l` running
    /// channel `c0 + l`'s two chains with the same operations in the same
    /// order: a lane whose upstream gradient is zero keeps both sums, as
    /// the scalar loop skips the pixel.
    ///
    /// # Safety
    ///
    /// AVX2 must be present, `c0 + 8 <= c`, `xs` and `dys` must hold
    /// `n * c * hw` elements and the outputs eight.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dw_sums_1x1_lanes(
        xs: &[f32],
        dys: &[f32],
        n: usize,
        c: usize,
        hw: usize,
        c0: usize,
        dk_out: &mut [f32],
        db_out: &mut [f32],
    ) {
        let zero = _mm256_setzero_ps();
        let (mut dk, mut db) = (zero, zero);
        for_each_lane_pixel([xs, dys], n, c, hw, c0, |[xv, g]| {
            let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(*g, zero);
            db = _mm256_blendv_ps(_mm256_add_ps(db, *g), db, skip);
            dk = _mm256_blendv_ps(_mm256_add_ps(dk, _mm256_mul_ps(*g, *xv)), dk, skip);
        });
        store_f32x8(dk_out, 0, dk);
        store_f32x8(db_out, 0, db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Direct O(n^7) reference convolution.
    fn conv_ref(x: &Tensor, w: &Tensor, b: Option<&Tensor>, geom: ConvGeometry) -> Tensor {
        let (n, c_in, h, wd) = x.shape().nchw();
        let (c_out, _, kh, kw) = {
            let d = w.dims();
            (d[0], d[1], d[2], d[3])
        };
        let (ho, wo) = geom.output_hw(h, wd);
        let mut out = Tensor::zeros([n, c_out, ho, wo]);
        for ni in 0..n {
            for co in 0..c_out {
                for oi in 0..ho {
                    for oj in 0..wo {
                        let mut acc = b.map(|b| b.as_slice()[co]).unwrap_or(0.0);
                        for ci in 0..c_in {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                                    let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                                    if ii < 0 || jj < 0 || ii >= h as isize || jj >= wd as isize {
                                        continue;
                                    }
                                    acc += x.at4(ni, ci, ii as usize, jj as usize)
                                        * w.as_slice()[((co * c_in + ci) * kh + ki) * kw + kj];
                                }
                            }
                        }
                        *out.at4_mut(ni, co, oi, oj) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(k, s, p) in &[
            (1usize, 1usize, 0usize),
            (3, 1, 1),
            (3, 2, 1),
            (5, 1, 2),
            (5, 2, 2),
            (7, 1, 3),
        ] {
            let geom = ConvGeometry::square(k, s, p);
            let x = Tensor::randn([2, 3, 9, 9], &mut rng);
            let w = Tensor::randn([4, 3, k, k], &mut rng);
            let b = Tensor::randn([4], &mut rng);
            let got = conv2d(&x, &w, Some(&b), geom);
            let want = conv_ref(&x, &w, Some(&b), geom);
            assert!(
                got.allclose(&want, 1e-3),
                "k={k} s={s} p={p} max diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn conv_no_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let geom = ConvGeometry::same(3, 1);
        let x = Tensor::randn([1, 2, 5, 5], &mut rng);
        let w = Tensor::randn([3, 2, 3, 3], &mut rng);
        assert!(conv2d(&x, &w, None, geom).allclose(&conv_ref(&x, &w, None, geom), 1e-4));
    }

    #[test]
    fn pointwise_equals_per_pixel_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn([1, 4, 3, 3], &mut rng);
        let w = Tensor::randn([5, 4, 1, 1], &mut rng);
        let y = conv2d(&x, &w, None, ConvGeometry::pointwise());
        // check one pixel by hand
        for co in 0..5 {
            let mut acc = 0.0;
            for ci in 0..4 {
                acc += x.at4(0, ci, 1, 2) * w.as_slice()[co * 4 + ci];
            }
            assert!((y.at4(0, co, 1, 2) - acc).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), c> == <x, col2im(c)> : the fold is the exact adjoint of
        // the unfold, which is what the gradient path relies on.
        let mut rng = StdRng::seed_from_u64(4);
        let geom = ConvGeometry::square(3, 2, 1);
        let (c, h, w) = (2usize, 7usize, 6usize);
        let (ho, wo) = geom.output_hw(h, w);
        let x = Tensor::randn([c * h * w], &mut rng);
        let cvec = Tensor::randn([c * 9 * ho * wo], &mut rng);
        let mut cols = vec![0.0; c * 9 * ho * wo];
        im2col(x.as_slice(), c, h, w, geom, &mut cols);
        let lhs: f32 = cols.iter().zip(cvec.as_slice()).map(|(a, b)| a * b).sum();
        let mut dx = vec![0.0; c * h * w];
        col2im(cvec.as_slice(), c, h, w, geom, &mut dx);
        let rhs: f32 = x.as_slice().iter().zip(&dx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// Numerical gradient of a scalar loss sum(conv * dy-weights).
    #[test]
    fn conv_backward_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(5);
        let geom = ConvGeometry::square(3, 2, 1);
        let x = Tensor::randn([2, 2, 5, 5], &mut rng);
        let w = Tensor::randn([3, 2, 3, 3], &mut rng);
        let b = Tensor::randn([3], &mut rng);
        let y = conv2d(&x, &w, Some(&b), geom);
        let dy = Tensor::randn(y.shape().clone(), &mut rng);
        let (dx, dw, db) = conv2d_backward(&x, &w, &dy, geom, true, true);
        let dx = dx.unwrap();
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d(x, w, Some(b), geom)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-2f32;
        // spot-check a handful of coordinates in each gradient
        for &i in &[0usize, 7, 31, 49] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[i]).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{i}] numeric {num} analytic {}",
                dx.as_slice()[i]
            );
        }
        for &i in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            assert!(
                (num - dw.as_slice()[i]).abs() < 2e-2 * (1.0 + num.abs()),
                "dw[{i}] numeric {num} analytic {}",
                dw.as_slice()[i]
            );
        }
        let db = db.unwrap();
        for i in 0..3 {
            let mut bp = b.clone();
            bp.as_mut_slice()[i] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[i] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps);
            assert!((num - db.as_slice()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
    }

    #[test]
    fn depthwise_matches_grouped_dense() {
        // Depthwise conv == dense conv with block-diagonal weights.
        let mut rng = StdRng::seed_from_u64(6);
        let geom = ConvGeometry::same(3, 1);
        let c = 3;
        let x = Tensor::randn([2, c, 6, 6], &mut rng);
        let wd = Tensor::randn([c, 3, 3], &mut rng);
        let mut dense = Tensor::zeros([c, c, 3, 3]);
        for ci in 0..c {
            for ki in 0..3 {
                for kj in 0..3 {
                    dense.as_mut_slice()[((ci * c + ci) * 3 + ki) * 3 + kj] =
                        wd.as_slice()[(ci * 3 + ki) * 3 + kj];
                }
            }
        }
        let got = depthwise_conv2d(&x, &wd, None, geom);
        let want = conv2d(&x, &dense, None, geom);
        assert!(got.allclose(&want, 1e-4));
    }

    #[test]
    fn depthwise_k1_is_channel_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn([1, 3, 4, 4], &mut rng);
        let w = Tensor::from_vec(vec![2.0, -1.0, 0.5], [3, 1, 1]).unwrap();
        let y = depthwise_conv2d(&x, &w, None, ConvGeometry::pointwise());
        for ci in 0..3 {
            for hi in 0..4 {
                for wi in 0..4 {
                    assert!(
                        (y.at4(0, ci, hi, wi) - x.at4(0, ci, hi, wi) * w.as_slice()[ci]).abs()
                            < 1e-6
                    );
                }
            }
        }
    }

    #[test]
    fn depthwise_backward_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(8);
        let geom = ConvGeometry::same(3, 2);
        let x = Tensor::randn([2, 2, 5, 5], &mut rng);
        let w = Tensor::randn([2, 3, 3], &mut rng);
        let y = depthwise_conv2d(&x, &w, None, geom);
        let dy = Tensor::randn(y.shape().clone(), &mut rng);
        let (dx, dw, db) = depthwise_conv2d_backward(&x, &w, &dy, geom, false, true);
        assert!(db.is_none());
        let dx = dx.unwrap();
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            depthwise_conv2d(x, w, None, geom)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, g)| a * g)
                .sum()
        };
        let eps = 1e-2f32;
        for &i in &[0usize, 13, 29, 49] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx.as_slice()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
        for i in 0..w.numel() {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw.as_slice()[i]).abs() < 2e-2 * (1.0 + num.abs()));
        }
    }

    #[test]
    fn forward_is_width_invariant() {
        use crate::threadpool::with_thread_cap;
        let mut rng = StdRng::seed_from_u64(9);
        for &(k, s, p) in &[
            (1usize, 1usize, 0usize),
            (3, 1, 1),
            (3, 2, 1),
            (5, 1, 2),
            (5, 2, 2),
        ] {
            let geom = ConvGeometry::square(k, s, p);
            let x = Tensor::randn([2, 3, 11, 9], &mut rng);
            let w = Tensor::randn([6, 3, k, k], &mut rng);
            let b = Tensor::randn([6], &mut rng);
            let (ho, wo) = geom.output_hw(11, 9);
            let mut wide = vec![0.0f32; 2 * 6 * ho * wo];
            conv2d_into(&x, &w, Some(&b), geom, &mut wide);
            let mut serial = vec![0.0f32; 2 * 6 * ho * wo];
            with_thread_cap(1, || conv2d_into(&x, &w, Some(&b), geom, &mut serial));
            assert!(
                wide.iter()
                    .zip(&serial)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "k={k} s={s} p={p}: forward not width-invariant"
            );
        }
    }

    #[test]
    fn backward_gradients_are_width_invariant() {
        use crate::threadpool::with_thread_cap;
        let mut rng = StdRng::seed_from_u64(21);
        let geom = ConvGeometry::square(3, 1, 1);
        let x = Tensor::randn([5, 3, 9, 9], &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], &mut rng);
        let dy = Tensor::randn([5, 4, 9, 9], &mut rng);
        let (dx, dw, db) = conv2d_backward(&x, &w, &dy, geom, true, true);
        let (dx1, dw1, db1) = with_thread_cap(1, || conv2d_backward(&x, &w, &dy, geom, true, true));
        for (name, a, b) in [
            ("dx", dx.as_ref().unwrap(), dx1.as_ref().unwrap()),
            ("dw", &dw, &dw1),
            ("db", db.as_ref().unwrap(), db1.as_ref().unwrap()),
        ] {
            assert!(
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(u, v)| u.to_bits() == v.to_bits()),
                "{name} not width-invariant"
            );
        }
    }

    /// [`depthwise_conv2d_backward`] with every channel forced through the
    /// general per-pixel loop: the reference for the register kernels and
    /// the channel lanes.
    fn dw_backward_generic_ref(
        x: &Tensor,
        w: &Tensor,
        dy: &Tensor,
        geom: ConvGeometry,
    ) -> (Tensor, Tensor, Tensor) {
        let (_, c, h, wd, ho, wo) = dw_shapes(x, w, geom);
        let ker_sz = geom.kh * geom.kw;
        let kj_ranges = dw_kj_ranges(geom, wd, wo);
        let mut dx = Tensor::zeros(x.shape().clone());
        let mut dw = Tensor::zeros(w.shape().clone());
        let mut db = Tensor::zeros([c]);
        let shared_dx = SharedMut::new(dx.as_mut_slice());
        for ci in 0..c {
            db.as_mut_slice()[ci] = dw_backward_channel_generic::<true>(
                ci,
                x.as_slice(),
                dy.as_slice(),
                &shared_dx,
                &w.as_slice()[ci * ker_sz..(ci + 1) * ker_sz],
                &mut dw.as_mut_slice()[ci * ker_sz..(ci + 1) * ker_sz],
                (c, h, wd, ho, wo),
                geom,
                &kj_ranges,
            );
        }
        (dx, dw, db)
    }

    /// The 3x3 backward's inputs for one case: `x` and `dy` random, some
    /// upstream gradients zero (of both signs), some weights `-0.0`, an
    /// infinite `x` in each plane read only by pixels whose gradient is
    /// zero, where a product not skipped would be NaN, and, with more than
    /// one channel, an infinite tap in the last channel, whose zero
    /// gradients must be skipped in `dx` too.
    fn dw3_backward_case(
        n: usize,
        c: usize,
        h: usize,
        wd: usize,
        geom: ConvGeometry,
        rng: &mut StdRng,
    ) -> (Tensor, Tensor, Tensor) {
        let (ho, wo) = geom.output_hw(h, wd);
        let mut x = Tensor::randn([n, c, h, wd], rng);
        let mut w = Tensor::randn([c, 3, 3], rng);
        let mut dy = Tensor::randn([n, c, ho, wo], rng);
        for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 2 {
                *v = -0.0;
            }
        }
        if c > 1 {
            w.as_mut_slice()[(c - 1) * 9 + 4] = f32::INFINITY;
        }
        for (i, v) in dy.as_mut_slice().iter_mut().enumerate() {
            match i % 7 {
                1 => *v = 0.0,
                4 => *v = -0.0,
                _ => {}
            }
        }
        let (i0, j0) = (h / 2, wd / 2);
        for p in 0..n * c {
            x.as_mut_slice()[p * h * wd + i0 * wd + j0] = f32::INFINITY;
            for oi in 0..ho {
                for oj in 0..wo {
                    let reads = |o: usize, s: usize, pad: usize, i: usize| {
                        o * s <= i + pad && i + pad < o * s + 3
                    };
                    if reads(oi, geom.sh, geom.ph, i0) && reads(oj, geom.sw, geom.pw, j0) {
                        dy.as_mut_slice()[(p * ho + oi) * wo + oj] = 0.0;
                    }
                }
            }
        }
        (x, w, dy)
    }

    #[test]
    fn depthwise_backward_3x3_lanes_match_generic_loop_bitwise() {
        use crate::threadpool::with_thread_cap;
        let mut rng = StdRng::seed_from_u64(22);
        let mut geoms: Vec<_> = [(1usize, 0usize), (1, 1), (2, 0), (2, 1), (3, 1), (4, 2)]
            .into_iter()
            .map(|(s, p)| ConvGeometry::square(3, s, p))
            .collect();
        // strides and paddings that differ between the axes
        geoms.extend(
            [(1, 2, 1, 0), (2, 1, 0, 2)].map(|(sh, sw, ph, pw)| ConvGeometry {
                sh,
                sw,
                ph,
                pw,
                ..ConvGeometry::square(3, 1, 0)
            }),
        );
        for geom in geoms {
            let (s, p) = ((geom.sh, geom.sw), (geom.ph, geom.pw));
            for (h, wd) in [
                (1usize, 1usize),
                (1, 5),
                (3, 3),
                (4, 7),
                (9, 9),
                (12, 11),
                (17, 33),
            ] {
                if h + 2 * geom.ph < 3 || wd + 2 * geom.pw < 3 {
                    continue;
                }
                for (c, n) in [1usize, 4, 7, 8, 9, 16, 17]
                    .into_iter()
                    .flat_map(|c| [(c, 1usize), (c, 3)])
                {
                    let (x, w, dy) = dw3_backward_case(n, c, h, wd, geom, &mut rng);
                    let (wdx, wdw, wdb) = dw_backward_generic_ref(&x, &w, &dy, geom);
                    for width in [1, 2] {
                        let case = format!("s{s:?} p{p:?} {h}x{wd} c{c} n{n} width {width}");
                        let (dx, dw, db) = with_thread_cap(width, || {
                            depthwise_conv2d_backward(&x, &w, &dy, geom, true, true)
                        });
                        assert_same_bits(&format!("{case} dx"), dx.as_ref().unwrap(), &wdx);
                        assert_same_bits(&format!("{case} dw"), &dw, &wdw);
                        assert_same_bits(&format!("{case} db"), db.as_ref().unwrap(), &wdb);
                        let (none, dw, db) = with_thread_cap(width, || {
                            depthwise_conv2d_backward(&x, &w, &dy, geom, true, false)
                        });
                        assert!(none.is_none(), "{case}: dx computed though not wanted");
                        assert_same_bits(&format!("{case} dw without dx"), &dw, &wdw);
                        assert_same_bits(&format!("{case} db without dx"), &db.unwrap(), &wdb);
                    }
                }
            }
        }
    }

    fn assert_same_bits(case: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.dims(), want.dims(), "{case} shape");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{case} differs at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn depthwise_1x1_lanes_match_scalar_loops_bitwise() {
        use crate::threadpool::with_thread_cap;
        let mut rng = StdRng::seed_from_u64(23);
        let geom = ConvGeometry::pointwise();
        for c in [1usize, 7, 8, 9, 13, 16, 24] {
            for n in [1usize, 3] {
                for (h, wd) in [(1usize, 1usize), (3, 5), (7, 7), (16, 16)] {
                    let mut x = Tensor::randn([n, c, h, wd], &mut rng);
                    let w = Tensor::randn([c, 1, 1], &mut rng);
                    let mut dy = Tensor::randn([n, c, h, wd], &mut rng);
                    // zero gradients (of both signs) are skipped, even where
                    // x is infinite and the product would be NaN
                    for (i, (g, xv)) in dy
                        .as_mut_slice()
                        .iter_mut()
                        .zip(x.as_mut_slice())
                        .enumerate()
                    {
                        match i % 5 {
                            1 => *g = 0.0,
                            3 => {
                                *g = -0.0;
                                *xv = f32::INFINITY;
                            }
                            _ => {}
                        }
                    }
                    let (wdx, wdw, wdb) = dw_backward_generic_ref(&x, &w, &dy, geom);
                    for simd in [false, true] {
                        for width in [1, 2] {
                            let case = format!("c{c} n{n} {h}x{wd} simd {simd} width {width}");
                            let mut dx = Tensor::zeros(x.shape().clone());
                            let shared_dx = SharedMut::new(dx.as_mut_slice());
                            let (dw, db) = with_thread_cap(width, || {
                                depthwise_backward::<true>(&x, &w, &dy, geom, &shared_dx, simd)
                            });
                            assert_same_bits(&format!("{case} dx"), &dx, &wdx);
                            assert_same_bits(&format!("{case} dw"), &dw, &wdw);
                            assert_same_bits(&format!("{case} db"), &db, &wdb);
                            let no_dx = SharedMut::new(&mut [][..]);
                            let (dw, db) = with_thread_cap(width, || {
                                depthwise_backward::<false>(&x, &w, &dy, geom, &no_dx, simd)
                            });
                            assert_same_bits(&format!("{case} dw without dx"), &dw, &wdw);
                            assert_same_bits(&format!("{case} db without dx"), &db, &wdb);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn depthwise_backward_without_dx_keeps_weight_gradients() {
        let mut rng = StdRng::seed_from_u64(24);
        for (k, s, p) in [(3usize, 1usize, 1usize), (3, 2, 1), (5, 1, 2)] {
            let geom = ConvGeometry::square(k, s, p);
            let x = Tensor::randn([2, 5, 9, 7], &mut rng);
            let w = Tensor::randn([5, k, k], &mut rng);
            let (ho, wo) = geom.output_hw(9, 7);
            let dy = Tensor::randn([2, 5, ho, wo], &mut rng);
            let (dx, dw, db) = depthwise_conv2d_backward(&x, &w, &dy, geom, true, true);
            assert!(dx.is_some());
            let (none, dw2, db2) = depthwise_conv2d_backward(&x, &w, &dy, geom, true, false);
            assert!(none.is_none());
            let case = format!("k{k} s{s} p{p}");
            assert_same_bits(&format!("{case} dw"), &dw2, &dw);
            assert_same_bits(&format!("{case} db"), &db2.unwrap(), &db.unwrap());
        }
    }

    #[test]
    fn pointwise_backward_direct_matches_im2col_bitwise() {
        use crate::threadpool::with_thread_cap;
        let mut rng = StdRng::seed_from_u64(25);
        let geom = ConvGeometry::pointwise();
        for (n, c_in, c_out, h, wd) in [
            (1usize, 1usize, 1usize, 1usize, 1usize),
            (3, 5, 7, 3, 5),
            (2, 16, 24, 8, 8),
            // a GEMM depth (c_out) past one k-panel
            (1, 8, 300, 4, 4),
        ] {
            let x = Tensor::randn([n, c_in, h, wd], &mut rng);
            let mut w = Tensor::randn([c_out, c_in, 1, 1], &mut rng);
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                if i % 4 == 2 {
                    *v = -0.0;
                }
            }
            let mut dy = Tensor::randn([n, c_out, h, wd], &mut rng);
            for (i, v) in dy.as_mut_slice().iter_mut().enumerate() {
                if i % 3 == 1 {
                    *v = 0.0;
                }
            }
            for width in [1, 2] {
                let case = format!("n{n} c{c_in}->{c_out} {h}x{wd} width {width}");
                let (dx, dw, db) =
                    with_thread_cap(width, || conv_backward(&x, &w, &dy, geom, true, true, true));
                let (wdx, wdw, wdb) = with_thread_cap(width, || {
                    conv_backward(&x, &w, &dy, geom, true, true, false)
                });
                assert_same_bits(&format!("{case} dx"), &dx.unwrap(), &wdx.unwrap());
                assert_same_bits(&format!("{case} dw"), &dw, &wdw);
                assert_same_bits(
                    &format!("{case} db"),
                    db.as_ref().unwrap(),
                    wdb.as_ref().unwrap(),
                );
                let (none, dw2, db2) =
                    with_thread_cap(width, || conv2d_backward(&x, &w, &dy, geom, true, false));
                assert!(none.is_none(), "{case}: dx computed though not wanted");
                assert_same_bits(&format!("{case} dw without dx"), &dw2, &wdw);
                assert_same_bits(
                    &format!("{case} db without dx"),
                    &db2.unwrap(),
                    &wdb.unwrap(),
                );
            }
        }
    }

    #[test]
    fn conv_backward_without_dx_keeps_weight_gradients() {
        let mut rng = StdRng::seed_from_u64(26);
        let geom = ConvGeometry::square(3, 2, 1);
        let x = Tensor::randn([2, 3, 9, 9], &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], &mut rng);
        let dy = Tensor::randn([2, 4, 5, 5], &mut rng);
        let (dx, dw, db) = conv2d_backward(&x, &w, &dy, geom, true, true);
        assert!(dx.is_some());
        let (none, dw2, db2) = conv2d_backward(&x, &w, &dy, geom, true, false);
        assert!(none.is_none());
        assert_same_bits("dw", &dw2, &dw);
        assert_same_bits("db", &db2.unwrap(), &db.unwrap());
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_channel_mismatch_panics() {
        let x = Tensor::zeros([1, 3, 4, 4]);
        let w = Tensor::zeros([2, 4, 1, 1]);
        let _ = conv2d(&x, &w, None, ConvGeometry::pointwise());
    }
}
