//! Naive, obviously-correct reference kernels.
//!
//! Every routine here mirrors the contract of a fast kernel in `nb-tensor`
//! but is written as the plainest possible loop nest, accumulating in f64 so
//! the reference is *more* accurate than any correct f32 implementation.
//! The differential driver ([`crate::diff`]) compares the fast kernels
//! against these under ULP-bounded tolerances.
//!
//! Nothing here is optimized on purpose: the value of an oracle is that a
//! reviewer can check it against the textbook definition in one sitting.

#![allow(clippy::too_many_arguments)]

use nb_tensor::{ConvGeometry, Tensor};

/// Reference GEMM with the same signature and epilogue semantics as
/// [`nb_tensor::gemm()`]: `C = A' * B'` where `a_trans`/`b_trans` select the
/// storage layout of the logical `m x k` / `k x n` operands, `row_init`
/// seeds every row (bias fusion), and `accumulate` adds onto `c`.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions.
pub fn gemm_ref(
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    row_init: Option<&[f32]>,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_ref lhs length");
    assert_eq!(b.len(), k * n, "gemm_ref rhs length");
    assert_eq!(c.len(), m * n, "gemm_ref out length");
    let at = |i: usize, l: usize| -> f64 {
        f64::from(if a_trans { a[l * m + i] } else { a[i * k + l] })
    };
    let bt = |l: usize, j: usize| -> f64 {
        f64::from(if b_trans { b[j * k + l] } else { b[l * n + j] })
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for l in 0..k {
                acc += at(i, l) * bt(l, j);
            }
            let base = if accumulate {
                f64::from(c[i * n + j])
            } else {
                row_init.map_or(0.0, |r| f64::from(r[i]))
            };
            c[i * n + j] = (base + acc) as f32;
        }
    }
}

/// Reference dense 2-D convolution (direct seven-loop definition).
///
/// # Panics
///
/// Panics on shape inconsistencies (same contract as `nb_tensor::conv2d`).
pub fn conv2d_ref(x: &Tensor, w: &Tensor, b: Option<&Tensor>, geom: ConvGeometry) -> Tensor {
    let (n, c_in, h, wd) = x.shape().nchw();
    let wdim = w.dims().to_vec();
    assert_eq!(wdim.len(), 4, "conv2d_ref weight rank");
    let (c_out, wc_in, kh, kw) = (wdim[0], wdim[1], wdim[2], wdim[3]);
    assert_eq!(wc_in, c_in, "conv2d_ref channels");
    let (ho, wo) = geom.output_hw(h, wd);
    let xs = x.as_slice();
    let ws = w.as_slice();
    let mut out = Tensor::zeros([n, c_out, ho, wo]);
    let os = out.as_mut_slice();
    for ni in 0..n {
        for co in 0..c_out {
            for oi in 0..ho {
                for oj in 0..wo {
                    let mut acc = b.map(|b| f64::from(b.as_slice()[co])).unwrap_or(0.0);
                    for ci in 0..c_in {
                        for ki in 0..kh {
                            let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                            if ii < 0 || ii >= h as isize {
                                continue;
                            }
                            for kj in 0..kw {
                                let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                                if jj < 0 || jj >= wd as isize {
                                    continue;
                                }
                                let xv =
                                    xs[((ni * c_in + ci) * h + ii as usize) * wd + jj as usize];
                                let wv = ws[((co * c_in + ci) * kh + ki) * kw + kj];
                                acc += f64::from(xv) * f64::from(wv);
                            }
                        }
                    }
                    os[((ni * c_out + co) * ho + oi) * wo + oj] = acc as f32;
                }
            }
        }
    }
    out
}

/// Reference gradients of [`conv2d_ref`]: `(dx, dw, db)` with `db` present
/// iff `has_bias`. Every gradient is the direct sum over the forward
/// product graph, accumulated in f64.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn conv2d_backward_ref(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    geom: ConvGeometry,
    has_bias: bool,
) -> (Tensor, Tensor, Option<Tensor>) {
    let (n, c_in, h, wd) = x.shape().nchw();
    let wdim = w.dims().to_vec();
    let (c_out, _, kh, kw) = (wdim[0], wdim[1], wdim[2], wdim[3]);
    let (ho, wo) = geom.output_hw(h, wd);
    assert_eq!(dy.dims(), &[n, c_out, ho, wo], "conv2d_backward_ref dy");
    let xs = x.as_slice();
    let ws = w.as_slice();
    let dys = dy.as_slice();
    let mut dx = vec![0.0f64; n * c_in * h * wd];
    let mut dw = vec![0.0f64; c_out * c_in * kh * kw];
    let mut db = vec![0.0f64; c_out];
    for ni in 0..n {
        for co in 0..c_out {
            for oi in 0..ho {
                for oj in 0..wo {
                    let g = f64::from(dys[((ni * c_out + co) * ho + oi) * wo + oj]);
                    db[co] += g;
                    for ci in 0..c_in {
                        for ki in 0..kh {
                            let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                            if ii < 0 || ii >= h as isize {
                                continue;
                            }
                            for kj in 0..kw {
                                let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                                if jj < 0 || jj >= wd as isize {
                                    continue;
                                }
                                let xi = ((ni * c_in + ci) * h + ii as usize) * wd + jj as usize;
                                let wi = ((co * c_in + ci) * kh + ki) * kw + kj;
                                dw[wi] += g * f64::from(xs[xi]);
                                dx[xi] += g * f64::from(ws[wi]);
                            }
                        }
                    }
                }
            }
        }
    }
    let dxt = Tensor::from_fn(x.shape().clone(), |i| dx[i] as f32);
    let dwt = Tensor::from_fn(w.shape().clone(), |i| dw[i] as f32);
    let dbt = has_bias.then(|| Tensor::from_fn([c_out], |i| db[i] as f32));
    (dxt, dwt, dbt)
}

/// Reference depthwise 2-D convolution.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn depthwise_conv2d_ref(
    x: &Tensor,
    w: &Tensor,
    b: Option<&Tensor>,
    geom: ConvGeometry,
) -> Tensor {
    let (n, c, h, wd) = x.shape().nchw();
    let wdim = w.dims().to_vec();
    assert_eq!(wdim.len(), 3, "depthwise_conv2d_ref weight rank");
    assert_eq!(wdim[0], c, "depthwise_conv2d_ref channels");
    let (kh, kw) = (wdim[1], wdim[2]);
    let (ho, wo) = geom.output_hw(h, wd);
    let xs = x.as_slice();
    let ws = w.as_slice();
    let mut out = Tensor::zeros([n, c, ho, wo]);
    let os = out.as_mut_slice();
    for ni in 0..n {
        for ci in 0..c {
            for oi in 0..ho {
                for oj in 0..wo {
                    let mut acc = b.map(|b| f64::from(b.as_slice()[ci])).unwrap_or(0.0);
                    for ki in 0..kh {
                        let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                            if jj < 0 || jj >= wd as isize {
                                continue;
                            }
                            let xv = xs[((ni * c + ci) * h + ii as usize) * wd + jj as usize];
                            acc += f64::from(xv) * f64::from(ws[(ci * kh + ki) * kw + kj]);
                        }
                    }
                    os[((ni * c + ci) * ho + oi) * wo + oj] = acc as f32;
                }
            }
        }
    }
    out
}

/// Reference gradients of [`depthwise_conv2d_ref`]; returns `(dx, dw, db)`.
///
/// # Panics
///
/// Panics on shape inconsistencies.
pub fn depthwise_conv2d_backward_ref(
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    geom: ConvGeometry,
    has_bias: bool,
) -> (Tensor, Tensor, Option<Tensor>) {
    let (n, c, h, wd) = x.shape().nchw();
    let wdim = w.dims().to_vec();
    let (kh, kw) = (wdim[1], wdim[2]);
    let (ho, wo) = geom.output_hw(h, wd);
    assert_eq!(dy.dims(), &[n, c, ho, wo], "depthwise backward_ref dy");
    let xs = x.as_slice();
    let ws = w.as_slice();
    let dys = dy.as_slice();
    let mut dx = vec![0.0f64; n * c * h * wd];
    let mut dw = vec![0.0f64; c * kh * kw];
    let mut db = vec![0.0f64; c];
    for ni in 0..n {
        for ci in 0..c {
            for oi in 0..ho {
                for oj in 0..wo {
                    let g = f64::from(dys[((ni * c + ci) * ho + oi) * wo + oj]);
                    db[ci] += g;
                    for ki in 0..kh {
                        let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                        if ii < 0 || ii >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                            if jj < 0 || jj >= wd as isize {
                                continue;
                            }
                            let xi = ((ni * c + ci) * h + ii as usize) * wd + jj as usize;
                            let wi = (ci * kh + ki) * kw + kj;
                            dw[wi] += g * f64::from(xs[xi]);
                            dx[xi] += g * f64::from(ws[wi]);
                        }
                    }
                }
            }
        }
    }
    let dxt = Tensor::from_fn(x.shape().clone(), |i| dx[i] as f32);
    let dwt = Tensor::from_fn(w.shape().clone(), |i| dw[i] as f32);
    let dbt = has_bias.then(|| Tensor::from_fn([c], |i| db[i] as f32));
    (dxt, dwt, dbt)
}

/// Reference max pooling with the same tie-breaking rule as
/// `nb_tensor::maxpool2d` (strictly-greater wins, so the first maximum in
/// scan order keeps the index). Returns the pooled tensor and flat argmax
/// indices into each sample-channel plane.
pub fn maxpool2d_ref(x: &Tensor, geom: ConvGeometry) -> (Tensor, Vec<u32>) {
    let (n, c, h, w) = x.shape().nchw();
    let (ho, wo) = geom.output_hw(h, w);
    let mut out = Tensor::zeros([n, c, ho, wo]);
    let mut idx = vec![0u32; n * c * ho * wo];
    let xs = x.as_slice();
    let os = out.as_mut_slice();
    for nc in 0..n * c {
        for oi in 0..ho {
            for oj in 0..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for ki in 0..geom.kh {
                    let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..geom.kw {
                        let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        let p = ii as usize * w + jj as usize;
                        let v = xs[nc * h * w + p];
                        if v > best {
                            best = v;
                            best_i = p;
                        }
                    }
                }
                let o = (nc * ho + oi) * wo + oj;
                os[o] = best;
                idx[o] = best_i as u32;
            }
        }
    }
    (out, idx)
}

/// Reference average pooling (`count_include_pad = true`, matching
/// `nb_tensor::avgpool2d`).
pub fn avgpool2d_ref(x: &Tensor, geom: ConvGeometry) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let (ho, wo) = geom.output_hw(h, w);
    let window = f64::from((geom.kh * geom.kw) as u32);
    let xs = x.as_slice();
    let mut out = Tensor::zeros([n, c, ho, wo]);
    let os = out.as_mut_slice();
    for nc in 0..n * c {
        for oi in 0..ho {
            for oj in 0..wo {
                let mut acc = 0.0f64;
                for ki in 0..geom.kh {
                    let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..geom.kw {
                        let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        acc += f64::from(xs[nc * h * w + ii as usize * w + jj as usize]);
                    }
                }
                os[(nc * ho + oi) * wo + oj] = (acc / window) as f32;
            }
        }
    }
    out
}

/// Reference global average pooling: `[n, c, h, w]` to `[n, c]`.
pub fn global_avg_pool_ref(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let xs = x.as_slice();
    Tensor::from_fn([n, c], |i| {
        let acc: f64 = xs[i * h * w..(i + 1) * h * w]
            .iter()
            .map(|&v| f64::from(v))
            .sum();
        (acc / (h * w) as f64) as f32
    })
}

/// Reference max-pool gradient: routes each output gradient to its argmax.
pub fn maxpool2d_backward_ref(x_shape: &nb_tensor::Shape, dy: &Tensor, idx: &[u32]) -> Tensor {
    let (n, c, h, w) = x_shape.nchw();
    let (_, _, ho, wo) = dy.shape().nchw();
    let dys = dy.as_slice();
    let mut dx = vec![0.0f64; n * c * h * w];
    for nc in 0..n * c {
        for o in 0..ho * wo {
            let flat = nc * ho * wo + o;
            dx[nc * h * w + idx[flat] as usize] += f64::from(dys[flat]);
        }
    }
    Tensor::from_fn([n, c, h, w], |i| dx[i] as f32)
}

/// Reference average-pool gradient.
pub fn avgpool2d_backward_ref(
    x_shape: &nb_tensor::Shape,
    dy: &Tensor,
    geom: ConvGeometry,
) -> Tensor {
    let (n, c, h, w) = x_shape.nchw();
    let (_, _, ho, wo) = dy.shape().nchw();
    let inv = 1.0f64 / f64::from((geom.kh * geom.kw) as u32);
    let dys = dy.as_slice();
    let mut dx = vec![0.0f64; n * c * h * w];
    for nc in 0..n * c {
        for oi in 0..ho {
            for oj in 0..wo {
                let g = f64::from(dys[(nc * ho + oi) * wo + oj]) * inv;
                for ki in 0..geom.kh {
                    let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for kj in 0..geom.kw {
                        let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        dx[nc * h * w + ii as usize * w + jj as usize] += g;
                    }
                }
            }
        }
    }
    Tensor::from_fn([n, c, h, w], |i| dx[i] as f32)
}

/// Reference training-mode batch statistics of an `[n, c, h, w]` tensor:
/// per channel, the mean and the *biased* variance over its `n * h * w`
/// elements, in f64.
pub fn bn_batch_stats_ref(x: &Tensor) -> (Vec<f64>, Vec<f64>) {
    let (n, c, h, w) = x.shape().nchw();
    let xs = x.as_slice();
    let m = (n * h * w) as f64;
    let channel = |ci: usize| {
        (0..n).flat_map(move |ni| {
            xs[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w]
                .iter()
                .map(|&v| f64::from(v))
        })
    };
    let mean: Vec<f64> = (0..c).map(|ci| channel(ci).sum::<f64>() / m).collect();
    let var = (0..c)
        .map(|ci| channel(ci).map(|v| (v - mean[ci]).powi(2)).sum::<f64>() / m)
        .collect();
    (mean, var)
}

/// Reference batch-norm normalize of an `[n, c, h, w]` tensor:
/// `gamma * (x - mean) / sqrt(var + eps) + beta` per channel, in f64.
pub fn bn_normalize_ref(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &[f64],
    var: &[f64],
    eps: f32,
) -> Tensor {
    let (_, c, h, w) = x.shape().nchw();
    let (g, b) = (gamma.as_slice(), beta.as_slice());
    let xs = x.as_slice();
    Tensor::from_fn(x.shape().clone(), |i| {
        let ci = i / (h * w) % c;
        let xhat = (f64::from(xs[i]) - mean[ci]) / (var[ci] + f64::from(eps)).sqrt();
        (f64::from(g[ci]) * xhat + f64::from(b[ci])) as f32
    })
}

/// Reference batch-norm backward over an `[n, c, h, w]` input normalized
/// with per-channel `mean` and `invstd`; returns `(dx, dgamma, dbeta)`, in
/// f64. With `xhat = (x - mean) * invstd` and `m = n * h * w`:
/// `dbeta = sum(dy)`, `dgamma = sum(dy * xhat)`, and `dx` differentiates
/// through the batch statistics in training mode,
/// `gamma * invstd / m * (m * dy - dbeta - xhat * dgamma)`, or treats them
/// as constants in eval mode, `dy * gamma * invstd`.
pub fn bn_backward_ref(
    x: &Tensor,
    dy: &Tensor,
    gamma: &Tensor,
    mean: &Tensor,
    invstd: &Tensor,
    training: bool,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    let m = (n * h * w) as f64;
    let (xs, gs) = (x.as_slice(), dy.as_slice());
    let f = |t: &Tensor, ci: usize| f64::from(t.as_slice()[ci]);
    let xhat = |i: usize, ci: usize| (f64::from(xs[i]) - f(mean, ci)) * f(invstd, ci);
    let mut dgamma = vec![0.0f64; c];
    let mut dbeta = vec![0.0f64; c];
    for (i, &g) in gs.iter().enumerate() {
        let ci = i / (h * w) % c;
        dgamma[ci] += f64::from(g) * xhat(i, ci);
        dbeta[ci] += f64::from(g);
    }
    let dx = Tensor::from_fn(x.shape().clone(), |i| {
        let ci = i / (h * w) % c;
        let scale = f(gamma, ci) * f(invstd, ci);
        let g = f64::from(gs[i]);
        let d = if training {
            scale / m * (m * g - dbeta[ci] - xhat(i, ci) * dgamma[ci])
        } else {
            g * scale
        };
        d as f32
    });
    (
        dx,
        Tensor::from_fn([c], |ci| dgamma[ci] as f32),
        Tensor::from_fn([c], |ci| dbeta[ci] as f32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_ref_hand_example() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        gemm_ref(&a, false, &b, false, &mut c, 2, 2, 2, None, false);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
        // transpose variants agree with manual transposition
        let at = [1.0, 3.0, 2.0, 4.0]; // a stored column-major == a^T row-major
        let mut ct = [0.0f32; 4];
        gemm_ref(&at, true, &b, false, &mut ct, 2, 2, 2, None, false);
        assert_eq!(ct, c);
        let btr = [5.0, 7.0, 6.0, 8.0];
        let mut cb = [0.0f32; 4];
        gemm_ref(&a, false, &btr, true, &mut cb, 2, 2, 2, None, false);
        assert_eq!(cb, c);
    }

    #[test]
    fn gemm_ref_epilogues() {
        let a = [2.0f32];
        let b = [3.0f32];
        let mut c = [10.0f32];
        gemm_ref(&a, false, &b, false, &mut c, 1, 1, 1, None, true);
        assert_eq!(c, [16.0]); // accumulate onto existing
        let mut c2 = [999.0f32];
        gemm_ref(&a, false, &b, false, &mut c2, 1, 1, 1, Some(&[1.0]), false);
        assert_eq!(c2, [7.0]); // row_init replaces
                               // K = 0: epilogue alone defines the output
        let mut c3 = [5.0f32, 5.0];
        gemm_ref(
            &[],
            false,
            &[],
            false,
            &mut c3,
            2,
            0,
            1,
            Some(&[1.5, -2.0]),
            false,
        );
        assert_eq!(c3, [1.5, -2.0]);
        let mut c4 = [5.0f32];
        gemm_ref(&[], false, &[], false, &mut c4, 1, 0, 1, None, true);
        assert_eq!(c4, [5.0]); // accumulate with k=0 leaves c alone
    }

    #[test]
    fn conv_ref_identity_kernel() {
        let x = Tensor::from_fn([1, 1, 3, 3], |i| i as f32);
        let w = Tensor::from_vec(vec![1.0], [1, 1, 1, 1]).unwrap();
        let y = conv2d_ref(&x, &w, None, ConvGeometry::pointwise());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn depthwise_ref_k1_scales_channels() {
        let x = Tensor::from_fn([1, 2, 2, 2], |i| i as f32);
        let w = Tensor::from_vec(vec![2.0, -1.0], [2, 1, 1]).unwrap();
        let y = depthwise_conv2d_ref(&x, &w, None, ConvGeometry::pointwise());
        for i in 0..4 {
            assert_eq!(y.as_slice()[i], x.as_slice()[i] * 2.0);
            assert_eq!(y.as_slice()[4 + i], -x.as_slice()[4 + i]);
        }
    }

    #[test]
    fn bn_refs_on_known_input() {
        // one channel holding 1, 3, 5, 7: mean 4, biased variance 5
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [2, 1, 1, 2]).unwrap();
        let (mean, var) = bn_batch_stats_ref(&x);
        assert_eq!((mean[0], var[0]), (4.0, 5.0));
        let y = bn_normalize_ref(
            &x,
            &Tensor::full([1], 2.0),
            &Tensor::ones([1]),
            &[4.0],
            &[4.0],
            0.0,
        );
        assert_eq!(y.as_slice(), &[-2.0, 0.0, 2.0, 4.0]);
        // a gradient equal to xhat: dbeta = 0 and dgamma = sum(xhat^2) = 5
        let invstd = Tensor::full([1], 0.5);
        let xhat = Tensor::from_vec(vec![-1.5, -0.5, 0.5, 1.5], [2, 1, 1, 2]).unwrap();
        let (dx, dg, db) = bn_backward_ref(
            &x,
            &xhat,
            &Tensor::ones([1]),
            &Tensor::full([1], 4.0),
            &invstd,
            true,
        );
        assert_eq!(db.as_slice(), &[0.0]);
        assert_eq!(dg.as_slice(), &[5.0]);
        // dx = 0.5/4 * (4*g - 0 - xhat*5) = 0.125 * (-g) for g = xhat
        assert_eq!(dx.as_slice(), &[0.1875, 0.0625, -0.0625, -0.1875]);
        let (dx, _, _) = bn_backward_ref(
            &x,
            &xhat,
            &Tensor::ones([1]),
            &Tensor::full([1], 4.0),
            &invstd,
            false,
        );
        assert_eq!(dx.as_slice(), &[-0.75, -0.25, 0.25, 0.75]);
    }

    #[test]
    fn pool_refs_on_known_input() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap();
        let geom = ConvGeometry::square(2, 2, 0);
        let (y, idx) = maxpool2d_ref(&x, geom);
        assert_eq!(y.as_slice(), &[4.0]);
        assert_eq!(idx, vec![3]);
        let a = avgpool2d_ref(&x, geom);
        assert_eq!(a.as_slice(), &[2.5]);
        let g = global_avg_pool_ref(&x);
        assert_eq!(g.as_slice(), &[2.5]);
    }
}
