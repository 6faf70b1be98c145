//! Property-based tests for the tensor kernels: algebraic laws of the
//! elementwise ops, matmul identities, convolution linearity, the
//! im2col/col2im adjoint relationship, and the depthwise kernels (f32 and
//! int8) against independent scalar references — bitwise at every thread
//! width — over random geometries.

use nb_tensor::{
    activation_scale, available_threads, col2im, conv2d, depthwise_conv2d, im2col, matmul_into,
    max_abs, qdepthwise_conv2d_into, quantize_activations, with_thread_cap, ConvGeometry, Epilogue,
    QDepthwiseW, Tensor, Q_ZERO,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor(shape: &[usize], seed: u64) -> Tensor {
    Tensor::randn(shape.to_vec(), &mut StdRng::seed_from_u64(seed))
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Independent scalar depthwise reference pinning the kernel contract:
/// bias-seeded accumulator, taps in `ki`-major `kj`-minor order,
/// out-of-bounds taps skipped (not added as zero).
fn dw_ref(x: &Tensor, wt: &Tensor, b: Option<&Tensor>, geom: ConvGeometry) -> Vec<f32> {
    let d = x.dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (ho, wo) = geom.output_hw(h, w);
    let (xs, ws) = (x.as_slice(), wt.as_slice());
    let mut out = vec![0.0f32; n * c * ho * wo];
    for ni in 0..n {
        for ci in 0..c {
            let plane = &xs[(ni * c + ci) * h * w..];
            let ker = &ws[ci * geom.kh * geom.kw..];
            let o = &mut out[(ni * c + ci) * ho * wo..(ni * c + ci + 1) * ho * wo];
            for oi in 0..ho {
                for oj in 0..wo {
                    let mut acc = b.map(|b| b.as_slice()[ci]).unwrap_or(0.0);
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
                            acc += plane[ii as usize * w + jj as usize] * ker[ki * geom.kw + kj];
                        }
                    }
                    o[oi * wo + oj] = acc;
                }
            }
        }
    }
    out
}

/// Pure-integer quantized depthwise reference: out-of-bounds taps read
/// `Q_ZERO`, one dequantize at the end — the contract the int8 kernels pin.
#[allow(clippy::too_many_arguments)]
fn qdw_ref(
    qx: &[u8],
    n: usize,
    qw: &QDepthwiseW,
    b: Option<&Tensor>,
    geom: ConvGeometry,
    x_scale: f32,
    h: usize,
    w: usize,
) -> Vec<f32> {
    let c = qw.c();
    let (ho, wo) = geom.output_hw(h, w);
    let mut out = vec![0.0f32; n * c * ho * wo];
    for ni in 0..n {
        for ci in 0..c {
            let plane = &qx[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            let (qk, cs) = (qw.filter(ci), qw.scales()[ci] * x_scale);
            let base = b.map(|b| b.as_slice()[ci]).unwrap_or(0.0);
            let o = &mut out[(ni * c + ci) * ho * wo..(ni * c + ci + 1) * ho * wo];
            for oi in 0..ho {
                for oj in 0..wo {
                    let mut acc = 0i64;
                    for ki in 0..geom.kh {
                        for kj in 0..geom.kw {
                            let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                            let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                            let v = if ii < 0 || ii >= h as isize || jj < 0 || jj >= w as isize {
                                Q_ZERO as i64
                            } else {
                                plane[ii as usize * w + jj as usize] as i64
                            };
                            acc += v * qk[ki * geom.kw + kj] as i64;
                        }
                    }
                    let corrected = acc - Q_ZERO as i64 * qw.kersum(ci) as i64;
                    o[oi * wo + oj] = corrected as i32 as f32 * cs + base;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Elementwise addition commutes and subtraction inverts it.
    #[test]
    fn add_commutes_sub_inverts(n in 1usize..64, s1 in 0u64..1000, s2 in 0u64..1000) {
        let a = tensor(&[n], s1);
        let b = tensor(&[n], s2);
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert!(a.add(&b).sub(&b).allclose(&a, 1e-5));
    }

    /// Scaling distributes over addition.
    #[test]
    fn scale_distributes(n in 1usize..64, s in -3.0f32..3.0, seed in 0u64..1000) {
        let a = tensor(&[n], seed);
        let b = tensor(&[n], seed ^ 0xffff);
        let lhs = a.add(&b).scale(s);
        let rhs = a.scale(s).add(&b.scale(s));
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    /// Matmul respects the identity and associates (within fp tolerance).
    #[test]
    fn matmul_identity_and_assoc(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 1);
        let c = tensor(&[n, m], seed ^ 2);
        let eye = Tensor::from_fn([k, k], |i| if i / k == i % k { 1.0 } else { 0.0 });
        prop_assert!(a.matmul(&eye).allclose(&a, 1e-5));
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-3 * (1.0 + lhs.abs_sum())));
    }

    /// Transpose is an involution and distributes over matmul reversed.
    #[test]
    fn transpose_laws(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 3);
        prop_assert_eq!(a.transpose2d().transpose2d(), a.clone());
        let lhs = a.matmul(&b).transpose2d();
        let rhs = b.transpose2d().matmul(&a.transpose2d());
        prop_assert!(lhs.allclose(&rhs, 1e-4));
    }

    /// Convolution is linear in its input.
    #[test]
    fn conv_linear_in_input(
        c_in in 1usize..4, c_out in 1usize..4, k in 1usize..4, seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::same(k, 1);
        let x1 = tensor(&[1, c_in, 5, 5], seed);
        let x2 = tensor(&[1, c_in, 5, 5], seed ^ 9);
        let w = tensor(&[c_out, c_in, k, k], seed ^ 5);
        let lhs = conv2d(&x1.add(&x2), &w, None, geom);
        let rhs = conv2d(&x1, &w, None, geom).add(&conv2d(&x2, &w, None, geom));
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    /// col2im is the exact adjoint of im2col: <im2col(x), c> == <x, col2im(c)>.
    #[test]
    fn im2col_adjoint(
        c in 1usize..4, h in 3usize..8, w in 3usize..8,
        k in 1usize..4, stride in 1usize..3, seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * (k / 2) >= k && w + 2 * (k / 2) >= k);
        let geom = ConvGeometry::same(k, stride);
        let (ho, wo) = geom.output_hw(h, w);
        let x = tensor(&[c * h * w], seed);
        let cvec = tensor(&[c * k * k * ho * wo], seed ^ 11);
        let mut cols = vec![0.0f32; c * k * k * ho * wo];
        im2col(x.as_slice(), c, h, w, geom, &mut cols);
        let lhs: f64 = cols.iter().zip(cvec.as_slice()).map(|(a, b)| (a * b) as f64).sum();
        let mut dx = vec![0.0f32; c * h * w];
        col2im(cvec.as_slice(), c, h, w, geom, &mut dx);
        let rhs: f64 = x.as_slice().iter().zip(&dx).map(|(a, b)| (a * b) as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// matmul_into agrees with the Tensor::matmul wrapper.
    #[test]
    fn matmul_into_consistent(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        let a = tensor(&[m, k], seed);
        let b = tensor(&[k, n], seed ^ 7);
        let mut c = vec![0.0f32; m * n];
        matmul_into(a.as_slice(), b.as_slice(), &mut c, m, k, n);
        let want = a.matmul(&b);
        prop_assert_eq!(c, want.as_slice().to_vec());
    }

    /// Reshape round-trips and preserves the sum.
    #[test]
    fn reshape_preserves(n in 1usize..8, m in 1usize..8, seed in 0u64..1000) {
        let t = tensor(&[n, m], seed);
        let r = t.reshape([m, n]).reshape([n * m]).reshape([n, m]);
        prop_assert_eq!(&r, &t);
        prop_assert!((r.sum() - t.sum()).abs() < 1e-6);
    }

    /// The f32 depthwise kernel (scalar or AVX2 row-strip, whichever
    /// `row_strip` picks for the shape) matches the independent scalar
    /// reference bitwise, at thread widths 1, 2, and the machine maximum.
    #[test]
    fn depthwise_matches_reference_across_thread_widths(
        n in 1usize..3, c in 1usize..6, h in 1usize..10, w in 1usize..10,
        k in 1usize..6, stride in 1usize..3, pad in 0usize..3,
        bias in any::<bool>(), seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeometry::square(k, stride, pad);
        let x = tensor(&[n, c, h, w], seed);
        let wt = tensor(&[c, k, k], seed ^ 21);
        let bt = if bias { Some(tensor(&[c], seed ^ 22)) } else { None };
        let want = dw_ref(&x, &wt, bt.as_ref(), geom);
        for cap in [1usize, 2, available_threads()] {
            let got = with_thread_cap(cap, || depthwise_conv2d(&x, &wt, bt.as_ref(), geom));
            prop_assert_eq!(
                bits(got.as_slice()), bits(&want),
                "f32 depthwise vs reference, cap {} geom {:?}", cap, geom
            );
        }
    }

    /// The int8 depthwise kernel matches the pure-integer reference bitwise
    /// (after the one dequantize), at thread widths 1, 2, and the maximum.
    #[test]
    fn qdepthwise_matches_integer_reference_across_thread_widths(
        n in 1usize..3, c in 1usize..6, h in 1usize..10, w in 1usize..10,
        k in 1usize..6, stride in 1usize..3, pad in 0usize..3,
        bias in any::<bool>(), seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeometry::square(k, stride, pad);
        let x = tensor(&[n, c, h, w], seed);
        let wt = tensor(&[c, k, k], seed ^ 33);
        let bt = if bias { Some(tensor(&[c], seed ^ 34)) } else { None };
        let qw = QDepthwiseW::pack(wt.as_slice(), c, k, k);
        let x_scale = activation_scale(max_abs(x.as_slice()));
        let mut qx = vec![0u8; x.numel()];
        quantize_activations(x.as_slice(), x_scale, &mut qx);
        let want = qdw_ref(&qx, n, &qw, bt.as_ref(), geom, x_scale, h, w);
        for cap in [1usize, 2, available_threads()] {
            let mut got = vec![0.0f32; want.len()];
            with_thread_cap(cap, || {
                qdepthwise_conv2d_into(
                    &qx, n, &qw, bt.as_ref().map(|t| t.as_slice()), geom,
                    Epilogue::None, x_scale, h, w, &mut got,
                );
            });
            prop_assert_eq!(
                bits(&got), bits(&want),
                "int8 depthwise vs reference, cap {} geom {:?}", cap, geom
            );
        }
    }

    /// narrow0 then stack0 reconstructs the tensor.
    #[test]
    fn narrow_stack_roundtrip(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let t = tensor(&[rows, cols], seed);
        let parts: Vec<Tensor> = (0..rows)
            .map(|i| t.narrow0(i, 1).into_reshape([cols]))
            .collect();
        prop_assert_eq!(Tensor::stack0(&parts), t);
    }
}
