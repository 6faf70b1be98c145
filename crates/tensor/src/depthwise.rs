//! Depthwise convolution forward microkernels: f32 AVX2 row-strip kernels
//! and the int8 quantized depthwise kernel.
//!
//! Depthwise convolution has no GEMM reduction to amortize packing over —
//! each output channel reads one input channel through a tiny `kh x kw`
//! stencil — so the implicit-GEMM machinery in
//! [`crate::gemm`](mod@crate::gemm) never pays for itself here. Instead this
//! module vectorizes along the output *row*: eight output columns per AVX2
//! register, with every kernel tap broadcast once per (channel, row-strip)
//! call.
//!
//! ## Bitwise contract
//!
//! The f32 vector path accumulates taps in exactly the scalar reference
//! order — `bias` first, then `(ki, kj)` row-major with out-of-bounds rows
//! skipped — using separate multiply and add (never FMA, which the scalar
//! path would not contract). Eight lanes are eight independent output
//! columns, so the SIMD kernel is **bitwise identical** to the scalar
//! reference, and both are invariant to thread width and to how callers
//! split rows into strips (the strip API recomputes each output row from
//! its input window; nothing carries across rows).
//!
//! The quantized path accumulates `u8 x i8` products in exact i32 integer
//! arithmetic with out-of-bounds taps substituted by [`Q_ZERO`] (the
//! quantized value of a padding zero), corrected by the exact zero-point
//! term `Q_ZERO * kersum`, then written through the int8 GEMM's epilogue
//! ([`QOut`]): dequantize, activation and, for a u8 output, requantize —
//! the same f32 expressions scalar and SIMD, so it is bitwise invariant
//! across schedules, widths, and strip splits like [`crate::qgemm`].
//!
//! ## Selection
//!
//! Fixed-size fast paths exist for the geometries tiny inverted-residual
//! models actually use — 3x3 and 5x5 at stride 1 and 2 — and run wherever
//! the host has AVX2; other geometries and hosts run the scalar loops. The
//! int8 kernel additionally needs one 8-wide group of interior columns: on
//! a narrower plane every column is a border column, and the scalar loop,
//! which accumulates eight columns at a time and runs the vector epilogue
//! on each full chunk, is faster. Every choice gives the same bits. The
//! 1x1, stride-1, unpadded kernel that NetBooster's expansion inserts runs
//! one `bias + x * k` pass: the scalar reference's expression for one tap.

use crate::eltwise::Epilogue;
use crate::qgemm::{Dequant, QOut, QNR, QW_MAX, Q_ZERO};
use crate::simd::have_avx2;
use crate::threadpool::{self, SharedMut};
use crate::ConvGeometry;

/// Scalar reference: output columns `[j0, j1)` of absolute output row `oi`
/// for one channel. `plane` holds input rows `[h0, h0 + plane.len()/w)` of
/// the logical `[h, w]` channel plane (`h0 = 0` for a full plane; fused
/// strip execution passes partial windows). Taps run `(ki, kj)` row-major
/// from a `bv` (bias) accumulator, skipping out-of-bounds taps — this
/// ordering is the bit contract every other path in the module reproduces.
#[allow(clippy::too_many_arguments)]
fn dw_cols_scalar(
    plane: &[f32],
    h0: usize,
    h: usize,
    w: usize,
    ker: &[f32],
    geom: ConvGeometry,
    bv: f32,
    oi: usize,
    j0: usize,
    j1: usize,
    out_row: &mut [f32],
) {
    for (oj, o) in out_row.iter_mut().enumerate().take(j1).skip(j0) {
        let mut acc = bv;
        for ki in 0..geom.kh {
            let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
            if ii < 0 || ii >= h as isize {
                continue;
            }
            let row = &plane[(ii as usize - h0) * w..(ii as usize - h0 + 1) * w];
            for kj in 0..geom.kw {
                let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                if jj < 0 || jj >= w as isize {
                    continue;
                }
                acc += row[jj as usize] * ker[ki * geom.kw + kj];
            }
        }
        *o = acc;
    }
}

/// First output column whose taps are all horizontally in bounds.
pub(crate) fn interior_lo(pw: usize, sw: usize, wo: usize) -> usize {
    pw.div_ceil(sw).min(wo)
}

/// One past the last output column whose taps are all horizontally in
/// bounds (clamped to `[lo, wo]`).
pub(crate) fn interior_hi(
    w: usize,
    pw: usize,
    kw: usize,
    sw: usize,
    wo: usize,
    lo: usize,
) -> usize {
    let hi = if w + pw >= kw {
        (w + pw - kw) / sw + 1
    } else {
        0
    };
    hi.min(wo).max(lo)
}

/// True when the 8-wide vector group at output column `oj` fits: all eight
/// columns are interior (below `int_hi`), and for stride 2, which reads 16
/// consecutive elements per tap (even lanes kept), the last load stays in
/// the input row: last touched index `oj*2 + kw - 1 - pw + 15 <= w - 1`.
/// Monotone in `oj`, so false at the first interior column means no group
/// fits in the row.
#[inline(always)]
fn vec_group_fits(oj: usize, int_hi: usize, sw: usize, kw: usize, w: usize, pw: usize) -> bool {
    oj + 8 <= int_hi && (sw == 1 || oj * 2 + kw + 15 <= w + pw)
}

/// Computes f32 depthwise output rows `[o0, o1)` for one channel.
///
/// `plane` holds input rows `[h0, h0 + plane.len()/w)` of the logical
/// `[h, w]` channel plane; callers must supply every row the requested
/// output rows read (full planes pass `h0 = 0`). `out` is the
/// `(o1 - o0) * wo` destination. The AVX2 kernel runs where the host has
/// AVX2 and the geometry has one (3x3 / 5x5, stride 1 / 2), the scalar
/// reference elsewhere; the result is bitwise identical either way — see
/// the module docs. A 1x1, stride-1, unpadded kernel (the layer
/// NetBooster's expansion inserts) runs one `bias + x * k` pass over the
/// rows: that is the scalar reference's expression for a single tap.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn dw_channel_rows(
    plane: &[f32],
    h0: usize,
    h: usize,
    w: usize,
    ker: &[f32],
    bv: f32,
    geom: ConvGeometry,
    wo: usize,
    o0: usize,
    o1: usize,
    out: &mut [f32],
) {
    assert_eq!(
        ker.len(),
        geom.kh * geom.kw,
        "dw_channel_rows kernel length"
    );
    assert_eq!(out.len(), (o1 - o0) * wo, "dw_channel_rows output length");
    assert_eq!(plane.len() % w, 0, "dw_channel_rows plane length");
    if geom == ConvGeometry::pointwise() {
        // Output row oi reads input row oi, and wo == w.
        let k = ker[0];
        let rows = &plane[(o0 - h0) * w..(o1 - h0) * w];
        for (o, &xv) in out.iter_mut().zip(rows) {
            *o = bv + xv * k;
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    'simd: {
        if !have_avx2() {
            break 'simd;
        }
        let kernel = match (geom.kh, geom.kw, geom.sw) {
            (3, 3, 1) => x86::dw_rows_avx2::<3, 3, 1>,
            (3, 3, 2) => x86::dw_rows_avx2::<3, 3, 2>,
            (5, 5, 1) => x86::dw_rows_avx2::<5, 5, 1>,
            (5, 5, 2) => x86::dw_rows_avx2::<5, 5, 2>,
            _ => break 'simd,
        };
        // Safety: AVX2 presence checked at runtime just above.
        unsafe { kernel(plane, h0, h, w, ker, bv, geom, wo, o0, o1, out) };
        return;
    }
    for oi in o0..o1 {
        let out_row = &mut out[(oi - o0) * wo..(oi - o0 + 1) * wo];
        dw_cols_scalar(plane, h0, h, w, ker, geom, bv, oi, 0, wo, out_row);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use crate::qgemm::qx86::put_avx2;
    use crate::simd::x86::{load_f32x8, load_u8x16, load_u8x8, store_f32x8, store_i32x8};
    use std::arch::x86_64::*;

    /// Row-strip f32 depthwise kernel for a fixed `KH x KW` kernel and
    /// horizontal stride `SW` (1 or 2). Border columns (any horizontal tap
    /// out of bounds) fall back to the scalar reference; interior columns
    /// run eight at a time with each tap broadcast once. Accumulation is
    /// `mul` + `add` per tap in scalar order — never FMA — so lanes carry
    /// exactly the scalar bits.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dw_rows_avx2<const KH: usize, const KW: usize, const SW: usize>(
        plane: &[f32],
        h0: usize,
        h: usize,
        w: usize,
        ker: &[f32],
        bv: f32,
        geom: ConvGeometry,
        wo: usize,
        o0: usize,
        o1: usize,
        out: &mut [f32],
    ) {
        let (sh, ph, pw) = (geom.sh, geom.ph, geom.pw);
        let mut kv = [[_mm256_setzero_ps(); KW]; KH];
        for (ki, kr) in kv.iter_mut().enumerate() {
            for (kj, t) in kr.iter_mut().enumerate() {
                *t = _mm256_set1_ps(ker[ki * KW + kj]);
            }
        }
        let bvv = _mm256_set1_ps(bv);
        let int_lo = interior_lo(pw, SW, wo);
        let int_hi = interior_hi(w, pw, KW, SW, wo, int_lo);
        for oi in o0..o1 {
            let out_row = &mut out[(oi - o0) * wo..(oi - o0 + 1) * wo];
            dw_cols_scalar(plane, h0, h, w, ker, geom, bv, oi, 0, int_lo, out_row);
            let mut oj = int_lo;
            while vec_group_fits(oj, int_hi, SW, KW, w, pw) {
                let mut acc = bvv;
                for (ki, kr) in kv.iter().enumerate() {
                    let ii = (oi * sh + ki) as isize - ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    let row = &plane[(ii as usize - h0) * w..(ii as usize - h0 + 1) * w];
                    for (kj, &kt) in kr.iter().enumerate() {
                        let base = oj * SW + kj - pw;
                        let xv = if SW == 1 {
                            load_f32x8(row, base)
                        } else {
                            // Even-lane deinterleave of 16 consecutive
                            // floats: [x0,x2,..,x14] for stride 2.
                            let a = load_f32x8(row, base);
                            let b = load_f32x8(row, base + 8);
                            let s = _mm256_shuffle_ps(a, b, 0b10_00_10_00);
                            _mm256_permutevar8x32_ps(s, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7))
                        };
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, kt));
                    }
                }
                store_f32x8(out_row, oj, acc);
                oj += 8;
            }
            dw_cols_scalar(plane, h0, h, w, ker, geom, bv, oi, oj, wo, out_row);
        }
    }

    /// Quantized twin of [`dw_rows_avx2`]: `u8 x i8` taps accumulated in
    /// exact i32 lanes, each group of eight written through the AVX2
    /// epilogue. Out-of-bounds kernel *rows* contribute `Q_ZERO * rowsum`
    /// to the accumulator init (integer-exact equivalent of per-tap
    /// substitution); horizontal out-of-bounds never occurs for interior
    /// columns. Border columns run the scalar loop [`qdw_cols`].
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn qdw_rows_avx2<const KH: usize, const KW: usize, const SW: usize>(
        qplane: &[u8],
        h0: usize,
        h: usize,
        w: usize,
        qk: &[i8],
        geom: ConvGeometry,
        wo: usize,
        o0: usize,
        o1: usize,
        e: &Dequant,
        out: &mut QOut,
    ) {
        let (sh, ph, pw) = (geom.sh, geom.ph, geom.pw);
        let mut kv = [[_mm256_setzero_si256(); KW]; KH];
        let mut rowsums = [0i32; KH];
        for (ki, (kr, rs)) in kv.iter_mut().zip(&mut rowsums).enumerate() {
            for (kj, t) in kr.iter_mut().enumerate() {
                let q = qk[ki * KW + kj] as i32;
                *t = _mm256_set1_epi32(q);
                *rs += q;
            }
        }
        let even = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1);
        let int_lo = interior_lo(pw, SW, wo);
        let int_hi = interior_hi(w, pw, KW, SW, wo, int_lo);
        for oi in o0..o1 {
            let at = (oi - o0) * wo;
            qdw_cols(qplane, h0, h, w, qk, geom, oi, 0, int_lo, e, out, at, true);
            // Taps in out-of-bounds kernel rows all read Q_ZERO; fold them
            // into the accumulator start (exact: integer addition commutes).
            let mut oob = 0i32;
            for (ki, &rs) in rowsums.iter().enumerate() {
                let ii = (oi * sh + ki) as isize - ph as isize;
                if ii < 0 || ii >= h as isize {
                    oob += Q_ZERO as i32 * rs;
                }
            }
            let init = _mm256_set1_epi32(oob);
            let mut oj = int_lo;
            while vec_group_fits(oj, int_hi, SW, KW, w, pw) {
                let mut acc = init;
                for (ki, kr) in kv.iter().enumerate() {
                    let ii = (oi * sh + ki) as isize - ph as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    let row = &qplane[(ii as usize - h0) * w..(ii as usize - h0 + 1) * w];
                    for (kj, &kt) in kr.iter().enumerate() {
                        let base_j = oj * SW + kj - pw;
                        let xv = if SW == 1 {
                            let lo = load_u8x8(row, base_j);
                            _mm256_cvtepu8_epi32(lo)
                        } else {
                            let v = load_u8x16(row, base_j);
                            _mm256_cvtepu8_epi32(_mm_shuffle_epi8(v, even))
                        };
                        acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(xv, kt));
                    }
                }
                let mut lanes = [0i32; QNR];
                store_i32x8(&mut lanes, 0, acc);
                put_avx2(out, at + oj, &lanes, e.corr, e.scale, e.base, e.act, e.inv);
                oj += 8;
            }
            qdw_cols(qplane, h0, h, w, qk, geom, oi, oj, wo, e, out, at, true);
        }
    }
}

/// The int8 scalar loop: output columns `[j0, j1)` of absolute output row
/// `oi`, written through the epilogue `e` to elements `[at + j0, at + j1)`
/// of `out`. Every `kh * kw` tap is accumulated — with [`Q_ZERO`]
/// substituted for out-of-bounds taps, since padding quantizes real zeros
/// to the zero point — making the correction `Q_ZERO * kersum` exact.
/// Columns accumulate in chunks of eight, so with `avx2` each full chunk
/// runs the vector epilogue: on narrow planes every column comes through
/// here, and a per-element epilogue would dominate.
///
/// # Safety
///
/// `avx2` may be true only on a host with AVX2.
// Inlined into `qdw_channel_rows`, whose narrow-plane loop runs every
// column through it: called once per row, its operands would spill around
// every chunk. The AVX2 kernels call it out of line for their border
// columns.
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn qdw_cols(
    qplane: &[u8],
    h0: usize,
    h: usize,
    w: usize,
    qk: &[i8],
    geom: ConvGeometry,
    oi: usize,
    j0: usize,
    j1: usize,
    e: &Dequant,
    out: &mut QOut,
    at: usize,
    avx2: bool,
) {
    let mut acc = [0i32; QNR];
    let mut js = j0;
    while js < j1 {
        let je = (js + QNR).min(j1);
        for (oj, a) in (js..je).zip(&mut acc) {
            // A local sum stays in a register; `*a` would be a memory
            // read-modify-write per tap.
            let mut sum = 0i32;
            for ki in 0..geom.kh {
                let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                let row = if ii < 0 || ii >= h as isize {
                    None
                } else {
                    Some(&qplane[(ii as usize - h0) * w..(ii as usize - h0 + 1) * w])
                };
                for kj in 0..geom.kw {
                    let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                    let qx = match row {
                        Some(r) if jj >= 0 && jj < w as isize => r[jj as usize] as i32,
                        _ => Q_ZERO as i32,
                    };
                    sum += qx * qk[ki * geom.kw + kj] as i32;
                }
            }
            *a = sum;
        }
        out.put(at + js, &acc[..je - js], e, avx2);
        js = je;
    }
}

/// Computes quantized depthwise output rows `[o0, o1)` for one channel —
/// the int8 twin of [`dw_channel_rows`], with the same strip/window
/// contract over a u8 input plane.
///
/// `qk` is the channel's quantized `[kh * kw]` filter, `kersum` the sum of
/// all its taps (for the exact zero-point correction), `scale` the combined
/// dequantization factor `weight_scale * x_scale`, `base` the channel bias
/// and `act` the activation. `out` takes f32 rows, or u8 rows requantized
/// at an output scale: the bytes [`crate::qgemm::quantize_activations`]
/// gives the f32 rows, without the f32 intermediate (the fused
/// inverted-residual executor hands them straight to the int8 project
/// GEMM). Bitwise identical for every kernel choice, thread width, and
/// strip split — the accumulation is exact integer arithmetic.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the geometry.
#[allow(clippy::too_many_arguments)]
pub fn qdw_channel_rows(
    qplane: &[u8],
    h0: usize,
    h: usize,
    w: usize,
    qk: &[i8],
    kersum: i32,
    scale: f32,
    base: f32,
    act: Epilogue,
    geom: ConvGeometry,
    wo: usize,
    o0: usize,
    o1: usize,
    mut out: QOut,
) {
    assert_eq!(
        qk.len(),
        geom.kh * geom.kw,
        "qdw_channel_rows kernel length"
    );
    assert_eq!(out.len(), (o1 - o0) * wo, "qdw_channel_rows output length");
    assert_eq!(qplane.len() % w, 0, "qdw_channel_rows plane length");
    let e = Dequant {
        corr: Q_ZERO as i32 * kersum,
        scale,
        base,
        act,
        inv: out.inv(),
    };
    let avx2 = have_avx2();
    #[cfg(target_arch = "x86_64")]
    'simd: {
        // The vector kernel pays only when one group of eight interior
        // columns fits. On a narrower plane every column is a border column,
        // and the scalar loop below, which runs the vector epilogue on each
        // full chunk, is faster.
        let int_lo = interior_lo(geom.pw, geom.sw, wo);
        let int_hi = interior_hi(w, geom.pw, geom.kw, geom.sw, wo, int_lo);
        if !vec_group_fits(int_lo, int_hi, geom.sw, geom.kw, w, geom.pw) || !avx2 {
            break 'simd;
        }
        let kernel = match (geom.kh, geom.kw, geom.sw) {
            (3, 3, 1) => x86::qdw_rows_avx2::<3, 3, 1>,
            (3, 3, 2) => x86::qdw_rows_avx2::<3, 3, 2>,
            (5, 5, 1) => x86::qdw_rows_avx2::<5, 5, 1>,
            (5, 5, 2) => x86::qdw_rows_avx2::<5, 5, 2>,
            _ => break 'simd,
        };
        // Safety: AVX2 presence checked at runtime just above.
        unsafe { kernel(qplane, h0, h, w, qk, geom, wo, o0, o1, &e, &mut out) };
        return;
    }
    for oi in o0..o1 {
        let at = (oi - o0) * wo;
        // Safety: `avx2` is the host's answer.
        unsafe {
            qdw_cols(
                qplane, h0, h, w, qk, geom, oi, 0, wo, &e, &mut out, at, avx2,
            )
        };
    }
}

/// A depthwise filter bank quantized per channel and ready for the i8
/// kernel: the depthwise twin of [`crate::qgemm::QPackedW`].
///
/// Each channel's `[kh * kw]` filter is quantized symmetrically to 7 bits
/// (`±QW_MAX`, the same headroom contract the dense path uses), with a
/// per-channel scale and the tap sum for the exact zero-point correction.
/// The stencil is so small that no sliver packing pays off; taps stay
/// row-major.
pub struct QDepthwiseW {
    q: Vec<i8>,
    scales: Vec<f32>,
    kersums: Vec<i32>,
    c: usize,
    kh: usize,
    kw: usize,
}

impl QDepthwiseW {
    /// Quantizes a `[c, kh, kw]` depthwise weight tensor (flat).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != c * kh * kw`.
    pub fn pack(w: &[f32], c: usize, kh: usize, kw: usize) -> Self {
        assert_eq!(w.len(), c * kh * kw, "QDepthwiseW operand length");
        let taps = kh * kw;
        let mut q = vec![0i8; c * taps];
        let mut scales = vec![1.0f32; c];
        let mut kersums = vec![0i32; c];
        for ci in 0..c {
            let filt = &w[ci * taps..(ci + 1) * taps];
            let amax = crate::qgemm::max_abs(filt);
            let scale = if amax > 0.0 {
                amax / QW_MAX as f32
            } else {
                1.0
            };
            scales[ci] = scale;
            let mut sum = 0i32;
            for (p, &v) in filt.iter().enumerate() {
                let qv = ((v / scale).round() as i32).clamp(-QW_MAX, QW_MAX);
                sum += qv;
                q[ci * taps + p] = qv as i8;
            }
            kersums[ci] = sum;
        }
        QDepthwiseW {
            q,
            scales,
            kersums,
            c,
            kh,
            kw,
        }
    }

    /// Channel count.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Per-channel dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Channel `ci`'s quantized `[kh * kw]` filter.
    pub fn filter(&self, ci: usize) -> &[i8] {
        let taps = self.kh * self.kw;
        &self.q[ci * taps..(ci + 1) * taps]
    }

    /// Channel `ci`'s tap sum (zero-point correction term).
    pub fn kersum(&self, ci: usize) -> i32 {
        self.kersums[ci]
    }

    /// Heap bytes held: i8 taps plus the f32 scale and i32 kersum tables —
    /// what plan `packed_bytes` charges for a quantized depthwise layer's
    /// taps.
    pub fn bytes(&self) -> usize {
        self.q.len() + (self.scales.len() + self.kersums.len()) * 4
    }
}

/// Quantized depthwise convolution over a pre-quantized u8 batch
/// `[n, c, h, w]`, writing dequantized f32 into `out` `[n, c, ho, wo]` with
/// the (possibly identity) activation applied in the epilogue.
///
/// `x_scale` is the activation quantization scale the caller used to
/// produce `qx`. Samples run in parallel on the worker pool; outputs are
/// sample-owned, so results are bitwise invariant to thread width.
///
/// # Panics
///
/// Panics on length mismatches between `qx`, `qw`, `bias`, `geom`, `out`.
#[allow(clippy::too_many_arguments)]
pub fn qdepthwise_conv2d_into(
    qx: &[u8],
    n: usize,
    qw: &QDepthwiseW,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
    act: Epilogue,
    x_scale: f32,
    h: usize,
    w: usize,
    out: &mut [f32],
) {
    let c = qw.c();
    assert_eq!(
        (qw.kh(), qw.kw()),
        (geom.kh, geom.kw),
        "qdepthwise kernel vs geometry"
    );
    assert_eq!(qx.len(), n * c * h * w, "qdepthwise input length");
    let (ho, wo) = geom.output_hw(h, w);
    assert_eq!(out.len(), n * c * ho * wo, "qdepthwise output length");
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "qdepthwise bias length");
    }
    if out.is_empty() {
        return;
    }
    let in_sz = c * h * w;
    let out_sz = c * ho * wo;
    let scales = qw.scales();
    let shared_out = SharedMut::new(out);
    threadpool::parallel_for(n, &|ni| {
        // Safety: each task writes only its own sample's output window.
        let o_sample = unsafe { shared_out.slice(ni * out_sz, out_sz) };
        let x_s = &qx[ni * in_sz..(ni + 1) * in_sz];
        for ci in 0..c {
            let qplane = &x_s[ci * h * w..(ci + 1) * h * w];
            let o_plane = &mut o_sample[ci * ho * wo..(ci + 1) * ho * wo];
            let base = bias.map(|b| b[ci]).unwrap_or(0.0);
            qdw_channel_rows(
                qplane,
                0,
                h,
                w,
                qw.filter(ci),
                qw.kersum(ci),
                scales[ci] * x_scale,
                base,
                act,
                geom,
                wo,
                0,
                ho,
                QOut::F32(o_plane),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, salt: u64) -> Vec<f32> {
        let mut state = salt | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn edge_geoms() -> Vec<ConvGeometry> {
        vec![
            ConvGeometry::same(3, 1),
            ConvGeometry::same(3, 2),
            ConvGeometry::same(5, 1),
            ConvGeometry::same(5, 2),
            ConvGeometry::square(3, 1, 0),
            ConvGeometry::square(3, 2, 2),
            ConvGeometry::square(1, 1, 0),
            ConvGeometry::square(2, 2, 1),
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn f32_simd_matches_scalar_bitwise() {
        for geom in edge_geoms() {
            for &(h, w) in &[
                (1usize, 1usize),
                (2, 9),
                (7, 8),
                (9, 16),
                // Exactly one f32 past the row for a 3x3 s2 p1 second load if
                // the stride-2 guard is off by one (regression: OOB read).
                (9, 18),
                (16, 7),
                (17, 33),
            ] {
                if h + 2 * geom.ph < geom.kh || w + 2 * geom.pw < geom.kw {
                    continue;
                }
                let (ho, wo) = geom.output_hw(h, w);
                let plane = fill(h * w, 0x1234);
                let ker = fill(geom.kh * geom.kw, 0x5678);
                let mut want = vec![0.0f32; ho * wo];
                for (oi, row) in want.chunks_mut(wo).enumerate() {
                    dw_cols_scalar(&plane, 0, h, w, &ker, geom, 0.25, oi, 0, wo, row);
                }
                let mut got = vec![0.0f32; ho * wo];
                dw_channel_rows(&plane, 0, h, w, &ker, 0.25, geom, wo, 0, ho, &mut got);
                assert_eq!(bits(&got), bits(&want), "f32 dw geom {geom:?} h{h} w{w}");
            }
        }
    }

    #[test]
    fn f32_1x1_loop_matches_scalar_reference_bitwise() {
        let geom = ConvGeometry::pointwise();
        for &(h, w) in &[(1usize, 1usize), (3, 5), (7, 8), (16, 16)] {
            let plane = fill(h * w, 0x11);
            let ker = [fill(1, 0x22)[0]];
            for bv in [0.0f32, -0.375] {
                let mut want = vec![0.0f32; h * w];
                for oi in 0..h {
                    let row = &mut want[oi * w..(oi + 1) * w];
                    dw_cols_scalar(&plane, 0, h, w, &ker, geom, bv, oi, 0, w, row);
                }
                // the full plane, and one strip of rows [1, h) read from a
                // window that starts at row 1
                let mut got = vec![0.0f32; h * w];
                dw_channel_rows(&plane, 0, h, w, &ker, bv, geom, w, 0, h, &mut got);
                let mut strip = vec![0.0f32; (h - 1) * w];
                dw_channel_rows(&plane[w..], 1, h, w, &ker, bv, geom, w, 1, h, &mut strip);
                assert_eq!(bits(&got), bits(&want), "1x1 h{h} w{w} bias {bv}");
                assert_eq!(
                    bits(&strip),
                    bits(&want[w..]),
                    "1x1 strip h{h} w{w} bias {bv}"
                );
            }
        }
    }

    #[test]
    fn f32_strips_match_full_plane() {
        let geom = ConvGeometry::same(3, 2);
        let (h, w) = (13, 11);
        let (ho, wo) = geom.output_hw(h, w);
        let plane = fill(h * w, 0xabc);
        let ker = fill(9, 0xdef);
        let mut full = vec![0.0f32; ho * wo];
        dw_channel_rows(&plane, 0, h, w, &ker, -0.5, geom, wo, 0, ho, &mut full);
        for strip in [1usize, 2, 3, ho] {
            let mut out = vec![0.0f32; ho * wo];
            let mut o0 = 0;
            while o0 < ho {
                let o1 = (o0 + strip).min(ho);
                // Pass only the input-row window this strip reads.
                let r0 = (o0 * geom.sh).saturating_sub(geom.ph);
                let r1 = (((o1 - 1) * geom.sh + geom.kh).saturating_sub(geom.ph)).min(h);
                let window = &plane[r0 * w..r1 * w];
                dw_channel_rows(
                    window,
                    r0,
                    h,
                    w,
                    &ker,
                    -0.5,
                    geom,
                    wo,
                    o0,
                    o1,
                    &mut out[o0 * wo..o1 * wo],
                );
                o0 = o1;
            }
            assert_eq!(
                bits(&full),
                bits(&out),
                "strip {strip} diverges from full plane"
            );
        }
    }

    #[test]
    fn quant_pack_properties() {
        let w = fill(4 * 9, 0x77);
        let qw = QDepthwiseW::pack(&w, 4, 3, 3);
        assert_eq!((qw.c(), qw.kh(), qw.kw()), (4, 3, 3));
        for ci in 0..4 {
            let filt = &w[ci * 9..(ci + 1) * 9];
            let amax = crate::qgemm::max_abs(filt);
            let qf = qw.filter(ci);
            let mut sum = 0i32;
            for (&qv, &v) in qf.iter().zip(filt) {
                assert!(qv >= -(QW_MAX as i8) && qv <= QW_MAX as i8);
                // Quantization error bounded by half a step.
                let back = qv as f32 * qw.scales()[ci];
                assert!((back - v).abs() <= qw.scales()[ci] * 0.5 + 1e-6);
                sum += qv as i32;
            }
            assert_eq!(sum, qw.kersum(ci), "kersum");
            assert!((qw.scales()[ci] - amax / QW_MAX as f32).abs() < 1e-7);
        }
        // A dead (all-zero) filter gets scale 1.0 and zero taps.
        let qz = QDepthwiseW::pack(&[0.0; 9], 1, 3, 3);
        assert_eq!(qz.scales()[0], 1.0);
        assert!(qz.filter(0).iter().all(|&q| q == 0));
        assert_eq!(qz.bytes(), 9 + 8);
    }

    /// Pure-integer reference: substitutes Q_ZERO for every out-of-bounds
    /// tap and dequantizes at the end, mirroring the kernel contract.
    #[allow(clippy::too_many_arguments)]
    fn qdw_ref(
        qplane: &[u8],
        h: usize,
        w: usize,
        qk: &[i8],
        kersum: i32,
        scale: f32,
        base: f32,
        geom: ConvGeometry,
    ) -> Vec<f32> {
        let (ho, wo) = geom.output_hw(h, w);
        let mut out = vec![0.0f32; ho * wo];
        for oi in 0..ho {
            for oj in 0..wo {
                let mut acc = 0i64;
                for ki in 0..geom.kh {
                    for kj in 0..geom.kw {
                        let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                        let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                        let qx = if ii < 0 || ii >= h as isize || jj < 0 || jj >= w as isize {
                            Q_ZERO as i64
                        } else {
                            qplane[ii as usize * w + jj as usize] as i64
                        };
                        acc += qx * qk[ki * geom.kw + kj] as i64;
                    }
                }
                let corrected = acc - Q_ZERO as i64 * kersum as i64;
                out[oi * wo + oj] = corrected as i32 as f32 * scale + base;
            }
        }
        out
    }

    /// The int8 grid: the edge geometries plus a 9x9 kernel at both
    /// strides (no vector kernel), over planes from narrower than one
    /// 8-wide vector group to several groups wide.
    fn quant_cases() -> Vec<(ConvGeometry, usize, usize)> {
        let mut geoms = edge_geoms();
        geoms.extend([ConvGeometry::same(9, 1), ConvGeometry::same(9, 2)]);
        let planes = [
            (1usize, 1usize),
            (3, 7),
            (8, 8),
            (9, 17),
            (9, 18),
            (16, 5),
            (12, 19),
            (7, 24),
            (17, 33),
        ];
        geoms
            .into_iter()
            .flat_map(|g| planes.iter().map(move |&(h, w)| (g, h, w)))
            .filter(|&(g, h, w)| h + 2 * g.ph >= g.kh && w + 2 * g.pw >= g.kw)
            .collect()
    }

    /// One quantized channel for [`quant_cases`]: the u8 plane, the packed
    /// filter and the combined dequantization scale.
    fn quant_channel(geom: ConvGeometry, h: usize, w: usize) -> (Vec<u8>, QDepthwiseW, f32) {
        let x = fill(h * w, 0x9a);
        let wf = fill(geom.kh * geom.kw, 0xbc);
        let qw = QDepthwiseW::pack(&wf, 1, geom.kh, geom.kw);
        let x_scale = crate::qgemm::activation_scale(crate::qgemm::max_abs(&x));
        let mut qx = vec![0u8; x.len()];
        crate::qgemm::quantize_activations(&x, x_scale, &mut qx);
        let cs = qw.scales()[0] * x_scale;
        (qx, qw, cs)
    }

    const ACTS: [Epilogue; 3] = [
        Epilogue::None,
        Epilogue::Relu { alpha: 0.0 },
        Epilogue::Relu6 { alpha: 0.25 },
    ];

    /// The int8 scalar loop alone over a whole plane of channel 0, with the
    /// scalar epilogue, or with the vector one on full chunks (`avx2`).
    #[allow(clippy::too_many_arguments)]
    fn scalar_loop(
        qx: &[u8],
        h: usize,
        w: usize,
        qw: &QDepthwiseW,
        cs: f32,
        act: Epilogue,
        geom: ConvGeometry,
        mut out: QOut,
        avx2: bool,
    ) {
        let (ho, wo) = geom.output_hw(h, w);
        let e = Dequant {
            corr: Q_ZERO as i32 * qw.kersum(0),
            scale: cs,
            base: 0.125,
            act,
            inv: out.inv(),
        };
        let qk = qw.filter(0);
        for oi in 0..ho {
            // Safety: callers pass `avx2` true only where the host has AVX2.
            unsafe {
                qdw_cols(
                    qx,
                    0,
                    h,
                    w,
                    qk,
                    geom,
                    oi,
                    0,
                    wo,
                    &e,
                    &mut out,
                    oi * wo,
                    avx2,
                )
            };
        }
    }

    #[test]
    fn quant_kernel_matches_integer_reference_and_simd_scalar_bitwise() {
        // The f32 output, from the dispatched kernel and from the scalar
        // loop alone, equals the integer reference followed by `act.apply`.
        for (geom, h, w) in quant_cases() {
            let (ho, wo) = geom.output_hw(h, w);
            let (qx, qw, cs) = quant_channel(geom, h, w);
            let (qk, ks) = (qw.filter(0), qw.kersum(0));
            for act in ACTS {
                let mut want = qdw_ref(&qx, h, w, qk, ks, cs, 0.125, geom);
                act.apply(&mut want);
                let case = format!("geom {geom:?} h{h} w{w} act {act:?}");
                let mut got = vec![0.0f32; ho * wo];
                let out = QOut::F32(&mut got);
                qdw_channel_rows(&qx, 0, h, w, qk, ks, cs, 0.125, act, geom, wo, 0, ho, out);
                assert_eq!(bits(&got), bits(&want), "kernel vs reference, {case}");
                for avx2 in [false, have_avx2()] {
                    let mut scalar = vec![0.0f32; ho * wo];
                    let out = QOut::F32(&mut scalar);
                    scalar_loop(&qx, h, w, &qw, cs, act, geom, out, avx2);
                    let what = format!("scalar loop (avx2 {avx2}) vs reference, {case}");
                    assert_eq!(bits(&scalar), bits(&want), "{what}");
                }
            }
        }
    }

    #[test]
    fn requant_kernel_matches_separate_passes_bitwise() {
        // The fused-executor contract: the u8 output's bytes, from the
        // dispatched kernel and from the scalar loop alone, equal the f32
        // output, then `act.apply`, then `quantize_activations`.
        let out_scale = 0.013;
        for (geom, h, w) in quant_cases() {
            let (ho, wo) = geom.output_hw(h, w);
            let (qx, qw, cs) = quant_channel(geom, h, w);
            let (qk, ks) = (qw.filter(0), qw.kersum(0));
            let f = qdw_ref(&qx, h, w, qk, ks, cs, 0.125, geom);
            for act in ACTS {
                let mut y = f.clone();
                act.apply(&mut y);
                let mut want = vec![0u8; ho * wo];
                crate::qgemm::quantize_activations(&y, out_scale, &mut want);
                let case = format!("geom {geom:?} h{h} w{w} act {act:?}");
                let mut got = vec![0u8; ho * wo];
                let out = QOut::U8(&mut got, out_scale);
                qdw_channel_rows(&qx, 0, h, w, qk, ks, cs, 0.125, act, geom, wo, 0, ho, out);
                assert_eq!(want, got, "requant bytes diverge, {case}");
                for avx2 in [false, have_avx2()] {
                    let mut scalar = vec![0u8; ho * wo];
                    let out = QOut::U8(&mut scalar, out_scale);
                    scalar_loop(&qx, h, w, &qw, cs, act, geom, out, avx2);
                    assert_eq!(want, scalar, "scalar loop (avx2 {avx2}) bytes, {case}");
                }
            }
        }
    }

    #[test]
    fn quant_entry_dequantizes_close_to_f32() {
        // End-to-end: quantized depthwise should approximate the f32 kernel
        // within the combined quantization step.
        let (n, c, h, w) = (2usize, 3usize, 8usize, 8usize);
        let geom = ConvGeometry::same(3, 1);
        let (ho, wo) = geom.output_hw(h, w);
        let x = fill(n * c * h * w, 0x11);
        let wf = fill(c * 9, 0x22);
        let bias = fill(c, 0x33);
        let qw = QDepthwiseW::pack(&wf, c, 3, 3);
        let x_scale = crate::qgemm::activation_scale(crate::qgemm::max_abs(&x));
        let mut qx = vec![0u8; x.len()];
        crate::qgemm::quantize_activations(&x, x_scale, &mut qx);
        let mut qout = vec![0.0f32; n * c * ho * wo];
        qdepthwise_conv2d_into(
            &qx,
            n,
            &qw,
            Some(&bias),
            geom,
            Epilogue::None,
            x_scale,
            h,
            w,
            &mut qout,
        );
        // f32 reference via the scalar path on the dequantized-rounded x.
        for ni in 0..n {
            for ci in 0..c {
                let plane = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                let ker = &wf[ci * 9..(ci + 1) * 9];
                let mut fref = vec![0.0f32; ho * wo];
                dw_channel_rows(plane, 0, h, w, ker, bias[ci], geom, wo, 0, ho, &mut fref);
                let qpl = &qout[(ni * c + ci) * ho * wo..(ni * c + ci + 1) * ho * wo];
                // 9 taps, each off by at most half an activation step times
                // the weight magnitude plus half a weight step times |x|.
                let tol = 9.0 * (x_scale * 0.5 + qw.scales()[ci] * 0.5) + 1e-4;
                for (a, b) in fref.iter().zip(qpl) {
                    assert!((a - b).abs() <= tol, "quant far from f32: {a} vs {b}");
                }
            }
        }
    }
}
