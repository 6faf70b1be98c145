//! Int8 quantized GEMM: the inference-only twin of
//! [`crate::gemm`](mod@crate::gemm).
//!
//! ## Number format
//!
//! - **Weights** are quantized per output channel (per GEMM row) to a
//!   *symmetric* 7-bit range: `qw = clamp(round(w / sw), -63, 63)` with
//!   `sw = max|w_row| / 63`. The ±63 bound (not ±127) is what makes the
//!   AVX2 kernel exact: `pmaddubsw` saturates its i16 pair-sums, and
//!   `255·63 + 255·63 = 32130 ≤ 32767` while 8-bit weights would overflow.
//! - **Activations** are quantized per tensor to u8 with a fixed zero point
//!   of [`Q_ZERO`] `= 128`: `qx = clamp(round(x / sx) + 128, 0, 255)` with
//!   `sx = max|x| / 127` calibrated offline. Conv padding quantizes real
//!   zeros, so the virtual im2col view pads with 128, not 0.
//!
//! The kernel accumulates `Σ qx·qw` in i32 — never overflowing, since
//! `|Σ| ≤ k·255·63` stays under 2³¹ for any `k` this crate meets — and the
//! epilogue removes the zero point exactly via the precomputed row sums:
//! `Σ (qx_true + 128)·qw = Σ qx_true·qw + 128·Σ qw`. Dequantization is then
//! one f32 multiply per element, `y = acc · (sw·sx) + bias`, followed by the
//! activation and, when the output is u8 ([`QOut::U8`]), the requantize
//! step. That epilogue has one scalar and one AVX2 implementation, shared
//! by the GEMM and the int8 depthwise stencil ([`crate::depthwise`]).
//!
//! ## Determinism
//!
//! One driver runs every entry point: the AVX2 tile kernel whenever the host
//! has AVX2 and the scalar kernel otherwise, column-split across the pool
//! where the f32 GEMM would row-split. Integer accumulation is exact under
//! any order, so *every* variant — scalar or AVX2, any blocking, any thread
//! width, any column split — emits identical bits. The quantized plan columns in nb-verify lean on this:
//! thread-width invariance and serve-vs-solo parity hold bitwise with no
//! tolerance machinery at all. The only approximation in the whole path is
//! the quantization itself, which the `+plan-quant` accuracy budget bounds.

use crate::eltwise::Epilogue;
use crate::gemm::parallel;
use crate::shape::ConvGeometry;
use crate::simd::have_avx2;
use crate::threadpool::{self, SharedMut};
use std::cell::Cell;

/// Rows per register tile (output channels per kernel call).
pub(crate) const QMR: usize = 4;
/// Columns per packed strip (one `ymm` of i32 lanes).
pub(crate) const QNR: usize = 8;
/// k values folded per `pmaddubsw`/`pmaddwd` pair.
const KQ: usize = 4;
/// Largest quantized weight magnitude; see the module docs for why not 127.
pub const QW_MAX: i32 = 63;
/// Activation zero point: u8 128 encodes real 0.0.
pub const Q_ZERO: u8 = 128;

/// Per-tensor activation scale for a calibrated max-abs range. A dead range
/// (all-zero calibration tensor) maps to scale 1.0 so dequant stays finite.
pub fn activation_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Largest absolute value in a buffer (0.0 for empty).
pub fn max_abs(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Quantizes a f32 buffer to u8 around [`Q_ZERO`]: the runtime half of the
/// activation format above.
///
/// Rounding is **ties-to-even** — the hardware default the AVX2 path's
/// `vcvtps2dq` uses — and the scalar tail matches it with
/// [`f32::round_ties_even`], so the quantized bytes are identical on every
/// CPU. Both saturate to the byte range in the float domain, before the
/// conversion, so a value of any size beyond the range quantizes to 0 or
/// 255.
pub fn quantize_activations(x: &[f32], scale: f32, out: &mut [u8]) {
    assert_eq!(x.len(), out.len(), "quantize_activations length");
    let inv = 1.0 / scale;
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        done = x.len() - x.len() % 32;
        if done > 0 {
            // Safety: AVX2 detected at runtime; `done` is a multiple of 32
            // within both slices.
            unsafe { qx86::quantize_avx2(&x[..done], inv, &mut out[..done]) };
        }
    }
    for (o, &v) in out[done..].iter_mut().zip(&x[done..]) {
        *o = requant(v, inv);
    }
}

/// The requantize step: `v · inv` saturated to `[-128, 127]` in the float
/// domain, rounded ties-to-even and shifted by [`Q_ZERO`]. Saturating before
/// the conversion keeps a huge value from overflowing the `i32`. The
/// rounding adds and subtracts [`ROUND_TIES_EVEN`], which gives
/// [`f32::round_ties_even`]'s result without the library call baseline
/// x86_64 lowers that to; NaN passes through both and converts to 0.
#[inline]
fn requant(v: f32, inv: f32) -> u8 {
    let y = (v * inv).clamp(-128.0, 127.0);
    (((y + ROUND_TIES_EVEN) - ROUND_TIES_EVEN) as i32 + Q_ZERO as i32) as u8
}

/// `1.5 · 2²³`: for `|y| <= 2²²`, `y + ROUND_TIES_EVEN` lands where the f32
/// spacing is 1, so the addition rounds `y` to an integer, ties to even,
/// and subtracting the constant back is exact.
const ROUND_TIES_EVEN: f32 = 12_582_912.0;

/// An int8 kernel's output: f32 values, or u8 values at an output scale.
/// Both take the dequantize → activation epilogue; u8 outputs then
/// requantize, giving the bytes [`quantize_activations`] gives the f32
/// values without the f32 round trip.
pub enum QOut<'a> {
    /// f32 values.
    F32(&'a mut [f32]),
    /// u8 values at the given output scale.
    U8(&'a mut [u8], f32),
}

impl QOut<'_> {
    /// Element count.
    pub(crate) fn len(&self) -> usize {
        match self {
            QOut::F32(o) => o.len(),
            QOut::U8(o, _) => o.len(),
        }
    }

    /// The requantize factor `1 / out_scale` (f32 outputs never read it).
    pub(crate) fn inv(&self) -> f32 {
        match self {
            QOut::F32(_) => 1.0,
            QOut::U8(_, scale) => 1.0 / scale,
        }
    }

    /// Writes `acc` through the epilogue `e` to elements
    /// `[i, i + acc.len())`: the AVX2 implementation for a full [`QNR`]
    /// group when `avx2` is set, the scalar one otherwise. Both give the
    /// same bits.
    ///
    /// # Safety
    ///
    /// `avx2` may be true only on a host with AVX2 ([`have_avx2`]). Callers
    /// detect it once per kernel call: a detection per group would cost
    /// more than the epilogue.
    #[inline]
    pub(crate) unsafe fn put(&mut self, i: usize, acc: &[i32], e: &Dequant, avx2: bool) {
        #[cfg(target_arch = "x86_64")]
        if avx2 && acc.len() == QNR {
            qx86::put_avx2(self, i, acc, e.corr, e.scale, e.base, e.act, e.inv);
            return;
        }
        let _ = avx2;
        let y = |a: i32| e.act.apply_one((a - e.corr) as f32 * e.scale + e.base);
        match self {
            QOut::F32(o) => {
                for (o, &a) in o[i..i + acc.len()].iter_mut().zip(acc) {
                    *o = y(a);
                }
            }
            QOut::U8(o, _) => {
                for (o, &a) in o[i..i + acc.len()].iter_mut().zip(acc) {
                    *o = requant(y(a), e.inv);
                }
            }
        }
    }
}

/// The int8 epilogue of one output row (or depthwise channel):
/// `y = act((acc - corr) · scale + base)`, then, for a u8 output, the
/// requantize step with `inv`.
#[derive(Clone, Copy)]
pub(crate) struct Dequant {
    /// The zero-point correction `Q_ZERO · Σ qw`.
    pub(crate) corr: i32,
    /// The combined scale `weight_scale · x_scale`.
    pub(crate) scale: f32,
    /// The bias.
    pub(crate) base: f32,
    /// The activation.
    pub(crate) act: Epilogue,
    /// The output's [`QOut::inv`].
    pub(crate) inv: f32,
}

/// A weight matrix quantized per row and prepacked for the i8 kernel.
///
/// Layout: rows are grouped into `QMR`-tall slivers, k into `KQ`-deep
/// quads; `sliv[((ir·kq + q)·QMR + r)·KQ + t]` holds `qw[ir·QMR + r][q·KQ + t]`,
/// zero-padded past `m` and `k`. Zero k-padding is load-bearing: padded
/// activation bytes multiply against weight 0, so the packed kernel is exact
/// for any `k`, and the per-row `rowsums` (over real k only) make the
/// zero-point correction exact too.
pub struct QPackedW {
    sliv: Vec<i8>,
    scales: Vec<f32>,
    rowsums: Vec<i32>,
    m: usize,
    k: usize,
}

impl QPackedW {
    /// Quantizes and packs the row-major `m x k` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != m * k`.
    pub fn pack(w: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(w.len(), m * k, "QPackedW operand length");
        let kq = k.div_ceil(KQ);
        let mb = m.div_ceil(QMR);
        let mut sliv = vec![0i8; mb * kq * QMR * KQ];
        let mut scales = vec![1.0f32; m];
        let mut rowsums = vec![0i32; m];
        for i in 0..m {
            let row = &w[i * k..(i + 1) * k];
            let amax = max_abs(row);
            let scale = if amax > 0.0 {
                amax / QW_MAX as f32
            } else {
                1.0
            };
            scales[i] = scale;
            let (ir, r) = (i / QMR, i % QMR);
            let base = ir * kq * QMR * KQ + r * KQ;
            let mut sum = 0i32;
            for (p, &v) in row.iter().enumerate() {
                let q = ((v / scale).round() as i32).clamp(-QW_MAX, QW_MAX);
                sum += q;
                sliv[base + (p / KQ) * QMR * KQ + (p % KQ)] = q as i8;
            }
            rowsums[i] = sum;
        }
        QPackedW {
            sliv,
            scales,
            rowsums,
            m,
            k,
        }
    }

    /// Logical row count (output channels).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Logical inner dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Heap bytes held: i8 panels plus the f32 scale and i32 rowsum tables.
    /// This is what plan `packed_bytes` (and therefore the nb-serve LRU
    /// charge) counts for a quantized layer's weights — roughly a quarter
    /// of the f32 [`crate::PackedA`] footprint.
    pub fn bytes(&self) -> usize {
        self.sliv.len() + (self.scales.len() + self.rowsums.len()) * 4
    }
}

/// A conv input viewed as its u8 im2col column matrix: the quantized twin of
/// the f32 `Im2colRef`, padding with [`Q_ZERO`] (quantized 0.0) instead of 0.
pub struct QIm2colRef<'a> {
    /// One quantized sample, `[c_in, h, w]` flat.
    pub x: &'a [u8],
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Conv geometry (kernel, stride, padding).
    pub geom: ConvGeometry,
    /// Output height.
    pub ho: usize,
    /// Output width.
    pub wo: usize,
}

impl QIm2colRef<'_> {
    /// Virtual row count: `c_in * kh * kw`.
    pub fn rows(&self) -> usize {
        self.c_in * self.geom.kh * self.geom.kw
    }

    /// Virtual column count: `ho * wo`.
    pub fn cols(&self) -> usize {
        self.ho * self.wo
    }

    /// Packs the [`QNR`]-wide strip at column `j0` into the kernel layout
    /// `dst[q·QNR·KQ + j·KQ + t] = B[q·KQ + t, j0 + j]`, padding columns past
    /// `width` and rows past `k` with [`Q_ZERO`].
    ///
    /// Structured as the f32 `Im2colRef::pack`: each virtual row is gathered
    /// into a fixed [`QNR`]-byte buffer (a single `copy_from_slice` for the
    /// common stride-1 interior case), then [`interleave_quad`] scatters four
    /// of them into the `[j][t]` order `pmaddubsw` wants — all over
    /// fixed-size arrays, so no per-byte bounds checks survive.
    fn pack_strip(&self, dst: &mut [u8], j0: usize, width: usize) {
        let (kh, kw) = (self.geom.kh, self.geom.kw);
        let (sh, sw) = (self.geom.sh, self.geom.sw);
        let (ph, pw) = (self.geom.ph, self.geom.pw);
        let (h, w, wo) = (self.h, self.w, self.wo);
        let k = self.rows();
        let (oi0, oj0) = (j0 / wo, j0 % wo);
        // All `width` columns share one output row iff the strip doesn't wrap.
        let single_row = oj0 + width <= wo;
        let (mut ci, mut ki, mut kj) = (0usize, 0usize, 0usize);
        let mut rows = [[Q_ZERO; QNR]; KQ];
        for (q, quad) in dst.chunks_exact_mut(QNR * KQ).enumerate() {
            for (t, row) in rows.iter_mut().enumerate() {
                if q * KQ + t >= k {
                    *row = [Q_ZERO; QNR];
                    continue;
                }
                if single_row {
                    let ii = (oi0 * sh + ki) as isize - ph as isize;
                    if ii < 0 || ii >= h as isize {
                        *row = [Q_ZERO; QNR];
                    } else {
                        let src_row =
                            &self.x[(ci * h + ii as usize) * w..(ci * h + ii as usize + 1) * w];
                        let jj0 = (oj0 * sw + kj) as isize - pw as isize;
                        if sw == 1 && jj0 >= 0 && jj0 as usize + width <= w {
                            if width == QNR {
                                *row = (&src_row[jj0 as usize..jj0 as usize + QNR])
                                    .try_into()
                                    .expect("QNR-wide source");
                            } else {
                                row[..width]
                                    .copy_from_slice(&src_row[jj0 as usize..jj0 as usize + width]);
                                row[width..].fill(Q_ZERO);
                            }
                        } else {
                            for (j, v) in row.iter_mut().enumerate() {
                                *v = if j < width {
                                    let jj = jj0 + (j * sw) as isize;
                                    if jj < 0 || jj >= w as isize {
                                        Q_ZERO
                                    } else {
                                        src_row[jj as usize]
                                    }
                                } else {
                                    Q_ZERO
                                };
                            }
                        }
                    }
                } else {
                    // Strip wraps across output rows: general gather.
                    let (mut oi, mut oj) = (oi0, oj0);
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = if j < width {
                            let ii = (oi * sh + ki) as isize - ph as isize;
                            let jj = (oj * sw + kj) as isize - pw as isize;
                            let val = if ii < 0 || ii >= h as isize || jj < 0 || jj >= w as isize {
                                Q_ZERO
                            } else {
                                self.x[(ci * h + ii as usize) * w + jj as usize]
                            };
                            oj += 1;
                            if oj == wo {
                                oj = 0;
                                oi += 1;
                            }
                            val
                        } else {
                            Q_ZERO
                        };
                    }
                }
                kj += 1;
                if kj == kw {
                    kj = 0;
                    ki += 1;
                    if ki == kh {
                        ki = 0;
                        ci += 1;
                    }
                }
            }
            interleave_quad(quad, &rows);
        }
    }
}

/// Scatters four gathered [`QNR`]-byte virtual rows into one packed quad in
/// the `[j][t]` interleave the kernel's 16-bit pair-sums require.
///
/// On x86_64 the 4x8 byte transpose is three levels of `punpck` (SSE2 is
/// baseline there — no runtime gate); elsewhere a fixed-size scalar scatter.
#[inline(always)]
fn interleave_quad(dst: &mut [u8], rows: &[[u8; QNR]; KQ]) {
    let d: &mut [u8; QNR * KQ] = dst.try_into().expect("quad-sized chunk");
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::*;
        // Safety: SSE2 is part of the x86_64 baseline; loads read 8 bytes
        // from [u8; 8] rows and stores write the 32-byte fixed-size quad.
        unsafe {
            let r0 = _mm_loadl_epi64(rows[0].as_ptr() as *const __m128i);
            let r1 = _mm_loadl_epi64(rows[1].as_ptr() as *const __m128i);
            let r2 = _mm_loadl_epi64(rows[2].as_ptr() as *const __m128i);
            let r3 = _mm_loadl_epi64(rows[3].as_ptr() as *const __m128i);
            let lo01 = _mm_unpacklo_epi8(r0, r1);
            let lo23 = _mm_unpacklo_epi8(r2, r3);
            _mm_storeu_si128(
                d.as_mut_ptr() as *mut __m128i,
                _mm_unpacklo_epi16(lo01, lo23),
            );
            _mm_storeu_si128(
                d.as_mut_ptr().add(16) as *mut __m128i,
                _mm_unpackhi_epi16(lo01, lo23),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for j in 0..QNR {
        for (t, row) in rows.iter().enumerate() {
            d[j * KQ + t] = row[j];
        }
    }
}

/// The right operand of the quantized kernel: a materialized u8 matrix
/// (stored `k x n` row-major, or transposed) or a virtual im2col view.
pub enum QBOperand<'a> {
    /// Materialized matrix. With `trans`, element `(p, j)` reads `b[j·k + p]`
    /// — how the linear path views a `[rows, k]` activation batch.
    Mat {
        /// Backing u8 buffer.
        b: &'a [u8],
        /// Whether the buffer is stored transposed (`n x k`).
        trans: bool,
    },
    /// Virtual im2col view of a quantized conv input.
    Im2col(&'a QIm2colRef<'a>),
}

impl QBOperand<'_> {
    fn pack_strip(&self, dst: &mut [u8], k: usize, n: usize, j0: usize, width: usize) {
        match self {
            QBOperand::Mat { b, trans: false } => {
                let mut rows = [[Q_ZERO; QNR]; KQ];
                for (q, quad) in dst.chunks_exact_mut(QNR * KQ).enumerate() {
                    for (t, row) in rows.iter_mut().enumerate() {
                        let p = q * KQ + t;
                        if p >= k {
                            *row = [Q_ZERO; QNR];
                        } else if width == QNR {
                            // Fixed-size view: one 8-byte move, no memmove
                            // call for a runtime length.
                            *row = (&b[p * n + j0..p * n + j0 + QNR])
                                .try_into()
                                .expect("QNR-wide source");
                        } else {
                            row[..width].copy_from_slice(&b[p * n + j0..p * n + j0 + width]);
                            row[width..].fill(Q_ZERO);
                        }
                    }
                    interleave_quad(quad, &rows);
                }
            }
            QBOperand::Mat { b, trans: true } => {
                // Transposed source: column `j` of the strip is the
                // contiguous row `b[(j0+j)·k ..]`, and the quad interleave
                // `[j][t]` makes each destination group a contiguous 4-byte
                // copy from it — no transpose needed at all.
                let kq = k.div_ceil(KQ);
                for j in 0..QNR {
                    if j >= width {
                        for q in 0..kq {
                            dst[q * QNR * KQ + j * KQ..q * QNR * KQ + (j + 1) * KQ].fill(Q_ZERO);
                        }
                        continue;
                    }
                    let src = &b[(j0 + j) * k..(j0 + j + 1) * k];
                    for (q, quad) in src.chunks_exact(KQ).enumerate() {
                        dst[q * QNR * KQ + j * KQ..q * QNR * KQ + (j + 1) * KQ]
                            .copy_from_slice(quad);
                    }
                    let rem = k % KQ;
                    if rem > 0 {
                        let q = k / KQ;
                        let d = &mut dst[q * QNR * KQ + j * KQ..q * QNR * KQ + (j + 1) * KQ];
                        for (t, v) in d.iter_mut().enumerate() {
                            *v = if t < rem { src[q * KQ + t] } else { Q_ZERO };
                        }
                    }
                }
            }
            QBOperand::Im2col(im) => im.pack_strip(dst, j0, width),
        }
    }
}

/// Scalar register tile: `QMR x QNR` i32 accumulators over one packed weight
/// sliver and one packed strip. Integer math, so this *is* the reference —
/// the AVX2 twin below produces identical bits by construction.
fn qmicrokernel(kq: usize, wsliv: &[i8], bq: &[u8], acc: &mut [[i32; QNR]; QMR]) {
    for q in 0..kq {
        let wq = &wsliv[q * QMR * KQ..(q + 1) * QMR * KQ];
        let bqv = &bq[q * QNR * KQ..(q + 1) * QNR * KQ];
        for (r, row) in acc.iter_mut().enumerate() {
            for (j, a) in row.iter_mut().enumerate() {
                for t in 0..KQ {
                    *a += wq[r * KQ + t] as i32 * bqv[j * KQ + t] as i32;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod qx86 {
    use super::{Epilogue, QOut, KQ, QMR, QNR, Q_ZERO};
    use crate::simd::x86::{
        broadcast_i8x4, load_f32x8, load_i32x8, load_u8x32, store_f32x8, store_i32x8, store_u8x32,
        store_u8x8,
    };
    use core::arch::x86_64::*;

    /// AVX2 twin of [`super::qmicrokernel`]: per k-quad, one 32-byte strip
    /// load covers all [`QNR`] columns, and each row broadcasts its 4 weight
    /// bytes with `vpbroadcastd`; `maddubs(u8·i8) → i16` pairs then
    /// `madd(·, 1) → i32` fold the quad, exactly — the ±63 weight bound rules
    /// out i16 saturation (see module docs) and i32 addition is associative,
    /// so the bits match the scalar kernel for every input.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime; `wsliv` must hold at
    /// least `kq·QMR·KQ` bytes and `bq` at least `kq·QNR·KQ`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qmicrokernel_avx2(
        kq: usize,
        wsliv: &[i8],
        bq: &[u8],
        acc: &mut [[i32; QNR]; QMR],
    ) {
        let ones = _mm256_set1_epi16(1);
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        for q in 0..kq {
            let b = load_u8x32(bq, q * QNR * KQ);
            let w = q * QMR * KQ;
            let w0 = broadcast_i8x4(wsliv, w);
            a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w0), ones));
            let w1 = broadcast_i8x4(wsliv, w + KQ);
            a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w1), ones));
            let w2 = broadcast_i8x4(wsliv, w + 2 * KQ);
            a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w2), ones));
            let w3 = broadcast_i8x4(wsliv, w + 3 * KQ);
            a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w3), ones));
        }
        for (row, sum) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            let prev = load_i32x8(row, 0);
            store_i32x8(row, 0, _mm256_add_epi32(prev, sum));
        }
    }

    /// The epilogue's dequantize and activation on eight lanes:
    /// `act((acc - corr) · scale + base)`. Every step mirrors the scalar
    /// epilogue per element — `vcvtdq2ps` is the same i32→f32 conversion,
    /// multiply and add stay separate (no FMA contraction), and `vmaxps`
    /// agrees with `f32::max` whenever neither operand is NaN (the
    /// decayed-ReLU operands share a sign, so the ±0 ambiguity never
    /// produces different bits) — so both give the same bits.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dequant_act(acc: __m256i, corr: i32, scale: f32, base: f32, act: Epilogue) -> __m256 {
        let a = _mm256_sub_epi32(acc, _mm256_set1_epi32(corr));
        let v = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(a), _mm256_set1_ps(scale)),
            _mm256_set1_ps(base),
        );
        match act {
            Epilogue::None => v,
            Epilogue::Relu { alpha } => _mm256_max_ps(_mm256_mul_ps(v, _mm256_set1_ps(alpha)), v),
            Epilogue::Relu6 { alpha } => {
                let m = _mm256_max_ps(_mm256_mul_ps(v, _mm256_set1_ps(alpha)), v);
                let over =
                    _mm256_max_ps(_mm256_sub_ps(v, _mm256_set1_ps(6.0)), _mm256_setzero_ps());
                _mm256_sub_ps(m, _mm256_mul_ps(_mm256_set1_ps(1.0 - alpha), over))
            }
        }
    }

    /// The requantize step on eight lanes, as the scalar `requant` per lane:
    /// `v · inv` saturated to `[-128, 127]` in the float domain, converted by
    /// `vcvtps2dq` (ties-to-even, like `round_ties_even`) and shifted by
    /// [`Q_ZERO`], so every lane holds a code in `0..=255`. Huge and
    /// infinite values saturate exactly as on the scalar path. NaN is the
    /// one input the paths treat differently: `vmaxps` returns its second
    /// operand, so a NaN lane quantizes to 0 here and to [`Q_ZERO`] there;
    /// quantized inference never feeds NaN.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn requant(v: __m256, inv: __m256) -> __m256i {
        let x = _mm256_max_ps(_mm256_mul_ps(v, inv), _mm256_set1_ps(-128.0));
        let x = _mm256_min_ps(x, _mm256_set1_ps(127.0));
        _mm256_add_epi32(_mm256_cvtps_epi32(x), _mm256_set1_epi32(Q_ZERO as i32))
    }

    /// The AVX2 epilogue: writes the eight accumulators `acc[..8]`,
    /// dequantized, activated and (for a u8 output) requantized with `inv`,
    /// to `out[i..i + 8]`. The constants are [`Dequant`]'s fields, passed
    /// in registers: the callers build them just before the call, and a
    /// vector load of fields just stored one by one would stall.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime, `acc.len() >= 8` and
    /// `i + 8 <= out.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn put_avx2(
        out: &mut QOut,
        i: usize,
        acc: &[i32],
        corr: i32,
        scale: f32,
        base: f32,
        act: Epilogue,
        inv: f32,
    ) {
        let v = dequant_act(load_i32x8(acc, 0), corr, scale, base, act);
        match out {
            QOut::F32(o) => store_f32x8(o, i, v),
            QOut::U8(o, _) => {
                let q = requant(v, _mm256_set1_ps(inv));
                // Narrow 8 x i32 -> 8 x u8: pack to u16 per 128-bit lane,
                // pull both low quads into the lower half, pack to u8
                // (saturation is a no-op on codes in 0..=255).
                let p16 = _mm256_permute4x64_epi64(_mm256_packus_epi32(q, q), 0b1101_1000);
                let p8 = _mm_packus_epi16(_mm256_castsi256_si128(p16), _mm_setzero_si128());
                store_u8x8(o, i, p8);
            }
        }
    }

    /// AVX2 activation quantize over a 32-multiple prefix: [`requant`] on
    /// each group of eight, then the `packus_epi32`/`packus_epi16`/
    /// `permutevar8x32` funnel down to bytes.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime and
    /// `x.len() == out.len()` with `x.len() % 32 == 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_avx2(x: &[f32], inv: f32, out: &mut [u8]) {
        debug_assert!(x.len() == out.len() && x.len().is_multiple_of(32));
        let vinv = _mm256_set1_ps(inv);
        let perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        for i in (0..x.len()).step_by(32) {
            let q = |j: usize| requant(load_f32x8(x, i + j), vinv);
            let w0 = _mm256_packus_epi32(q(0), q(8));
            let w1 = _mm256_packus_epi32(q(16), q(24));
            let bytes = _mm256_packus_epi16(w0, w1);
            store_u8x32(out, i, _mm256_permutevar8x32_epi32(bytes, perm));
        }
    }
}

thread_local! {
    /// Packed u8 strip scratch for the quantized kernel (one strip per use).
    static QGEMM_PACK_B: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

fn with_u8_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    QGEMM_PACK_B.with(|cell| {
        let mut buf = cell.take();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let result = f(&mut buf[..len]);
        cell.set(buf);
        result
    })
}

/// A [`QOut`] shared by the column-strip tasks of one GEMM: each task
/// writes only the row segments of its own strips, so no two windows
/// overlap.
enum StripSink {
    F32(SharedMut<f32>),
    U8(SharedMut<u8>, f32),
}

impl StripSink {
    fn new(out: QOut) -> Self {
        match out {
            QOut::F32(o) => StripSink::F32(SharedMut::new(o)),
            QOut::U8(o, scale) => StripSink::U8(SharedMut::new(o), scale),
        }
    }

    /// The output window `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// No other live window may overlap it.
    unsafe fn window(&self, start: usize, len: usize) -> QOut<'_> {
        match self {
            StripSink::F32(o) => QOut::F32(o.slice(start, len)),
            StripSink::U8(o, scale) => QOut::U8(o.slice(start, len), *scale),
        }
    }
}

/// Computes one strip range `[s0, s1)` of the output: pack each strip, run
/// the tile kernel down the row slivers, and write each row segment through
/// the epilogue into the sink.
#[allow(clippy::too_many_arguments)]
fn qgemm_strips(
    wq: &QPackedW,
    bop: &QBOperand,
    n: usize,
    s0: usize,
    s1: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
    inv: f32,
    simd: bool,
    sink: &StripSink,
) {
    let (m, k) = (wq.m, wq.k);
    let kq = k.div_ceil(KQ);
    with_u8_scratch(kq.max(1) * QNR * KQ, |bq| {
        for s in s0..s1 {
            let j0 = s * QNR;
            let width = QNR.min(n - j0);
            bop.pack_strip(bq, k, n, j0, width);
            for ir in 0..m.div_ceil(QMR) {
                let i_base = ir * QMR;
                let height = QMR.min(m - i_base);
                let wsliv = &wq.sliv[ir * kq * QMR * KQ..(ir * kq + kq.max(1)) * QMR * KQ];
                let mut acc = [[0i32; QNR]; QMR];
                #[cfg(target_arch = "x86_64")]
                if simd {
                    // Safety: `simd` is only true when AVX2 was detected at
                    // runtime, and both packed slices hold `kq` quads.
                    unsafe { qx86::qmicrokernel_avx2(kq, wsliv, bq, &mut acc) };
                } else {
                    qmicrokernel(kq, wsliv, bq, &mut acc);
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    let _ = simd;
                    qmicrokernel(kq, wsliv, bq, &mut acc);
                }
                for (r, acc_row) in acc.iter().enumerate().take(height) {
                    let row = i_base + r;
                    let e = Dequant {
                        corr: Q_ZERO as i32 * wq.rowsums[row],
                        scale: wq.scales[row] * x_scale,
                        base: bias.map_or(0.0, |b| b[row]),
                        act,
                        inv,
                    };
                    // Safety: this task owns column strip `s`, so no other
                    // live window covers this row segment; `simd` is only
                    // true when AVX2 was detected at runtime.
                    unsafe {
                        let mut seg = sink.window(row * n + j0, width);
                        seg.put(0, &acc_row[..width], &e, simd);
                    }
                }
            }
        }
    })
}

/// The one driver behind every int8 GEMM entry point:
/// `C = act(dequant(QW · B) + bias)` into `out`, which holds `wq.m() x n`
/// elements. `simd` runs the AVX2 tile kernel (the entry points pass it
/// whenever AVX2 is present) or the scalar reference; shapes the f32 GEMM
/// would row-split are column-split across the pool here. Exact integer
/// accumulation makes every choice bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_qgemm(
    wq: &QPackedW,
    bop: &QBOperand,
    out: QOut,
    n: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
    simd: bool,
) {
    let m = wq.m;
    assert_eq!(out.len(), m * n, "qgemm out buffer length");
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "qgemm bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let inv = out.inv();
    let sink = StripSink::new(out);
    let strips = n.div_ceil(QNR);
    let threads = threadpool::num_threads();
    if parallel(m, wq.k, n) && threads > 1 && strips > 1 {
        let chunks = strips.min(threads * 4);
        threadpool::parallel_for(chunks, &|ci| {
            let s0 = strips * ci / chunks;
            let s1 = strips * (ci + 1) / chunks;
            qgemm_strips(wq, bop, n, s0, s1, x_scale, bias, act, inv, simd, &sink);
        });
    } else {
        qgemm_strips(wq, bop, n, 0, strips, x_scale, bias, act, inv, simd, &sink);
    }
}

/// Quantized conv forward over a virtual u8 im2col view — the serving-path
/// kernel behind `CompiledPlan`'s `QConv` actions.
pub fn qgemm_conv(
    wq: &QPackedW,
    qim: &QIm2colRef,
    c: &mut [f32],
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
) {
    assert_eq!(qim.rows(), wq.k, "qgemm_conv operand inner dimension");
    let bop = QBOperand::Im2col(qim);
    let out = QOut::F32(c);
    run_qgemm(wq, &bop, out, qim.cols(), x_scale, bias, act, have_avx2());
}

/// Quantized pointwise-conv fast path: a 1x1 stride-1 unpadded conv's column
/// matrix is the quantized sample itself, so the strip pack reads it as a
/// materialized `k x n` matrix with no coordinate math.
pub fn qgemm_conv_mat(
    wq: &QPackedW,
    qx: &[u8],
    c: &mut [f32],
    n: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
) {
    qgemm_mat(wq, qx, QOut::F32(c), n, x_scale, bias, act);
}

/// [`qgemm_conv_mat`] that emits its output already quantized with
/// `out_scale` — for chains where the very next consumer is another int8
/// kernel (the fused inverted-residual executor's expand stage). The bytes
/// equal `qgemm_conv_mat` followed by [`quantize_activations`], with the
/// f32 intermediate and its extra memory pass elided.
#[allow(clippy::too_many_arguments)]
pub fn qgemm_conv_mat_requant(
    wq: &QPackedW,
    qx: &[u8],
    c: &mut [u8],
    n: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
    out_scale: f32,
) {
    qgemm_mat(wq, qx, QOut::U8(c, out_scale), n, x_scale, bias, act);
}

/// The materialized-matrix GEMM behind both pointwise entries.
fn qgemm_mat(
    wq: &QPackedW,
    qx: &[u8],
    out: QOut,
    n: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
) {
    assert_eq!(qx.len(), wq.k * n, "qgemm_conv_mat operand length");
    let bop = QBOperand::Mat {
        b: qx,
        trans: false,
    };
    run_qgemm(wq, &bop, out, n, x_scale, bias, act, have_avx2());
}

thread_local! {
    /// Transposed `[out_f, batch]` result scratch for the linear path.
    static QGEMM_LINEAR_CT: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Quantized linear layer: `out[b][o] = act(Σ_k x[b][k]·w[o][k]·sw[o]·sx + bias[o])`
/// for a quantized `[rows, in_f]` activation batch `qx` against `[out_f, in_f]`
/// packed weights. Computes the transposed `[out_f, rows]` product with the
/// shared strip kernel (the batch is the strip dimension), then transposes
/// into the row-major output — both tiny next to the GEMM itself.
pub fn qgemm_linear(
    wq: &QPackedW,
    qx: &[u8],
    rows: usize,
    out: &mut [f32],
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
) {
    let (out_f, in_f) = (wq.m, wq.k);
    assert_eq!(qx.len(), rows * in_f, "qgemm_linear input length");
    assert_eq!(out.len(), rows * out_f, "qgemm_linear output length");
    if rows == 0 || out_f == 0 {
        return;
    }
    QGEMM_LINEAR_CT.with(|cell| {
        let mut ct = cell.take();
        if ct.len() < out_f * rows {
            ct.resize(out_f * rows, 0.0);
        }
        let bop = QBOperand::Mat { b: qx, trans: true };
        let out_t = QOut::F32(&mut ct[..out_f * rows]);
        run_qgemm(wq, &bop, out_t, rows, x_scale, bias, act, have_avx2());
        for b in 0..rows {
            for o in 0..out_f {
                out[b * out_f + o] = ct[o * rows + b];
            }
        }
        cell.set(ct);
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

    /// f64 reference of the full quantized pipeline: quantize, integer
    /// matmul, dequantize — the ground truth both kernels must match.
    fn qgemm_ref(
        w: &[f32],
        x: &[f32],
        m: usize,
        k: usize,
        n: usize,
        x_scale: f32,
        bias: Option<&[f32]>,
    ) -> Vec<f32> {
        let wq = QPackedW::pack(w, m, k);
        let mut qx = vec![0u8; k * n];
        quantize_activations(x, x_scale, &mut qx);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    let q = ((w[i * k + p] / wq.scales[i]).round() as i32).clamp(-QW_MAX, QW_MAX);
                    acc += q as i64 * (qx[p * n + j] as i32 - Q_ZERO as i32) as i64;
                }
                out[i * n + j] = acc as f32 * (wq.scales[i] * x_scale) + bias.map_or(0.0, |b| b[i]);
            }
        }
        out
    }

    #[test]
    fn scalar_and_avx2_kernels_agree_bitwise() {
        for (m, k, n) in [(1, 1, 1), (4, 16, 8), (7, 23, 13), (16, 64, 40), (5, 3, 9)] {
            let w = fill(m * k, 7);
            let x = fill(k * n, 11);
            let x_scale = activation_scale(max_abs(&x));
            let mut qx = vec![0u8; k * n];
            quantize_activations(&x, x_scale, &mut qx);
            let wq = QPackedW::pack(&w, m, k);
            let bias = fill(m, 13);
            let bop = QBOperand::Mat {
                b: &qx,
                trans: false,
            };
            let act = Epilogue::Relu { alpha: 0.25 };
            let run = |out: QOut, simd: bool| {
                run_qgemm(&wq, &bop, out, n, x_scale, Some(&bias), act, simd);
            };
            let mut scalar = vec![0.0f32; m * n];
            run(QOut::F32(&mut scalar), false);
            let mut simd = vec![0.0f32; m * n];
            run(QOut::F32(&mut simd), have_avx2());
            assert_eq!(scalar, simd, "scalar vs simd bits at {m}x{k}x{n}");
            // The u8 output requantizes in the epilogue, on either kernel:
            // the bytes of the f32 output quantized in a separate pass.
            let out_scale = 0.011;
            let mut want = vec![0u8; m * n];
            quantize_activations(&scalar, out_scale, &mut want);
            for s in [false, have_avx2()] {
                let mut got = vec![0u8; m * n];
                run(QOut::U8(&mut got, out_scale), s);
                assert_eq!(got, want, "u8 output (simd {s}) at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn quantized_gemm_matches_integer_reference() {
        for (m, k, n) in [(4, 8, 8), (6, 33, 17), (12, 64, 25)] {
            let w = fill(m * k, 3);
            let x = fill(k * n, 5);
            let x_scale = activation_scale(max_abs(&x));
            let bias = fill(m, 9);
            let expect = qgemm_ref(&w, &x, m, k, n, x_scale, Some(&bias));
            let wq = QPackedW::pack(&w, m, k);
            let mut qx = vec![0u8; k * n];
            quantize_activations(&x, x_scale, &mut qx);
            let mut c = vec![0.0f32; m * n];
            qgemm_conv_mat(&wq, &qx, &mut c, n, x_scale, Some(&bias), Epilogue::None);
            assert_eq!(c, expect, "kernel vs reference at {m}x{k}x{n}");
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        // The quantized product must stay within the worst-case rounding
        // envelope of the exact f32 product: per element, roughly
        // k · (sx·max|w| + sw·max|x|) / 2 plus cross terms.
        let (m, k, n) = (8, 64, 32);
        let w = fill(m * k, 21);
        let x = fill(k * n, 23);
        let x_scale = activation_scale(max_abs(&x));
        let wq = QPackedW::pack(&w, m, k);
        let mut qx = vec![0u8; k * n];
        quantize_activations(&x, x_scale, &mut qx);
        let mut c = vec![0.0f32; m * n];
        qgemm_conv_mat(&wq, &qx, &mut c, n, x_scale, None, Epilogue::None);
        let max_w = w.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let bound = k as f32 * 0.5 * (x_scale * 1.02 * max_w + max_w / QW_MAX as f32 * 0.52);
        for i in 0..m {
            for j in 0..n {
                let exact: f32 = (0..k).map(|p| w[i * k + p] * x[p * n + j]).sum();
                let got = c[i * n + j];
                assert!(
                    (got - exact).abs() <= bound,
                    "({i},{j}): quant {got} vs exact {exact}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn im2col_view_matches_materialized_columns() {
        // 3x3 stride-1 pad-1 conv: padding must quantize to Q_ZERO exactly.
        let (c_in, h, w) = (3, 6, 5);
        let geom = ConvGeometry::same(3, 1);
        let (ho, wo) = (h, w);
        let x = fill(c_in * h * w, 31);
        let x_scale = activation_scale(max_abs(&x));
        let mut qx = vec![0u8; x.len()];
        quantize_activations(&x, x_scale, &mut qx);
        let qim = QIm2colRef {
            x: &qx,
            c_in,
            h,
            w,
            geom,
            ho,
            wo,
        };
        let (k, n) = (qim.rows(), qim.cols());
        // Materialize the u8 column matrix by hand.
        let mut cols = vec![Q_ZERO; k * n];
        for p in 0..k {
            let ker = geom.kh * geom.kw;
            let (ci, r) = (p / ker, p % ker);
            let (ki, kj) = (r / geom.kw, r % geom.kw);
            for j in 0..n {
                let (oi, oj) = (j / wo, j % wo);
                let ii = (oi * geom.sh + ki) as isize - geom.ph as isize;
                let jj = (oj * geom.sw + kj) as isize - geom.pw as isize;
                if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                    cols[p * n + j] = qx[(ci * h + ii as usize) * w + jj as usize];
                }
            }
        }
        let weights = fill(4 * k, 37);
        let wq = QPackedW::pack(&weights, 4, k);
        let mut implicit = vec![0.0f32; 4 * n];
        qgemm_conv(&wq, &qim, &mut implicit, x_scale, None, Epilogue::None);
        let mut explicit = vec![0.0f32; 4 * n];
        qgemm_conv_mat(&wq, &cols, &mut explicit, n, x_scale, None, Epilogue::None);
        assert_eq!(implicit, explicit, "virtual vs materialized u8 im2col");
    }

    #[test]
    fn linear_path_matches_reference_layout() {
        let (out_f, in_f, rows) = (10, 24, 3);
        let w = fill(out_f * in_f, 41);
        let x = fill(rows * in_f, 43);
        let x_scale = activation_scale(max_abs(&x));
        let bias = fill(out_f, 47);
        let wq = QPackedW::pack(&w, out_f, in_f);
        let mut qx = vec![0u8; rows * in_f];
        quantize_activations(&x, x_scale, &mut qx);
        let mut out = vec![0.0f32; rows * out_f];
        qgemm_linear(
            &wq,
            &qx,
            rows,
            &mut out,
            x_scale,
            Some(&bias),
            Epilogue::None,
        );
        // Reference via the k x n (trans) matrix view of the same batch.
        let mut xt = vec![0.0f32; in_f * rows];
        for b in 0..rows {
            for p in 0..in_f {
                xt[p * rows + b] = x[b * in_f + p];
            }
        }
        let expect = qgemm_ref(&w, &xt, out_f, in_f, rows, x_scale, Some(&bias));
        for b in 0..rows {
            for o in 0..out_f {
                assert_eq!(out[b * out_f + o], expect[o * rows + b], "({b},{o})");
            }
        }
    }

    #[test]
    fn parallel_column_split_is_bitwise() {
        let (m, k, n) = (16, 48, 200);
        let w = fill(m * k, 51);
        let x = fill(k * n, 53);
        let x_scale = activation_scale(max_abs(&x));
        let wq = QPackedW::pack(&w, m, k);
        let mut qx = vec![0u8; k * n];
        quantize_activations(&x, x_scale, &mut qx);
        let act = Epilogue::Relu6 { alpha: 0.0 };
        let mut split = vec![0.0f32; m * n];
        qgemm_conv_mat(&wq, &qx, &mut split, n, x_scale, None, act);
        let mut serial = vec![0.0f32; m * n];
        crate::with_thread_cap(1, || {
            qgemm_conv_mat(&wq, &qx, &mut serial, n, x_scale, None, act);
        });
        assert_eq!(serial, split, "serial vs column-split bits");
    }

    #[test]
    fn weight_quantization_respects_bound_and_rowsums() {
        let w = fill(6 * 40, 61);
        let wq = QPackedW::pack(&w, 6, 40);
        for i in 0..6 {
            let mut sum = 0i32;
            for p in 0..40 {
                let q = ((w[i * 40 + p] / wq.scales[i]).round() as i32).clamp(-QW_MAX, QW_MAX);
                assert!(q.abs() <= QW_MAX);
                sum += q;
            }
            assert_eq!(sum, wq.rowsums[i], "row {i} sum");
        }
        // All-zero rows quantize under scale 1.0 with zero sums.
        let zq = QPackedW::pack(&[0.0; 8], 2, 4);
        assert_eq!(zq.scales(), &[1.0, 1.0]);
        assert_eq!(zq.rowsums, &[0, 0]);
    }

    #[test]
    fn requantize_rounds_like_round_ties_even() {
        let want = |v: f32| (v.clamp(-128.0, 127.0).round_ties_even() as i32 + Q_ZERO as i32) as u8;
        // every quarter step in [-130, 130], so every ±k.5 tie in range
        let quarters = (-520..=520).map(|i| i as f32 / 4.0);
        let specials = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for v in quarters.chain(specials) {
            assert_eq!(requant(v, 1.0), want(v), "requant({v})");
        }
        // an inverse scale that is not one
        for i in -2000..=2000 {
            let v = i as f32 * 0.0625;
            assert_eq!(
                requant(v, 1.0 / 0.13),
                want(v * (1.0 / 0.13)),
                "requant({v}) at 0.13"
            );
        }
    }

    #[test]
    fn huge_values_requantize_to_the_end_codes() {
        // ±1e12 · scale lies far outside the i32 range that the conversion
        // to a code goes through: it must saturate to 255 and 0, on the
        // 32-wide AVX2 body and the scalar tail of `quantize_activations`
        // alike, and in the u8 outputs of the GEMM and the stencil.
        let scale = 0.02;
        let huge = |i: usize| {
            if i.is_multiple_of(3) {
                -1e12 * scale
            } else {
                1e12 * scale
            }
        };
        let code = |i: usize| if i.is_multiple_of(3) { 0u8 } else { 255 };
        let x: Vec<f32> = (0..40).map(huge).collect();
        let mut q = vec![Q_ZERO; 40];
        quantize_activations(&x, scale, &mut q);
        assert_eq!(q, (0..40).map(code).collect::<Vec<_>>(), "quantize");
        // GEMM: the bias sets each row's value; 12 columns are one full
        // strip (vector epilogue) and one of four (scalar epilogue).
        let (m, k, n) = (3, 4, 12);
        let wq = QPackedW::pack(&fill(m * k, 3), m, k);
        let bias: Vec<f32> = (0..m).map(huge).collect();
        let mut c = vec![Q_ZERO; m * n];
        let qx = vec![Q_ZERO; k * n];
        let act = Epilogue::Relu { alpha: 0.5 };
        qgemm_conv_mat_requant(&wq, &qx, &mut c, n, 1.0, Some(&bias), act, scale);
        for (i, row) in c.chunks(n).enumerate() {
            assert!(row.iter().all(|&b| b == code(i)), "gemm row {i}: {row:?}");
        }
        // Stencil: a 3x3 plane 20 wide runs vector groups and border columns.
        let geom = ConvGeometry::same(3, 1);
        let (h, w) = (4, 20);
        let qk = [1i8; 9];
        for i in 0..2 {
            let mut out = vec![Q_ZERO; h * w];
            crate::depthwise::qdw_channel_rows(
                &vec![Q_ZERO; h * w],
                0,
                h,
                w,
                &qk,
                9,
                1.0,
                huge(i),
                act,
                geom,
                w,
                0,
                h,
                QOut::U8(&mut out, scale),
            );
            assert!(out.iter().all(|&b| b == code(i)), "stencil {i}: {out:?}");
        }
    }

    #[test]
    fn activation_quantization_round_trips_zero_point() {
        let mut q = vec![0u8; 3];
        quantize_activations(&[0.0, 1.0, -1.0], activation_scale(1.0), &mut q);
        assert_eq!(q, vec![Q_ZERO, 255, 1]);
        // Out-of-range values clamp instead of wrapping.
        let mut q = vec![0u8; 2];
        quantize_activations(&[10.0, -10.0], activation_scale(1.0), &mut q);
        assert_eq!(q, vec![255, 0]);
    }
}
