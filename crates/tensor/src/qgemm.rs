//! Int8 quantized GEMM: the inference-only twin of [`crate::gemm`].
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
//! shared [`Epilogue`] slice kernels.
//!
//! ## Determinism
//!
//! Integer accumulation is exact under any order, so *every* variant —
//! scalar or AVX2, any blocking, any thread width, any column split — emits
//! identical bits. The quantized plan columns in nb-verify lean on this:
//! thread-width invariance and serve-vs-solo parity hold bitwise with no
//! tolerance machinery at all. The only approximation in the whole path is
//! the quantization itself, which the `+plan-quant` accuracy budget bounds.

use crate::eltwise::Epilogue;
use crate::gemm::{variant, Schedule, Variant};
use crate::shape::ConvGeometry;
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
/// `vcvtps2dq` uses — and the scalar fallback matches it with
/// [`f32::round_ties_even`], so the quantized bytes are identical on every
/// CPU. The clamp runs after the integer zero-point shift, exactly like the
/// `packus` saturation chain in the vector path.
pub fn quantize_activations(x: &[f32], scale: f32, out: &mut [u8]) {
    assert_eq!(x.len(), out.len(), "quantize_activations length");
    let inv = 1.0 / scale;
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if use_avx2_kernel() {
        done = x.len() - x.len() % 32;
        if done > 0 {
            // Safety: AVX2 detected at runtime; `done` is a multiple of 32
            // within both slices.
            unsafe { qx86::quantize_avx2(&x[..done], inv, &mut out[..done]) };
        }
    }
    for (o, &v) in out[done..].iter_mut().zip(&x[done..]) {
        *o = ((v * inv).round_ties_even() as i32 + Q_ZERO as i32).clamp(0, 255) as u8;
    }
}

/// A weight matrix quantized per row and prepacked for the i8 kernel.
///
/// Layout: rows are grouped into [`QMR`]-tall slivers, k into [`KQ`]-deep
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
    /// charge) accounts for a quantized layer — roughly a quarter of the
    /// f32 [`crate::PackedA`] footprint.
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

/// True when the AVX2 i8 kernel can run. FMA is irrelevant here; AVX2 alone
/// provides `vpmaddubsw`/`vpmaddwd`.
#[inline]
fn use_avx2_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod qx86 {
    use super::{Epilogue, KQ, QMR, QNR};
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
        debug_assert!(wsliv.len() >= kq * QMR * KQ && bq.len() >= kq * QNR * KQ);
        let ones = _mm256_set1_epi16(1);
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        let mut w_ptr = wsliv.as_ptr() as *const i32;
        let mut b_ptr = bq.as_ptr();
        for _ in 0..kq {
            let b = _mm256_loadu_si256(b_ptr as *const __m256i);
            let w0 = _mm256_set1_epi32(w_ptr.read_unaligned());
            a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w0), ones));
            let w1 = _mm256_set1_epi32(w_ptr.add(1).read_unaligned());
            a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w1), ones));
            let w2 = _mm256_set1_epi32(w_ptr.add(2).read_unaligned());
            a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w2), ones));
            let w3 = _mm256_set1_epi32(w_ptr.add(3).read_unaligned());
            a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(_mm256_maddubs_epi16(b, w3), ones));
            w_ptr = w_ptr.add(QMR);
            b_ptr = b_ptr.add(QNR * KQ);
        }
        for (row, sum) in acc.iter_mut().zip([a0, a1, a2, a3]) {
            let prev = _mm256_loadu_si256(row.as_ptr() as *const __m256i);
            _mm256_storeu_si256(
                row.as_mut_ptr() as *mut __m256i,
                _mm256_add_epi32(prev, sum),
            );
        }
    }

    /// AVX2 dequant + epilogue for one full [`QNR`]-wide accumulator row:
    /// `y = (acc - corr)·scale + base` then the activation, all as one
    /// register pass. Every step mirrors the scalar write-out per element —
    /// `vcvtdq2ps` is the same i32→f32 conversion, multiply and add stay
    /// separate (no FMA contraction), and `vmaxps` agrees with `f32::max`
    /// whenever neither operand is NaN (the decayed-ReLU operands share a
    /// sign, so the ±0 ambiguity never produces different bits) — making the
    /// SIMD and scalar paths bitwise identical on quantized inference data.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime and `out.len() == QNR`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequant_act_avx2(
        acc: &[i32; QNR],
        corr: i32,
        scale: f32,
        base: f32,
        act: Epilogue,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len(), QNR);
        let a = _mm256_loadu_si256(acc.as_ptr() as *const __m256i);
        let a = _mm256_sub_epi32(a, _mm256_set1_epi32(corr));
        let mut v = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(a), _mm256_set1_ps(scale)),
            _mm256_set1_ps(base),
        );
        match act {
            Epilogue::None => {}
            Epilogue::Relu { alpha } => {
                v = _mm256_max_ps(_mm256_mul_ps(v, _mm256_set1_ps(alpha)), v);
            }
            Epilogue::Relu6 { alpha } => {
                let m = _mm256_max_ps(_mm256_mul_ps(v, _mm256_set1_ps(alpha)), v);
                let over =
                    _mm256_max_ps(_mm256_sub_ps(v, _mm256_set1_ps(6.0)), _mm256_setzero_ps());
                v = _mm256_sub_ps(m, _mm256_mul_ps(_mm256_set1_ps(1.0 - alpha), over));
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr(), v);
    }

    /// [`dequant_act_avx2`] followed by an in-register requantize with
    /// `inv = 1/out_scale`: `vcvtps2dq` (ties-to-even, matching the scalar
    /// `round_ties_even`), integer zero-point shift, explicit 0..255 clamp,
    /// then the `packus` funnel down to 8 bytes — the same steps as
    /// [`quantize_avx2`] applied to the dequantized row, so the bytes equal
    /// a separate f32 write-out plus [`super::quantize_activations`].
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime and `out.len() == QNR`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequant_act_requant_avx2(
        acc: &[i32; QNR],
        corr: i32,
        scale: f32,
        base: f32,
        act: Epilogue,
        inv: f32,
        out: &mut [u8],
    ) {
        debug_assert_eq!(out.len(), QNR);
        let a = _mm256_loadu_si256(acc.as_ptr() as *const __m256i);
        let a = _mm256_sub_epi32(a, _mm256_set1_epi32(corr));
        let mut v = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(a), _mm256_set1_ps(scale)),
            _mm256_set1_ps(base),
        );
        match act {
            Epilogue::None => {}
            Epilogue::Relu { alpha } => {
                v = _mm256_max_ps(_mm256_mul_ps(v, _mm256_set1_ps(alpha)), v);
            }
            Epilogue::Relu6 { alpha } => {
                let m = _mm256_max_ps(_mm256_mul_ps(v, _mm256_set1_ps(alpha)), v);
                let over =
                    _mm256_max_ps(_mm256_sub_ps(v, _mm256_set1_ps(6.0)), _mm256_setzero_ps());
                v = _mm256_sub_ps(m, _mm256_mul_ps(_mm256_set1_ps(1.0 - alpha), over));
            }
        }
        let q = _mm256_cvtps_epi32(_mm256_mul_ps(v, _mm256_set1_ps(inv)));
        let q = _mm256_add_epi32(q, _mm256_set1_epi32(super::Q_ZERO as i32));
        let q = _mm256_min_epi32(
            _mm256_max_epi32(q, _mm256_setzero_si256()),
            _mm256_set1_epi32(255),
        );
        // Narrow 8 x i32 -> 8 x u8: pack to u16 per 128-bit lane, pull both
        // low quads into the lower half, pack to u8 (saturation is a no-op
        // after the clamp), store 8 bytes.
        let p16 = _mm256_packus_epi32(q, q);
        let p16 = _mm256_permute4x64_epi64(p16, 0b1101_1000);
        let p8 = _mm_packus_epi16(_mm256_castsi256_si128(p16), _mm_setzero_si128());
        _mm_storel_epi64(out.as_mut_ptr() as *mut __m128i, p8);
    }

    /// AVX2 activation quantize over a 32-multiple prefix: `vcvtps2dq`
    /// (ties-to-even, matching the scalar `round_ties_even` tail), integer
    /// zero-point shift, explicit 0..255 clamp, then the
    /// `packus_epi32`/`packus_epi16`/`permutevar8x32` funnel down to bytes.
    /// Non-finite inputs are the one divergence from the scalar path
    /// (`vcvtps2dq` yields `i32::MIN`, clamped to 0); quantized inference
    /// never feeds those.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime and
    /// `x.len() == out.len()` with `x.len() % 32 == 0`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_avx2(x: &[f32], inv: f32, out: &mut [u8]) {
        debug_assert!(x.len() == out.len() && x.len().is_multiple_of(32));
        let vinv = _mm256_set1_ps(inv);
        let zp = _mm256_set1_epi32(super::Q_ZERO as i32);
        let lo = _mm256_setzero_si256();
        let hi = _mm256_set1_epi32(255);
        let perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut xp = x.as_ptr();
        let mut op = out.as_mut_ptr();
        for _ in 0..x.len() / 32 {
            let cvt = |p: *const f32| {
                let q = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(p), vinv));
                _mm256_min_epi32(_mm256_max_epi32(_mm256_add_epi32(q, zp), lo), hi)
            };
            let (q0, q1, q2, q3) = (cvt(xp), cvt(xp.add(8)), cvt(xp.add(16)), cvt(xp.add(24)));
            let w0 = _mm256_packus_epi32(q0, q1);
            let w1 = _mm256_packus_epi32(q2, q3);
            let bytes = _mm256_packus_epi16(w0, w1);
            _mm256_storeu_si256(op as *mut __m256i, _mm256_permutevar8x32_epi32(bytes, perm));
            xp = xp.add(32);
            op = op.add(32);
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

/// Output sink for [`qgemm_strips`]: `(offset, width, fill)` hands the
/// caller a window of `c` to fill, abstracting the serial (`&mut [f32]`)
/// and column-split parallel (`SharedMut` window) destinations.
type StripWriter<'a> = &'a (dyn Fn(usize, usize, &mut dyn FnMut(&mut [f32])) + Sync);

/// u8 twin of [`StripWriter`] for the requantizing sink.
type StripWriterU8<'a> = &'a (dyn Fn(usize, usize, &mut dyn FnMut(&mut [u8])) + Sync);

/// Where [`qgemm_strips`] puts each finished accumulator row.
enum StripSink<'a> {
    /// Dequantize + bias + activation into f32 output rows.
    F32(StripWriter<'a>),
    /// Dequantize + bias + activation, then requantize with `1/out_scale`
    /// into u8 rows — byte-for-byte what [`quantize_activations`] over the
    /// f32 sink's output would produce, with the f32 round-trip elided.
    Requant(StripWriterU8<'a>, f32),
}

/// Computes one strip range `[s0, s1)` of the output: pack each strip, run
/// the tile kernel down the row slivers, dequantize + bias + activate into
/// the row segments of the sink.
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
    simd: bool,
    sink: &StripSink<'_>,
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
                    let scale = wq.scales[row] * x_scale;
                    let corr = Q_ZERO as i32 * wq.rowsums[row];
                    let base = bias.map_or(0.0, |b| b[row]);
                    match sink {
                        StripSink::F32(write) => write(row * n + j0, width, &mut |seg| {
                            #[cfg(target_arch = "x86_64")]
                            if simd && width == QNR {
                                // Safety: AVX2 detected (simd), and the
                                // segment is one full QNR-wide register row.
                                unsafe {
                                    qx86::dequant_act_avx2(acc_row, corr, scale, base, act, seg)
                                };
                                return;
                            }
                            for (cv, &a) in seg.iter_mut().zip(acc_row) {
                                *cv = (a - corr) as f32 * scale + base;
                            }
                            act.apply(seg);
                        }),
                        StripSink::Requant(write, out_scale) => {
                            let inv = 1.0 / out_scale;
                            write(row * n + j0, width, &mut |seg| {
                                #[cfg(target_arch = "x86_64")]
                                if simd && width == QNR {
                                    // Safety: AVX2 detected (simd), and the
                                    // segment is one full QNR-wide row.
                                    unsafe {
                                        qx86::dequant_act_requant_avx2(
                                            acc_row, corr, scale, base, act, inv, seg,
                                        )
                                    };
                                    return;
                                }
                                let mut tmp = [0.0f32; QNR];
                                for (t, &a) in tmp.iter_mut().zip(acc_row).take(width) {
                                    *t = (a - corr) as f32 * scale + base;
                                }
                                act.apply(&mut tmp[..width]);
                                for (o, &v) in seg.iter_mut().zip(&tmp) {
                                    *o = ((v * inv).round_ties_even() as i32 + Q_ZERO as i32)
                                        .clamp(0, 255)
                                        as u8;
                                }
                            });
                        }
                    }
                }
            }
        }
    })
}

/// Runs the quantized GEMM `C = act(dequant(QW · B) + bias)` under one
/// variant. `schedule` picks the scalar (`Direct`) or SIMD (`Blocked`) tile
/// kernel, and the parallel hint column-splits across the pool. The entry
/// points pass [`variant`] of the shape; exact integer accumulation makes
/// every choice bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_qgemm_variant(
    variant: Variant,
    wq: &QPackedW,
    bop: &QBOperand,
    c: &mut [f32],
    n: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
) {
    let m = wq.m;
    assert_eq!(c.len(), m * n, "qgemm out buffer length");
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "qgemm bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let simd = variant.schedule != Schedule::Direct && use_avx2_kernel();
    let strips = n.div_ceil(QNR);
    let threads = threadpool::num_threads();
    if variant.parallel && threads > 1 && strips > 1 {
        let shared = SharedMut::new(c);
        let chunks = strips.min(threads * 4);
        threadpool::parallel_for(chunks, &|ci| {
            let s0 = strips * ci / chunks;
            let s1 = strips * (ci + 1) / chunks;
            let write: StripWriter = &|off, len, fill| {
                // Safety: each task owns disjoint column ranges, so the
                // per-row windows never overlap across tasks.
                fill(unsafe { shared.slice(off, len) })
            };
            qgemm_strips(
                wq,
                bop,
                n,
                s0,
                s1,
                x_scale,
                bias,
                act,
                simd,
                &StripSink::F32(write),
            );
        });
    } else {
        let shared = SharedMut::new(c);
        let write: StripWriter = &|off, len, fill| {
            // Safety: serial path; windows are used one at a time.
            fill(unsafe { shared.slice(off, len) })
        };
        qgemm_strips(
            wq,
            bop,
            n,
            0,
            strips,
            x_scale,
            bias,
            act,
            simd,
            &StripSink::F32(write),
        );
    }
}

/// [`run_qgemm_variant`] with the requantizing u8 sink: the dequantized,
/// biased, activated value is quantized straight back to u8 with
/// `out_scale` in the register epilogue. Produces byte-for-byte what
/// [`quantize_activations`] over the f32 variant's output would, without
/// materializing the f32 intermediate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_qgemm_variant_requant(
    variant: Variant,
    wq: &QPackedW,
    bop: &QBOperand,
    c: &mut [u8],
    n: usize,
    x_scale: f32,
    bias: Option<&[f32]>,
    act: Epilogue,
    out_scale: f32,
) {
    let m = wq.m;
    assert_eq!(c.len(), m * n, "qgemm requant out buffer length");
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "qgemm bias length");
    }
    if m == 0 || n == 0 {
        return;
    }
    let simd = variant.schedule != Schedule::Direct && use_avx2_kernel();
    let strips = n.div_ceil(QNR);
    let threads = threadpool::num_threads();
    if variant.parallel && threads > 1 && strips > 1 {
        let shared = SharedMut::new(c);
        let chunks = strips.min(threads * 4);
        threadpool::parallel_for(chunks, &|ci| {
            let s0 = strips * ci / chunks;
            let s1 = strips * (ci + 1) / chunks;
            let write: StripWriterU8 = &|off, len, fill| {
                // Safety: each task owns disjoint column ranges, so the
                // per-row windows never overlap across tasks.
                fill(unsafe { shared.slice(off, len) })
            };
            qgemm_strips(
                wq,
                bop,
                n,
                s0,
                s1,
                x_scale,
                bias,
                act,
                simd,
                &StripSink::Requant(write, out_scale),
            );
        });
    } else {
        let shared = SharedMut::new(c);
        let write: StripWriterU8 = &|off, len, fill| {
            // Safety: serial path; windows are used one at a time.
            fill(unsafe { shared.slice(off, len) })
        };
        qgemm_strips(
            wq,
            bop,
            n,
            0,
            strips,
            x_scale,
            bias,
            act,
            simd,
            &StripSink::Requant(write, out_scale),
        );
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
    let n = qim.cols();
    let bop = QBOperand::Im2col(qim);
    let v = variant(wq.m, wq.k, n);
    run_qgemm_variant(v, wq, &bop, c, n, x_scale, bias, act);
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
    assert_eq!(qx.len(), wq.k * n, "qgemm_conv_mat operand length");
    let bop = QBOperand::Mat {
        b: qx,
        trans: false,
    };
    let v = variant(wq.m, wq.k, n);
    run_qgemm_variant(v, wq, &bop, c, n, x_scale, bias, act);
}

/// [`qgemm_conv_mat`] that emits its output already quantized with
/// `out_scale` — for chains where the very next consumer is another int8
/// kernel (the fused inverted-residual executor's expand stage). The bytes
/// equal `qgemm_conv_mat` followed by [`quantize_activations`], with the
/// f32 intermediate and its extra memory pass elided; both run the same
/// [`variant`].
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
    assert_eq!(qx.len(), wq.k * n, "qgemm_conv_mat_requant operand length");
    let bop = QBOperand::Mat {
        b: qx,
        trans: false,
    };
    let v = variant(wq.m, wq.k, n);
    run_qgemm_variant_requant(v, wq, &bop, c, n, x_scale, bias, act, out_scale);
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
    let v = variant(out_f, in_f, rows);
    QGEMM_LINEAR_CT.with(|cell| {
        let mut ct = cell.take();
        if ct.len() < out_f * rows {
            ct.resize(out_f * rows, 0.0);
        }
        let bop = QBOperand::Mat { b: qx, trans: true };
        run_qgemm_variant(
            v,
            wq,
            &bop,
            &mut ct[..out_f * rows],
            rows,
            x_scale,
            bias,
            act,
        );
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
            let run = |sched: Schedule| {
                let mut c = vec![0.0f32; m * n];
                let v = Variant {
                    schedule: sched,
                    parallel: false,
                };
                let bop = QBOperand::Mat {
                    b: &qx,
                    trans: false,
                };
                run_qgemm_variant(
                    v,
                    &wq,
                    &bop,
                    &mut c,
                    n,
                    x_scale,
                    Some(&bias),
                    Epilogue::Relu { alpha: 0.25 },
                );
                c
            };
            let direct = run(Schedule::Direct);
            let blocked = run(Schedule::Blocked);
            assert_eq!(direct, blocked, "scalar vs simd bits at {m}x{k}x{n}");
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
            let bop = QBOperand::Mat {
                b: &qx,
                trans: false,
            };
            run_qgemm_variant(
                Variant {
                    schedule: Schedule::Blocked,
                    parallel: false,
                },
                &wq,
                &bop,
                &mut c,
                n,
                x_scale,
                Some(&bias),
                Epilogue::None,
            );
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
        let bop = QBOperand::Mat {
            b: &qx,
            trans: false,
        };
        run_qgemm_variant(
            Variant {
                schedule: Schedule::Blocked,
                parallel: false,
            },
            &wq,
            &bop,
            &mut c,
            n,
            x_scale,
            None,
            Epilogue::None,
        );
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
        let run = |bop: QBOperand| {
            let mut c = vec![0.0f32; 4 * n];
            run_qgemm_variant(
                Variant {
                    schedule: Schedule::Blocked,
                    parallel: false,
                },
                &wq,
                &bop,
                &mut c,
                n,
                x_scale,
                None,
                Epilogue::None,
            );
            c
        };
        let implicit = run(QBOperand::Im2col(&qim));
        let explicit = run(QBOperand::Mat {
            b: &cols,
            trans: false,
        });
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
        let run = |parallel: bool| {
            let mut c = vec![0.0f32; m * n];
            let bop = QBOperand::Mat {
                b: &qx,
                trans: false,
            };
            run_qgemm_variant(
                Variant {
                    schedule: Schedule::Blocked,
                    parallel,
                },
                &wq,
                &bop,
                &mut c,
                n,
                x_scale,
                None,
                Epilogue::Relu6 { alpha: 0.0 },
            );
            c
        };
        assert_eq!(run(false), run(true), "serial vs column-split bits");
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
