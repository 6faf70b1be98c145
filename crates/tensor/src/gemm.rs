//! Cache-blocked, packed GEMM — the single kernel behind every matmul
//! variant and the convolution forward path.
//!
//! The kernel follows the classic BLIS/GotoBLAS decomposition: the `n`
//! dimension is split into `NC` strips, the `k` dimension into `KC` panels,
//! and the `m` dimension into `MC` blocks. For each `(KC, NC)` panel B is
//! packed into contiguous `KC x NR` slivers, and for each `(MC, KC)` block A
//! is packed into `KC x MR` slivers; an `MR x NR` register-tile microkernel
//! with a fully unrolled inner loop then walks the packed panels. Packing
//! happens in thread-local scratch buffers (see [`crate::threadpool`]) so
//! steady-state GEMMs allocate nothing.
//!
//! Every f32 GEMM runs this one blocked schedule, whatever its shape. The
//! only shape rule is whether the rows split across the worker pool (from
//! `2¹⁷` multiply-adds), and that is a speed decision, not a bit decision.
//! `KC` is fixed and the microkernel keeps every output element in its own
//! accumulator, so an element's bits depend only on its row of A, its
//! column of B and `k` — never on `m`, `n`, the row split or the thread
//! count. A batched linear layer therefore equals its batch-1 replay bit for
//! bit, and a column strip of a pointwise conv equals the same columns of
//! the full-plane GEMM.
//!
//! The right operand does not have to be a materialized matrix: the conv
//! forward path hands the packing loop an `Im2colRef`, a *virtual* im2col
//! layout that gathers panel slivers straight out of the input image. The
//! packed bytes are identical to packing a materialized column matrix, so
//! the implicit path is bitwise-equal to a GEMM over that matrix while never
//! writing the `[c_in*kh*kw, ho*wo]` buffer at all. Either operand may also
//! come prepacked ([`PackedA`], [`PackedB`]): the kernel then slices the
//! panels instead of packing them, with the same bytes and the same bits.
//!
//! Builds target baseline `x86-64`, so on x86-64 hosts the tile loop
//! dispatches at runtime (via `is_x86_feature_detected!`) to an AVX2+FMA
//! microkernel with eight independent accumulator chains; every other
//! configuration uses the portable autovectorized kernel.
//!
//! Transposed operands (`matmul_nt`, `matmul_tn`, and the conv gradients)
//! are handled at pack time: the pack routines read A / B through either
//! layout, so all four variants share one microkernel and one parallel
//! scheduler. Parallelism splits the `m` dimension only; every output element
//! is produced by exactly one thread with a fixed k-accumulation order, so
//! results are bitwise identical regardless of thread count.

use crate::eltwise::Epilogue;
use crate::threadpool::{self, with_scratch, SharedMut, GEMM_PACK_A, GEMM_PACK_B};
use crate::ConvGeometry;

/// Microkernel tile height (rows of C held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of C held in registers).
pub const NR: usize = 8;
/// Rows of A packed per L2-resident block (multiple of `MR`).
const MC: usize = 64;
/// Depth of a packed panel (inner dimension per pass). The k-split order
/// fixes the accumulation order and therefore the output bits.
const KC: usize = 256;
/// Columns of B packed per strip (multiple of `NR`).
const NC: usize = 256;

/// Whether an `m x k` by `k x n` problem splits its rows across the worker
/// pool: from `2¹⁷` multiply-adds, below which one thread beats pool
/// dispatch. Every row chunk runs the full blocked algorithm, so the bits
/// never depend on the answer.
pub(crate) fn parallel(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= 1 << 17
}

/// General matrix multiply: `C = A' * B'` (or `C += A' * B'`).
///
/// `A'` is the logical `m x k` left operand: the slice `a` stores it
/// row-major when `a_trans` is false, or as its `k x m` row-major transpose
/// when `a_trans` is true (so `matmul_tn` needs no materialized transpose).
/// `B'` is the logical `k x n` right operand with the same convention:
/// `b_trans` means `b` stores the `n x k` transpose.
///
/// When `accumulate` is false, `c` is overwritten; if `row_init` is given
/// (length `m`), element `c[i, j]` starts from `row_init[i]` instead of zero
/// — this is how the convolution forward pass fuses its bias add into the
/// GEMM epilogue. When `accumulate` is true, the product is added onto the
/// existing contents of `c` (`row_init` must be `None`).
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated dimensions or if
/// `row_init` is combined with `accumulate`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
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
    assert_eq!(a.len(), m * k, "gemm lhs buffer length");
    assert_eq!(b.len(), k * n, "gemm rhs buffer length");
    drive(
        &AOperand::Mat { a, trans: a_trans },
        &BOperand::Mat { b, trans: b_trans },
        c,
        m,
        k,
        n,
        row_init,
        accumulate,
        Epilogue::None,
    );
}

/// The one driver behind every f32 GEMM entry point:
/// `C = act(A' * B' + row_init)`, or `C += A' * B'` with `accumulate` (and
/// no activation). It handles the degenerate shapes, splits `MR`-aligned
/// row chunks across the pool where [`parallel`] says so, and applies the
/// activation to each finished chunk, which equals a separate pass
/// afterwards because the activation is pointwise.
#[allow(clippy::too_many_arguments)]
fn drive(
    aop: &AOperand,
    bop: &BOperand,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    row_init: Option<&[f32]>,
    accumulate: bool,
    act: Epilogue,
) {
    assert_eq!(c.len(), m * n, "gemm out buffer length");
    if let Some(init) = row_init {
        assert_eq!(init.len(), m, "gemm row_init length");
        assert!(!accumulate, "gemm row_init requires accumulate = false");
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No products to add: the epilogue alone defines the output.
        if !accumulate {
            for (i, row) in c.chunks_exact_mut(n).enumerate() {
                row.fill(row_init.map_or(0.0, |r| r[i]));
            }
            act.apply(c);
        }
        return;
    }
    let threads = threadpool::num_threads();
    if !parallel(m, k, n) || threads <= 1 || m < 2 * MR {
        gemm_blocked(aop, bop, c, 0, m, m, k, n, row_init, accumulate);
        act.apply(c);
        return;
    }
    // Split rows into MR-aligned chunks, one task each. Each task runs the
    // full blocked algorithm on its row range, so the k-order per output
    // element (and hence the bit pattern) is independent of the split.
    let chunk = m.div_ceil(threads).div_ceil(MR) * MR;
    let tasks = m.div_ceil(chunk);
    let shared_c = SharedMut::new(c);
    threadpool::parallel_for(tasks, &|t| {
        let i0 = t * chunk;
        let rows = chunk.min(m - i0);
        // Safety: row ranges [i0, i0 + rows) are disjoint across tasks.
        let c_rows = unsafe { shared_c.slice(i0 * n, rows * n) };
        gemm_blocked(aop, bop, c_rows, i0, rows, m, k, n, row_init, accumulate);
        act.apply(c_rows);
    });
}

/// Element of the logical `k x n` right operand (see [`gemm`] layout rules).
#[inline(always)]
fn b_at(b: &[f32], b_trans: bool, k: usize, n: usize, p: usize, j: usize) -> f32 {
    if b_trans {
        b[j * k + p]
    } else {
        b[p * n + j]
    }
}

/// A convolution input viewed as its im2col column matrix without
/// materializing it: row `p = (ci*kh + ki)*kw + kj`, column `j = oi*wo + oj`
/// maps to input element `(ci, oi*sh + ki - ph, oj*sw + kj - pw)`, with
/// zeros outside the image. [`Im2colRef::pack`] gathers `KC x NR` panel
/// slivers in exactly the layout [`pack_b`] would produce from the
/// materialized matrix, which is what makes the implicit conv path
/// bitwise-equal to a GEMM over that matrix.
#[derive(Clone, Copy)]
pub(crate) struct Im2colRef<'a> {
    /// One sample, `[c_in, h, w]` flat.
    pub x: &'a [f32],
    pub c_in: usize,
    pub h: usize,
    pub w: usize,
    pub geom: ConvGeometry,
    pub ho: usize,
    pub wo: usize,
}

impl Im2colRef<'_> {
    /// Virtual row count: `c_in * kh * kw`.
    pub(crate) fn rows(&self) -> usize {
        self.c_in * self.geom.kh * self.geom.kw
    }

    /// Virtual column count: `ho * wo`.
    pub(crate) fn cols(&self) -> usize {
        self.ho * self.wo
    }

    /// Element `(p, j)` of the virtual column matrix.
    #[inline]
    fn at(&self, p: usize, j: usize) -> f32 {
        let ker = self.geom.kh * self.geom.kw;
        let ci = p / ker;
        let r = p % ker;
        let (ki, kj) = (r / self.geom.kw, r % self.geom.kw);
        let (oi, oj) = (j / self.wo, j % self.wo);
        let ii = (oi * self.geom.sh + ki) as isize - self.geom.ph as isize;
        let jj = (oj * self.geom.sw + kj) as isize - self.geom.pw as isize;
        if ii < 0 || ii >= self.h as isize || jj < 0 || jj >= self.w as isize {
            0.0
        } else {
            self.x[(ci * self.h + ii as usize) * self.w + jj as usize]
        }
    }

    /// Packs the `kc x nc` virtual panel at `(p0, j0)` into `NR`-wide
    /// slivers, byte-identical to [`pack_b`] over the materialized matrix.
    ///
    /// The inner loop walks virtual rows with an incrementally maintained
    /// `(ci, ki, kj)` decomposition; sliver columns that stay inside one
    /// output row of a stride-1 conv and land fully interior reduce to a
    /// `copy_from_slice` from the input row — the common case for the
    /// `NR`-aligned strips of TinyNet feature maps.
    fn pack(&self, bp: &mut [f32], p0: usize, kc: usize, j0: usize, nc: usize) {
        let (kh, kw) = (self.geom.kh, self.geom.kw);
        let (sh, sw) = (self.geom.sh, self.geom.sw);
        let (ph, pw) = (self.geom.ph, self.geom.pw);
        let (h, w, wo) = (self.h, self.w, self.wo);
        let panels = nc.div_ceil(NR);
        for jr in 0..panels {
            let j_base = j0 + jr * NR;
            let width = NR.min(j0 + nc - j_base);
            let dst = &mut bp[jr * kc * NR..(jr * kc + kc) * NR];
            let (oi0, oj0) = (j_base / wo, j_base % wo);
            // All `width` columns share one output row iff they don't wrap.
            let single_row = oj0 + width <= wo;
            let mut ci = p0 / (kh * kw);
            let rem = p0 % (kh * kw);
            let (mut ki, mut kj) = (rem / kw, rem % kw);
            for (p, chunk) in dst.chunks_exact_mut(NR).take(kc).enumerate() {
                // `chunks_exact_mut` guarantees the sliver length; the
                // fixed-size view turns the 8-float copies and zero fills
                // below into single vector moves instead of memcpy/memset
                // calls — the per-sliver call overhead dominates the pack
                // otherwise.
                let fixed: &mut [f32; NR] = chunk.try_into().expect("NR-wide sliver");
                if single_row {
                    let ii = (oi0 * sh + ki) as isize - ph as isize;
                    if ii < 0 || ii >= h as isize {
                        *fixed = [0.0; NR];
                    } else {
                        let src_row =
                            &self.x[(ci * h + ii as usize) * w..(ci * h + ii as usize + 1) * w];
                        let jj0 = (oj0 * sw + kj) as isize - pw as isize;
                        if sw == 1 && jj0 >= 0 && jj0 as usize + width <= w {
                            if width == NR {
                                let src: &[f32; NR] = (&src_row[jj0 as usize..jj0 as usize + NR])
                                    .try_into()
                                    .expect("NR-wide source");
                                *fixed = *src;
                            } else {
                                fixed[..width]
                                    .copy_from_slice(&src_row[jj0 as usize..jj0 as usize + width]);
                                fixed[width..].fill(0.0);
                            }
                        } else if sw == 1 {
                            // Partially out-of-bounds row: zero prefix and
                            // suffix around one contiguous in-bounds copy.
                            let lo = (-jj0).clamp(0, width as isize) as usize;
                            let hi = (w as isize - jj0).clamp(0, width as isize) as usize;
                            let hi = hi.max(lo);
                            *fixed = [0.0; NR];
                            if hi > lo {
                                fixed[lo..hi].copy_from_slice(
                                    &src_row[(jj0 + lo as isize) as usize..][..hi - lo],
                                );
                            }
                        } else {
                            for (j, v) in fixed.iter_mut().enumerate() {
                                *v = if j < width {
                                    let jj = jj0 + (j * sw) as isize;
                                    if jj < 0 || jj >= w as isize {
                                        0.0
                                    } else {
                                        src_row[jj as usize]
                                    }
                                } else {
                                    0.0
                                };
                            }
                        }
                    }
                } else {
                    // Sliver wraps across output rows: general gather.
                    for (j, v) in fixed.iter_mut().enumerate() {
                        *v = if j < width {
                            self.at(p0 + p, j_base + j)
                        } else {
                            0.0
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
        }
    }
}
/// The left operand of the blocked kernel: a matrix (possibly stored
/// transposed) packed block by block, or panels packed once by
/// [`pack_a_full`].
enum AOperand<'a> {
    Mat { a: &'a [f32], trans: bool },
    Packed(&'a [f32]),
}

impl AOperand<'_> {
    /// The `mc x kc` block at `(i0, p0)` in `MR`-sliver layout: packed into
    /// `scratch`, or sliced out of the prepacked panels. `i0` must be a
    /// multiple of `MR`, which `MC` and the row split guarantee.
    #[allow(clippy::too_many_arguments)]
    fn block<'s>(
        &'s self,
        scratch: &'s mut [f32],
        m: usize,
        k: usize,
        i0: usize,
        mc: usize,
        p0: usize,
        kc: usize,
    ) -> &'s [f32] {
        match self {
            AOperand::Mat { a, trans } => pack_a(scratch, a, *trans, m, k, i0, mc, p0, kc),
            AOperand::Packed(panels) => {
                return &panels[p0 * m.div_ceil(MR) * MR + i0 / MR * kc * MR..];
            }
        }
        scratch
    }
}

/// The right operand of the blocked kernel: a materialized matrix (possibly
/// stored transposed), a virtual im2col view of a conv input, or panels
/// packed once by [`PackedB::pack`].
enum BOperand<'a> {
    Mat { b: &'a [f32], trans: bool },
    Im2col(&'a Im2colRef<'a>),
    Packed(&'a [f32]),
}

impl BOperand<'_> {
    /// The `kc x nc` panel at `(p0, j0)` in `NR`-sliver layout: packed into
    /// `scratch` (the same bytes for a matrix and an im2col view), or sliced
    /// out of the prepacked panels. `j0` must be a multiple of `NR`, which
    /// `NC` guarantees.
    #[allow(clippy::too_many_arguments)]
    fn panel<'s>(
        &'s self,
        scratch: &'s mut [f32],
        k: usize,
        n: usize,
        p0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
    ) -> &'s [f32] {
        match self {
            BOperand::Mat { b, trans } => pack_b(scratch, b, *trans, k, n, p0, kc, j0, nc),
            BOperand::Im2col(im) => im.pack(scratch, p0, kc, j0, nc),
            BOperand::Packed(panels) => {
                return &panels[p0 * n.div_ceil(NR) * NR + j0 / NR * kc * NR..];
            }
        }
        scratch
    }
}

/// Packs the `kc x nc` panel of B starting at `(p0, j0)` into `NR`-wide
/// slivers: `bp[(jr * kc + p) * NR + j]` holds `B[p0 + p, j0 + jr * NR + j]`,
/// zero-padded past `n`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bp: &mut [f32],
    b: &[f32],
    b_trans: bool,
    k: usize,
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    for jr in 0..panels {
        let j_base = j0 + jr * NR;
        let width = NR.min(j0 + nc - j_base);
        let dst = &mut bp[jr * kc * NR..(jr * kc + kc) * NR];
        if !b_trans && width == NR {
            for (p, chunk) in dst.chunks_exact_mut(NR).enumerate() {
                chunk.copy_from_slice(&b[(p0 + p) * n + j_base..(p0 + p) * n + j_base + NR]);
            }
        } else {
            for (p, chunk) in dst.chunks_exact_mut(NR).enumerate() {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = if j < width {
                        b_at(b, b_trans, k, n, p0 + p, j_base + j)
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Packs the `mc x kc` block of A starting at `(i0, p0)` into `MR`-tall
/// slivers: `ap[(ir * kc + p) * MR + r]` holds `A[i0 + ir * MR + r, p0 + p]`,
/// zero-padded past `m`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ap: &mut [f32],
    a: &[f32],
    a_trans: bool,
    m: usize,
    k: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    for ir in 0..panels {
        let i_base = i0 + ir * MR;
        let height = MR.min(i0 + mc - i_base);
        let dst = &mut ap[ir * kc * MR..(ir * kc + kc) * MR];
        if a_trans {
            for (p, chunk) in dst.chunks_exact_mut(MR).enumerate() {
                let a_row = &a[(p0 + p) * m + i_base..(p0 + p) * m + i_base + height];
                for (r, v) in chunk.iter_mut().enumerate() {
                    *v = if r < height { a_row[r] } else { 0.0 };
                }
            }
        } else {
            for (p, chunk) in dst.chunks_exact_mut(MR).enumerate() {
                for (r, v) in chunk.iter_mut().enumerate() {
                    *v = if r < height {
                        a[(i_base + r) * k + p0 + p]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Packs the whole `m x k` left operand into the [`PackedA`] panel layout:
/// for each `KC`-deep k-panel starting at `pc`, all `m.div_ceil(MR)` row
/// slivers stored contiguously at `pc * m.div_ceil(MR) * MR`. Byte-identical
/// to what [`gemm_blocked`] packs on demand, panel by panel.
fn pack_a_full(panels: &mut [f32], a: &[f32], a_trans: bool, m: usize, k: usize) {
    let mb = m.div_ceil(MR);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let slab = &mut panels[pc * mb * MR..(pc + kc) * mb * MR];
        pack_a(slab, a, a_trans, m, k, 0, m, pc, kc);
    }
}

/// `MR x NR` register tile over packed slivers: the hot loop of the crate.
/// `ap` is one `kc x MR` sliver, `bp` one `kc x NR` sliver.
#[inline(always)]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a_p, b_p) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        // Fixed-size views so LLVM unrolls and vectorizes without bounds
        // checks; MR broadcasts against one NR-wide row per k step.
        let a_p: &[f32; MR] = a_p.try_into().unwrap();
        let b_p: &[f32; NR] = b_p.try_into().unwrap();
        for r in 0..MR {
            let a_v = a_p[r];
            for j in 0..NR {
                acc[r][j] += a_v * b_p[j];
            }
        }
    }
}

/// True when the runtime CPU supports the AVX2+FMA microkernel. The builds
/// target baseline `x86-64`, so this is a runtime decision, not a compile
/// flag; detection results are cached by `is_x86_feature_detected!`.
#[inline]
fn use_fma_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dispatches one register tile to the best available microkernel.
#[inline(always)]
fn run_microkernel(fma: bool, kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if fma {
        // Safety: `fma` is only true when AVX2+FMA were detected at runtime,
        // and the slivers are at least `kc` packed rows long.
        unsafe { x86::microkernel_fma(kc, ap, bp, acc) };
        return;
    }
    let _ = fma;
    microkernel(kc, ap, bp, acc);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use crate::simd::x86::{broadcast_f32, load_f32x8, store_f32x8};
    use core::arch::x86_64::*;

    /// AVX2+FMA twin of [`super::microkernel`]: each C row is one `ymm`
    /// accumulator, and k is unrolled by two into separate accumulator banks
    /// (8 independent FMA chains) so the loop is throughput-bound instead of
    /// FMA-latency-bound. The banks are summed at the end, so the k-reduction
    /// is pairwise — still a fixed order, just not the serial order of the
    /// scalar kernel.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` and `fma` target features at runtime, and sliver
    /// slices holding at least `kc` packed rows (`kc * MR` / `kc * NR`
    /// elements).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel_fma(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        let mut e0 = _mm256_setzero_ps();
        let mut e1 = _mm256_setzero_ps();
        let mut e2 = _mm256_setzero_ps();
        let mut e3 = _mm256_setzero_ps();
        let mut o0 = _mm256_setzero_ps();
        let mut o1 = _mm256_setzero_ps();
        let mut o2 = _mm256_setzero_ps();
        let mut o3 = _mm256_setzero_ps();
        // The slivers advance two packed rows per iteration; each access is
        // checked against what remains of them.
        let (mut ap, mut bp) = (ap, bp);
        for _ in 0..kc / 2 {
            let b0 = load_f32x8(bp, 0);
            e0 = _mm256_fmadd_ps(broadcast_f32(ap, 0), b0, e0);
            e1 = _mm256_fmadd_ps(broadcast_f32(ap, 1), b0, e1);
            e2 = _mm256_fmadd_ps(broadcast_f32(ap, 2), b0, e2);
            e3 = _mm256_fmadd_ps(broadcast_f32(ap, 3), b0, e3);
            let b1 = load_f32x8(bp, NR);
            o0 = _mm256_fmadd_ps(broadcast_f32(ap, MR), b1, o0);
            o1 = _mm256_fmadd_ps(broadcast_f32(ap, MR + 1), b1, o1);
            o2 = _mm256_fmadd_ps(broadcast_f32(ap, MR + 2), b1, o2);
            o3 = _mm256_fmadd_ps(broadcast_f32(ap, MR + 3), b1, o3);
            // Safety: the slivers hold `kc` packed rows, so two rows remain
            // on every iteration.
            ap = ap.get_unchecked(2 * MR..);
            bp = bp.get_unchecked(2 * NR..);
        }
        if kc % 2 == 1 {
            let b0 = load_f32x8(bp, 0);
            e0 = _mm256_fmadd_ps(broadcast_f32(ap, 0), b0, e0);
            e1 = _mm256_fmadd_ps(broadcast_f32(ap, 1), b0, e1);
            e2 = _mm256_fmadd_ps(broadcast_f32(ap, 2), b0, e2);
            e3 = _mm256_fmadd_ps(broadcast_f32(ap, 3), b0, e3);
        }
        let rows = [
            _mm256_add_ps(e0, o0),
            _mm256_add_ps(e1, o1),
            _mm256_add_ps(e2, o2),
            _mm256_add_ps(e3, o3),
        ];
        for (row, sum) in acc.iter_mut().zip(rows) {
            let prev = load_f32x8(row, 0);
            store_f32x8(row, 0, _mm256_add_ps(prev, sum));
        }
    }
}
/// The blocked kernel over the row range `[i0, i0 + mc_total)` of the full
/// `m x n` problem; `c` holds exactly those rows (`mc_total x n`,
/// row-major). Operands that are not prepacked are packed on demand into
/// thread-local scratch.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    aop: &AOperand,
    bop: &BOperand,
    c: &mut [f32],
    i0: usize,
    mc_total: usize,
    m: usize,
    k: usize,
    n: usize,
    row_init: Option<&[f32]>,
    accumulate: bool,
) {
    let fma = use_fma_kernel();
    let a_len = if matches!(aop, AOperand::Packed(_)) {
        0
    } else {
        KC * MC
    };
    let b_len = if matches!(bop, BOperand::Packed(_)) {
        0
    } else {
        KC * NC
    };
    with_scratch(&GEMM_PACK_B, b_len, |b_scratch| {
        with_scratch(&GEMM_PACK_A, a_len, |a_scratch| {
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let bp = bop.panel(b_scratch, k, n, pc, kc, jc, nc);
                    let first = pc == 0;
                    for ic in (0..mc_total).step_by(MC) {
                        let mc = MC.min(mc_total - ic);
                        let ap = aop.block(a_scratch, m, k, i0 + ic, mc, pc, kc);
                        macro_kernel(
                            ap, bp, c, ic, mc, jc, nc, n, kc, i0, row_init, accumulate, first, fma,
                        );
                    }
                }
            }
        })
    })
}

/// Walks the packed block: one microkernel call per `MR x NR` tile, then the
/// epilogue writes the tile into C (initializing from zero / `row_init` on
/// the first k-panel, accumulating afterwards).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    n: usize,
    kc: usize,
    i0: usize,
    row_init: Option<&[f32]>,
    accumulate: bool,
    first: bool,
    fma: bool,
) {
    for jr in 0..nc.div_ceil(NR) {
        let j_base = jc + jr * NR;
        let width = NR.min(jc + nc - j_base);
        let b_sliver = &bp[jr * kc * NR..(jr * kc + kc) * NR];
        for ir in 0..mc.div_ceil(MR) {
            let i_base = ic + ir * MR;
            let height = MR.min(ic + mc - i_base);
            let a_sliver = &ap[ir * kc * MR..(ir * kc + kc) * MR];
            let mut acc = [[0.0f32; NR]; MR];
            run_microkernel(fma, kc, a_sliver, b_sliver, &mut acc);
            for r in 0..height {
                let c_row = &mut c[(i_base + r) * n + j_base..(i_base + r) * n + j_base + width];
                if first && !accumulate {
                    let base = row_init.map_or(0.0, |init| init[i0 + i_base + r]);
                    for (c_v, &t) in c_row.iter_mut().zip(&acc[r]) {
                        *c_v = base + t;
                    }
                } else {
                    for (c_v, &t) in c_row.iter_mut().zip(&acc[r]) {
                        *c_v += t;
                    }
                }
            }
        }
    }
}
/// A left operand packed once into the GEMM panel format.
///
/// The panel layout is byte-identical to what [`gemm`] packs per call: for
/// each `KC`-deep k-panel starting at `pc`, all `m.div_ceil(MR)` row slivers
/// are stored contiguously at `pc * m.div_ceil(MR) * MR`, each sliver being
/// `kc x MR` (zero-padded past `m`). The blocked kernel then slices straight
/// into the prepacked buffer instead of repacking, so results stay bitwise
/// identical to the pack-on-demand path, serial or row-split, since the
/// layout depends only on `KC` and `MR`.
pub struct PackedA {
    panels: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs the logical `m x k` left operand (layout rules as in [`gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn pack(a: &[f32], a_trans: bool, m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "PackedA operand length");
        let mb = m.div_ceil(MR);
        let mut panels = vec![0.0f32; k * mb * MR];
        pack_a_full(&mut panels, a, a_trans, m, k);
        PackedA { panels, m, k }
    }

    /// Logical row count `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Logical inner dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Heap bytes held by the packed panels.
    pub fn bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }
}

/// A right operand packed once into the GEMM panel format.
///
/// Mirror image of [`PackedA`]: for each k-panel at `pc`, all
/// `n.div_ceil(NR)` column slivers live contiguously at
/// `pc * n.div_ceil(NR) * NR`, each `kc x NR` and zero-padded past `n`.
pub struct PackedB {
    panels: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs the logical `k x n` right operand (layout rules as in [`gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f32], b_trans: bool, k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "PackedB operand length");
        let nb = n.div_ceil(NR);
        let mut panels = vec![0.0f32; k * nb * NR];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let slab = &mut panels[pc * nb * NR..(pc + kc) * nb * NR];
            pack_b(slab, b, b_trans, k, n, pc, kc, 0, n);
        }
        PackedB { panels, k, n }
    }

    /// Logical inner dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical column count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Heap bytes held by the packed panels.
    pub fn bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }
}

/// [`gemm`] with a prepacked right operand and a fused activation epilogue:
/// `C = act(A' * B' + row_init)` — the kernel behind compiled linear layers,
/// where the weight is the right operand.
///
/// The prepacked panels are byte-identical to what [`gemm`] packs per call
/// and both run the same blocked schedule, so the output bits match `gemm`
/// followed by a separate elementwise activation pass, for every thread
/// count. Each output row depends only on its own row of `A'`, so a batch of
/// rows gives each row the bits it gets alone.
///
/// # Panics
///
/// Panics if slice lengths disagree with the packed dimensions.
pub fn gemm_b_packed(
    a: &[f32],
    a_trans: bool,
    pb: &PackedB,
    c: &mut [f32],
    m: usize,
    row_init: Option<&[f32]>,
    act: Epilogue,
) {
    assert_eq!(a.len(), m * pb.k, "gemm_b_packed lhs buffer length");
    drive(
        &AOperand::Mat { a, trans: a_trans },
        &BOperand::Packed(&pb.panels),
        c,
        m,
        pb.k,
        pb.n,
        row_init,
        false,
        act,
    );
}

/// The conv forward GEMM against a prepacked weight and a *virtual* im2col
/// right operand — the serving-path kernel behind `CompiledPlan`. See
/// [`Im2colRef`] for the bitwise contract with a materialized column matrix.
pub(crate) fn gemm_conv_packed(
    pa: &PackedA,
    im: &Im2colRef,
    c: &mut [f32],
    row_init: Option<&[f32]>,
    act: Epilogue,
) {
    assert_eq!(im.rows(), pa.k, "implicit conv operand inner dimension");
    drive(
        &AOperand::Packed(&pa.panels),
        &BOperand::Im2col(im),
        c,
        pa.m,
        pa.k,
        im.cols(),
        row_init,
        false,
        act,
    );
}

/// The conv forward GEMM against a prepacked weight and a *materialized*
/// right operand: `C = act(A' * B + row_init)` with `B` stored `k x n`
/// row-major. The 1x1 stride-1 unpadded fast path uses this: a pointwise
/// conv's column matrix is the input sample itself, so packing the sample
/// directly produces the same panel bytes as the virtual view with none of
/// the coordinate math.
pub(crate) fn gemm_conv_packed_mat(
    pa: &PackedA,
    b: &[f32],
    c: &mut [f32],
    n: usize,
    row_init: Option<&[f32]>,
    act: Epilogue,
) {
    assert_eq!(b.len(), pa.k * n, "pointwise conv operand length");
    drive(
        &AOperand::Packed(&pa.panels),
        &BOperand::Mat { b, trans: false },
        c,
        pa.m,
        pa.k,
        n,
        row_init,
        false,
        act,
    );
}

/// The conv forward GEMM with an unpacked weight matrix and virtual im2col
/// right operands — the training-path kernel behind `conv2d_into`.
///
/// Batched: the weight matrix is packed into panel form **once**, in
/// thread-local scratch, and reused by every sample's GEMM instead of being
/// repacked per sample. `im` is the virtual im2col view of sample 0;
/// sample `i` applies the same geometry to `batch[i * in_sz..]`. Samples
/// run in parallel when the pool is wider than one thread (each worker
/// packs its B panels into its own scratch), and a lone sample splits its
/// rows like any other GEMM.
///
/// Bitwise identical to running each sample's GEMM through [`gemm`] on the
/// materialized column matrix: the prepacked panel bytes match the
/// pack-on-demand path and the per-sample GEMMs are independent.
pub(crate) fn gemm_conv_batch(
    ws: &[f32],
    im: &Im2colRef,
    batch: &[f32],
    out: &mut [f32],
    c_out: usize,
    row_init: Option<&[f32]>,
) {
    let (k, n) = (im.rows(), im.cols());
    assert_eq!(ws.len(), c_out * k, "implicit conv weight length");
    let in_sz = im.c_in * im.h * im.w;
    if in_sz == 0 || k == 0 || batch.is_empty() {
        // Degenerate operand: every output row is just its initializer.
        for (row, o) in out.chunks_exact_mut(n.max(1)).enumerate() {
            let base = row_init.map_or(0.0, |r| r[row % c_out.max(1)]);
            o.iter_mut().for_each(|v| *v = base);
        }
        return;
    }
    assert_eq!(batch.len() % in_sz, 0, "implicit conv batch length");
    let ns = batch.len() / in_sz;
    let out_sz = c_out * n;
    assert_eq!(out.len(), ns * out_sz, "implicit conv output length");
    if c_out == 0 || n == 0 {
        return;
    }
    with_scratch(&GEMM_PACK_A, k * c_out.div_ceil(MR) * MR, |panels| {
        pack_a_full(panels, ws, false, c_out, k);
        let aop = AOperand::Packed(panels);
        let shared_out = SharedMut::new(out);
        threadpool::parallel_for(ns, &|ni| {
            // Safety: each task writes only its own sample's window.
            let o = unsafe { shared_out.slice(ni * out_sz, out_sz) };
            let sample = Im2colRef {
                x: &batch[ni * in_sz..(ni + 1) * in_sz],
                ..*im
            };
            let bop = BOperand::Im2col(&sample);
            drive(&aop, &bop, o, c_out, k, n, row_init, false, Epilogue::None);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threadpool::with_thread_cap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fill(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn same_bits(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Reference kernel: simple loops, no packing, the ground truth the
    /// blocked kernel is held to.
    #[allow(clippy::too_many_arguments)]
    fn gemm_naive(
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
        if !accumulate {
            for i in 0..m {
                let base = row_init.map_or(0.0, |r| r[i]);
                c[i * n..(i + 1) * n].iter_mut().for_each(|v| *v = base);
            }
        }
        match (a_trans, b_trans) {
            (false, false) => {
                for i in 0..m {
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (p, &a_ip) in a_row.iter().enumerate() {
                        let b_row = &b[p * n..(p + 1) * n];
                        for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                            *c_ij += a_ip * b_pj;
                        }
                    }
                }
            }
            (false, true) => {
                for i in 0..m {
                    let a_row = &a[i * k..(i + 1) * k];
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (j, c_ij) in c_row.iter_mut().enumerate() {
                        let b_row = &b[j * k..(j + 1) * k];
                        let mut acc = 0.0f32;
                        for (x, y) in a_row.iter().zip(b_row) {
                            acc += x * y;
                        }
                        *c_ij += acc;
                    }
                }
            }
            (true, false) => {
                for p in 0..k {
                    let a_row = &a[p * m..(p + 1) * m];
                    let b_row = &b[p * n..(p + 1) * n];
                    for (i, &a_pi) in a_row.iter().enumerate() {
                        if a_pi == 0.0 {
                            continue;
                        }
                        let c_row = &mut c[i * n..(i + 1) * n];
                        for (c_ij, &b_pj) in c_row.iter_mut().zip(b_row) {
                            *c_ij += a_pi * b_pj;
                        }
                    }
                }
            }
            (true, true) => {
                for i in 0..m {
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (j, c_ij) in c_row.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += a[p * m + i] * b[j * k + p];
                        }
                        *c_ij += acc;
                    }
                }
            }
        }
    }

    /// Shapes chosen to stress every tail: non-multiples of MR/NR/MC/KC/NC,
    /// unit dimensions, and panel-boundary +/- 1 cases.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (5, 1, 9),
        (1, 300, 1),
        (4, 8, 8),
        (7, 13, 11),
        (16, 16, 16),
        (33, 65, 17),
        (64, 64, 64),
        (65, 255, 63),
        (40, 256, 24),
        (40, 257, 24),
        (3, 513, 130),
        (130, 30, 300),
        (128, 128, 128),
    ];

    fn check_variant(a_trans: bool, b_trans: bool) {
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            gemm(&a, a_trans, &b, b_trans, &mut got, m, k, n, None, false);
            gemm_naive(&a, a_trans, &b, b_trans, &mut want, m, k, n, None, false);
            let diff = got
                .iter()
                .zip(&want)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(
                diff <= 1e-4 * (k as f32).sqrt(),
                "({m},{k},{n}) at={a_trans} bt={b_trans}: max diff {diff}"
            );
        }
    }

    #[test]
    fn blocked_matches_naive_nn() {
        check_variant(false, false);
    }

    #[test]
    fn blocked_matches_naive_nt() {
        check_variant(false, true);
    }

    #[test]
    fn blocked_matches_naive_tn() {
        check_variant(true, false);
    }

    #[test]
    fn blocked_matches_naive_tt() {
        check_variant(true, true);
    }

    #[test]
    fn all_blocked_schedules_are_bitwise_equal() {
        // The row split hands each task an MR-aligned chunk that runs the
        // full blocked algorithm, so any such chunking (including ones the
        // pool never picks) must reproduce the single-pass bits.
        let mut rng = StdRng::seed_from_u64(77);
        for &(m, k, n) in &[(33usize, 65usize, 17usize), (65, 255, 63), (128, 128, 128)] {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let aop = AOperand::Mat {
                a: &a,
                trans: false,
            };
            let bop = BOperand::Mat {
                b: &b,
                trans: false,
            };
            let run = |chunk: usize| {
                let mut c = vec![0.0f32; m * n];
                for (t, rows) in c.chunks_mut(chunk * n).enumerate() {
                    let mc = rows.len() / n;
                    gemm_blocked(&aop, &bop, rows, t * chunk, mc, m, k, n, None, false);
                }
                c
            };
            let whole = run(m);
            for chunk in [MR, 2 * MR, 3 * MR] {
                assert!(
                    same_bits(&whole, &run(chunk)),
                    "({m},{k},{n}) row chunks of {chunk} diverged"
                );
            }
        }
    }

    #[test]
    fn static_rules_switch_at_their_thresholds() {
        // The row split starts at 2^17 multiply-adds.
        assert!(!parallel(131071, 1, 1), "gemm 131071x1x1 split");
        assert!(parallel(131072, 1, 1), "gemm 131072x1x1 not split");
    }

    #[test]
    fn output_bits_do_not_depend_on_m_or_n() {
        // An element's bits depend only on its row of A, its column of B
        // and k. So each row of an m-row product equals the 1-row product
        // of that row (a batched linear layer against its batch-1 replay),
        // and a column window of a pointwise conv equals the same columns
        // of the full-width call (a fused strip against the full plane).
        let mut rng = StdRng::seed_from_u64(51);
        for k in [48usize, 64, 300] {
            for n in [4usize, 10, 37] {
                let a = fill(16 * k, &mut rng);
                let b = fill(k * n, &mut rng);
                for (a_trans, b_trans) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let solo: Vec<Vec<f32>> = (0..16)
                        .map(|i| {
                            let mut c = vec![0.0f32; n];
                            let row = &a[i * k..(i + 1) * k];
                            gemm(row, a_trans, &b, b_trans, &mut c, 1, k, n, None, false);
                            c
                        })
                        .collect();
                    let pb = PackedB::pack(&b, b_trans, k, n);
                    for m in 1..=16 {
                        let rows = &a[..m * k];
                        let stored: Vec<f32> = if a_trans {
                            (0..m * k).map(|t| rows[(t % m) * k + t / m]).collect()
                        } else {
                            rows.to_vec()
                        };
                        let mut c = vec![0.0f32; m * n];
                        gemm(&stored, a_trans, &b, b_trans, &mut c, m, k, n, None, false);
                        let mut cp = vec![0.0f32; m * n];
                        gemm_b_packed(&stored, a_trans, &pb, &mut cp, m, None, Epilogue::None);
                        for (i, want) in solo.iter().enumerate().take(m) {
                            assert!(
                                same_bits(&c[i * n..(i + 1) * n], want)
                                    && same_bits(&cp[i * n..(i + 1) * n], want),
                                "k={k} n={n} at={a_trans} bt={b_trans}: row {i} of {m} \
                                 differs from its 1-row product"
                            );
                        }
                    }
                }
                // A pointwise conv with n output channels over 16 pixels.
                let w = fill(n * k, &mut rng);
                let x = fill(k * 16, &mut rng);
                let bias = fill(n, &mut rng);
                let pa = PackedA::pack(&w, false, n, k);
                let act = Epilogue::Relu6 { alpha: 0.1 };
                let mut full = vec![0.0f32; n * 16];
                crate::conv2d_pointwise_mat_into(&pa, &x, &mut full, 16, Some(&bias), act);
                for j0 in [0usize, 5] {
                    for j1 in j0 + 1..=16 {
                        let width = j1 - j0;
                        let strip_in: Vec<f32> = x
                            .chunks_exact(16)
                            .flat_map(|row| row[j0..j1].iter().copied())
                            .collect();
                        let mut strip = vec![0.0f32; n * width];
                        crate::conv2d_pointwise_mat_into(
                            &pa,
                            &strip_in,
                            &mut strip,
                            width,
                            Some(&bias),
                            act,
                        );
                        for i in 0..n {
                            assert!(
                                same_bits(
                                    &strip[i * width..(i + 1) * width],
                                    &full[i * 16 + j0..i * 16 + j1]
                                ),
                                "k={k} n={n}: columns {j0}..{j1} differ from the full width"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_init_seeds_output() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[(3usize, 5usize, 4usize), (65, 129, 33)] {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let init = fill(m, &mut rng);
            let mut got = vec![0.0f32; m * n];
            gemm(&a, false, &b, false, &mut got, m, k, n, Some(&init), false);
            let mut want = vec![0.0f32; m * n];
            gemm_naive(&a, false, &b, false, &mut want, m, k, n, Some(&init), false);
            let diff = got
                .iter()
                .zip(&want)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(diff <= 1e-4 * (k as f32).sqrt(), "({m},{k},{n}): {diff}");
        }
    }

    #[test]
    fn accumulate_adds_onto_existing() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (33, 70, 29);
        let a = fill(m * k, &mut rng);
        let b = fill(k * n, &mut rng);
        let start = fill(m * n, &mut rng);
        let mut got = start.clone();
        gemm(&a, false, &b, false, &mut got, m, k, n, None, true);
        let mut prod = vec![0.0f32; m * n];
        gemm_naive(&a, false, &b, false, &mut prod, m, k, n, None, false);
        for i in 0..m * n {
            assert!((got[i] - (start[i] + prod[i])).abs() < 1e-3);
        }
    }

    #[test]
    fn k_zero_writes_init() {
        let mut c = vec![9.0f32; 6];
        gemm(
            &[],
            false,
            &[],
            false,
            &mut c,
            2,
            0,
            3,
            Some(&[1.0, 2.0]),
            false,
        );
        assert_eq!(c, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let mut c2 = vec![5.0f32; 6];
        gemm(&[], false, &[], false, &mut c2, 2, 0, 3, None, true);
        assert_eq!(c2, vec![5.0f32; 6]);
    }

    #[test]
    fn packed_a_matches_gemm_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let init = fill(m, &mut rng);
            for (a_trans, row_init) in [(false, None), (true, Some(&init[..]))] {
                let stored = if a_trans {
                    // Re-lay A as its k x m transpose.
                    let mut t = vec![0.0f32; m * k];
                    for i in 0..m {
                        for p in 0..k {
                            t[p * m + i] = a[i * k + p];
                        }
                    }
                    t
                } else {
                    a.clone()
                };
                let pa = PackedA::pack(&stored, a_trans, m, k);
                let mut got = vec![0.0f32; m * n];
                gemm_conv_packed_mat(&pa, &b, &mut got, n, row_init, Epilogue::None);
                let mut want = vec![0.0f32; m * n];
                gemm(
                    &stored, a_trans, &b, false, &mut want, m, k, n, row_init, false,
                );
                assert!(
                    same_bits(&got, &want),
                    "({m},{k},{n}) at={a_trans}: packed A not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn packed_b_matches_gemm_bitwise() {
        let mut rng = StdRng::seed_from_u64(22);
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            for b_trans in [false, true] {
                let stored = if b_trans {
                    let mut t = vec![0.0f32; k * n];
                    for p in 0..k {
                        for j in 0..n {
                            t[j * k + p] = b[p * n + j];
                        }
                    }
                    t
                } else {
                    b.clone()
                };
                let pb = PackedB::pack(&stored, b_trans, k, n);
                let mut got = vec![0.0f32; m * n];
                gemm_b_packed(&a, false, &pb, &mut got, m, None, Epilogue::None);
                let mut want = vec![0.0f32; m * n];
                gemm(&a, false, &stored, b_trans, &mut want, m, k, n, None, false);
                assert!(
                    same_bits(&got, &want),
                    "({m},{k},{n}) bt={b_trans}: packed B not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn packed_epilogue_matches_separate_pass_bitwise() {
        use crate::eltwise::{relu6_decay_slice, relu_decay_slice};
        let mut rng = StdRng::seed_from_u64(23);
        // One serial shape, and two that split across the pool at default width.
        for &(m, k, n) in &[(7usize, 13usize, 11usize), (40, 256, 24), (128, 128, 128)] {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let init = fill(m, &mut rng);
            let pa = PackedA::pack(&a, false, m, k);
            for alpha in [0.0f32, 0.25] {
                #[allow(clippy::type_complexity)]
                let cases: [(Epilogue, fn(&mut [f32], f32)); 2] = [
                    (Epilogue::Relu { alpha }, relu_decay_slice),
                    (Epilogue::Relu6 { alpha }, relu6_decay_slice),
                ];
                for (act, reference) in cases {
                    let mut got = vec![0.0f32; m * n];
                    gemm_conv_packed_mat(&pa, &b, &mut got, n, Some(&init), act);
                    let mut want = vec![0.0f32; m * n];
                    gemm(&a, false, &b, false, &mut want, m, k, n, Some(&init), false);
                    reference(&mut want, alpha);
                    assert!(
                        same_bits(&got, &want),
                        "({m},{k},{n}) {act:?}: fused epilogue not bitwise equal"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_thread_count_does_not_change_bits() {
        let mut rng = StdRng::seed_from_u64(24);
        let (m, k, n) = (97usize, 301usize, 83usize);
        let a = fill(m * k, &mut rng);
        let b = fill(k * n, &mut rng);
        let pa = PackedA::pack(&a, false, m, k);
        let act = Epilogue::Relu { alpha: 0.1 };
        let mut wide = vec![0.0f32; m * n];
        gemm_conv_packed_mat(&pa, &b, &mut wide, n, None, act);
        let mut narrow = vec![0.0f32; m * n];
        with_thread_cap(1, || {
            gemm_conv_packed_mat(&pa, &b, &mut narrow, n, None, act);
        });
        assert!(same_bits(&wide, &narrow));
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let mut rng = StdRng::seed_from_u64(9);
        // Big enough to take the parallel path at default width.
        for &(m, k, n) in &[(128usize, 128usize, 128usize), (97, 301, 83)] {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let mut wide = vec![0.0f32; m * n];
            gemm(&a, false, &b, false, &mut wide, m, k, n, None, false);
            let mut narrow = vec![0.0f32; m * n];
            with_thread_cap(1, || {
                gemm(&a, false, &b, false, &mut narrow, m, k, n, None, false);
            });
            assert!(
                same_bits(&wide, &narrow),
                "({m},{k},{n}) not bitwise equal across thread counts"
            );
        }
    }

    /// Materializes the full im2col matrix through the virtual view, for
    /// comparison against [`crate::conv::im2col`].
    fn materialize(im: &Im2colRef) -> Vec<f32> {
        let (k, n) = (im.rows(), im.cols());
        let mut cols = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                cols[p * n + j] = im.at(p, j);
            }
        }
        cols
    }

    #[test]
    fn virtual_pack_matches_explicit_pack_bytes() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(c_in, h, w, ks, stride, pad) in &[
            (3usize, 9usize, 9usize, 3usize, 1usize, 1usize),
            (2, 7, 6, 3, 2, 1),
            (4, 8, 8, 5, 1, 2),
            (1, 5, 5, 1, 1, 0),
            (2, 6, 11, 3, 1, 0),
            (3, 16, 16, 5, 2, 2),
        ] {
            let geom = ConvGeometry::square(ks, stride, pad);
            let (ho, wo) = geom.output_hw(h, w);
            let x = fill(c_in * h * w, &mut rng);
            let im = Im2colRef {
                x: &x,
                c_in,
                h,
                w,
                geom,
                ho,
                wo,
            };
            let (k, n) = (im.rows(), im.cols());
            let cols = materialize(&im);
            // Panel grid crossing KC and NR boundaries plus ragged tails.
            for &(p0, kc) in &[(0usize, k.min(5)), (k / 2, k - k / 2), (0, k)] {
                for &(j0, nc) in &[
                    (0usize, n),
                    (0, n.min(13)),
                    (8.min(n - 1), n - 8.min(n - 1)),
                ] {
                    let len = kc * nc.div_ceil(NR) * NR;
                    let mut virt = vec![7.0f32; len];
                    let mut expl = vec![7.0f32; len];
                    im.pack(&mut virt, p0, kc, j0, nc);
                    pack_b(&mut expl, &cols, false, k, n, p0, kc, j0, nc);
                    assert!(
                        same_bits(&virt, &expl),
                        "c={c_in} h={h} w={w} k={ks} s={stride} p={pad} \
                         panel p0={p0} kc={kc} j0={j0} nc={nc}: pack bytes diverge"
                    );
                }
            }
        }
    }

    #[test]
    fn implicit_gemm_matches_explicit_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        for &(c_out, c_in, h, w, ks, stride, pad) in &[
            (4usize, 3usize, 9usize, 9usize, 3usize, 1usize, 1usize),
            (16, 16, 16, 16, 3, 1, 1),
            (8, 4, 10, 10, 5, 2, 2),
            (5, 2, 6, 6, 1, 1, 0),
        ] {
            let geom = ConvGeometry::square(ks, stride, pad);
            let (ho, wo) = geom.output_hw(h, w);
            let x = fill(c_in * h * w, &mut rng);
            let ws = fill(c_out * c_in * ks * ks, &mut rng);
            let bias = fill(c_out, &mut rng);
            let im = Im2colRef {
                x: &x,
                c_in,
                h,
                w,
                geom,
                ho,
                wo,
            };
            let (k, n) = (im.rows(), im.cols());
            let cols = materialize(&im);
            let mut implicit = vec![0.0f32; c_out * n];
            gemm_conv_batch(&ws, &im, &x, &mut implicit, c_out, Some(&bias));
            let mut explicit = vec![0.0f32; c_out * n];
            gemm(
                &ws,
                false,
                &cols,
                false,
                &mut explicit,
                c_out,
                k,
                n,
                Some(&bias),
                false,
            );
            assert!(
                same_bits(&implicit, &explicit),
                "co={c_out} ci={c_in} k={ks} s={stride} p={pad}: implicit != explicit"
            );
            // Prepacked-weight implicit path, with a fused epilogue.
            let pa = PackedA::pack(&ws, false, c_out, k);
            let mut packed = vec![0.0f32; c_out * n];
            gemm_conv_packed(
                &pa,
                &im,
                &mut packed,
                Some(&bias),
                Epilogue::Relu { alpha: 0.0 },
            );
            let mut reference = explicit.clone();
            crate::eltwise::relu_decay_slice(&mut reference, 0.0);
            assert!(
                same_bits(&packed, &reference),
                "co={c_out} ci={c_in} k={ks}: packed implicit != explicit + act"
            );
        }
    }
}
