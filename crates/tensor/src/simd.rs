//! Checked AVX2 access and the channel-lane walk.
//!
//! The AVX2 kernels of the depthwise forward, batch norm and the 1x1
//! depthwise backward load and store through the helpers here. Each helper
//! `debug_assert!`s that its whole footprint lies inside the slice it
//! touches, so a debug build (the one `cargo test` runs) turns every bitwise
//! property grid over those kernels into a bounds check as well. In a
//! release build the assertion compiles away and the helper inlines to the
//! bare intrinsic.
//!
//! ## Channel lanes
//!
//! A per-channel reduction over an `[n, c, h, w]` tensor is one serial
//! chain of dependent adds per channel. [`x86::for_each_lane_pixel`] runs
//! eight such chains in one register: lane `l` carries channel `c0 + l`.
//! It reads eight pixels of each of the eight channel planes, transposes the
//! 8x8 block in registers and hands the kernel one vector per pixel, in flat
//! `(sample, pixel)` order, so every lane sees exactly the sequence its
//! channel's scalar loop sees. The same channels-innermost addressing is how
//! channels-last convolution layouts vectorize.

/// Channels one lane vector carries.
pub(crate) const LANES: usize = 8;

/// True when the running CPU has AVX2. Detection is cached by the standard
/// library, so kernels call this per invocation.
pub(crate) fn have_avx2() -> bool {
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
pub(crate) mod x86 {
    use super::LANES;
    use std::arch::x86_64::*;

    /// Loads `s[i..i + 8]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 8 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn load_f32x8(s: &[f32], i: usize) -> __m256 {
        debug_assert!(i + 8 <= s.len(), "f32x8 load at {i} of {}", s.len());
        _mm256_loadu_ps(s.as_ptr().add(i))
    }

    /// Stores `v` to `s[i..i + 8]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 8 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn store_f32x8(s: &mut [f32], i: usize, v: __m256) {
        debug_assert!(i + 8 <= s.len(), "f32x8 store at {i} of {}", s.len());
        _mm256_storeu_ps(s.as_mut_ptr().add(i), v)
    }

    /// Stores `v` to `s[i..i + 4]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 4 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn store_f64x4(s: &mut [f64], i: usize, v: __m256d) {
        debug_assert!(i + 4 <= s.len(), "f64x4 store at {i} of {}", s.len());
        _mm256_storeu_pd(s.as_mut_ptr().add(i), v)
    }

    /// Loads `s[i..i + 4]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 4 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn load_f64x4(s: &[f64], i: usize) -> __m256d {
        debug_assert!(i + 4 <= s.len(), "f64x4 load at {i} of {}", s.len());
        _mm256_loadu_pd(s.as_ptr().add(i))
    }

    /// Stores `v` to `s[i..i + 8]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 8 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn store_i32x8(s: &mut [i32], i: usize, v: __m256i) {
        debug_assert!(i + 8 <= s.len(), "i32x8 store at {i} of {}", s.len());
        _mm256_storeu_si256(s.as_mut_ptr().add(i) as *mut __m256i, v)
    }

    /// Loads `s[i..i + 8]` into the low half of a register.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 8 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn load_u8x8(s: &[u8], i: usize) -> __m128i {
        debug_assert!(i + 8 <= s.len(), "u8x8 load at {i} of {}", s.len());
        _mm_loadl_epi64(s.as_ptr().add(i) as *const __m128i)
    }

    /// Loads `s[i..i + 16]`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present and `i + 16 <= s.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn load_u8x16(s: &[u8], i: usize) -> __m128i {
        debug_assert!(i + 16 <= s.len(), "u8x16 load at {i} of {}", s.len());
        _mm_loadu_si128(s.as_ptr().add(i) as *const __m128i)
    }

    /// Transposes the 8x8 block whose row `l` is `r[l]`: afterwards `r[p]`
    /// holds element `p` of every former row, row `l` in lane `l`.
    ///
    /// # Safety
    ///
    /// AVX2 must be present.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: &mut [__m256; 8]) {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        r[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
        r[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
        r[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
        r[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
        r[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
        r[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
        r[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
        r[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
    }

    /// Walks channels `[c0, c0 + 8)` of `S` buffers laid out `[n, c, hw]`
    /// in flat `(sample, pixel)` order, calling `f` once per pixel with one
    /// vector per buffer whose lane `l` holds channel `c0 + l` at that
    /// pixel. Whole blocks of eight pixels are read as rows and transposed;
    /// the `hw % 8` tail pixels are gathered one at a time.
    ///
    /// # Safety
    ///
    /// AVX2 must be present, `c0 + 8 <= c`, and every buffer must hold at
    /// least `n * c * hw` elements.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn for_each_lane_pixel<const S: usize>(
        bufs: [&[f32]; S],
        n: usize,
        c: usize,
        hw: usize,
        c0: usize,
        mut f: impl FnMut(&[__m256; S]),
    ) {
        debug_assert!(c0 + LANES <= c, "lane group [{c0}, {c0} + 8) of {c}");
        for ni in 0..n {
            let first = (ni * c + c0) * hw;
            let mut j = 0;
            while j + LANES <= hw {
                let mut blocks = [[_mm256_setzero_ps(); LANES]; S];
                for (block, buf) in blocks.iter_mut().zip(bufs) {
                    for (l, row) in block.iter_mut().enumerate() {
                        *row = load_f32x8(buf, first + l * hw + j);
                    }
                    transpose8(block);
                }
                for p in 0..LANES {
                    let mut v = [_mm256_setzero_ps(); S];
                    for (v, block) in v.iter_mut().zip(&blocks) {
                        *v = block[p];
                    }
                    f(&v);
                }
                j += LANES;
            }
            for j in j..hw {
                let mut v = [_mm256_setzero_ps(); S];
                for (v, buf) in v.iter_mut().zip(bufs) {
                    let column: [f32; LANES] = std::array::from_fn(|l| buf[first + l * hw + j]);
                    *v = load_f32x8(&column, 0);
                }
                f(&v);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lane_walk_visits_pixels_in_flat_order() {
            if !super::super::have_avx2() {
                return;
            }
            // value = channel * 1000 + sample * 100 + pixel
            let (n, c, hw) = (2usize, 9usize, 11usize);
            let x: Vec<f32> = (0..n * c * hw)
                .map(|i| ((i / hw % c) * 1000 + i / (c * hw) * 100 + i % hw) as f32)
                .collect();
            let mut seen = Vec::new();
            // Safety: AVX2 checked above; channels [1, 9) of 9.
            unsafe {
                for_each_lane_pixel([&x[..]], n, c, hw, 1, |[v]| {
                    let mut lanes = [0.0f32; 8];
                    store_f32x8(&mut lanes, 0, *v);
                    seen.push(lanes);
                });
            }
            assert_eq!(seen.len(), n * hw);
            for (k, lanes) in seen.iter().enumerate() {
                let (ni, j) = (k / hw, k % hw);
                for (l, &v) in lanes.iter().enumerate() {
                    assert_eq!(
                        v,
                        ((1 + l) * 1000 + ni * 100 + j) as f32,
                        "pixel {k} lane {l}"
                    );
                }
            }
        }

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "f32x8 load at 3 of 10")]
        fn load_past_the_end_is_caught_in_debug_builds() {
            if !super::super::have_avx2() {
                panic!("f32x8 load at 3 of 10 (no AVX2 on this host)");
            }
            let s = [0.0f32; 10];
            // Safety: AVX2 checked above; the debug assertion fires before
            // the load.
            unsafe {
                load_f32x8(&s, 3);
            }
        }
    }
}
