//! Differential fuzzing of the fast kernels against the oracles.
//!
//! Each suite sweeps a fixed shape grid — biased toward the edge shapes the
//! packed GEMM's tiling makes dangerous (`K = 0`, outputs smaller than the
//! 4x8 microkernel tile, sizes that leave `MC`/`KC`/`NC` remainder blocks)
//! — across every transpose variant and epilogue, at several worker-pool
//! widths via [`nb_tensor::with_thread_cap`]. Outputs are compared to the
//! f64 oracles under [`UlpTolerance`] bounds scaled with the reduction
//! length, and (where the tensor crate documents bitwise thread-count
//! invariance: GEMM, conv forward, conv `dx`, batch norm) results at every
//! width are additionally required to be *identical* to the width-1
//! result. The dense conv `dw`/`db` reductions are documented to round
//! differently across widths, so they face only the oracle bound.
//!
//! The grids are deterministic (seeded per case), so a failure reproduces.

use crate::oracle;
use crate::tolerance::{Divergence, UlpTolerance};
use nb_tensor::{self as nt, ConvGeometry, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One comparison outcome: a kernel, a shape/variant, a thread width.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Suite name (`gemm`, `conv`, `depthwise`, `pool`, `batchnorm`).
    pub suite: &'static str,
    /// Human-readable shape/variant description.
    pub case: String,
    /// Worker-pool width the fast kernel ran at.
    pub threads: usize,
    /// Worst observed ULP distance (outside the absolute floor).
    pub max_ulps: u64,
    /// Worst observed absolute difference.
    pub max_abs: f32,
    /// The ULP bound the case was judged against.
    pub limit_ulps: u64,
    /// Whether the case passed.
    pub pass: bool,
}

/// Outcome of one or more differential suites.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every case compared.
    pub cases: Vec<CaseResult>,
}

impl DiffReport {
    /// True when every case passed.
    pub fn pass(&self) -> bool {
        self.cases.iter().all(|c| c.pass)
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.cases.iter().filter(|c| !c.pass).collect()
    }

    /// Appends another report's cases.
    pub fn merge(&mut self, other: DiffReport) {
        self.cases.extend(other.cases);
    }

    /// One line: `<n> cases, <f> failures, worst <u> ulps`.
    pub fn summary_line(&self) -> String {
        format!(
            "{} cases, {} failures, worst {} ulps",
            self.cases.len(),
            self.failures().len(),
            self.cases.iter().map(|c| c.max_ulps).max().unwrap_or(0),
        )
    }

    /// A table of the failing cases (empty string when everything passed).
    pub fn render_failures(&self) -> String {
        let mut out = String::new();
        for c in self.failures() {
            out.push_str(&format!(
                "  FAIL [{}] {} threads={} : {} ulps (limit {}), max abs {:.3e}\n",
                c.suite, c.case, c.threads, c.max_ulps, c.limit_ulps, c.max_abs
            ));
        }
        out
    }

    fn compare(
        &mut self,
        suite: &'static str,
        case: String,
        threads: usize,
        got: &[f32],
        want: &[f32],
        tol: &UlpTolerance,
    ) {
        let d = Divergence::measure(got, want, tol);
        self.cases.push(CaseResult {
            suite,
            case,
            threads,
            max_ulps: d.max_ulps,
            max_abs: d.max_abs,
            limit_ulps: tol.max_ulps,
            pass: d.passes(),
        });
    }
}

/// The worker-pool widths every suite runs at: 1, 2, and the full pool.
pub fn thread_widths() -> Vec<usize> {
    let mut v = vec![1usize, 2, nt::num_threads()];
    v.sort_unstable();
    v.dedup();
    v
}

fn uniform(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn uniform_tensor(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let len: usize = dims.iter().product();
    Tensor::from_vec(uniform(rng, len), dims).expect("uniform tensor shape")
}

/// Sweeps the packed GEMM over the edge-shape grid: all four transpose
/// variants, all three epilogues, all thread widths.
pub fn run_gemm_suite(fast: bool) -> DiffReport {
    let mut shapes: Vec<(usize, usize, usize)> = vec![
        (0, 3, 4),     // m = 0: empty output
        (3, 0, 5),     // K = 0: epilogue-only path
        (1, 1, 1),     // scalar
        (2, 7, 3),     // smaller than the 4x8 microkernel tile
        (4, 8, 8),     // exactly one tile
        (5, 3, 9),     // one remainder row and column
        (17, 16, 17),  // just past the small-product naive cutoff
        (65, 257, 63), // MC/KC/NC all leave remainders; parallel row split
    ];
    if !fast {
        shapes.extend([
            (64, 256, 256), // exact MC/KC/NC blocks
            (33, 513, 31),  // two KC panels plus remainder
            (128, 300, 96), // multi-chunk parallel path
            (96, 64, 512),  // two NC strips
        ]);
    }
    let mut report = DiffReport::default();
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        for (vi, &(at, bt)) in [(false, false), (true, false), (false, true), (true, true)]
            .iter()
            .enumerate()
        {
            for (ei, epilogue) in ["plain", "row_init", "accumulate"].iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xD1FF ^ ((si * 16 + vi * 4 + ei) as u64));
                let a = uniform(&mut rng, m * k);
                let b = uniform(&mut rng, k * n);
                let base = uniform(&mut rng, m * n);
                let init = uniform(&mut rng, m);
                let (row_init, accumulate) = match ei {
                    1 => (Some(init.as_slice()), false),
                    2 => (None, true),
                    _ => (None, false),
                };
                let mut want = base.clone();
                oracle::gemm_ref(&a, at, &b, bt, &mut want, m, k, n, row_init, accumulate);
                let case = format!(
                    "m{m} k{k} n{n} a_t={} b_t={} {}",
                    at as u8, bt as u8, epilogue
                );
                let tol = UlpTolerance::for_reduction(k);
                let mut first: Option<Vec<f32>> = None;
                for cap in thread_widths() {
                    let mut got = base.clone();
                    nt::with_thread_cap(cap, || {
                        nt::gemm(&a, at, &b, bt, &mut got, m, k, n, row_init, accumulate);
                    });
                    report.compare("gemm", case.clone(), cap, &got, &want, &tol);
                    match &first {
                        None => first = Some(got),
                        Some(f) => report.compare(
                            "gemm",
                            format!("{case} [bitwise vs width-1]"),
                            cap,
                            &got,
                            f,
                            &UlpTolerance::exact(),
                        ),
                    }
                }
            }
        }
    }
    report
}

/// A dense-conv sweep shape: `(n, c_in, h, w, c_out, k, stride, pad)`.
type ConvShape = (usize, usize, usize, usize, usize, usize, usize, usize);

/// Sweeps dense convolution forward and backward against the oracles.
pub fn run_conv_suite(fast: bool) -> DiffReport {
    let mut shapes: Vec<ConvShape> = vec![
        (1, 1, 1, 1, 1, 1, 1, 0), // degenerate 1x1 everything
        (1, 3, 5, 5, 4, 1, 1, 0), // pointwise
        (2, 3, 9, 9, 4, 3, 1, 1), // classic 3x3 same
        (1, 2, 8, 8, 3, 3, 2, 1), // strided
        (1, 3, 7, 7, 2, 5, 1, 2), // 5x5 window
    ];
    if !fast {
        shapes.extend([
            (1, 2, 2, 2, 3, 5, 1, 2),     // window larger than the image
            (2, 8, 6, 6, 16, 1, 1, 0),    // wider pointwise (GEMM blocked path)
            (2, 16, 14, 14, 24, 3, 1, 1), // realistic mid-network block
            (3, 4, 10, 10, 6, 3, 2, 1),   // batch of 3, strided
        ]);
    }
    let mut report = DiffReport::default();
    for (si, &(n, c_in, h, w, c_out, k, s, p)) in shapes.iter().enumerate() {
        for bias in [false, true] {
            let mut rng = StdRng::seed_from_u64(0xC0DE ^ ((si * 2 + bias as usize) as u64));
            let geom = ConvGeometry::square(k, s, p);
            let x = uniform_tensor(&mut rng, &[n, c_in, h, w]);
            let wt = uniform_tensor(&mut rng, &[c_out, c_in, k, k]);
            let b = uniform_tensor(&mut rng, &[c_out]);
            let bref = bias.then_some(&b);
            let want = oracle::conv2d_ref(&x, &wt, bref, geom);
            let (ho, wo) = geom.output_hw(h, w);
            let dy = uniform_tensor(&mut rng, &[n, c_out, ho, wo]);
            let (wdx, wdw, wdb) = oracle::conv2d_backward_ref(&x, &wt, &dy, geom, bias);
            let case = format!(
                "n{n} c{c_in}->{c_out} {h}x{w} k{k} s{s} p{p} bias={}",
                bias as u8
            );
            let fwd_tol = UlpTolerance::for_reduction(c_in * k * k);
            let dx_tol = UlpTolerance::for_reduction(c_out * k * k);
            let dw_tol = UlpTolerance::for_reduction(n * ho * wo);
            let mut first: Option<(Vec<f32>, Vec<f32>)> = None;
            for cap in thread_widths() {
                let (got, gdx, gdw, gdb) = nt::with_thread_cap(cap, || {
                    let got = nt::conv2d(&x, &wt, bref, geom);
                    let (gdx, gdw, gdb) = nt::conv2d_backward(&x, &wt, &dy, geom, bias, true);
                    (got, gdx.expect("dx was asked for"), gdw, gdb)
                });
                report.compare(
                    "conv",
                    format!("{case} fwd"),
                    cap,
                    got.as_slice(),
                    want.as_slice(),
                    &fwd_tol,
                );
                report.compare(
                    "conv",
                    format!("{case} dx"),
                    cap,
                    gdx.as_slice(),
                    wdx.as_slice(),
                    &dx_tol,
                );
                report.compare(
                    "conv",
                    format!("{case} dw"),
                    cap,
                    gdw.as_slice(),
                    wdw.as_slice(),
                    &dw_tol,
                );
                if let (Some(gdb), Some(wdb)) = (&gdb, &wdb) {
                    report.compare(
                        "conv",
                        format!("{case} db"),
                        cap,
                        gdb.as_slice(),
                        wdb.as_slice(),
                        &dw_tol,
                    );
                }
                // forward and dx are documented bitwise thread-invariant
                match &first {
                    None => first = Some((got.as_slice().to_vec(), gdx.as_slice().to_vec())),
                    Some((f_fwd, f_dx)) => {
                        report.compare(
                            "conv",
                            format!("{case} fwd [bitwise vs width-1]"),
                            cap,
                            got.as_slice(),
                            f_fwd,
                            &UlpTolerance::exact(),
                        );
                        report.compare(
                            "conv",
                            format!("{case} dx [bitwise vs width-1]"),
                            cap,
                            gdx.as_slice(),
                            f_dx,
                            &UlpTolerance::exact(),
                        );
                    }
                }
            }
        }
    }
    report
}

/// Sweeps depthwise convolution forward and backward against the oracles.
pub fn run_depthwise_suite(fast: bool) -> DiffReport {
    // (n, c, h, w, k, stride, pad)
    let mut shapes: Vec<(usize, usize, usize, usize, usize, usize, usize)> = vec![
        (1, 1, 1, 1, 1, 1, 0),
        (1, 6, 4, 4, 1, 1, 0), // k = 1: the channel-scale case contraction uses
        (2, 9, 5, 7, 1, 1, 0), // k = 1 over a channel-lane group and a remainder
        (2, 3, 8, 8, 3, 1, 1),
        (1, 4, 7, 7, 3, 2, 1),
        // channel lanes: a full group of eight and a partial one, with a
        // pixel tail; three groups at stride 2; and the lane forward at
        // kernels 5 and 7
        (2, 12, 9, 11, 3, 1, 1),
        (2, 24, 16, 16, 3, 2, 1),
        (1, 9, 8, 8, 5, 2, 2),
        (1, 8, 7, 9, 7, 2, 3),
    ];
    if !fast {
        shapes.extend([(2, 2, 5, 5, 5, 1, 2), (2, 8, 10, 10, 3, 1, 1)]);
    }
    let mut report = DiffReport::default();
    for (si, &(n, c, h, w, k, s, p)) in shapes.iter().enumerate() {
        for bias in [false, true] {
            let mut rng = StdRng::seed_from_u64(0xDEE9 ^ ((si * 2 + bias as usize) as u64));
            let geom = ConvGeometry::square(k, s, p);
            let x = uniform_tensor(&mut rng, &[n, c, h, w]);
            let wt = uniform_tensor(&mut rng, &[c, k, k]);
            let b = uniform_tensor(&mut rng, &[c]);
            let bref = bias.then_some(&b);
            let want = oracle::depthwise_conv2d_ref(&x, &wt, bref, geom);
            let (ho, wo) = geom.output_hw(h, w);
            let dy = uniform_tensor(&mut rng, &[n, c, ho, wo]);
            let (wdx, wdw, wdb) = oracle::depthwise_conv2d_backward_ref(&x, &wt, &dy, geom, bias);
            let case = format!("n{n} c{c} {h}x{w} k{k} s{s} p{p} bias={}", bias as u8);
            let tol = UlpTolerance::for_reduction(k * k);
            let grad_tol = UlpTolerance::for_reduction(n * ho * wo);
            for cap in thread_widths() {
                let (got, gdx, gdw, gdb) = nt::with_thread_cap(cap, || {
                    let got = nt::depthwise_conv2d(&x, &wt, bref, geom);
                    let (gdx, gdw, gdb) =
                        nt::depthwise_conv2d_backward(&x, &wt, &dy, geom, bias, true);
                    (got, gdx.expect("dx was asked for"), gdw, gdb)
                });
                report.compare(
                    "depthwise",
                    format!("{case} fwd"),
                    cap,
                    got.as_slice(),
                    want.as_slice(),
                    &tol,
                );
                report.compare(
                    "depthwise",
                    format!("{case} dx"),
                    cap,
                    gdx.as_slice(),
                    wdx.as_slice(),
                    &tol,
                );
                report.compare(
                    "depthwise",
                    format!("{case} dw"),
                    cap,
                    gdw.as_slice(),
                    wdw.as_slice(),
                    &grad_tol,
                );
                if let (Some(gdb), Some(wdb)) = (&gdb, &wdb) {
                    report.compare(
                        "depthwise",
                        format!("{case} db"),
                        cap,
                        gdb.as_slice(),
                        wdb.as_slice(),
                        &grad_tol,
                    );
                }
            }
        }
    }
    report
}

/// Sweeps the pooling kernels (max, average, global average) and their
/// gradients against the oracles.
pub fn run_pool_suite(fast: bool) -> DiffReport {
    // (n, c, h, w, k, stride, pad)
    let mut shapes: Vec<(usize, usize, usize, usize, usize, usize, usize)> = vec![
        (1, 1, 2, 2, 2, 2, 0),
        (2, 3, 8, 8, 2, 2, 0),
        (1, 2, 7, 7, 3, 2, 1),
    ];
    if !fast {
        shapes.extend([(1, 4, 5, 5, 3, 1, 1), (2, 5, 9, 9, 3, 3, 0)]);
    }
    let mut report = DiffReport::default();
    for (si, &(n, c, h, w, k, s, p)) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x900 ^ (si as u64));
        let geom = ConvGeometry::square(k, s, p);
        let x = uniform_tensor(&mut rng, &[n, c, h, w]);
        let (want_max, want_idx) = oracle::maxpool2d_ref(&x, geom);
        let want_avg = oracle::avgpool2d_ref(&x, geom);
        let (ho, wo) = geom.output_hw(h, w);
        let dy = uniform_tensor(&mut rng, &[n, c, ho, wo]);
        let want_max_dx = oracle::maxpool2d_backward_ref(x.shape(), &dy, &want_idx);
        let want_avg_dx = oracle::avgpool2d_backward_ref(x.shape(), &dy, geom);
        let want_gap = oracle::global_avg_pool_ref(&x);
        let case = format!("n{n} c{c} {h}x{w} k{k} s{s} p{p}");
        let tol = UlpTolerance::for_reduction(k * k);
        let gap_tol = UlpTolerance::for_reduction(h * w);
        for cap in thread_widths() {
            let (gmax, gidx, gavg, gmax_dx, gavg_dx, ggap) = nt::with_thread_cap(cap, || {
                let (gmax, gidx) = nt::maxpool2d(&x, geom);
                let gavg = nt::avgpool2d(&x, geom);
                let gmax_dx = nt::maxpool2d_backward(x.shape(), &dy, &gidx);
                let gavg_dx = nt::avgpool2d_backward(x.shape(), &dy, geom);
                let ggap = nt::global_avg_pool(&x);
                (gmax, gidx, gavg, gmax_dx, gavg_dx, ggap)
            });
            report.compare(
                "pool",
                format!("{case} max"),
                cap,
                gmax.as_slice(),
                want_max.as_slice(),
                &UlpTolerance::exact(),
            );
            // argmax routing: indices must match the oracle exactly
            let mismatches = gidx.iter().zip(&want_idx).filter(|(a, b)| a != b).count();
            report.cases.push(CaseResult {
                suite: "pool",
                case: format!("{case} max argmax"),
                threads: cap,
                max_ulps: mismatches as u64,
                max_abs: 0.0,
                limit_ulps: 0,
                pass: mismatches == 0,
            });
            report.compare(
                "pool",
                format!("{case} max dx"),
                cap,
                gmax_dx.as_slice(),
                want_max_dx.as_slice(),
                &tol,
            );
            report.compare(
                "pool",
                format!("{case} avg"),
                cap,
                gavg.as_slice(),
                want_avg.as_slice(),
                &tol,
            );
            report.compare(
                "pool",
                format!("{case} avg dx"),
                cap,
                gavg_dx.as_slice(),
                want_avg_dx.as_slice(),
                &tol,
            );
            report.compare(
                "pool",
                format!("{case} gap"),
                cap,
                ggap.as_slice(),
                want_gap.as_slice(),
                &gap_tol,
            );
        }
    }
    report
}

/// Sweeps the batch-norm kernels against the oracles: the training
/// forward (batch mean, biased variance, the tape's out-of-place normalize)
/// and the backward
/// (`dx`, `dgamma`, `dbeta`) in training and eval mode. Every output rests
/// on a reduction over the `n * h * w` elements of its channel, so that is
/// the bound's reduction length. Each channel's sums have one owner, so
/// every output must also equal the width-1 result bit for bit.
pub fn run_batchnorm_suite(fast: bool) -> DiffReport {
    // (n, c, h, w)
    let mut shapes: Vec<(usize, usize, usize, usize)> = vec![
        (1, 1, 1, 1),  // one element: zero variance
        (2, 3, 1, 1),  // 1x1 planes
        (1, 4, 7, 7),  // one whole channel group
        (3, 5, 4, 4),  // a group and a remainder channel
        (2, 13, 8, 8), // remainder channels after three groups
        (2, 16, 5, 7), // two channel-lane groups over planes with a pixel tail
        (3, 24, 3, 3), // three lane groups, one whole pixel block and a tail
    ];
    if !fast {
        shapes.extend([(4, 8, 16, 16), (1, 1, 32, 32), (8, 32, 4, 4)]);
    }
    let eps = 1e-5;
    let mut report = DiffReport::default();
    for (si, &(n, c, h, w)) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xB40 ^ (si as u64));
        let x = uniform_tensor(&mut rng, &[n, c, h, w]);
        let dy = uniform_tensor(&mut rng, &[n, c, h, w]);
        let gamma = uniform_tensor(&mut rng, &[c]);
        let beta = uniform_tensor(&mut rng, &[c]);
        let run_mean = uniform_tensor(&mut rng, &[c]);
        let run_var = Tensor::from_vec(uniform(&mut rng, c), [c])
            .expect("running variance shape")
            .map(|v| v.abs() + 0.1);
        let run_invstd = nt::eltwise::bn_invstd(&run_var, eps);
        let (want_mean, want_var) = oracle::bn_batch_stats_ref(&x);
        let want_y = oracle::bn_normalize_ref(&x, &gamma, &beta, &want_mean, &want_var, eps);
        let want_eval = oracle::bn_backward_ref(&x, &dy, &gamma, &run_mean, &run_invstd, false);
        let case = format!("n{n} c{c} {h}x{w}");
        let tol = UlpTolerance::for_reduction(n * h * w);
        let mut first: Option<Vec<Vec<f32>>> = None;
        for cap in thread_widths() {
            let (mean, var, invstd, y, train, eval) = nt::with_thread_cap(cap, || {
                let (mean, var) = nt::eltwise::bn_batch_stats(&x);
                let invstd = nt::eltwise::bn_invstd(&var, eps);
                let y = nt::eltwise::bn_normalize(&x, &gamma, &beta, &mean, &invstd);
                let train = nt::eltwise::bn_backward(&x, &dy, &gamma, &mean, &invstd, true);
                let eval = nt::eltwise::bn_backward(&x, &dy, &gamma, &run_mean, &run_invstd, false);
                (mean, var, invstd, y, train, eval)
            });
            // the training oracle differentiates at the statistics the
            // kernel normalized with
            let want_train = oracle::bn_backward_ref(&x, &dy, &gamma, &mean, &invstd, true);
            let want_stats = |v: &[f64]| v.iter().map(|&s| s as f32).collect::<Vec<_>>();
            let got: Vec<(&str, &Tensor, Vec<f32>)> = vec![
                ("mean", &mean, want_stats(&want_mean)),
                ("var", &var, want_stats(&want_var)),
                ("normalize", &y, want_y.as_slice().to_vec()),
                ("train dx", &train.0, want_train.0.as_slice().to_vec()),
                ("train dgamma", &train.1, want_train.1.as_slice().to_vec()),
                ("train dbeta", &train.2, want_train.2.as_slice().to_vec()),
                ("eval dx", &eval.0, want_eval.0.as_slice().to_vec()),
                ("eval dgamma", &eval.1, want_eval.1.as_slice().to_vec()),
                ("eval dbeta", &eval.2, want_eval.2.as_slice().to_vec()),
            ];
            for (name, g, want) in &got {
                report.compare(
                    "batchnorm",
                    format!("{case} {name}"),
                    cap,
                    g.as_slice(),
                    want,
                    &tol,
                );
            }
            match &first {
                None => first = Some(got.iter().map(|(_, g, _)| g.as_slice().to_vec()).collect()),
                Some(f) => {
                    for ((name, g, _), f) in got.iter().zip(f) {
                        report.compare(
                            "batchnorm",
                            format!("{case} {name} [bitwise vs width-1]"),
                            cap,
                            g.as_slice(),
                            f,
                            &UlpTolerance::exact(),
                        );
                    }
                }
            }
        }
    }
    report
}

/// Runs every differential suite and merges the reports.
pub fn run_all_suites(fast: bool) -> DiffReport {
    let mut report = run_gemm_suite(fast);
    report.merge(run_conv_suite(fast));
    report.merge(run_depthwise_suite(fast));
    report.merge(run_pool_suite(fast));
    report.merge(run_batchnorm_suite(fast));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_suite_fast_passes() {
        let r = run_gemm_suite(true);
        assert!(!r.cases.is_empty());
        assert!(r.pass(), "{}", r.render_failures());
    }

    #[test]
    fn pool_suite_fast_passes() {
        let r = run_pool_suite(true);
        assert!(r.pass(), "{}", r.render_failures());
    }

    #[test]
    fn batchnorm_suite_fast_passes() {
        let r = run_batchnorm_suite(true);
        assert!(!r.cases.is_empty());
        assert!(r.pass(), "{}", r.render_failures());
    }

    #[test]
    fn report_summarizes_failures() {
        let mut r = DiffReport::default();
        r.cases.push(CaseResult {
            suite: "gemm",
            case: "synthetic".into(),
            threads: 1,
            max_ulps: 99,
            max_abs: 1.0,
            limit_ulps: 4,
            pass: false,
        });
        assert!(!r.pass());
        assert_eq!(r.failures().len(), 1);
        assert!(r.render_failures().contains("synthetic"));
        assert!(r.summary_line().contains("1 failures"));
    }
}
