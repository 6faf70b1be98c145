//! Dependency-free kernel timing harness with a regression gate.
//!
//! Unlike the criterion benches (which need the full dev-dependency set),
//! this binary uses only `std::time` and can run anywhere the workspace
//! builds. It times the same kernels as `benches/kernels.rs` — matmul
//! (nn/nt/tn), dense conv forward/backward, depthwise forward (f32 and
//! int8, 3x3 and 5x5) and backward, im2col, global average pooling — and
//! writes one JSON object per kernel with the seed baseline, the measured
//! median ns/op, the speedup, and the achieved GFLOP/s, so runs can be
//! diffed mechanically.
//!
//! After timing, the harness gates the result: the kernels this repo's
//! perf PRs committed to (`conv2d_fwd/3`, `conv2d_fwd/5`,
//! `depthwise_fwd/3`, `depthwise_bwd_3x3`) must hold their speedup floors
//! against the seed baseline, and no kernel may regress more than `REGRESSION_SLACK`
//! against the previous PR's recorded numbers (the slack absorbs
//! host-to-host drift, which measures up to ~17% on the memory-bound
//! kernels even for unchanged code). Any violation exits non-zero;
//! `--no-gate` skips the check for exploratory runs.
//!
//! Run: `cargo run --release -p nb-bench --bin bench_kernels
//! [--no-gate] [out.json]` (default output path: `BENCH_kernels.json` in
//! the current directory).

use nb_tensor::{
    activation_scale, available_threads, conv2d, conv2d_backward, depthwise_conv2d,
    depthwise_conv2d_backward, global_avg_pool, im2col, max_abs, qdepthwise_conv2d_into,
    quantize_activations, ConvGeometry, Epilogue, QDepthwiseW, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(150);
const BUDGET: Duration = Duration::from_millis(600);
const MAX_SAMPLES: usize = 2000;
const MIN_SAMPLES: usize = 20;

/// Max tolerated slowdown vs the previous PR's recorded numbers before the
/// gate fails: `after_ns <= prev_ns * (1 + REGRESSION_SLACK)`.
const REGRESSION_SLACK: f64 = 0.20;

/// Per-kernel baseline: seed-repo ns/op, previous PR's ns/op, and the
/// minimum speedup floor vs the seed (0.0 = no floor, regression check
/// only). The ns values are medians recorded on the reference 1-vCPU AVX2
/// host; see BENCH_kernels.json history.
const BASELINE: &[(&str, u128, u128, f64)] = &[
    ("matmul/32", 4668, 2076, 0.0),
    ("matmul/64", 31228, 11745, 0.0),
    ("matmul/128", 267590, 79968, 0.0),
    ("matmul_nt/128", 953189, 82112, 0.0),
    ("matmul_tn/128", 246820, 74975, 0.0),
    ("conv2d_fwd/1", 79574, 37596, 0.0),
    ("conv2d_bwd/1", 267879, 82789, 0.0),
    ("conv2d_fwd/3", 471556, 279670, 2.5),
    ("conv2d_bwd/3", 2064479, 617036, 0.0),
    ("conv2d_fwd/5", 1309871, 802433, 2.2),
    ("conv2d_bwd/5", 5766134, 1690003, 0.0),
    // depthwise_fwd/3 is the renamed depthwise_fwd_3x3 row (same shape);
    // its seed column predates the AVX2 stencil, hence the floor. The 5x5
    // and quantized rows are new with the stencil kernels, so their
    // baselines are this tree's first measurements (regression check only).
    ("depthwise_fwd/3", 434413, 188383, 1.5),
    ("depthwise_fwd/5", 379132, 379132, 0.0),
    ("qdepthwise_fwd/3", 164779, 164779, 0.0),
    ("qdepthwise_fwd/5", 333201, 333201, 0.0),
    ("depthwise_bwd_3x3", 277773, 290473, 1.0),
    ("im2col_16x24x24_k3", 68177, 71508, 0.0),
    ("global_avg_pool", 4513, 4375, 0.0),
];

/// Times `f` call-by-call and returns the median duration in nanoseconds.
fn median_ns(f: &mut dyn FnMut()) -> u128 {
    let warm_start = Instant::now();
    while warm_start.elapsed() < WARMUP {
        f();
    }
    let mut samples = Vec::with_capacity(MAX_SAMPLES);
    let run_start = Instant::now();
    while (run_start.elapsed() < BUDGET || samples.len() < MIN_SAMPLES)
        && samples.len() < MAX_SAMPLES
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct Row {
    name: String,
    ns: u128,
    /// Useful FLOPs per op (0 for pure data-movement kernels).
    flops: u64,
}

struct Report {
    rows: Vec<Row>,
}

impl Report {
    fn time(&mut self, name: &str, flops: u64, mut f: impl FnMut()) {
        let ns = median_ns(&mut f);
        let gflops = gflops_str(flops, ns);
        eprintln!("{name:<22} {ns:>12} ns/op {gflops:>9} GF/s");
        self.rows.push(Row {
            name: name.to_string(),
            ns,
            flops,
        });
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"note\": \"median ns/op per kernel, seed kernels vs this tree; \
             before_ns = seed repo, reference 1-vCPU AVX2 host. Regenerate the \
             after columns with scripts/bench_kernels.\",\n",
        );
        out.push_str(&format!("  \"threads\": {},\n", available_threads()));
        out.push_str("  \"unit\": \"median_ns_per_op\",\n");
        out.push_str("  \"kernels\": {\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let before = baseline_for(&row.name).map(|(b, ..)| b);
            out.push_str(&format!("    \"{}\": {{\n", row.name));
            if let Some(before) = before {
                out.push_str(&format!("      \"before_ns\": {before},\n"));
            }
            let mut fields = vec![format!("\"after_ns\": {}", row.ns)];
            if let Some(before) = before {
                fields.push(format!("\"speedup\": {:.2}", before as f64 / row.ns as f64));
            }
            if row.flops > 0 {
                fields.push(format!("\"gflops\": {}", gflops_str(row.flops, row.ns)));
            }
            out.push_str(&format!("      {}\n", fields.join(",\n      ")));
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Applies the speedup floors and the no-regression check; returns the
    /// list of violations (empty = gate passes).
    fn gate(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for row in &self.rows {
            let Some((before, prev, floor)) = baseline_for(&row.name) else {
                continue;
            };
            let speedup = before as f64 / row.ns as f64;
            if floor > 0.0 && speedup < floor {
                bad.push(format!(
                    "{}: {speedup:.2}x vs seed is below the {floor:.1}x floor \
                     ({} ns, seed {before} ns)",
                    row.name, row.ns
                ));
            }
            let limit = prev as f64 * (1.0 + REGRESSION_SLACK);
            if row.ns as f64 > limit {
                bad.push(format!(
                    "{}: {} ns regresses more than {:.0}% vs the previous \
                     PR's {prev} ns",
                    row.name,
                    row.ns,
                    REGRESSION_SLACK * 100.0
                ));
            }
        }
        bad
    }
}

fn baseline_for(name: &str) -> Option<(u128, u128, f64)> {
    BASELINE
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, b, p, f)| (b, p, f))
}

fn gflops_str(flops: u64, ns: u128) -> String {
    if flops == 0 || ns == 0 {
        return "-".to_string();
    }
    format!("{:.2}", flops as f64 / ns as f64)
}

fn main() {
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut run_gate = true;
    for arg in std::env::args().skip(1) {
        if arg == "--no-gate" {
            run_gate = false;
        } else {
            out_path = arg;
        }
    }
    let mut report = Report { rows: Vec::new() };
    let mut rng = StdRng::seed_from_u64(0);

    // Square matmuls, nn/nt/tn at the acceptance-criterion size.
    for n in [32usize, 64, 128] {
        let a = Tensor::randn([n, n], &mut rng);
        let b = Tensor::randn([n, n], &mut rng);
        let flops = 2 * (n as u64).pow(3);
        report.time(&format!("matmul/{n}"), flops, || {
            black_box(a.matmul(&b));
        });
    }
    let a = Tensor::randn([128, 128], &mut rng);
    let b = Tensor::randn([128, 128], &mut rng);
    let flops = 2u64 * 128 * 128 * 128;
    report.time("matmul_nt/128", flops, || {
        black_box(a.matmul_nt(&b));
    });
    report.time("matmul_tn/128", flops, || {
        black_box(a.matmul_tn(&b));
    });

    // Dense convolution on the training-shaped batch used by the criterion
    // benches: [4, 16, 16, 16], same-padded, stride 1. The forward is one
    // implicit GEMM per sample: m = c_out, k = c_in*kh*kw, n = ho*wo.
    let (ns_b, c, hw) = (4u64, 16u64, 16u64);
    let x = Tensor::randn([4, 16, 16, 16], &mut rng);
    for k in [1usize, 3, 5] {
        let w = Tensor::randn([16, 16, k, k], &mut rng);
        let bias = Tensor::randn([16], &mut rng);
        let geom = ConvGeometry::same(k, 1);
        let flops = 2 * ns_b * c * c * (k as u64).pow(2) * hw * hw;
        report.time(&format!("conv2d_fwd/{k}"), flops, || {
            black_box(conv2d(&x, &w, Some(&bias), geom));
        });
        let y = conv2d(&x, &w, None, geom);
        let dy = Tensor::randn(y.shape().clone(), &mut rng);
        // dx + dw + db: roughly three forward-sized contractions.
        report.time(&format!("conv2d_bwd/{k}"), 3 * flops, || {
            black_box(conv2d_backward(&x, &w, &dy, geom, true));
        });
    }

    // Depthwise convolution: f32 forward at 3x3 and 5x5 (the two stencil
    // widths the AVX2 microkernels specialize), the int8 forward twins on
    // the same shapes, and the 3x3 backward. The quantized rows time the
    // stencil itself (input already u8, per-channel weights prepacked) —
    // the activation-quantize pass is charged to the plan actions that
    // own it, and bench_infer gates that end-to-end cost.
    for k in [3usize, 5] {
        let wd = Tensor::randn([16, k, k], &mut rng);
        let geom = ConvGeometry::same(k, 1);
        let dw_flops = 2 * ns_b * c * hw * hw * (k as u64).pow(2);
        report.time(&format!("depthwise_fwd/{k}"), dw_flops, || {
            black_box(depthwise_conv2d(&x, &wd, None, geom));
        });
        let qw = QDepthwiseW::pack(wd.as_slice(), 16, k, k);
        let mut qx = vec![0u8; x.numel()];
        let x_scale = activation_scale(max_abs(x.as_slice()));
        quantize_activations(x.as_slice(), x_scale, &mut qx);
        let mut qout = vec![0.0f32; x.numel()];
        report.time(&format!("qdepthwise_fwd/{k}"), dw_flops, || {
            qdepthwise_conv2d_into(
                &qx,
                4,
                &qw,
                None,
                geom,
                Epilogue::None,
                x_scale,
                16,
                16,
                &mut qout,
            );
            black_box(&qout);
        });
    }
    let wd = Tensor::randn([16, 3, 3], &mut rng);
    let geom = ConvGeometry::same(3, 1);
    let dw_flops = 2 * ns_b * c * hw * hw * 9;
    let y = depthwise_conv2d(&x, &wd, None, geom);
    let dy = Tensor::randn(y.shape().clone(), &mut rng);
    report.time("depthwise_bwd_3x3", 3 * dw_flops, || {
        black_box(depthwise_conv2d_backward(&x, &wd, &dy, geom, true));
    });

    // Lowering and pooling (data movement; no GFLOP/s column).
    let xs = Tensor::randn([16 * 24 * 24], &mut rng);
    let mut cols = vec![0.0f32; 16 * 9 * 24 * 24];
    report.time("im2col_16x24x24_k3", 0, || {
        im2col(
            xs.as_slice(),
            16,
            24,
            24,
            ConvGeometry::same(3, 1),
            &mut cols,
        );
        black_box(&cols);
    });
    let fm = Tensor::randn([8, 32, 8, 8], &mut rng);
    report.time("global_avg_pool", 8 * 32 * 8 * 8, || {
        black_box(global_avg_pool(&fm));
    });

    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("\nwrote {out_path}");
    print!("{json}");

    if run_gate {
        let violations = report.gate();
        if !violations.is_empty() {
            eprintln!("\nbench_kernels gate FAILED:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
        eprintln!("bench_kernels gate: OK (floors held, no kernel regressed)");
    }
}
