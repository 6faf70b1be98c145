//! Eval-path benchmark: the taped `Session` against the compiled
//! `CompiledPlan`.
//!
//! For each model family and batch size the binary times one eval forward
//! on both executors and records the activation-memory footprint of each:
//! the tape's retained intermediate bytes ([`Graph::retained_bytes`]) for
//! the taped path, and the deterministic compile-time liveness peak
//! ([`CompiledPlan::peak_bytes`]) for the compiled path. The plan is
//! compiled once per case, outside the timed region — that is its
//! contract: folding, packing, and arena sizing are paid at compile time.
//! One JSON object (with thread count, batch sizes, and build profile) is
//! written so before/after runs can be diffed mechanically.
//!
//! Each case also compiles the int8 twin
//! ([`CompiledPlan::compile_quantized`], calibrated on fixed-seed random
//! batches — timing needs representative ranges, not accuracy) and reports
//! `qplan_ns` / `qplan_peak_bytes` next to the f32 plan columns. The
//! speedup claims are gated where they are claimed: on the GEMM-bound
//! `gemmnet` rows (wide dense 3x3 convolutions, the shape class int8 GEMM
//! targets) the quantized plan must be at least 2x faster than the f32
//! plan at equal-or-lower peak activation bytes. On the depthwise-heavy
//! rows (tinynet, expanded-giant, detector-grid), where the int8
//! depthwise stencil and the `QuantPolicy::Auto` mixed-precision policy
//! carry the claim, the quantized plan must at least break even against
//! the f32 plan (within a 2% noise allowance).
//!
//! Run: `cargo run --release -p nb-bench --bin bench_infer [--smoke] [out.json]`
//! (default output path: `BENCH_infer.json` in the current directory).
//! `--smoke` shrinks the timing budget to a CI-friendly sanity pass.
//!
//! The binary exits non-zero if the plan's peak activation bytes are not
//! below what the tape retains, if a GEMM-bound quant row misses its
//! 2x / peak-bytes gate, or if a depthwise quant row falls behind its f32
//! plan.
//!
//! [`Graph::retained_bytes`]: nb_autograd::Graph::retained_bytes
//! [`CompiledPlan::peak_bytes`]: nb_nn::CompiledPlan::peak_bytes

use nb_autograd::Value;
use nb_models::{mobilenet_v2_tiny, DetectorNet, TinyNet};
use nb_nn::layers::{ActKind, Activation, Conv2d, GlobalAvgPool, Linear};
use nb_nn::{CompiledPlan, Forward, Module, Sequential, Session};
use nb_tensor::{num_threads, ConvGeometry, Tensor};
use netbooster_core::{expand, ExpansionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times each closure round-robin within one shared budget and returns the
/// per-closure median nanoseconds. One interleaved loop instead of one
/// window per executor: the callers gate on *ratios* of these medians, and
/// round-robin sampling exposes every executor to the same share of
/// machine drift. The sample floor dominates for the slow rows (gemmnet/b8
/// runs >100 ms per forward): 15 rounds keeps the medians stable enough
/// for the depthwise quant gate, whose true margin is only a few percent.
fn medians_interleaved(budget: Duration, fs: &mut [&mut dyn FnMut()]) -> Vec<u128> {
    let warm_start = Instant::now();
    while warm_start.elapsed() < budget / 4 {
        for f in fs.iter_mut() {
            f();
        }
    }
    let mut samples: Vec<Vec<u128>> = vec![Vec::new(); fs.len()];
    let run_start = Instant::now();
    while (run_start.elapsed() < budget || samples[0].len() < 15) && samples[0].len() < 2000 {
        for (f, s) in fs.iter_mut().zip(samples.iter_mut()) {
            let t = Instant::now();
            f();
            s.push(t.elapsed().as_nanos());
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

struct Row {
    model: &'static str,
    batch: usize,
    /// Rows that are dense-GEMM dominated carry the 2x quant gate; the
    /// depthwise-heavy families carry the break-even quant gate.
    gemm_bound: bool,
    taped_ns: u128,
    plan_ns: u128,
    qplan_ns: u128,
    taped_retained_bytes: usize,
    plan_peak_bytes: usize,
    qplan_peak_bytes: usize,
}

impl Row {
    fn plan_speedup(&self) -> f64 {
        self.taped_ns as f64 / self.plan_ns.max(1) as f64
    }

    fn quant_speedup(&self) -> f64 {
        self.plan_ns as f64 / self.qplan_ns.max(1) as f64
    }

    fn mem_ratio(&self) -> f64 {
        self.taped_retained_bytes as f64 / self.plan_peak_bytes.max(1) as f64
    }
}

fn bench_case(
    name: &'static str,
    batch: usize,
    gemm_bound: bool,
    fwd: &dyn Fn(&mut dyn Forward, Value) -> Value,
    budget: Duration,
) -> Row {
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::randn([batch, 3, 32, 32], &mut rng);

    // memory footprints from a single representative forward of each path
    let mut s = Session::new(false);
    let xv = s.input(x.clone());
    let y = fwd(&mut s, xv);
    black_box(s.value(y));
    let taped_retained_bytes = s.graph.retained_bytes();
    drop(s);

    // compiled once, outside the timed region — the plan's contract; the
    // timed loop recycles one arena, the steady-state serving pattern
    let plan = CompiledPlan::compile(x.dims(), |f, v| fwd(f, v));
    let mut arena = plan.new_arena();
    black_box(plan.run_in(&mut arena, &x));
    let plan_peak_bytes = plan.peak_bytes();

    // int8 twin: calibration batches are fixed-seed noise — the bench
    // measures time and bytes, so the ranges only need to be plausible
    let mut crng = StdRng::seed_from_u64(17);
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([batch, 3, 32, 32], &mut crng))
        .collect();
    let qplan = CompiledPlan::compile_quantized(x.dims(), &calib, |f, v| fwd(f, v));
    let mut qarena = qplan.new_arena();
    black_box(qplan.run_in(&mut qarena, &x));
    let qplan_peak_bytes = qplan.peak_bytes();

    // Taped eval, the f32 plan and the int8 plan sample round-robin in one
    // loop: the gates below compare their ratios, and interleaving cancels
    // the slow clock and load drift of a shared box that sequential windows
    // would bake into one side of each ratio.
    let ns = medians_interleaved(
        budget * 4,
        &mut [
            &mut || {
                let mut s = Session::new(false);
                let xv = s.input(x.clone());
                let y = fwd(&mut s, xv);
                black_box(s.value(y));
            },
            &mut || {
                black_box(plan.run_in(&mut arena, &x));
            },
            &mut || {
                black_box(qplan.run_in(&mut qarena, &x));
            },
        ],
    );
    let (taped_ns, plan_ns, qplan_ns) = (ns[0], ns[1], ns[2]);

    let row = Row {
        model: name,
        batch,
        gemm_bound,
        taped_ns,
        plan_ns,
        qplan_ns,
        taped_retained_bytes,
        plan_peak_bytes,
        qplan_peak_bytes,
    };
    eprintln!(
        "{name:<16} batch {batch:>2}: taped {taped_ns:>10} ns, plan {plan_ns:>10} ns \
         ({:.2}x over taped), quant {qplan_ns:>10} ns ({:.2}x over plan), retained \
         {taped_retained_bytes:>9} B vs plan peak {plan_peak_bytes:>9} B vs quant peak \
         {qplan_peak_bytes:>9} B",
        row.plan_speedup(),
        row.quant_speedup(),
    );
    row
}

fn to_json(rows: &[Row], batches: &[usize]) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let batch_list = batches
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"threads\": {},\n", num_threads()));
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str(&format!("  \"batch_sizes\": [{batch_list}],\n"));
    out.push_str("  \"unit\": \"median_ns_per_eval_forward; activation bytes per forward\",\n");
    out.push_str("  \"eval\": {\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}/b{}\": {{\n      \"taped_ns\": {},\n      \"plan_ns\": {},\n      \
             \"qplan_ns\": {},\n      \"plan_speedup\": {:.2},\n      \
             \"quant_speedup\": {:.2},\n      \"gemm_bound\": {},\n      \
             \"taped_retained_bytes\": {},\n      \"plan_peak_bytes\": {},\n      \
             \"qplan_peak_bytes\": {},\n      \"memory_ratio\": {:.2}\n    }}{}\n",
            r.model,
            r.batch,
            r.taped_ns,
            r.plan_ns,
            r.qplan_ns,
            r.plan_speedup(),
            r.quant_speedup(),
            r.gemm_bound,
            r.taped_retained_bytes,
            r.plan_peak_bytes,
            r.qplan_peak_bytes,
            r.mem_ratio(),
            comma,
        ));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| *a != "--smoke")
        .cloned()
        .unwrap_or_else(|| "BENCH_infer.json".to_string());
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(800)
    };

    let mut rng = StdRng::seed_from_u64(3);
    let tiny = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
    let mut giant = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
    let _handle = expand(&mut giant, &ExpansionPlan::paper_default(), &mut rng);
    let det_backbone = TinyNet::new(mobilenet_v2_tiny(4), &mut rng);
    let det = DetectorNet::new(det_backbone, 4, &mut rng);
    // The GEMM-bound family: wide dense 3x3 convolutions at 16x16 (the
    // int8 microkernel's target shape class — per-output-channel panel
    // reuse amortizes the activation quantize/pack cost), so this is
    // where the 2x quant gate is enforced.
    // Wide valid-padding trunk: every dense conv past the stem carries a
    // multi-hundred-KB f32 weight panel (L2-busting, so the f32 path is
    // bandwidth-bound) while the i8 panels stay cache-resident — the
    // regime int8 inference exists for.
    let gemm = Sequential::new()
        .push(Conv2d::new(3, 64, ConvGeometry::same(3, 2), true, &mut rng))
        .push(Activation::new(ActKind::Relu))
        .push(Conv2d::new(
            64,
            256,
            ConvGeometry::square(3, 1, 0),
            true,
            &mut rng,
        ))
        .push(Activation::new(ActKind::Relu))
        .push(Conv2d::new(
            256,
            384,
            ConvGeometry::square(3, 1, 0),
            true,
            &mut rng,
        ))
        .push(Activation::new(ActKind::Relu))
        .push(Conv2d::new(
            384,
            384,
            ConvGeometry::square(3, 1, 0),
            true,
            &mut rng,
        ))
        .push(Activation::new(ActKind::Relu))
        .push(Conv2d::new(
            384,
            384,
            ConvGeometry::square(3, 1, 0),
            true,
            &mut rng,
        ))
        .push(Activation::new(ActKind::Relu))
        .push(GlobalAvgPool::new())
        .push(Linear::new(384, 10, true, &mut rng));

    let mut rows = Vec::new();
    let batches: &[usize] = if smoke { &[4] } else { &[1, 8] };
    for &b in batches {
        rows.push(bench_case(
            "tinynet",
            b,
            false,
            &|f, v| tiny.forward(f, v),
            budget,
        ));
    }
    for &b in batches {
        rows.push(bench_case(
            "expanded-giant",
            b,
            false,
            &|f, v| giant.forward(f, v),
            budget,
        ));
    }
    for &b in batches {
        rows.push(bench_case(
            "detector-grid",
            b,
            false,
            &|f, v| det.forward_grid(f, v),
            budget,
        ));
    }
    for &b in batches {
        rows.push(bench_case(
            "gemmnet",
            b,
            true,
            &|f, v| gemm.forward(f, v),
            budget,
        ));
    }

    // the compiled plan exists to make eval cheaper than the tape; fail
    // loudly if its activation peak ever regresses to what the tape keeps.
    let plan_mem_ok = rows
        .iter()
        .all(|r| r.plan_peak_bytes < r.taped_retained_bytes);
    // The int8 claims, enforced where they are made. GEMM-bound rows: the
    // quantized plan must halve the f32 plan's time without growing the
    // activation peak. Depthwise-heavy rows: with the int8 depthwise
    // stencil and the shape-driven mixed-precision policy
    // (`QuantPolicy::Auto`), the quantized plan must at least break even
    // against the f32 plan, within 2% of measurement noise, since the
    // policy's whole job is trimming the quant/f32 margin down to the
    // layers where int8 genuinely wins.
    let quant_time_ok = rows.iter().all(|r| {
        if r.gemm_bound {
            2 * r.qplan_ns <= r.plan_ns
        } else {
            r.qplan_ns as f64 <= r.plan_ns as f64 * 1.02
        }
    });
    let quant_mem_ok = rows
        .iter()
        .filter(|r| r.gemm_bound)
        .all(|r| r.qplan_peak_bytes <= r.plan_peak_bytes);
    let json = to_json(&rows, batches);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("wrote {out_path}");
    let mut failed = false;
    if !plan_mem_ok {
        eprintln!("bench_infer: FAILED (compiled plan peak bytes not below the tape)");
        failed = true;
    }
    if !quant_time_ok {
        eprintln!(
            "bench_infer: FAILED (quantized plan under 2x on a GEMM-bound row, \
             or slower than f32 on a depthwise row)"
        );
        failed = true;
    }
    if !quant_mem_ok {
        eprintln!("bench_infer: FAILED (quantized plan peak bytes above the f32 plan)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
