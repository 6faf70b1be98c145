//! `infer-b1`: one caller in a closed loop replays batch-1 inputs
//! round-robin through four compiled plans (contracted MobileNetV2-Tiny and
//! MCUNet, each f32 and int8). No queue and no compilation sit on the timed
//! path: plan replay and its kernels do all the work.

use crate::harness::{median, summarize, Summary};
use crate::nets::{self, Net, Precision, PLANS};
use crate::report::Report;
use crate::{trace, Args, EndToEnd};
use nb_models::TinyNet;
use nb_nn::{CompiledPlan, Module, Session};
use nb_tensor::Tensor;
use nb_verify::{Divergence, UlpTolerance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Reduction depth behind the f32-plan-versus-taped-eval tolerance: the
/// bound nb-verify's fold parity suite uses for whole networks, whose
/// batch-norm folding reassociates every layer.
pub const FOLD_REDUCTION_K: usize = 16384;
/// Minimum int8-versus-f32 top-1 agreement, percent. The nets are
/// untrained, so their logit margins are small and quantization noise flips
/// some top-1s: over 48 seeded nets agreement ranged 86.7–100%.
pub const AGREE_MIN_PCT: f64 = 75.0;
/// Largest int8-versus-f32 logit divergence, `max|q - f| / (1 + max|f|)`
/// over the agreement images (48 seeded nets: 0.019–0.104). A broken
/// quantizer lands near 1 or above.
pub const QUANT_DIV_MAX: f32 = 0.25;
/// Images the agreement is measured on.
pub const AGREE_IMAGES: usize = 512;
/// Distinct inputs cycled through in the timed loop.
const POOL: usize = 64;

/// The deployed networks and their four batch-1 plans.
pub struct Deployed {
    /// Contracted Tiny, then MCUNet.
    pub nets: [TinyNet; 2],
    /// In [`PLANS`] order.
    pub plans: Vec<CompiledPlan>,
}

/// Builds both networks and compiles the four batch-1 plans.
pub fn deploy(seed: u64) -> Deployed {
    let calib = nets::calibration(seed);
    let nets = [
        nets::build(Net::Tiny, seed),
        nets::build(Net::Mcunet, seed.wrapping_add(1)),
    ];
    let plans = PLANS
        .iter()
        .map(|k| {
            let net = &nets[usize::from(k.net == Net::Mcunet)];
            let _s = trace::span("nb-nn.compile", 0);
            nets::compile(net, k.prec, 1, &calib)
        })
        .collect();
    Deployed { nets, plans }
}

/// The `infer-b1` workload.
pub fn run(args: &Args, rep: &mut Report) -> EndToEnd {
    let mut setup_s = Vec::new();
    let mut deployed = None;
    for _ in 0..args.setups() {
        let t = Instant::now();
        let d = deploy(args.seed);
        let mut arenas: Vec<_> = d.plans.iter().map(CompiledPlan::new_arena).collect();
        let warm = nets::images(args.seed, 1);
        for (p, a) in d.plans.iter().zip(&mut arenas) {
            std::hint::black_box(p.run_in(a, &warm[0]));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        deployed = Some((d, arenas));
    }
    let (d, mut arenas) = deployed.expect("at least one set-up");

    let pool = nets::images(args.seed ^ 0x1b1, POOL);
    let refs: Vec<Vec<Tensor>> = d
        .plans
        .iter()
        .map(|p| pool.iter().map(|x| p.run(x)).collect())
        .collect();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0dd);
    // latency of every call in ms, per plan
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); PLANS.len()];
    let mut mismatches = 0u64;
    let origin = Instant::now();
    let mut round = 0u64;
    while origin.elapsed().as_secs_f64() < args.seconds {
        let img = rng.gen_range(0..POOL);
        let _round = trace::span("bench.round", round);
        for (p, plan) in d.plans.iter().enumerate() {
            let t = Instant::now();
            let y = {
                let _s = trace::span("nb-nn.run_in", round * PLANS.len() as u64 + p as u64);
                plan.run_in(&mut arenas[p], &pool[img])
            };
            lat[p].push(t.elapsed().as_secs_f64() * 1e3);
            mismatches += u64::from(!nets::bitwise_eq(&y, &refs[p][img]));
        }
        round += 1;
    }
    let calls = round * PLANS.len() as u64;
    let throughput = calls as f64 / origin.elapsed().as_secs_f64();
    // The plans' latencies differ fourfold (MCUNet against Tiny), so each
    // plan's median and tail are taken over all its own calls and averaged
    // over the four plans, which the loop calls equally often.
    let per_plan: Vec<Summary> = lat.iter().map(|v| summarize(v)).collect();
    let mean = |f: fn(&Summary) -> f64| per_plan.iter().map(f).sum::<f64>() / PLANS.len() as f64;
    let (p50, tail) = (mean(|s| s.median), mean(|s| s.tail));
    let model_mem: usize = d
        .plans
        .iter()
        .map(|p| p.packed_bytes() + p.arena_bytes())
        .sum();
    for ((k, plan), s) in PLANS.iter().zip(&d.plans).zip(&per_plan) {
        rep.note(format!(
            "{:<10} n {:>6}  p50 {:.4} ms  p{} {:.4} ms  packed {} B  arena {} B",
            k.name(),
            s.n,
            s.median,
            s.tail_pct,
            s.tail,
            plan.packed_bytes(),
            plan.arena_bytes(),
        ));
    }

    rep.attempted += calls;
    rep.failed += mismatches;
    rep.check(
        "replayed outputs bitwise equal their reference run",
        mismatches == 0,
        format!("{mismatches} of {calls} differ"),
    );
    check_outputs(args.seed, &d, rep);

    EndToEnd {
        setup_s: median(&setup_s),
        throughput_per_s: throughput,
        latency_p50_ms: p50,
        latency_tail_ms: tail,
        tail_pct: per_plan[0].tail_pct,
        tail_n: per_plan[0].n,
        model_mem_kib: model_mem as f64 / 1024.0,
    }
}

/// Eval-mode logits on the taped executor.
fn taped_logits(net: &TinyNet, x: &Tensor) -> Tensor {
    let mut s = Session::new(false);
    let v = s.input(x.clone());
    let y = net.forward(&mut s, v);
    s.value(y).clone()
}

/// The output checks: f32 plans against taped eval, int8 against f32, and
/// the contracted Tiny plan against a never-expanded one.
fn check_outputs(seed: u64, d: &Deployed, rep: &mut Report) {
    let probe = nets::stack(&nets::images(seed ^ 0x7a9e, 8));
    let tol = UlpTolerance::for_reduction(FOLD_REDUCTION_K);
    for (i, k) in PLANS
        .iter()
        .enumerate()
        .filter(|(_, k)| k.prec == Precision::F32)
    {
        let net = &d.nets[usize::from(k.net == Net::Mcunet)];
        let div = Divergence::measure(
            d.plans[i].run(&probe).as_slice(),
            taped_logits(net, &probe).as_slice(),
            &tol,
        );
        rep.check(
            format!("{} plan matches taped eval", k.name()),
            div.passes(),
            format!("max {} ulp, max abs {:.3e}", div.max_ulps, div.max_abs),
        );
    }

    let images = nets::images(seed ^ 0xa9e, AGREE_IMAGES);
    for f in (0..PLANS.len()).filter(|&i| PLANS[i].prec == Precision::F32) {
        let q = PLANS
            .iter()
            .position(|k| k.net == PLANS[f].net && k.prec == Precision::I8)
            .expect("every net has an int8 plan");
        let (mut agree, mut div) = (0usize, 0f32);
        for chunk in images.chunks(64) {
            let x = nets::stack(chunk);
            let (yf, yq) = (d.plans[f].run(&x), d.plans[q].run(&x));
            let (a, b) = (yf.argmax_last(), yq.argmax_last());
            agree += a.iter().zip(&b).filter(|(p, r)| p == r).count();
            div = div.max(nets::norm_div(&yq, &yf));
        }
        let pct = 100.0 * agree as f64 / images.len() as f64;
        rep.check(
            format!("{} tracks the f32 plan", PLANS[q].name()),
            pct >= AGREE_MIN_PCT && div <= QUANT_DIV_MAX,
            format!(
                "top-1 agreement {pct:.1}% of {} images (need {AGREE_MIN_PCT}%), logit divergence \
                 {div:.4} (at most {QUANT_DIV_MAX})",
                images.len()
            ),
        );
    }

    let vanilla = nets::compile(&nets::vanilla(Net::Tiny, seed), Precision::F32, 1, &[]);
    let contracted = &d.plans[0];
    let same = (
        vanilla.action_count(),
        vanilla.packed_bytes(),
        vanilla.arena_bytes(),
    ) == (
        contracted.action_count(),
        contracted.packed_bytes(),
        contracted.arena_bytes(),
    );
    rep.check(
        "contracted Tiny plan has the vanilla plan's structure",
        same,
        format!(
            "actions {} vs {}, packed {} vs {} B, arena {} vs {} B",
            contracted.action_count(),
            vanilla.action_count(),
            contracted.packed_bytes(),
            vanilla.packed_bytes(),
            contracted.arena_bytes(),
            vanilla.arena_bytes()
        ),
    );
}
