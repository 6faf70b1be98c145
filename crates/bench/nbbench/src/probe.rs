//! The layer probe that ends every traced run.
//!
//! It drives each layer in isolation through its public API, at fixed
//! shapes and loads, so its numbers are the same kind of measurement in
//! every workload and locate a change to one layer. The workload's own
//! spans then say how much of that workload's time each layer takes.
//!
//! - nb-tensor: every conv, depthwise and linear layer of both nets at
//!   batch 1, f32 and int8, through the public kernels; operation counts
//!   and bytes moved are computed from tensor sizes, not measured.
//! - nb-nn: compile and replay of the four `infer-b1` plans.
//! - nb-serve: a short ladder of each serving mix.
//! - netbooster-core, nb-nn, nb-autograd, nb-optim, nb-data: one small
//!   pipeline, and single training steps taken apart call by call.

use crate::harness::{median, quantile, sample};
use crate::host::Noise;
use crate::infer::deploy;
use crate::nets::{self, Net, Precision, PLANS};
use crate::report::Report;
use crate::serve::{self, ServeWorkload};
use crate::train::{self, Sizes, BATCH, PHASES};
use crate::{trace, Args};
use nb_autograd::Value;
use nb_data::{Augment, DataLoader};
use nb_models::TinyNet;
use nb_nn::layers::BatchNorm2d;
use nb_nn::{Forward, Module, Parameter, Session};
use nb_optim::{Sgd, SgdConfig};
use nb_tensor::{
    activation_scale, conv2d_packed_into, depthwise_conv2d_fused_into, gemm_b_packed, max_abs,
    parallel_for, qdepthwise_conv2d_into, qgemm_conv, qgemm_conv_mat, qgemm_linear,
    quantize_activations, ConvGeometry, Epilogue, PackedA, PackedB, QDepthwiseW, QIm2colRef,
    QPackedW, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Per-layer metrics, in declaration order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Kernel groups, in metric order.
const GROUPS: [&str; 6] = ["stem", "pw", "dw3", "dw5", "dw7", "linear"];

/// One layer as its kernel sees it.
struct Layer {
    net: Net,
    group: usize,
    x: Tensor,
    w: Tensor,
    b: Option<Tensor>,
    geom: ConvGeometry,
    op: Op,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Conv,
    Depthwise,
    Linear,
}

/// A taped eval session that notes every conv, depthwise and linear call.
struct Tap {
    s: Session,
    net: Net,
    layers: Vec<Layer>,
}

impl Tap {
    fn note(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>, geom: ConvGeometry, op: Op) {
        let xt = self.s.value(x).clone();
        let wt = w.value();
        let group = match op {
            Op::Linear => 5,
            Op::Depthwise => match geom.kh {
                3 => 2,
                5 => 3,
                _ => 4,
            },
            Op::Conv if self.layers.is_empty() => 0,
            Op::Conv => 1,
        };
        self.layers.push(Layer {
            net: self.net,
            group,
            x: xt,
            w: wt,
            b: b.map(Parameter::value),
            geom,
            op,
        });
    }
}

impl Forward for Tap {
    fn training(&self) -> bool {
        false
    }
    fn input(&mut self, t: Tensor) -> Value {
        self.s.input(t)
    }
    fn value(&self, v: Value) -> &Tensor {
        Forward::value(&self.s, v)
    }
    fn take(&mut self, v: Value) -> Tensor {
        self.s.take(v)
    }
    fn retain(&mut self, v: Value) {
        self.s.retain(v)
    }
    fn conv2d(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>, g: ConvGeometry) -> Value {
        self.note(x, w, b, g, Op::Conv);
        self.s.conv2d(x, w, b, g)
    }
    fn conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        o: usize,
        i: usize,
        g: ConvGeometry,
    ) -> Value {
        self.s.conv2d_sliced(x, w, o, i, g)
    }
    fn depthwise_conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        g: ConvGeometry,
    ) -> Value {
        self.note(x, w, b, g, Op::Depthwise);
        self.s.depthwise_conv2d(x, w, b, g)
    }
    fn depthwise_conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        c: usize,
        g: ConvGeometry,
    ) -> Value {
        self.s.depthwise_conv2d_sliced(x, w, c, g)
    }
    fn linear(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>) -> Value {
        self.note(x, w, b, ConvGeometry::pointwise(), Op::Linear);
        self.s.linear(x, w, b)
    }
    fn linear_sliced(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>, i: usize) -> Value {
        self.s.linear_sliced(x, w, b, i)
    }
    fn batch_norm(&mut self, x: Value, bn: &BatchNorm2d) -> Value {
        self.s.batch_norm(x, bn)
    }
    fn batch_norm_sliced(&mut self, x: Value, bn: &BatchNorm2d, c: usize) -> Value {
        self.s.batch_norm_sliced(x, bn, c)
    }
    fn relu_decay(&mut self, x: Value, a: f32) -> Value {
        self.s.relu_decay(x, a)
    }
    fn relu6_decay(&mut self, x: Value, a: f32) -> Value {
        self.s.relu6_decay(x, a)
    }
    fn max_pool(&mut self, x: Value, g: ConvGeometry) -> Value {
        self.s.max_pool(x, g)
    }
    fn avg_pool(&mut self, x: Value, g: ConvGeometry) -> Value {
        self.s.avg_pool(x, g)
    }
    fn global_avg_pool(&mut self, x: Value) -> Value {
        self.s.global_avg_pool(x)
    }
    fn add(&mut self, a: Value, b: Value) -> Value {
        self.s.add(a, b)
    }
}

fn layers_of(model: &TinyNet, net: Net, x: &Tensor) -> Vec<Layer> {
    let mut tap = Tap {
        s: Session::new(false),
        net,
        layers: Vec::new(),
    };
    let v = tap.input(x.clone());
    model.forward(&mut tap, v);
    tap.layers
}

impl Layer {
    fn out_len(&self) -> usize {
        match self.op {
            Op::Linear => self.x.dims()[0] * self.w.dims()[0],
            Op::Conv | Op::Depthwise => {
                let (n, _, h, w) = self.x.shape().nchw();
                let (ho, wo) = self.geom.output_hw(h, w);
                let c_out = self.w.dims()[0];
                n * c_out * ho * wo
            }
        }
    }

    /// Floating-point operations (two per multiply-add).
    fn flops(&self) -> f64 {
        let macs_per_out = match self.op {
            Op::Linear => self.w.dims()[1],
            Op::Depthwise => self.geom.kh * self.geom.kw,
            Op::Conv => self.w.numel() / self.w.dims()[0],
        };
        2.0 * (self.out_len() * macs_per_out) as f64
    }

    /// Bytes the layer must move, from tensor sizes: f32 input, weight and
    /// output; int8 adds the u8 copy of the input and stores weights in
    /// one byte.
    fn bytes(&self, prec: Precision) -> f64 {
        let (x, w, y) = (self.x.numel(), self.w.numel(), self.out_len());
        match prec {
            Precision::F32 => 4.0 * (x + w + y) as f64,
            Precision::I8 => (4 * x + x + w + 4 * y) as f64,
        }
    }

    /// Seconds per call (median) of the public kernel that runs this layer.
    fn time(&self, prec: Precision, budget: Duration) -> f64 {
        let mut out = vec![0f32; self.out_len()];
        let bias: Vec<f32> = self
            .b
            .as_ref()
            .map_or_else(|| vec![0.0; self.w.dims()[0]], |b| b.as_slice().to_vec());
        let xs = self.x.as_slice();
        let warm = budget / 4;
        let times = match (self.op, prec) {
            (Op::Conv, Precision::F32) => {
                let k = self.w.numel() / self.w.dims()[0];
                let wp = PackedA::pack(self.w.as_slice(), false, self.w.dims()[0], k);
                sample(warm, budget, 5, || {
                    conv2d_packed_into(
                        &self.x,
                        &wp,
                        Some(&bias),
                        self.geom,
                        Epilogue::None,
                        &mut out,
                    )
                })
            }
            (Op::Depthwise, Precision::F32) => {
                let b = Tensor::from_vec(bias.clone(), [bias.len()]).expect("bias shape");
                sample(warm, budget, 5, || {
                    depthwise_conv2d_fused_into(
                        &self.x,
                        &self.w,
                        Some(&b),
                        self.geom,
                        Epilogue::None,
                        &mut out,
                    )
                })
            }
            (Op::Linear, Precision::F32) => {
                let (out_f, in_f) = (self.w.dims()[0], self.w.dims()[1]);
                let pb = PackedB::pack(self.w.as_slice(), true, in_f, out_f);
                let rows = self.x.dims()[0];
                sample(warm, budget, 5, || {
                    gemm_b_packed(xs, false, &pb, &mut out, rows, None, Epilogue::None)
                })
            }
            (op, Precision::I8) => {
                let mut qx = vec![0u8; xs.len()];
                let (n, c, h, w) = match op {
                    Op::Linear => (self.x.dims()[0], self.x.dims()[1], 1, 1),
                    _ => self.x.shape().nchw(),
                };
                let c_out = self.w.dims()[0];
                let (ho, wo) = self.geom.output_hw(h, w);
                let quant = QPackedW::pack(self.w.as_slice(), c_out, self.w.numel() / c_out);
                let qdw = (op == Op::Depthwise)
                    .then(|| QDepthwiseW::pack(self.w.as_slice(), c, self.geom.kh, self.geom.kw));
                let pointwise = self.geom == ConvGeometry::pointwise();
                sample(warm, budget, 5, || {
                    let scale = activation_scale(max_abs(xs));
                    quantize_activations(xs, scale, &mut qx);
                    match op {
                        Op::Linear => qgemm_linear(
                            &quant,
                            &qx,
                            n,
                            &mut out,
                            scale,
                            Some(&bias),
                            Epilogue::None,
                        ),
                        Op::Depthwise => qdepthwise_conv2d_into(
                            &qx,
                            n,
                            qdw.as_ref().expect("depthwise pack"),
                            Some(&bias),
                            self.geom,
                            Epilogue::None,
                            scale,
                            h,
                            w,
                            &mut out,
                        ),
                        Op::Conv => {
                            let (ins, outs) = (c * h * w, c_out * ho * wo);
                            for i in 0..n {
                                let xq = &qx[i * ins..(i + 1) * ins];
                                let o = &mut out[i * outs..(i + 1) * outs];
                                if pointwise {
                                    qgemm_conv_mat(
                                        &quant,
                                        xq,
                                        o,
                                        h * w,
                                        scale,
                                        Some(&bias),
                                        Epilogue::None,
                                    );
                                } else {
                                    let im = QIm2colRef {
                                        x: xq,
                                        c_in: c,
                                        h,
                                        w,
                                        geom: self.geom,
                                        ho,
                                        wo,
                                    };
                                    qgemm_conv(&quant, &im, o, scale, Some(&bias), Epilogue::None);
                                }
                            }
                        }
                    }
                })
            }
        };
        median(&times)
    }
}

fn push(m: &mut Metrics, name: impl Into<String>, v: f64, unit: &'static str) {
    m.push((name.into(), v, unit));
}

/// Runs the probe and returns every per-layer metric. `spans` and
/// `wall_s` are the traced workload's; checks the probe's own serving and
/// training runs make are added to `rep`.
pub fn run(
    args: &Args,
    spans: &[trace::SpanRec],
    wall_s: f64,
    noise: &Noise,
    rep: &mut Report,
) -> Metrics {
    let scale = if args.smoke { 0.2 } else { 1.0 };
    let mut m = Metrics::new();
    let d = deploy(args.seed);

    // nb-tensor: every layer's kernel, both precisions.
    let x1 = &nets::images(args.seed, 1)[0];
    let mut layers = layers_of(&d.nets[0], Net::Tiny, x1);
    layers.extend(layers_of(&d.nets[1], Net::Mcunet, x1));
    let budget = Duration::from_secs_f64(0.006 * scale);
    let precs = [Precision::F32, Precision::I8];
    // [prec][layer] seconds
    let times: Vec<Vec<f64>> = precs
        .iter()
        .map(|&p| layers.iter().map(|l| l.time(p, budget)).collect())
        .collect();
    for (gi, g) in GROUPS.iter().enumerate() {
        for (pi, &p) in precs.iter().enumerate() {
            let (mut s, mut fl, mut by) = (0.0, 0.0, 0.0);
            for (l, t) in layers.iter().zip(&times[pi]).filter(|(l, _)| l.group == gi) {
                s += t;
                fl += l.flops();
                by += l.bytes(p);
            }
            let tag = if p == Precision::F32 { "f32" } else { "i8" };
            push(&mut m, format!("nb-tensor.{g}.{tag}.us"), s * 1e6, "us");
            push(
                &mut m,
                format!("nb-tensor.{g}.{tag}.gflops"),
                fl / s.max(1e-12) / 1e9,
                "GFLOP/s",
            );
            push(
                &mut m,
                format!("nb-tensor.{g}.{tag}.gbps"),
                by / s.max(1e-12) / 1e9,
                "GB/s",
            );
        }
    }

    // nb-nn: replay and compile of the four plans.
    let calib = nets::calibration(args.seed);
    let mut replay = Vec::new();
    for (i, k) in PLANS.iter().enumerate() {
        let plan = &d.plans[i];
        let mut arena = plan.new_arena();
        let r = median(&sample(
            Duration::from_secs_f64(0.05 * scale),
            Duration::from_secs_f64(0.25 * scale),
            10,
            || {
                std::hint::black_box(plan.run_in(&mut arena, x1));
            },
        ));
        replay.push(r);
        let net = &d.nets[usize::from(k.net == Net::Mcunet)];
        let compile = median(&sample(Duration::ZERO, Duration::ZERO, 3, || {
            std::hint::black_box(nets::compile(net, k.prec, 1, &calib));
        }));
        push(
            &mut m,
            format!("nb-nn.replay_us.{}", k.name()),
            r * 1e6,
            "us",
        );
        push(
            &mut m,
            format!("nb-nn.compile_ms.{}", k.name()),
            compile * 1e3,
            "ms",
        );
        push(
            &mut m,
            format!("nb-nn.plan_kib.{}", k.name()),
            (plan.packed_bytes() + plan.arena_bytes()) as f64 / 1024.0,
            "KiB",
        );
    }
    for (i, k) in PLANS.iter().enumerate() {
        let pi = usize::from(k.prec == Precision::I8);
        let kernels: f64 = layers
            .iter()
            .zip(&times[pi])
            .filter(|(l, _)| l.net == k.net)
            .map(|(_, t)| t)
            .sum();
        push(
            &mut m,
            format!("nb-tensor.kernel_share.{}", k.name()),
            kernels / replay[i],
            "ratio",
        );
    }
    let width = nb_tensor::num_threads();
    let dispatch = median(&sample(
        Duration::from_millis(5),
        Duration::from_secs_f64(0.05 * scale),
        100,
        || parallel_for(width, &|_| {}),
    ));
    push(&mut m, "nb-tensor.pool_dispatch_us", dispatch * 1e6, "us");

    // nb-serve: a short ladder of each mix.
    let mut mini = |w: ServeWorkload| {
        let mut r = Report::default();
        let seconds = 0.6 * scale * w.rates.len() as f64;
        let (_, obs) = serve::run_ladder(&w, args.seed, seconds, 1, &mut r);
        rep.absorb_checks(r, "probe serving: ");
        obs
    };
    // the last rate saturates the server, for its completion rate
    let steady = mini(ServeWorkload {
        rates: vec![300.0, 900.0, 4000.0],
        cycles: 1,
        ..serve::steady(args.seed)
    });
    let churn = mini(serve::churn(args.seed));
    let sorted = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        s
    };
    let submit = sorted(&steady.submit_s);
    push(
        &mut m,
        "nb-serve.submit_us.p50",
        quantile(&submit, 50.0) * 1e6,
        "us",
    );
    push(
        &mut m,
        "nb-serve.submit_us.p99",
        quantile(&submit, 99.0) * 1e6,
        "us",
    );
    push(&mut m, "nb-serve.capacity_per_s", steady.capacity, "1/s");
    push(
        &mut m,
        "nb-serve.batch_occupancy",
        steady.occupancy,
        "req/batch",
    );
    push(
        &mut m,
        "nb-serve.backlog_max",
        steady.backlog_max as f64,
        "count",
    );
    push(
        &mut m,
        "nb-serve.rung_p99_ms.low",
        steady.rungs[0].rung.p99_ms,
        "ms",
    );
    push(
        &mut m,
        "nb-serve.rung_p99_ms.high",
        steady.rungs[1].rung.p99_ms,
        "ms",
    );
    push(
        &mut m,
        "nb-serve.cache_miss_ratio",
        churn.miss_ratio,
        "ratio",
    );
    push(
        &mut m,
        "nb-serve.cache_evictions",
        churn.evictions as f64,
        "count",
    );
    push(
        &mut m,
        "nb-serve.cache_resident_kib",
        churn.resident_bytes as f64 / 1024.0,
        "KiB",
    );
    let factory = sorted(&churn.factory_s);
    push(
        &mut m,
        "nb-serve.factory_compile_ms.p50",
        quantile(&factory, 50.0) * 1e3,
        "ms",
    );
    push(
        &mut m,
        "nb-serve.factory_compile_ms.p99",
        quantile(&factory, 99.0) * 1e3,
        "ms",
    );
    push(
        &mut m,
        "nb-serve.compile_busy_share",
        churn.compile_busy_share,
        "ratio",
    );
    let late = sorted(&steady.late_s);
    push(
        &mut m,
        "bench.gen_late_ms.p99",
        quantile(&late, 99.0) * 1e3,
        "ms",
    );

    // Training: one small pipeline, then single steps taken apart.
    let sizes = Sizes {
        train: 4 * BATCH,
        val: 32,
        epochs: [1, 1, 1],
    };
    let inp = train::inputs(args.seed, sizes);
    let obs = train::pipeline(&inp, sizes);
    for (i, phase) in PHASES.iter().enumerate() {
        push(
            &mut m,
            format!("netbooster-core.phase_s.{phase}"),
            obs.phase_s[i],
            "s",
        );
        let steps = if obs.steps_ms[i].is_empty() {
            vec![0.0]
        } else {
            obs.steps_ms[i].clone()
        };
        push(
            &mut m,
            format!("netbooster-core.step_ms.{phase}.p50"),
            median(&steps),
            "ms",
        );
    }
    let eval = if obs.eval_s.is_empty() {
        vec![0.0]
    } else {
        obs.eval_s.clone()
    };
    push(
        &mut m,
        "netbooster-core.eval_ms.p50",
        median(&eval) * 1e3,
        "ms",
    );
    push(
        &mut m,
        "netbooster-core.eval_share",
        obs.eval_s.iter().sum::<f64>() / obs.phase_s[0],
        "ratio",
    );
    let tail_fwd: f64 = obs.tail_forward_s.iter().sum();
    push(
        &mut m,
        "netbooster-core.forward_share",
        tail_fwd / (obs.phase_s[1] + obs.phase_s[2]),
        "ratio",
    );
    push(
        &mut m,
        "netbooster-core.replica_build_ms",
        median(&obs.replica_s) * 1e3,
        "ms",
    );
    push(
        &mut m,
        "netbooster-core.expand_ms",
        obs.expand_s * 1e3,
        "ms",
    );
    push(
        &mut m,
        "netbooster-core.contract_ms",
        obs.contract_s * 1e3,
        "ms",
    );

    let loader = DataLoader::new(inp.train_set(), BATCH)
        .shuffled(args.seed)
        .with_augment(Augment::standard());
    let mut batches = loader.epoch_iter(0);
    let batch_s = median(&sample(Duration::ZERO, Duration::ZERO, 3, || {
        std::hint::black_box(batches.next());
    }));
    push(&mut m, "nb-data.batch_ms", batch_s * 1e3, "ms");
    let batch = loader.epoch(1).swap_remove(0);
    let giant = train::giant(&inp);
    let tiny = TinyNet::new(inp.config().clone(), &mut StdRng::seed_from_u64(args.seed));
    for (name, model) in [("giant", &giant), ("tiny", &tiny)] {
        let (f, b, s) = step_parts(model, &batch, if args.smoke { 2 } else { 5 });
        push(&mut m, format!("nb-nn.forward_ms.{name}"), f * 1e3, "ms");
        push(
            &mut m,
            format!("nb-autograd.backward_ms.{name}"),
            b * 1e3,
            "ms",
        );
        push(&mut m, format!("nb-optim.step_ms.{name}"), s * 1e3, "ms");
    }

    // Where the traced workload's own time went, and what tracing cost.
    let by_layer = trace::self_ns_by_layer(spans);
    for layer in ["bench", "nb-nn", "nb-serve", "netbooster-core"] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        push(
            &mut m,
            format!("trace.self_pct.{layer}"),
            ns as f64 / 1e9 / wall_s * 100.0,
            "%",
        );
    }
    push(
        &mut m,
        "bench.trace_overhead_pct",
        trace_overhead(&d, x1, scale),
        "%",
    );
    push(&mut m, "bench.host_ref_us.p50", noise.ref_p50_us, "us");
    push(&mut m, "bench.host_ref_us.p90", noise.ref_p90_us, "us");
    push(&mut m, "bench.host_slow_frac", noise.slow_frac, "ratio");
    m
}

/// Median seconds of the taped forward (with loss), the backward pass and
/// one SGD step on `batch`.
fn step_parts(model: &TinyNet, batch: &nb_data::Batch, reps: usize) -> (f64, f64, f64) {
    let mut opt = Sgd::new(
        model.parameters(),
        SgdConfig {
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 4e-5,
            nesterov: false,
        },
    );
    let (mut f, mut b, mut s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        opt.zero_grad();
        let t0 = Instant::now();
        let mut sess = Session::new(true);
        let x = sess.input(batch.images.clone());
        let logits = model.forward(&mut sess, x);
        let loss = sess.graph.softmax_cross_entropy(logits, &batch.labels, 0.0);
        let t1 = Instant::now();
        sess.backward(loss);
        drop(sess);
        let t2 = Instant::now();
        opt.step(0.01);
        let t3 = Instant::now();
        f.push((t1 - t0).as_secs_f64());
        b.push((t2 - t1).as_secs_f64());
        s.push((t3 - t2).as_secs_f64());
    }
    (median(&f), median(&b), median(&s))
}

/// Percent by which recording spans slows one batch-1 round of the four
/// plans: blocks of rounds alternate between tracing on and off.
fn trace_overhead(d: &crate::infer::Deployed, x: &Tensor, scale: f64) -> f64 {
    let mut arenas: Vec<_> = d.plans.iter().map(|p| p.new_arena()).collect();
    let mut round = |traced: bool| {
        trace::set_enabled(traced);
        let t = Instant::now();
        for _ in 0..8 {
            let _r = trace::span("bench.round", 0);
            for (p, a) in d.plans.iter().zip(&mut arenas) {
                let _s = trace::span("nb-nn.run_in", 0);
                std::hint::black_box(p.run_in(a, x));
            }
        }
        t.elapsed().as_secs_f64()
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let blocks = ((40.0 * scale) as usize).max(4);
    for i in 0..blocks {
        // alternate which side goes first so drift cancels
        if i % 2 == 0 {
            on.push(round(true));
            off.push(round(false));
        } else {
            off.push(round(false));
            on.push(round(true));
        }
    }
    trace::set_enabled(false);
    drop(trace::take());
    (median(&on) / median(&off) - 1.0) * 100.0
}
