//! `train-netbooster`: the paper's pipeline in one closed loop. A
//! MobileNetV2-Tiny is expanded into its deep giant, trained data-parallel
//! (`fit_parallel`, 2 shards, grain 8), progressively linearized (PLT),
//! contracted back and finetuned (`plt_and_contract_with`). The taped
//! forward and backward passes, the gradient tree-reduce, the optimizer and
//! the loader do the work; compiled plans only run inside evaluation.

use crate::harness::{self, quantile};
use crate::nets::{self, Net};
use crate::report::Report;
use crate::{trace, Args, EndToEnd};
use nb_data::recipe::{Family, Nuisance};
use nb_data::{Batch, DataLoader, Split, SyntheticVision};
use nb_models::{TinyNet, TnnConfig};
use nb_nn::{copy_params, Module, Session};
use nb_tensor::Tensor;
use netbooster_core::{
    contract_model, expand, fit_parallel, plt_and_contract_with, DecayCurve, ExpansionHandle,
    ExpansionPlan, ParallelConfig, ShardModel, TrainConfig, TrainHooks,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// Classes of the synthetic task.
pub const CLASSES: usize = 4;
/// Minibatch size.
pub const BATCH: usize = 32;
/// Rows per gradient slice; fixed, so the gradient bits do not depend on
/// the shard count.
pub const GRAIN: usize = 8;
/// Data-parallel shard threads.
pub const SHARDS: usize = 2;
/// Validation images.
pub const VAL: usize = 128;
/// Training images per second of run length. Frozen from the parent: one
/// pipeline of `seconds * 24` images takes about `seconds` there.
pub const SAMPLES_PER_SECOND: f64 = 24.0;
/// Normalized logit divergence allowed across contraction (nb-verify's
/// contraction-audit tolerance).
pub const AUDIT_TOL: f32 = 1e-4;
/// Final validation top-1 the contracted net must reach, percent (chance
/// is 25).
pub const FINAL_MIN_PCT: f32 = 50.0;

/// Pipeline sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Training images.
    pub train: usize,
    /// Validation images.
    pub val: usize,
    /// Epochs of giant training, PLT and finetuning.
    pub epochs: [usize; 3],
}

impl Sizes {
    /// The workload's sizes for a run of `seconds`.
    pub fn for_seconds(seconds: f64) -> Self {
        let train = ((seconds * SAMPLES_PER_SECOND / BATCH as f64).round() as usize).max(2) * BATCH;
        Sizes {
            train,
            val: VAL,
            epochs: [4, 1, 2],
        }
    }
}

/// Phase names, in order.
pub const PHASES: [&str; 3] = ["giant", "plt", "finetune"];

/// What one pipeline run observed.
pub struct PipelineObs {
    /// Wall time per phase, seconds.
    pub phase_s: [f64; 3],
    /// Step intervals per phase, milliseconds.
    pub steps_ms: [Vec<f64>; 3],
    /// Validation top-1 at the end of each phase, percent.
    pub val_pct: [f32; 3],
    /// Mean training loss per epoch, all phases.
    pub losses: Vec<f32>,
    /// Evaluation calls during giant training, seconds each.
    pub eval_s: Vec<f64>,
    /// Taped forward passes of the PLT and finetuning steps, seconds each.
    pub tail_forward_s: Vec<f64>,
    /// Shard replica builds, seconds each.
    pub replica_s: Vec<f64>,
    /// `expand` on the master, seconds.
    pub expand_s: f64,
    /// `contract_model` on the audit copy, seconds.
    pub contract_s: f64,
    /// Normalized logit divergence of the contracted copy.
    pub audit_div: f32,
    /// The contracted, finetuned model.
    pub model: TinyNet,
    /// Its architecture.
    pub config: TnnConfig,
}

fn dataset(seed: u64, n: usize, split: Split) -> SyntheticVision {
    SyntheticVision::new(
        "nbbench-train",
        Family::Objects,
        CLASSES,
        nets::IMAGE[1],
        n,
        Nuisance::easy(),
        seed,
        split,
    )
}

/// The pipeline's inputs: data, the giant's architecture and init seed.
pub struct Inputs {
    train: SyntheticVision,
    val: SyntheticVision,
    config: TnnConfig,
    init_seed: u64,
    cfg: TrainConfig,
}

/// Builds the inputs for `seed`.
pub fn inputs(seed: u64, sizes: Sizes) -> Inputs {
    Inputs {
        train: dataset(seed, sizes.train, Split::Train),
        val: dataset(seed, sizes.val, Split::Val),
        config: nets::config(Net::Tiny).with_classes(CLASSES),
        init_seed: seed ^ 0x61a27,
        cfg: TrainConfig {
            batch_size: BATCH,
            lr: 0.05,
            seed,
            ..TrainConfig::default()
        },
    }
}

fn build_giant(config: &TnnConfig, init_seed: u64) -> (TinyNet, ExpansionHandle) {
    let mut rng = StdRng::seed_from_u64(init_seed);
    let mut model = TinyNet::new(config.clone(), &mut rng);
    let handle = expand(&mut model, &ExpansionPlan::paper_default(), &mut rng);
    (model, handle)
}

struct StepClock(Vec<Instant>);

impl TrainHooks for StepClock {
    fn on_step(&mut self, _step: usize) {
        self.0.push(Instant::now());
    }
}

/// Intervals between consecutive instants, the first measured from `from`.
fn intervals_ms(from: Instant, marks: &[Instant]) -> Vec<f64> {
    let mut prev = from;
    marks
        .iter()
        .map(|&m| {
            let d = (m - prev).as_secs_f64() * 1e3;
            prev = m;
            d
        })
        .collect()
}

/// The library's `ShardModel::classifier` with a span around the forward
/// pass, for traced runs.
fn traced_shard(model: TinyNet) -> ShardModel {
    let params = model.parameters();
    ShardModel {
        params,
        loss_fn: Box::new(move |s: &mut Session, batch: &Batch| {
            let _span = trace::span("nb-nn.forward", 0);
            let x = s.input(batch.images.clone());
            let logits = model.forward(s, x);
            s.graph.softmax_cross_entropy(logits, &batch.labels, 0.0)
        }),
    }
}

/// Runs expand → giant → PLT → contract → finetune once.
pub fn pipeline(inp: &Inputs, sizes: Sizes) -> PipelineObs {
    let [giant_epochs, plt_epochs, ft_epochs] = sizes.epochs;
    let t_expand = Instant::now();
    let (mut master, handle) = {
        let _s = trace::span("netbooster-core.expand", 0);
        build_giant(&inp.config, inp.init_seed)
    };
    let expand_s = t_expand.elapsed().as_secs_f64();

    // Phase 1: the deep giant, data-parallel. This is `train_giant_parallel`
    // with a step clock in place of its no-op hooks.
    let replica_log = Mutex::new(Vec::new());
    let eval_log = RefCell::new(Vec::new());
    let mut clock = StepClock(Vec::new());
    let t_giant = Instant::now();
    let giant_hist = {
        let _s = trace::span("netbooster-core.fit_parallel", 0);
        fit_parallel(
            master.parameters(),
            || {
                let t = Instant::now();
                let (replica, _) = build_giant(&inp.config, inp.init_seed);
                replica_log
                    .lock()
                    .expect("replica log poisoned")
                    .push(t.elapsed().as_secs_f64());
                if trace::enabled() {
                    traced_shard(replica)
                } else {
                    ShardModel::classifier(replica, 0.0)
                }
            },
            &inp.train,
            &inp.val,
            &TrainConfig {
                epochs: giant_epochs,
                ..inp.cfg
            },
            &ParallelConfig {
                workers: SHARDS,
                grain: GRAIN,
            },
            &|imgs| {
                let _s = trace::span("nb-nn.eval", 0);
                let t = Instant::now();
                let y = master.logits_eval(imgs);
                eval_log.borrow_mut().push(t.elapsed().as_secs_f64());
                y
            },
            &mut clock,
        )
    };
    let giant_s = t_giant.elapsed().as_secs_f64();
    let giant_steps = intervals_ms(t_giant, &clock.0);

    // Contraction audit on a copy of the trained giant at alpha = 1.
    let probe = inp.val_probe();
    let (mut copy, copy_handle) = build_giant(&inp.config, inp.init_seed);
    copy_params(&master, &copy).expect("giant copy has the master's parameters");
    for s in &copy_handle.slopes {
        s.set(1.0);
    }
    let before = copy.logits_eval(&probe);
    let t_contract = Instant::now();
    {
        let _s = trace::span("netbooster-core.contract_model", 0);
        contract_model(&mut copy);
    }
    let contract_s = t_contract.elapsed().as_secs_f64();
    let audit_div = nets::norm_div(&copy.logits_eval(&probe), &before);

    // Phases 2 and 3: PLT, contraction and finetuning. Steps are marked by
    // the loss closure, which the trainer calls once per step.
    let marks = RefCell::new(Vec::new());
    let fwd = RefCell::new(Vec::new());
    let t_plt = Instant::now();
    let tail_hist = {
        let _s = trace::span("netbooster-core.plt_and_contract_with", 0);
        plt_and_contract_with(
            &mut master,
            &handle,
            &inp.train,
            &inp.val,
            &inp.cfg,
            plt_epochs,
            ft_epochs,
            DecayCurve::Linear,
            |m, s, batch| {
                marks.borrow_mut().push(Instant::now());
                let t = Instant::now();
                let _span = trace::span("nb-nn.forward", 0);
                let x = s.input(batch.images.clone());
                let logits = m.forward(s, x);
                let loss = s.graph.softmax_cross_entropy(logits, &batch.labels, 0.0);
                fwd.borrow_mut().push(t.elapsed().as_secs_f64());
                loss
            },
        )
    };
    let t_end = Instant::now();
    let marks = marks.into_inner();
    let per_epoch = sizes.train.div_ceil(BATCH);
    let plt_steps = (plt_epochs * per_epoch).min(marks.len());
    // each mark opens a step; a step ends where the next begins
    let mut bounds = marks.clone();
    bounds.push(t_end);
    let step_ms: Vec<f64> = bounds
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    let ft_start = marks.get(plt_steps).copied().unwrap_or(t_end);

    let last = |v: &[f32]| v.last().copied().unwrap_or(0.0);
    let plt_val = if plt_epochs > 0 {
        tail_hist
            .val_acc
            .get(plt_epochs - 1)
            .copied()
            .unwrap_or(0.0)
    } else {
        last(&giant_hist.val_acc)
    };
    let mut losses = giant_hist.epoch_loss.clone();
    losses.extend(&tail_hist.epoch_loss);
    PipelineObs {
        phase_s: [
            giant_s,
            (ft_start - t_plt).as_secs_f64(),
            (t_end - ft_start).as_secs_f64(),
        ],
        steps_ms: [
            giant_steps,
            step_ms[..plt_steps].to_vec(),
            step_ms[plt_steps..].to_vec(),
        ],
        val_pct: [last(&giant_hist.val_acc), plt_val, last(&tail_hist.val_acc)],
        losses,
        eval_s: eval_log.into_inner(),
        tail_forward_s: fwd.into_inner(),
        replica_s: replica_log.into_inner().expect("replica log poisoned"),
        expand_s,
        contract_s,
        audit_div,
        model: master,
        config: inp.config.clone(),
    }
}

/// A freshly built, untrained expanded giant for `inp`.
pub fn giant(inp: &Inputs) -> TinyNet {
    build_giant(&inp.config, inp.init_seed).0
}

impl Inputs {
    /// The training split.
    pub fn train_set(&self) -> &SyntheticVision {
        &self.train
    }

    /// The (unexpanded) architecture.
    pub fn config(&self) -> &TnnConfig {
        &self.config
    }

    /// The first 16 validation images as one batch.
    fn val_probe(&self) -> Tensor {
        use nb_data::Dataset;
        let imgs: Vec<Tensor> = (0..16.min(self.val.len()))
            .map(|i| {
                self.val
                    .get(i)
                    .0
                    .reshape([1, nets::IMAGE[0], nets::IMAGE[1], nets::IMAGE[2]])
            })
            .collect();
        nets::stack(&imgs)
    }
}

/// The `train-netbooster` workload.
pub fn run(args: &Args, rep: &mut Report) -> EndToEnd {
    let sizes = if args.smoke {
        Sizes {
            train: 2 * BATCH,
            val: 32,
            epochs: [1, 1, 1],
        }
    } else {
        Sizes::for_seconds(args.seconds)
    };
    // Set-up: the data sets, the giant (built and expanded), its first
    // batch, and one taped forward and backward pass on a throwaway replica
    // so lazy kernel and pool start-up is paid here.
    let mut setup_s = Vec::new();
    let mut inp = None;
    for _ in 0..args.setups() {
        let t = Instant::now();
        let i = inputs(args.seed, sizes);
        let (replica, _) = build_giant(&i.config, i.init_seed);
        let batch = DataLoader::new(&i.train, BATCH)
            .epoch_iter(0)
            .next()
            .expect("a training batch");
        let mut s = Session::new(true);
        let x = s.input(batch.images.clone());
        let logits = replica.forward(&mut s, x);
        let loss = s.graph.softmax_cross_entropy(logits, &batch.labels, 0.0);
        s.backward(loss);
        setup_s.push(t.elapsed().as_secs_f64());
        inp = Some(i);
    }
    let inp = inp.expect("at least one set-up");
    let obs = pipeline(&inp, sizes);

    let steps: usize = obs.steps_ms.iter().map(Vec::len).sum();
    // Samples trained over the pipeline's wall time: expansion, replica
    // builds, evaluation, contraction and loader restarts all count. Steps
    // are timed end to end too, so the evaluation that follows each epoch
    // lands in the step it follows.
    let pipeline_s = obs.expand_s + obs.phase_s.iter().sum::<f64>();
    let throughput = (steps * BATCH) as f64 / pipeline_s;
    // Step costs differ by phase (PLT's single-process steps take about
    // twice the giant's data-parallel ones), so a percentile over all steps
    // would sit on a phase boundary. Each phase's percentiles are taken over
    // its own steps and averaged with the phases' step counts as weights;
    // the tail is the highest percentile with ten steps beyond it over all
    // steps.
    let tail_pct = harness::tail_percentile(steps);
    let phase_pcts: Vec<(f64, f64)> = obs
        .steps_ms
        .iter()
        .map(|v| {
            let mut s = v.clone();
            s.sort_by(f64::total_cmp);
            if s.is_empty() {
                (0.0, 0.0)
            } else {
                (quantile(&s, 50.0), quantile(&s, tail_pct))
            }
        })
        .collect();
    let weighted = |pick: fn(&(f64, f64)) -> f64| {
        obs.steps_ms
            .iter()
            .zip(&phase_pcts)
            .map(|(v, p)| pick(p) * v.len() as f64)
            .sum::<f64>()
            / steps.max(1) as f64
    };
    let (p50, tail) = (weighted(|p| p.0), weighted(|p| p.1));
    let bad_epochs = obs.losses.iter().filter(|l| !l.is_finite()).count();
    let per_epoch = sizes.train.div_ceil(BATCH);
    let failed = (bad_epochs * per_epoch).min(steps) as u64;

    let want_flops = TinyNet::new(obs.config.clone(), &mut StdRng::seed_from_u64(0))
        .profile(nets::IMAGE[1])
        .flops;
    let got_flops = obs.model.profile(nets::IMAGE[1]).flops;
    let plan = nets::compile(&obs.model, nets::Precision::F32, 1, &[]);

    for (i, phase) in PHASES.iter().enumerate() {
        rep.note(format!(
            "{phase:<9} {:>7.2} s, {:>4} steps, step p50 {:>8.2} ms, p{tail_pct} {:>8.2} ms, \
             val top-1 {:>5.1}%",
            obs.phase_s[i],
            obs.steps_ms[i].len(),
            phase_pcts[i].0,
            phase_pcts[i].1,
            obs.val_pct[i]
        ));
    }
    rep.note(format!(
        "pipeline {pipeline_s:.2} s (expand {:.1} ms); train {} / val {} images, batch {BATCH}, \
         grain {GRAIN}, {SHARDS} shards, epochs {:?}; epoch losses {:?}",
        obs.expand_s * 1e3,
        sizes.train,
        sizes.val,
        sizes.epochs,
        obs.losses
    ));

    rep.attempted += steps as u64;
    rep.failed += failed;
    rep.check(
        "training loss finite",
        bad_epochs == 0,
        format!("{bad_epochs} non-finite epoch losses"),
    );
    rep.check(
        "contracted giant reproduces the alpha=1 giant's logits",
        obs.audit_div <= AUDIT_TOL,
        format!(
            "normalized divergence {:.3e} (tolerance {AUDIT_TOL:.0e})",
            obs.audit_div
        ),
    );
    rep.check(
        "contraction restores the original architecture",
        obs.model.expanded_count() == 0 && got_flops == want_flops,
        format!(
            "{} expanded blocks, {got_flops} vs {want_flops} MACs",
            obs.model.expanded_count()
        ),
    );
    rep.check(
        "contracted net learned the task",
        args.smoke || obs.val_pct[2] >= FINAL_MIN_PCT,
        format!(
            "final val top-1 {:.1}% (need {FINAL_MIN_PCT}%)",
            obs.val_pct[2]
        ),
    );

    EndToEnd {
        setup_s: harness::median(&setup_s),
        throughput_per_s: throughput,
        latency_p50_ms: p50,
        latency_tail_ms: tail,
        tail_pct,
        tail_n: steps,
        model_mem_kib: (plan.packed_bytes() + plan.arena_bytes()) as f64 / 1024.0,
    }
}
