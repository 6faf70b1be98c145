//! Data-parallel training parity: `fit_parallel` must be a *bitwise*
//! drop-in for the sequential trainer.
//!
//! The parallel trainer's contract (DESIGN.md §5h) is that gradient bits
//! are a pure function of `(batch, grain)` — never of the worker count.
//! This suite pins both halves of that contract for several model
//! families, including one that exercises sliced batch-norm recording
//! (the NetAug-style supernet loss):
//!
//! 1. **Legacy parity** — with one slice per batch (`grain = 0`),
//!    `fit_parallel` on any worker count must reproduce the classic
//!    [`fit`] run exactly: every parameter bit and every epoch-loss bit.
//! 2. **Worker-count invariance** — with a fixed grain that misaligns
//!    with the batch size, worker counts 1, 2, and the machine's pool
//!    width must all land on identical parameter bits.
//!
//! Any divergence means the reduction order, batch-norm replay order, or
//! slice weighting leaked scheduling nondeterminism into training — the
//! class of bug that makes "same seed, different machine" irreproducible.

use nb_data::recipe::{Family, Nuisance};
use nb_data::{Augment, Split, SyntheticVision};
use nb_models::{mobilenet_v2_tiny, TinyNet, TnnConfig};
use nb_nn::{Module, Parameter, Session};
use nb_tensor as nt;
use netbooster_core::{
    ce_loss_fn, fit, fit_parallel, train_giant, train_giant_parallel, ExpansionPlan, NoHooks,
    ParallelConfig, ShardModel, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One data-parallel parity comparison.
#[derive(Debug, Clone)]
pub struct DpCase {
    /// Model family the comparison trained.
    pub family: String,
    /// What was compared (legacy parity or worker-count invariance).
    pub comparison: String,
    /// Whether every parameter bit matched.
    pub pass: bool,
}

/// Outcome of the data-parallel parity suite.
#[derive(Debug, Clone, Default)]
pub struct DpReport {
    /// Every comparison run.
    pub cases: Vec<DpCase>,
}

impl DpReport {
    /// True when every case passed.
    pub fn pass(&self) -> bool {
        !self.cases.is_empty() && self.cases.iter().all(|c| c.pass)
    }

    /// One line: `<n> cases, <f> failures`.
    pub fn summary_line(&self) -> String {
        let fails = self.cases.iter().filter(|c| !c.pass).count();
        format!("{} cases, {} failures", self.cases.len(), fails)
    }

    /// A table of the failing cases (empty string when everything passed).
    pub fn render_failures(&self) -> String {
        let mut out = String::new();
        for c in self.cases.iter().filter(|c| !c.pass) {
            out.push_str(&format!(
                "  FAIL [dp] {} : {} diverged bitwise\n",
                c.family, c.comparison
            ));
        }
        out
    }
}

/// Every parameter value of a trained model, flattened to raw f32 bits.
fn param_bits(params: &[Parameter]) -> Vec<u32> {
    params
        .iter()
        .flat_map(|p| {
            p.value()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A small shared training problem: 2 easy classes, 16 images, 8 px.
fn data() -> (SyntheticVision, SyntheticVision) {
    let mk =
        |split| SyntheticVision::new("dp", Family::Objects, 2, 8, 16, Nuisance::easy(), 7, split);
    (mk(Split::Train), mk(Split::Val))
}

fn small_cfg() -> TnnConfig {
    let mut cfg = mobilenet_v2_tiny(2);
    cfg.blocks.truncate(2);
    cfg.head_c = 12;
    cfg
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        lr: 0.05,
        augment: Augment::none(),
        ..TrainConfig::default()
    }
}

/// Runs both contract halves for one family given its legacy runner and
/// its data-parallel runner (each returning final parameter bits).
fn run_family(
    report: &mut DpReport,
    family: &str,
    legacy: &dyn Fn() -> Vec<u32>,
    dp: &dyn Fn(&ParallelConfig) -> Vec<u32>,
) {
    let reference = legacy();
    let one_slice = dp(&ParallelConfig {
        workers: 2,
        grain: 0,
    });
    report.cases.push(DpCase {
        family: family.to_string(),
        comparison: "dp(one slice per batch, 2 workers) vs legacy fit()".to_string(),
        pass: reference == one_slice,
    });

    // grain 3 misaligns with batch 8: slices of 3/3/2 rows per batch
    let at = |workers| dp(&ParallelConfig { workers, grain: 3 });
    let (w1, w2, wmax) = (at(1), at(2), at(nt::num_threads().max(2)));
    report.cases.push(DpCase {
        family: family.to_string(),
        comparison: "dp bits at workers {1, 2, max} (grain=3)".to_string(),
        pass: w1 == w2 && w2 == wmax,
    });
}

/// Bitwise data-parallel-vs-sequential training parity across model
/// families: a plain classifier, the expanded deep giant, and a
/// NetAug-style supernet whose loss exercises sliced batch-norm
/// recording. `fast` trains one epoch per run instead of two.
pub fn run_dp_suite(fast: bool) -> DpReport {
    let mut report = DpReport::default();
    let (train, val) = data();
    let epochs = if fast { 1 } else { 2 };
    let cfg = train_cfg(epochs);

    // 1. plain tinynet classifier
    let build_tiny = || TinyNet::new(small_cfg(), &mut StdRng::seed_from_u64(11));
    run_family(
        &mut report,
        "tinynet",
        &|| {
            let model = build_tiny();
            let mut loss = ce_loss_fn(&model, cfg.label_smoothing);
            fit(
                model.parameters(),
                &train,
                &val,
                &cfg,
                &mut loss,
                &|imgs| model.logits_eval(imgs),
                &mut NoHooks,
            );
            param_bits(&model.parameters())
        },
        &|pcfg| {
            let model = build_tiny();
            fit_parallel(
                model.parameters(),
                || ShardModel::classifier(build_tiny(), cfg.label_smoothing),
                &train,
                &val,
                &cfg,
                pcfg,
                &|imgs| model.logits_eval(imgs),
                &mut NoHooks,
            );
            param_bits(&model.parameters())
        },
    );

    // 2. expanded deep giant (phase-1 NetBooster training)
    let plan = ExpansionPlan::paper_default();
    run_family(
        &mut report,
        "expanded-giant",
        &|| {
            let mut rng = StdRng::seed_from_u64(13);
            let (model, _, _) =
                train_giant(&small_cfg(), &plan, &train, &val, &cfg, epochs, &mut rng);
            param_bits(&model.parameters())
        },
        &|pcfg| {
            let (model, _, _) =
                train_giant_parallel(&small_cfg(), &plan, &train, &val, &cfg, epochs, 13, pcfg);
            param_bits(&model.parameters())
        },
    );

    // 3. NetAug-style supernet: base-subnet loss (sliced batch norm, k <
    // full width) plus a full-width auxiliary forward with running-stat
    // updates suppressed — exercises the deferred BN recording on both
    // the sliced and the skipped path
    let base = small_cfg();
    let super_cfg = base.width_scaled(1.5).with_classes(base.classes);
    let build_super = {
        let super_cfg = super_cfg.clone();
        move || TinyNet::new(super_cfg.clone(), &mut StdRng::seed_from_u64(17))
    };
    let netaug_loss = |supernet: TinyNet, base: TnnConfig, smoothing: f32| -> ShardModel {
        let params = supernet.parameters();
        let loss_fn = Box::new(move |s: &mut Session, batch: &nb_data::Batch| {
            let x = s.input(batch.images.clone());
            let base_logits = supernet.forward_subnet(s, x, &base);
            s.update_bn_stats = false;
            let full_logits = supernet.forward(s, x);
            s.update_bn_stats = true;
            let base_ce = s
                .graph
                .softmax_cross_entropy(base_logits, &batch.labels, smoothing);
            let aux_ce = s
                .graph
                .softmax_cross_entropy(full_logits, &batch.labels, smoothing);
            let aux = s.graph.scale(aux_ce, 0.5);
            s.graph.add(base_ce, aux)
        });
        ShardModel { params, loss_fn }
    };
    run_family(
        &mut report,
        "netaug-sliced-bn",
        &|| {
            let supernet = build_super();
            let params = supernet.parameters();
            let smoothing = cfg.label_smoothing;
            let mut loss_fn = |s: &mut Session, batch: &nb_data::Batch| {
                let x = s.input(batch.images.clone());
                let base_logits = supernet.forward_subnet(s, x, &base);
                s.update_bn_stats = false;
                let full_logits = supernet.forward(s, x);
                s.update_bn_stats = true;
                let base_ce = s
                    .graph
                    .softmax_cross_entropy(base_logits, &batch.labels, smoothing);
                let aux_ce = s
                    .graph
                    .softmax_cross_entropy(full_logits, &batch.labels, smoothing);
                let aux = s.graph.scale(aux_ce, 0.5);
                s.graph.add(base_ce, aux)
            };
            fit(
                params.clone(),
                &train,
                &val,
                &cfg,
                &mut loss_fn,
                &|imgs| supernet.logits_eval(imgs),
                &mut NoHooks,
            );
            param_bits(&params)
        },
        &|pcfg| {
            let supernet = build_super();
            let params = supernet.parameters();
            fit_parallel(
                params.clone(),
                || netaug_loss(build_super(), base.clone(), cfg.label_smoothing),
                &train,
                &val,
                &cfg,
                pcfg,
                &|imgs| supernet.logits_eval(imgs),
                &mut NoHooks,
            );
            param_bits(&params)
        },
    );

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_suite_passes() {
        let report = run_dp_suite(true);
        // 3 families x 2 contract halves
        assert_eq!(report.cases.len(), 6);
        assert!(report.pass(), "{}", report.render_failures());
    }
}
