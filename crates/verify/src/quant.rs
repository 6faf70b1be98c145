//! Quantized-plan parity: the `+plan-quant` column.
//!
//! Int8 PTQ is lossy by design, so the bitwise and ULP machinery the other
//! parity columns use cannot judge it — every element of a quantized
//! forward differs from f32 by far more than reassociation noise. What a
//! *correct* quantizer must preserve is the end task: top-1 accuracy on a
//! labeled eval set, within the [`AccuracyBudget`] from
//! [`crate::tolerance`]. This suite trains the tiny classifier briefly on
//! the smoke-scale SyntheticImageNet (so accuracies are meaningfully above
//! chance), compiles both the f32 and the quantized plan from the same
//! weights, and holds the quantized plan to the accuracy budget at worker
//! widths 1 and the full pool.
//!
//! Three properties ride along for free and are pinned here because they
//! are load-bearing for serving:
//!
//! - **Thread-width invariance is bitwise**, not budgeted: the i8 kernels
//!   accumulate in exact integer arithmetic, so any width must produce
//!   identical logits. A bitwise diff across widths means scheduling state
//!   leaked into the quantized path.
//! - **Fusion invariance is bitwise**: the fused inverted-residual
//!   executor (expand → depthwise → project in one strip-tiled action) is
//!   documented bitwise-identical to replaying the same three quantized
//!   stages sequentially, so a fused and an unfused twin compiled from the
//!   same weights and calibration set must agree on every logit bit.
//! - **Grad-free execution**: quantized replay must allocate zero autograd
//!   nodes, like every other plan column.
//!
//! The model under test is the inverted-residual TinyNet, so the quantized
//! plan exercises the int8 *depthwise* kernels (standalone and inside the
//! fused chain), not just the GEMM path. Compilation uses the default
//! [`nb_nn::QuantPolicy::Auto`] mixed-precision policy — the suite also
//! pins that the policy actually quantizes this model's depthwise stages
//! rather than silently leaving the whole plan in f32 (which would make
//! every budget below vacuous).

use crate::tolerance::AccuracyBudget;
use nb_autograd::nodes_allocated;
use nb_data::{synthetic_imagenet, Augment, DataLoader, Dataset, Scale};
use nb_models::{mobilenet_v2_tiny, TinyNet};
use nb_nn::{quant_calib_batches, CompiledPlan, Module, PlanOptions};
use nb_tensor::{self as nt, Tensor};
use netbooster_core::{ce_loss_fn, evaluate, fit, NoHooks, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One quantized-parity comparison at one worker-pool width.
#[derive(Debug, Clone)]
pub struct QuantCase {
    /// Model family plus column, e.g. `tinynet+plan-quant`.
    pub case: String,
    /// Worker-pool width the comparison ran at.
    pub threads: usize,
    /// Top-1 accuracy of the f32 compiled plan on the eval set.
    pub f32_top1: f32,
    /// Top-1 accuracy of the quantized plan on the same set.
    pub quant_top1: f32,
    /// Accuracy given up by quantization (0 when it matched or won).
    pub drop: f32,
    /// Autograd nodes allocated during quantized replay (must be 0).
    pub graph_nodes: usize,
    /// Whether the case passed its budget.
    pub pass: bool,
}

/// Outcome of the quantized-plan parity suite.
#[derive(Debug, Clone, Default)]
pub struct QuantReport {
    /// Every comparison run.
    pub cases: Vec<QuantCase>,
}

impl QuantReport {
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
                "  FAIL [quant] {} threads={} : f32 top-1 {:.3} vs quant {:.3} (drop {:.3}), graph nodes={}\n",
                c.case, c.threads, c.f32_top1, c.quant_top1, c.drop, c.graph_nodes
            ));
        }
        out
    }
}

/// Top-1 accuracy drop of the quantized plan vs the f32 plan on the
/// smoke-scale eval set, at worker widths 1 and the full pool, plus the
/// bitwise width-invariance check. `fast` trains one epoch instead of
/// three (CI-sized).
pub fn run_quant_suite(fast: bool) -> QuantReport {
    let mut report = QuantReport::default();
    let data = synthetic_imagenet(Scale::Smoke);
    let classes = data.train.num_classes();
    let model = TinyNet::new(mobilenet_v2_tiny(classes), &mut StdRng::seed_from_u64(40));

    // Brief training so top-1 sits meaningfully above chance: an untrained
    // net scores ~1/classes everywhere and would vacuously pass any budget.
    let cfg = TrainConfig {
        epochs: if fast { 1 } else { 3 },
        batch_size: 8,
        lr: 0.05,
        augment: Augment::none(),
        ..TrainConfig::default()
    };
    let mut loss = ce_loss_fn(&model, cfg.label_smoothing);
    fit(
        model.parameters(),
        &data.train,
        &data.val,
        &cfg,
        &mut loss,
        &|imgs| model.logits_eval(imgs),
        &mut NoHooks,
    );

    // Calibration batches from the training split (the conventional count).
    let loader = DataLoader::new(&data.train, cfg.batch_size);
    let calib: Vec<Tensor> = loader
        .epoch(0)
        .into_iter()
        .take(quant_calib_batches())
        .map(|b| b.images)
        .collect();
    let probe = calib[0].clone();

    let fplan = CompiledPlan::compile(probe.dims(), |f, v| model.forward(f, v));
    let before = nodes_allocated();
    let qplan = CompiledPlan::compile_quantized(probe.dims(), &calib, |f, v| model.forward(f, v));
    let compile_nodes = nodes_allocated() - before;
    // Unfused twin for the fusion-invariance column: same weights, same
    // calibration batches, fusion pass disabled.
    let uplan = CompiledPlan::compile_quantized_with(
        probe.dims(),
        PlanOptions {
            fuse: false,
            ..PlanOptions::default()
        },
        &calib,
        |f, v| model.forward(f, v),
    );

    // Depthwise coverage guard: under the Auto policy the inverted-residual
    // TinyNet must come out with quantized (depthwise) actions — a fully-f32
    // "quantized" plan would make the accuracy budgets below meaningless.
    report.cases.push(QuantCase {
        case: "tinynet+plan-quant-depthwise-active".to_string(),
        threads: 0,
        f32_top1: 0.0,
        quant_top1: 0.0,
        drop: 0.0,
        graph_nodes: 0,
        pass: qplan.is_quantized(),
    });

    let budget = AccuracyBudget::for_quantized();
    let mut widths = vec![1usize, nt::num_threads()];
    widths.dedup();
    let mut logits_by_width: Vec<Vec<u32>> = Vec::new();
    for &threads in &widths {
        nt::with_thread_cap(threads, || {
            let before = nodes_allocated();
            let f32_top1 = evaluate(&|imgs| fplan.run(imgs), &data.val, cfg.batch_size);
            let quant_top1 = evaluate(&|imgs| qplan.run(imgs), &data.val, cfg.batch_size);
            let graph_nodes = nodes_allocated() - before + compile_nodes;
            let drop = AccuracyBudget::drop(f32_top1, quant_top1);
            report.cases.push(QuantCase {
                case: "tinynet+plan-quant".to_string(),
                threads,
                f32_top1,
                quant_top1,
                drop,
                graph_nodes,
                pass: budget.ok(f32_top1, quant_top1) && graph_nodes == 0,
            });
            logits_by_width.push(
                qplan
                    .run(&probe)
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        });
    }

    // Integer accumulation is exact: width must not change a single bit.
    let invariant = logits_by_width.windows(2).all(|w| w[0] == w[1]);
    report.cases.push(QuantCase {
        case: "tinynet+plan-quant-width-bitwise".to_string(),
        threads: *widths.last().expect("width set non-empty"),
        f32_top1: 0.0,
        quant_top1: 0.0,
        drop: 0.0,
        graph_nodes: 0,
        pass: invariant,
    });

    // The fused chain executor must be a pure scheduling change: fused and
    // unfused quantized twins agree bitwise on every logit.
    let fused_bits: Vec<u32> = qplan
        .run(&probe)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let unfused_bits: Vec<u32> = uplan
        .run(&probe)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    report.cases.push(QuantCase {
        case: "tinynet+plan-quant-fuse-bitwise".to_string(),
        threads: nt::num_threads(),
        f32_top1: 0.0,
        quant_top1: 0.0,
        drop: 0.0,
        graph_nodes: 0,
        pass: fused_bits == unfused_bits,
    });

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_suite_passes() {
        let report = run_quant_suite(true);
        assert!(report.cases.len() >= 4, "{}", report.cases.len());
        assert!(report.pass(), "{}", report.render_failures());
        // The budgeted cases must be judging real signal, not chance: the
        // f32 reference should beat random guessing on the smoke set
        // (top-1 is in percent; smoke SyntheticImageNet has 8 classes).
        let chance = 100.0 / 8.0;
        assert!(report
            .cases
            .iter()
            .filter(|c| c.case == "tinynet+plan-quant")
            .all(|c| c.f32_top1 > chance));
    }
}
