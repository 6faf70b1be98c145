//! Train/eval parity: the taped eval path against the compiled
//! [`CompiledPlan`].
//!
//! The two executors share every pointwise and convolution kernel, and
//! those kernels are bitwise thread-count invariant, so for any fixed
//! worker-pool width the eval-mode tape and the compiled plan with folding
//! and chain fusion off must produce *bitwise identical* outputs — not
//! merely close ones. Prepacking and epilogue fusion preserve bits by
//! construction; batch-norm folding does not (it reassociates the
//! per-channel scale into each multiply-accumulate), so the folded plan is
//! held to a ULP bound from [`crate::tolerance`] instead. The suite runs
//! every model family the repo evaluates — the tiny classifier, the
//! expanded deep giant, the width-sliced NetAug subnet, and the detection
//! grid head — at worker widths 1 and the full pool, and additionally
//! requires that compiling and running a plan allocates **zero** autograd
//! graph nodes (the point of the split execution path).

use crate::tolerance::{Divergence, UlpTolerance};
use nb_autograd::{nodes_allocated, Value};
use nb_models::{mobilenet_v2_tiny, DetectorNet, TinyNet};
use nb_nn::{CompiledPlan, Forward, Module, PlanOptions, Session};
use nb_tensor::{self as nt, Tensor};
use netbooster_core::{expand, ExpansionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Effective reduction length assumed when bounding folded-plan divergence:
/// generous enough for the deepest eval model (largest conv reduction ~1k
/// terms, compounding across ~20 layers) while still rejecting real defects,
/// which show up orders of magnitude above it.
const FOLD_REDUCTION_K: usize = 16384;

/// One parity comparison: a model family at one worker-pool width.
#[derive(Debug, Clone)]
pub struct ParityCase {
    /// Model family the forward ran on.
    pub case: String,
    /// Worker-pool width both executors ran at.
    pub threads: usize,
    /// Worst absolute difference between the two paths (0 when bitwise).
    pub max_abs: f32,
    /// Whether the outputs were bitwise identical.
    pub bitwise: bool,
    /// Graph nodes allocated by compiling and running the plan (must be 0).
    pub graph_nodes: usize,
    /// Whether the case passed.
    pub pass: bool,
}

/// Outcome of the parity suite.
#[derive(Debug, Clone, Default)]
pub struct ParityReport {
    /// Every comparison run.
    pub cases: Vec<ParityCase>,
}

impl ParityReport {
    /// True when every case passed.
    pub fn pass(&self) -> bool {
        !self.cases.is_empty() && self.cases.iter().all(|c| c.pass)
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&ParityCase> {
        self.cases.iter().filter(|c| !c.pass).collect()
    }

    /// One line: `<n> cases, <f> failures`.
    pub fn summary_line(&self) -> String {
        format!(
            "{} cases, {} failures",
            self.cases.len(),
            self.failures().len()
        )
    }

    /// A table of the failing cases (empty string when everything passed).
    pub fn render_failures(&self) -> String {
        let mut out = String::new();
        for c in self.failures() {
            out.push_str(&format!(
                "  FAIL [parity] {} threads={} : max abs {:.3e}, bitwise={}, graph nodes={}\n",
                c.case, c.threads, c.max_abs, c.bitwise, c.graph_nodes
            ));
        }
        out
    }
}

/// Runs one forward on the tape and on both plan columns at each width
/// and records the cases.
fn run_case(
    report: &mut ParityReport,
    name: &str,
    x: &Tensor,
    fwd: &dyn Fn(&mut dyn Forward, Value) -> Value,
) {
    let mut widths = vec![1usize, nt::num_threads()];
    widths.dedup();
    for &threads in &widths {
        nt::with_thread_cap(threads, || {
            // reference: the taped executor in eval mode
            let mut s = Session::new(false);
            let xv = s.input(x.clone());
            let y = fwd(&mut s, xv);
            let want = s.value(y).clone();
            drop(s);

            // candidate 1: the compiled plan with folding and chain fusion
            // off — prepacking and epilogue fusion alone must preserve bits,
            // with the node counter bracketing compile and run to prove no
            // tape was grown
            let before = nodes_allocated();
            let plan = CompiledPlan::compile_with(
                x.dims(),
                PlanOptions {
                    fold_bn: false,
                    fuse: false,
                    ..PlanOptions::default()
                },
                |f, v| fwd(f, v),
            );
            let got = plan.run(x);
            let plan_nodes = nodes_allocated() - before;
            let bitwise = got.dims() == want.dims() && got.as_slice() == want.as_slice();
            report.cases.push(ParityCase {
                case: format!("{name}+plan"),
                threads,
                max_abs: if got.dims() == want.dims() {
                    got.max_abs_diff(&want)
                } else {
                    f32::INFINITY
                },
                bitwise,
                graph_nodes: plan_nodes,
                pass: bitwise && plan_nodes == 0,
            });

            // candidate 2: the folded plan — batch-norm folding
            // reassociates, so the comparison is ULP-bounded
            let before = nodes_allocated();
            let folded = CompiledPlan::compile(x.dims(), |f, v| fwd(f, v));
            let folded_got = folded.run(x);
            let folded_nodes = nodes_allocated() - before;
            let tol = UlpTolerance::for_reduction(FOLD_REDUCTION_K);
            let (fold_pass, fold_max_abs) = if folded_got.dims() == want.dims() {
                let div = Divergence::measure(folded_got.as_slice(), want.as_slice(), &tol);
                (div.passes(), div.max_abs)
            } else {
                (false, f32::INFINITY)
            };
            report.cases.push(ParityCase {
                case: format!("{name}+plan-fold"),
                threads,
                max_abs: fold_max_abs,
                bitwise: folded_got.dims() == want.dims()
                    && folded_got.as_slice() == want.as_slice(),
                graph_nodes: folded_nodes,
                pass: fold_pass && folded_nodes == 0,
            });
        });
    }
}

/// Logits parity against taped eval (bitwise for the unfolded plan,
/// ULP-bounded for the folded plan) for every model family, at worker
/// widths 1 and the full pool.
pub fn run_parity_suite() -> ParityReport {
    let mut report = ParityReport::default();
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::randn([2, 3, 32, 32], &mut rng);

    // 1. the tiny classifier
    let tiny = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
    run_case(&mut report, "tinynet", &x, &|f, v| tiny.forward(f, v));

    // 2. the expanded deep giant (inserted blocks in every expandable slot)
    let mut giant = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
    let _handle = expand(&mut giant, &ExpansionPlan::paper_default(), &mut rng);
    run_case(&mut report, "expanded-giant", &x, &|f, v| {
        giant.forward(f, v)
    });

    // 3. the width-sliced NetAug subnet (exercises the sliced trait ops)
    let base = mobilenet_v2_tiny(10);
    let supernet = TinyNet::new(base.width_scaled(1.5).with_classes(10), &mut rng);
    run_case(&mut report, "sliced-subnet", &x, &|f, v| {
        supernet.forward_subnet(f, v, &base)
    });

    // 4. the detection grid head
    let backbone = TinyNet::new(mobilenet_v2_tiny(4), &mut rng);
    let det = DetectorNet::new(backbone, 4, &mut rng);
    run_case(&mut report, "detector-grid", &x, &|f, v| {
        det.forward_grid(f, v)
    });

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_suite_passes() {
        let report = run_parity_suite();
        // 4 families x 2 plan columns x {1, full-pool} widths
        // (width set collapsing when the pool is 1)
        assert!(report.cases.len() >= 8, "{}", report.cases.len());
        assert!(report.pass(), "{}", report.render_failures());
        // the fold-off plan column must be bitwise, not merely within
        // tolerance
        assert!(report
            .cases
            .iter()
            .filter(|c| c.case.ends_with("+plan"))
            .all(|c| c.bitwise));
    }
}
