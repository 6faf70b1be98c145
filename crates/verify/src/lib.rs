//! Correctness subsystem for the NetBooster reproduction.
//!
//! Numerical code fails quietly: a mis-tiled GEMM remainder block or a
//! mis-folded batch norm doesn't crash, it just trains a slightly wrong
//! network. This crate makes those failures loud, with three pillars:
//!
//! 1. **Differential oracles** ([`oracle`], [`diff`]) — naive, obviously
//!    correct f64 re-implementations of every hot kernel (GEMM in all
//!    transpose/epilogue variants, dense and depthwise convolution forward
//!    and backward, pooling, batch norm), plus a fuzz driver that sweeps edge-shape
//!    grids against the fast kernels at several thread-pool widths under
//!    ULP-bounded tolerances ([`tolerance`]).
//! 2. **Contraction exactness audit** ([`audit`]) — for any
//!    [`ExpansionPlan`](netbooster_core::ExpansionPlan) (all Q1 block kinds,
//!    Q2 placements, Q3 ratios), expand a model, run PLT to `alpha = 1`
//!    with real optimization steps (batch-norm running statistics
//!    updating), contract, and assert the giant and the contracted tiny
//!    network agree — per layer and end to end.
//! 3. **Train/eval parity** ([`parity`]) — the taped eval path and the
//!    compiled plan with folding and fusion off must produce *bitwise*
//!    identical logits for every model family at every worker-pool width,
//!    with zero graph nodes allocated by the plan.
//! 4. **Quantized-plan parity** ([`quant`]) — the int8 compiled plan
//!    (`CompiledPlan::compile_quantized`) is lossy by design, so it is held
//!    to a top-1 **accuracy-drop budget** ([`tolerance::AccuracyBudget`])
//!    against the f32 plan instead of ULP bounds — plus bitwise
//!    thread-width invariance, since integer accumulation is exact.
//! 5. **Concurrent-replay parity** ([`concurrent`]) — one shared
//!    `Arc<CompiledPlan>` replayed from many caller threads must match
//!    serial replay bitwise; any divergence means hidden shared mutable
//!    state on the serving hot path.
//! 6. **Data-parallel training parity** ([`dp`]) — `fit_parallel` must be
//!    a bitwise drop-in for the sequential trainer: one slice per batch
//!    reproduces `fit` exactly, and at a fixed gradient grain the worker
//!    count (1, 2, or the machine's pool width) cannot change a single
//!    parameter bit.
//! 7. **Seed-sweep harness** (re-exported from `netbooster_core::sweep`) —
//!    statistical pass criteria for learning tests: a test passes when
//!    enough seeds clear the bar, not when one lucky seed does.
//!
//! The `verify_all` binary runs all seven (`--fast` for the CI-sized grid,
//! `--quant-smoke` for just the quantized column at width 1) and exits
//! non-zero on any divergence, printing the per-layer tables.

pub mod audit;
pub mod concurrent;
pub mod diff;
pub mod dp;
pub mod oracle;
pub mod parity;
pub mod quant;
pub mod tolerance;

pub use audit::{audit_contraction, default_plans, run_audit_suite, ContractionAudit};
pub use concurrent::{run_concurrent_suite, ConcurrentCase, ConcurrentReport};
pub use diff::{run_all_suites, DiffReport};
pub use dp::{run_dp_suite, DpCase, DpReport};
pub use netbooster_core::{seed_sweep, SeedRun, SweepCriterion, SweepReport};
pub use parity::{run_parity_suite, ParityCase, ParityReport};
pub use quant::{run_quant_suite, QuantCase, QuantReport};
pub use tolerance::{ulp_distance, AccuracyBudget, Divergence, UlpTolerance};
