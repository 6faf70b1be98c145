//! [`CompiledPlan`]: the ahead-of-time compiled inference executor.
//!
//! An eval forward on the tape ([`crate::Session`]) pays per-call costs a
//! frozen deployment graph shouldn't: it records a node per op, keeps every
//! intermediate alive, re-packs GEMM weight panels, runs eval-mode batch
//! norm as a separate elementwise pass, and grows thread-local scratch on
//! demand. A `CompiledPlan` moves all of that to a one-time compile step:
//!
//! 1. **Record** — the module's `forward` runs once against a shape-only
//!    recorder (zero tensors, no kernels, no tape nodes), capturing the op
//!    sequence, activation shapes at a probe batch, and parameter snapshots
//!    (sliced exactly as the taped executor slices them).
//! 2. **Rewrite** — eval-mode batch norms fold into their preceding
//!    conv/depthwise weights ([`crate::fold`]); identity activations
//!    (decay slope `alpha >= 1`, the PLT endpoint) are elided; remaining
//!    ReLU/ReLU6 fuse into the producing kernel's epilogue
//!    ([`nb_tensor::Epilogue`]).
//! 3. **Prepack** — every GEMM-backed weight is packed once into panel
//!    format ([`nb_tensor::PackedA`]/[`nb_tensor::PackedB`]) and reused
//!    across calls. Conv replay then runs as a fully implicit GEMM: the
//!    prepacked weight multiplies the input through a virtual im2col view,
//!    so neither GEMM operand touches a scratch matrix at serve time. Each
//!    GEMM's schedule is a pure function of its shape
//!    ([`nb_tensor::gemm::variant`]), the same one the taped path runs.
//! 4. **Arena** — activation buffers are assigned at compile time by a
//!    best-fit liveness pass over per-sample sizes, so steady-state runs
//!    perform no activation allocation and [`peak_bytes`] is a deterministic
//!    function of the graph and batch size, not of runtime history.
//!
//! With folding and fusion disabled ([`PlanOptions`]) the plan is **bitwise
//! identical** to taped eval at every thread width: prepacked panels are
//! byte-identical to on-demand packing, fused epilogues delegate to the
//! same [`nb_tensor::eltwise`] expressions, and unfused batch norm uses the
//! same `bn_invstd`/`bn_apply_inplace` kernels. Folding reassociates the
//! per-channel scale into the convolution's multiply-accumulate chain, so a
//! folded plan is exact in infinite precision and ULP-bounded in f32 (the
//! parity suite in `nb-verify` checks both regimes).
//!
//! A compiled plan is **immutable after compile** (`Send + Sync`): every
//! replay borrows the plan shared (`&self`) and keeps its mutable state —
//! activation values, arena buffers, batch size — in a caller-owned
//! [`PlanArena`]. That is what lets a multi-tenant server wrap one plan in
//! an `Arc` and replay it concurrently from many worker threads, each with
//! its own arena. [`CompiledPlan::run`] is the one-shot
//! entry point (fresh arena per call); steady-state loops should hold a
//! [`PlanArena`] from [`CompiledPlan::new_arena`] and call
//! [`CompiledPlan::run_in`] so no activation allocation happens per batch.
//!
//! [`peak_bytes`]: CompiledPlan::peak_bytes

use crate::fold::{fold_bn, fold_bn_depthwise};
use crate::forward::Forward;
use crate::layers::BatchNorm2d;
use crate::Parameter;
use nb_autograd::Value;
use nb_tensor::{
    activation_scale, avgpool2d, conv2d_packed_into, conv2d_pointwise_mat_into,
    depthwise_conv2d_fused_into, dw_channel_rows, eltwise, global_avg_pool, max_abs, maxpool2d,
    qdepthwise_conv2d_into, qdw_channel_rows_requant, qgemm_conv, qgemm_conv_mat,
    qgemm_conv_mat_requant, qgemm_linear, quantize_activations, ConvGeometry, Epilogue, PackedA,
    PackedB, QDepthwiseW, QIm2colRef, QPackedW, Tensor,
};

/// Number of calibration batches [`CompiledPlan::compile_quantized`] callers
/// should draw, from `NB_QUANT_CALIB` (default 4). The plan itself accepts
/// whatever slice it is given; this helper just centralizes the knob so
/// verify, bench, and ci read the same value.
pub fn quant_calib_batches() -> usize {
    std::env::var("NB_QUANT_CALIB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// Which eligible layers [`CompiledPlan::compile_quantized`] lowers to int8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuantPolicy {
    /// Mixed precision by shape (the default): a layer quantizes only when
    /// the int8 kernel is expected to beat f32 *including* the activation
    /// quantize pass it requires. Depthwise always quantizes; dense convs
    /// and linears need enough rows and reduction depth to amortize the
    /// quantize; inverted-residual chains decide as one unit (so the
    /// fusion pass never splits a chain over precision) keyed on their
    /// input depth and output plane. See `quant_policy` for the exact
    /// thresholds and DESIGN.md §5j for the measurements behind them.
    #[default]
    Auto,
    /// Quantize every eligible layer regardless of shape — what the
    /// verify suites use so the int8 kernels are exercised on small probe
    /// models whose layers would all stay f32 under `Auto`.
    All,
}

/// Compile-time switches for [`CompiledPlan::compile_with`].
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Fold eval-mode batch norms into their preceding conv/depthwise
    /// weights. On (the default), the plan is fastest but ULP-bounded
    /// rather than bitwise against taped eval; off (with `fuse` off too),
    /// it is bitwise.
    pub fold_bn: bool,
    /// Fuse pointwise-expand → depthwise → pointwise-project chains into
    /// one strip-tiled action whose intermediates live in thread-local
    /// scratch instead of the arena. On by default. Quantized fused blocks
    /// are bitwise identical to their unfused twins; f32 fused blocks are
    /// ULP-bounded (the strip GEMMs may pick a different schedule than the
    /// full-plane GEMMs).
    pub fuse: bool,
    /// Which layers quantized compilation lowers to int8 (ignored by f32
    /// compilation). [`QuantPolicy::Auto`] picks per-layer mixed precision
    /// by shape; [`QuantPolicy::All`] forces every eligible layer.
    pub quant_policy: QuantPolicy,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            fold_bn: true,
            fuse: true,
            quant_policy: QuantPolicy::default(),
        }
    }
}

/// One op captured by the recording pass. Parameter tensors are snapshotted
/// (and pre-sliced, for the NetAug `_sliced` variants) exactly as the taped
/// executor materializes them.
enum RecOp {
    Conv {
        x: usize,
        out: usize,
        w: Tensor,
        b: Option<Tensor>,
        geom: ConvGeometry,
    },
    Depthwise {
        x: usize,
        out: usize,
        w: Tensor,
        b: Option<Tensor>,
        geom: ConvGeometry,
    },
    Linear {
        x: usize,
        out: usize,
        w: Tensor,
        b: Option<Tensor>,
    },
    BatchNorm {
        x: usize,
        out: usize,
        snap: BatchNorm2d,
    },
    Relu {
        x: usize,
        out: usize,
        alpha: f32,
    },
    Relu6 {
        x: usize,
        out: usize,
        alpha: f32,
    },
    MaxPool {
        x: usize,
        out: usize,
        geom: ConvGeometry,
    },
    AvgPool {
        x: usize,
        out: usize,
        geom: ConvGeometry,
    },
    Gap {
        x: usize,
        out: usize,
    },
    Add {
        a: usize,
        b: usize,
        out: usize,
    },
}

impl RecOp {
    fn inputs(&self) -> (usize, Option<usize>) {
        match *self {
            RecOp::Conv { x, .. }
            | RecOp::Depthwise { x, .. }
            | RecOp::Linear { x, .. }
            | RecOp::BatchNorm { x, .. }
            | RecOp::Relu { x, .. }
            | RecOp::Relu6 { x, .. }
            | RecOp::MaxPool { x, .. }
            | RecOp::AvgPool { x, .. }
            | RecOp::Gap { x, .. } => (x, None),
            RecOp::Add { a, b, .. } => (a, Some(b)),
        }
    }
}

/// Shape-only recorder: implements [`Forward`] over zero tensors, capturing
/// the op list without running any kernel.
struct Recorder {
    vals: Vec<Tensor>,
    ops: Vec<RecOp>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            vals: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn push_val(&mut self, dims: Vec<usize>) -> usize {
        self.vals.push(Tensor::zeros(dims));
        self.vals.len() - 1
    }

    fn dims(&self, v: Value) -> Vec<usize> {
        self.vals[v.index()].dims().to_vec()
    }
}

/// Reconstructs a standalone eval-mode batch-norm snapshot from explicit
/// statistics, so compile-time folding can call the real [`fold_bn`].
fn snap_bn(gamma: Tensor, beta: Tensor, mean: Tensor, var: Tensor, eps: f32) -> BatchNorm2d {
    let c = gamma.dims()[0];
    let bn = BatchNorm2d::new(c).with_eps(eps);
    bn.gamma().set_value(gamma);
    bn.beta().set_value(beta);
    bn.set_running_stats(mean, var);
    bn
}

impl Forward for Recorder {
    fn training(&self) -> bool {
        false
    }

    fn input(&mut self, t: Tensor) -> Value {
        self.vals.push(t);
        Value::from_index(self.vals.len() - 1)
    }

    fn value(&self, v: Value) -> &Tensor {
        &self.vals[v.index()]
    }

    fn take(&mut self, v: Value) -> Tensor {
        self.vals[v.index()].clone()
    }

    fn conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        geom: ConvGeometry,
    ) -> Value {
        let wt = w.value();
        let d = self.dims(x);
        let (ho, wo) = geom.output_hw(d[2], d[3]);
        let out = self.push_val(vec![d[0], wt.dims()[0], ho, wo]);
        self.ops.push(RecOp::Conv {
            x: x.index(),
            out,
            w: wt,
            b: b.map(|p| p.value()),
            geom,
        });
        Value::from_index(out)
    }

    fn conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        out_c: usize,
        in_c: usize,
        geom: ConvGeometry,
    ) -> Value {
        let wt = w.value().narrow_out_in((0, out_c), (0, in_c));
        let d = self.dims(x);
        let (ho, wo) = geom.output_hw(d[2], d[3]);
        let out = self.push_val(vec![d[0], out_c, ho, wo]);
        self.ops.push(RecOp::Conv {
            x: x.index(),
            out,
            w: wt,
            b: None,
            geom,
        });
        Value::from_index(out)
    }

    fn depthwise_conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        geom: ConvGeometry,
    ) -> Value {
        let d = self.dims(x);
        let (ho, wo) = geom.output_hw(d[2], d[3]);
        let out = self.push_val(vec![d[0], d[1], ho, wo]);
        self.ops.push(RecOp::Depthwise {
            x: x.index(),
            out,
            w: w.value(),
            b: b.map(|p| p.value()),
            geom,
        });
        Value::from_index(out)
    }

    fn depthwise_conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        channels: usize,
        geom: ConvGeometry,
    ) -> Value {
        let d = self.dims(x);
        let (ho, wo) = geom.output_hw(d[2], d[3]);
        let out = self.push_val(vec![d[0], channels, ho, wo]);
        self.ops.push(RecOp::Depthwise {
            x: x.index(),
            out,
            w: w.value().narrow0(0, channels),
            b: None,
            geom,
        });
        Value::from_index(out)
    }

    fn linear(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>) -> Value {
        let wt = w.value();
        let d = self.dims(x);
        let out = self.push_val(vec![d[0], wt.dims()[0]]);
        self.ops.push(RecOp::Linear {
            x: x.index(),
            out,
            w: wt,
            b: b.map(|p| p.value()),
        });
        Value::from_index(out)
    }

    fn linear_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        in_features: usize,
    ) -> Value {
        let wv = w.value();
        let (out_f, big_in) = wv.shape().rc();
        // Materialize the sliced weight exactly as the taped executor does:
        // the leading `in_features` columns of every row.
        let mut wk = Tensor::zeros([out_f, in_features]);
        {
            let dst = wk.as_mut_slice();
            let src = wv.as_slice();
            for r in 0..out_f {
                dst[r * in_features..(r + 1) * in_features]
                    .copy_from_slice(&src[r * big_in..r * big_in + in_features]);
            }
        }
        let d = self.dims(x);
        let out = self.push_val(vec![d[0], out_f]);
        self.ops.push(RecOp::Linear {
            x: x.index(),
            out,
            w: wk,
            b: b.map(|p| p.value()),
        });
        Value::from_index(out)
    }

    fn batch_norm(&mut self, x: Value, bn: &BatchNorm2d) -> Value {
        let d = self.dims(x);
        let out = self.push_val(d);
        self.ops.push(RecOp::BatchNorm {
            x: x.index(),
            out,
            snap: snap_bn(
                bn.gamma().value(),
                bn.beta().value(),
                bn.running_mean(),
                bn.running_var(),
                bn.eps(),
            ),
        });
        Value::from_index(out)
    }

    fn batch_norm_sliced(&mut self, x: Value, bn: &BatchNorm2d, channels: usize) -> Value {
        let k = channels;
        let d = self.dims(x);
        let out = self.push_val(d);
        self.ops.push(RecOp::BatchNorm {
            x: x.index(),
            out,
            snap: snap_bn(
                bn.gamma().value().narrow0(0, k),
                bn.beta().value().narrow0(0, k),
                bn.running_mean().narrow0(0, k),
                bn.running_var().narrow0(0, k),
                bn.eps(),
            ),
        });
        Value::from_index(out)
    }

    fn relu_decay(&mut self, x: Value, alpha: f32) -> Value {
        let d = self.dims(x);
        let out = self.push_val(d);
        self.ops.push(RecOp::Relu {
            x: x.index(),
            out,
            alpha,
        });
        Value::from_index(out)
    }

    fn relu6_decay(&mut self, x: Value, alpha: f32) -> Value {
        let d = self.dims(x);
        let out = self.push_val(d);
        self.ops.push(RecOp::Relu6 {
            x: x.index(),
            out,
            alpha,
        });
        Value::from_index(out)
    }

    fn max_pool(&mut self, x: Value, geom: ConvGeometry) -> Value {
        let d = self.dims(x);
        let (ho, wo) = geom.output_hw(d[2], d[3]);
        let out = self.push_val(vec![d[0], d[1], ho, wo]);
        self.ops.push(RecOp::MaxPool {
            x: x.index(),
            out,
            geom,
        });
        Value::from_index(out)
    }

    fn avg_pool(&mut self, x: Value, geom: ConvGeometry) -> Value {
        let d = self.dims(x);
        let (ho, wo) = geom.output_hw(d[2], d[3]);
        let out = self.push_val(vec![d[0], d[1], ho, wo]);
        self.ops.push(RecOp::AvgPool {
            x: x.index(),
            out,
            geom,
        });
        Value::from_index(out)
    }

    fn global_avg_pool(&mut self, x: Value) -> Value {
        let d = self.dims(x);
        let out = self.push_val(vec![d[0], d[1]]);
        self.ops.push(RecOp::Gap { x: x.index(), out });
        Value::from_index(out)
    }

    fn add(&mut self, a: Value, b: Value) -> Value {
        let d = self.dims(a);
        let out = self.push_val(d);
        self.ops.push(RecOp::Add {
            a: a.index(),
            b: b.index(),
            out,
        });
        Value::from_index(out)
    }
}

/// The kernel an [`Action`] executes.
enum Kernel {
    Conv {
        wp: PackedA,
        bias: Option<Tensor>,
        geom: ConvGeometry,
        act: Epilogue,
    },
    /// Int8 dense conv: per-channel quantized prepacked weights multiplying
    /// the per-tensor quantized input through a virtual u8 im2col view, with
    /// dequant + bias + activation fused in the GEMM epilogue.
    QConv {
        qw: QPackedW,
        /// Per-tensor input scale, calibrated at compile time.
        x_scale: f32,
        bias: Option<Tensor>,
        geom: ConvGeometry,
        act: Epilogue,
    },
    /// Int8 linear: quantized twin of `Linear` (bias and activation ride the
    /// dequant epilogue; quantized plans owe no bitwise parity to taped eval).
    QLinear {
        qw: QPackedW,
        x_scale: f32,
        bias: Option<Tensor>,
        act: Epilogue,
    },
    Depthwise {
        w: Tensor,
        b: Option<Tensor>,
        geom: ConvGeometry,
        act: Epilogue,
    },
    /// Int8 depthwise: per-channel quantized taps over the per-tensor
    /// quantized input, exact zero-point correction, dequant + bias +
    /// activation in the epilogue. Bitwise thread-width invariant like
    /// `QConv`.
    QDepthwise {
        qw: QDepthwiseW,
        x_scale: f32,
        bias: Option<Tensor>,
        geom: ConvGeometry,
        act: Epilogue,
    },
    /// A fused pointwise-expand → depthwise → pointwise-project chain
    /// (the inverted-residual body), executed strip-by-strip over the
    /// depthwise output rows so the two intermediate `[E, H, W]` tensors
    /// live in thread-local scratch instead of the arena. The boxed
    /// sub-kernels are exactly the three actions the fusion pass swallowed
    /// (`Conv`/`Depthwise`/`Conv`, or their quantized twins — never
    /// mixed), so per-stage scales, biases, and epilogues ride along
    /// unchanged.
    Fused {
        expand: Box<Kernel>,
        dw: Box<Kernel>,
        project: Box<Kernel>,
    },
    Linear {
        wp: PackedB,
        bias: Option<Tensor>,
        act: Epilogue,
    },
    BatchNorm {
        gamma: Tensor,
        beta: Tensor,
        mean: Tensor,
        invstd: Tensor,
    },
    Relu {
        alpha: f32,
    },
    Relu6 {
        alpha: f32,
    },
    MaxPool {
        geom: ConvGeometry,
    },
    AvgPool {
        geom: ConvGeometry,
    },
    Gap,
    Add {
        rhs: usize,
    },
}

impl Kernel {
    /// Whether this kernel consumes int8-quantized operands (fused blocks
    /// delegate to their expand stage — the three stages always quantize
    /// together).
    fn is_quant(&self) -> bool {
        match self {
            Kernel::QConv { .. } | Kernel::QLinear { .. } | Kernel::QDepthwise { .. } => true,
            Kernel::Fused { expand, .. } => expand.is_quant(),
            _ => false,
        }
    }
}

/// How an action obtains its output buffer.
#[derive(Clone, Copy, Debug)]
enum ExecMode {
    /// Kernel writes every element into the arena home `home`.
    OutOfPlace { home: usize },
    /// In-place op whose input dies here: the input tensor (and its home,
    /// if any) moves to the output.
    Inherit,
    /// In-place op whose input is still needed (or is the caller-owned
    /// input tensor): copy into the arena home `home`, then mutate.
    CopyToHome { home: usize },
    /// Kernel allocates its own output (pooling); not arena-backed.
    Fresh,
}

/// One executable step of a compiled plan.
struct Action {
    x: usize,
    out: usize,
    /// Output dims at the probe batch; dim 0 is replaced by the run batch.
    out_dims: Vec<usize>,
    kernel: Kernel,
    mode: ExecMode,
    /// Canonical value ids whose last use is this action; their buffers
    /// return to the arena afterwards.
    free_after: Vec<usize>,
    /// Quantized actions only: value ids released *before* the output home
    /// is acquired. The f32 input is dead once it has been quantized into
    /// the arena's u8 scratch, so a dying input's home is immediately
    /// reusable for the output — this is what keeps a quantized plan's peak
    /// at or below the f32 plan's on GEMM-bound graphs.
    early_free: Vec<usize>,
}

/// An eval-only executor compiled once from a module's forward pass.
///
/// Build with [`CompiledPlan::compile`] (folding on) or
/// [`CompiledPlan::compile_with`], then call [`CompiledPlan::run`] per
/// batch — or hold a [`PlanArena`] and call [`CompiledPlan::run_in`] to
/// keep steady-state replay allocation-free. The batch size may differ
/// from the probe batch (arena buffers scale linearly); per-sample dims
/// must match.
///
/// The plan itself is immutable after compile and `Send + Sync`: share it
/// behind an `Arc` and replay it concurrently, one arena per thread or
/// request.
pub struct CompiledPlan {
    actions: Vec<Action>,
    in_dims: Vec<usize>,
    final_out: usize,
    /// Number of canonical value slots an arena must provide.
    nvals: usize,
    val_home: Vec<Option<usize>>,
    /// Per-sample f32 counts of every arena home, fixed at compile time.
    home_units: Vec<usize>,
    /// Deterministic per-sample high-water mark of live activation f32s;
    /// quantized actions also account their transient u8 scratch here, in
    /// f32-equivalent units.
    peak_units: usize,
    packed_bytes: usize,
    /// Largest per-sample u8 count any quantized action needs for its input
    /// scratch (0 for pure-f32 plans).
    qscratch_units: usize,
}

/// Per-request replay state for a [`CompiledPlan`]: the live activation
/// values, the recycled arena buffers, and the bound batch size.
///
/// Arenas are cheap to create ([`CompiledPlan::new_arena`]) and grow their
/// buffers lazily on first replay; reusing one across runs keeps
/// steady-state inference allocation-free. An arena is tied to the plan
/// (or an identically compiled plan) that created it — [`CompiledPlan::run_in`]
/// panics on a structural mismatch.
pub struct PlanArena {
    values: Vec<Option<Tensor>>,
    homes: Vec<Vec<f32>>,
    /// Quantized-input scratch, shared by every quantized action in the
    /// plan (replay is sequential within an arena); high-water sized.
    qscratch: Vec<u8>,
    last_batch: usize,
}

impl PlanArena {
    /// Bytes currently resident in the arena's recycled buffers and live
    /// values (what reusing this arena keeps allocated between runs).
    pub fn resident_bytes(&self) -> usize {
        let homes: usize = self.homes.iter().map(|h| h.len()).sum();
        let vals: usize = self
            .values
            .iter()
            .flatten()
            .map(|t| t.as_slice().len())
            .sum();
        (homes + vals) * std::mem::size_of::<f32>() + self.qscratch.len()
    }
}

impl CompiledPlan {
    /// Compiles a plan (with batch-norm folding) from a forward pass probed
    /// at input shape `dims` (`dims[0]` is the probe batch; runs may use
    /// any batch).
    ///
    /// # Panics
    ///
    /// Panics if the forward uses training-mode semantics or inconsistent
    /// shapes.
    pub fn compile(dims: &[usize], fwd: impl FnOnce(&mut dyn Forward, Value) -> Value) -> Self {
        Self::compile_with(dims, PlanOptions::default(), fwd)
    }

    /// [`CompiledPlan::compile`] with explicit [`PlanOptions`].
    ///
    /// # Panics
    ///
    /// Panics if the forward uses training-mode semantics or inconsistent
    /// shapes.
    pub fn compile_with(
        dims: &[usize],
        opts: PlanOptions,
        fwd: impl FnOnce(&mut dyn Forward, Value) -> Value,
    ) -> Self {
        let mut rec = Recorder::new();
        let x = rec.input(Tensor::zeros(dims.to_vec()));
        let y = fwd(&mut rec, x);
        build(&rec, y.index(), dims.to_vec(), opts, None)
    }

    /// Compiles an **int8 post-training-quantized** plan: batch norms fold
    /// as in [`CompiledPlan::compile`], then every dense conv and linear is
    /// rewritten to an i8 kernel with per-channel symmetric weights and a
    /// per-tensor input scale calibrated from `calib` (a few representative
    /// batches; see [`quant_calib_batches`] for the conventional count).
    ///
    /// Calibration records each kernel input's max-abs by replaying the f32
    /// plan over the calibration batches, so the quantized plan's scales
    /// line up with its own fused graph (post-folding activations, not the
    /// recorded pre-fusion ones). Depthwise convs quantize too — the int8
    /// stencil with per-channel weights and exact zero-point correction
    /// keeps inverted-residual chains entirely in u8. Batch norms, pooling
    /// and residual adds stay f32, confining quantization error to the
    /// conv/linear operands.
    ///
    /// The result replays through every existing entry point ([`run`],
    /// [`run_in`], nb-serve) unchanged, and its replay is
    /// bitwise deterministic across thread widths: integer accumulation is
    /// exact under any schedule, so the only approximation is quantization
    /// itself, which the nb-verify `+plan-quant` accuracy budget bounds.
    ///
    /// [`run`]: CompiledPlan::run
    /// [`run_in`]: CompiledPlan::run_in
    ///
    /// # Panics
    ///
    /// Panics if `calib` is empty, if a calibration batch's per-sample dims
    /// differ from `dims`, or on any [`CompiledPlan::compile`] failure.
    pub fn compile_quantized(
        dims: &[usize],
        calib: &[Tensor],
        fwd: impl FnOnce(&mut dyn Forward, Value) -> Value,
    ) -> Self {
        Self::compile_quantized_with(dims, PlanOptions::default(), calib, fwd)
    }

    /// [`CompiledPlan::compile_quantized`] with explicit [`PlanOptions`] —
    /// how the verify suites build a fused and an unfused quantized twin.
    ///
    /// # Panics
    ///
    /// As [`CompiledPlan::compile_quantized`].
    pub fn compile_quantized_with(
        dims: &[usize],
        opts: PlanOptions,
        calib: &[Tensor],
        fwd: impl FnOnce(&mut dyn Forward, Value) -> Value,
    ) -> Self {
        assert!(
            !calib.is_empty(),
            "compile_quantized needs at least one calibration batch"
        );
        let mut rec = Recorder::new();
        let x = rec.input(Tensor::zeros(dims.to_vec()));
        let y = fwd(&mut rec, x);
        // Calibration runs on the *unfused* f32 plan so that maxima (and
        // the scales derived from them) are indexed by pre-fusion action
        // order — the order in which the quantized build's Pass A consumes
        // them. The fusion pass runs after scales are assigned, so the
        // final (possibly fused) plan sees identical per-stage scales.
        let calib_opts = PlanOptions {
            fuse: false,
            ..opts
        };
        let fplan = build(&rec, y.index(), dims.to_vec(), calib_opts, None);
        let mut maxima = vec![0.0f32; fplan.actions.len()];
        let mut arena = fplan.new_arena();
        for batch in calib {
            fplan.run_calibrate(&mut arena, batch, &mut maxima);
        }
        let scales: Vec<f32> = maxima.iter().map(|&m| activation_scale(m)).collect();
        build(&rec, y.index(), dims.to_vec(), opts, Some(&scales))
    }

    /// Creates a replay arena sized for this plan. Buffers grow lazily on
    /// first use; reuse one arena across runs ([`CompiledPlan::run_in`]) to
    /// keep steady-state replay allocation-free.
    pub fn new_arena(&self) -> PlanArena {
        PlanArena {
            values: vec![None; self.nvals],
            homes: self.home_units.iter().map(|_| Vec::new()).collect(),
            qscratch: Vec::new(),
            last_batch: self.in_dims[0],
        }
    }

    /// Runs the compiled graph over one batch with a one-shot arena,
    /// returning the final value.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s per-sample dims differ from the compiled shape.
    pub fn run(&self, x: &Tensor) -> Tensor {
        let mut arena = self.new_arena();
        self.run_in(&mut arena, x)
    }

    /// Runs the compiled graph over one batch, recycling `arena`'s buffers
    /// (the steady-state serving path: no activation allocation once the
    /// arena is warm).
    ///
    /// # Panics
    ///
    /// Panics if `x`'s per-sample dims differ from the compiled shape, or
    /// if `arena` was created by a structurally different plan.
    pub fn run_in(&self, arena: &mut PlanArena, x: &Tensor) -> Tensor {
        let v = self.bind(arena, x.clone());
        debug_assert_eq!(v.index(), 0);
        for ai in 0..self.actions.len() {
            self.exec(arena, ai);
        }
        self.take_value(arena, Value::from_index(self.final_out))
    }

    /// Deterministic peak of live activation bytes at the probe batch — the
    /// compile-time liveness high-water mark.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes_at(self.in_dims[0])
    }

    /// [`CompiledPlan::peak_bytes`] scaled to an arbitrary run batch (the
    /// liveness peak is linear in the batch).
    pub fn peak_bytes_at(&self, batch: usize) -> usize {
        self.peak_units * batch * std::mem::size_of::<f32>()
    }

    /// Total arena footprint in bytes at the probe batch: what a warm
    /// [`PlanArena`] for this plan keeps resident between runs.
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes_at(self.in_dims[0])
    }

    /// [`CompiledPlan::arena_bytes`] scaled to an arbitrary run batch.
    pub fn arena_bytes_at(&self, batch: usize) -> usize {
        self.home_units.iter().sum::<usize>() * batch * std::mem::size_of::<f32>()
            + self.qscratch_units * batch
    }

    /// Whether this plan carries int8 GEMM actions (built by
    /// [`CompiledPlan::compile_quantized`]).
    pub fn is_quantized(&self) -> bool {
        self.actions.iter().any(|a| a.kernel.is_quant())
    }

    /// Bytes held by prepacked weight panels (including retained raw
    /// operands for the small-problem dispatch).
    pub fn packed_bytes(&self) -> usize {
        self.packed_bytes
    }

    /// Number of executable actions after folding/elision.
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// Binds the run input into `arena`, reclaiming the previous run's
    /// buffers first.
    fn bind(&self, arena: &mut PlanArena, t: Tensor) -> Value {
        assert_eq!(
            t.dims().len(),
            self.in_dims.len(),
            "CompiledPlan input rank"
        );
        assert_eq!(
            &t.dims()[1..],
            &self.in_dims[1..],
            "CompiledPlan input per-sample shape"
        );
        assert_eq!(
            arena.values.len(),
            self.nvals,
            "PlanArena belongs to a structurally different plan"
        );
        assert_eq!(
            arena.homes.len(),
            self.home_units.len(),
            "PlanArena belongs to a structurally different plan"
        );
        arena.last_batch = t.dims()[0];
        // Reclaim last run's buffers into the arena before rebinding.
        let PlanArena { values, homes, .. } = arena;
        for (id, slot) in values.iter_mut().enumerate() {
            if let Some(t) = slot.take() {
                if let Some(h) = self.val_home[id] {
                    if !t.is_shared() {
                        homes[h] = t.into_vec();
                    }
                }
            }
        }
        arena.values[0] = Some(t);
        Value::from_index(0)
    }

    /// Deep-copies a live value out of `arena` (the arena keeps its buffer;
    /// final outputs are small relative to the activations saved).
    fn take_value(&self, arena: &PlanArena, v: Value) -> Tensor {
        let t = arena.values[v.index()]
            .as_ref()
            .expect("value not live in compiled plan");
        Tensor::from_vec(t.as_slice().to_vec(), t.dims().to_vec()).expect("take copy")
    }

    /// Executes action `ai` against `arena`'s values/buffer state.
    fn exec(&self, arena: &mut PlanArena, ai: usize) {
        let Self {
            actions, val_home, ..
        } = self;
        let PlanArena {
            values,
            homes,
            qscratch,
            last_batch,
            ..
        } = arena;
        let a = &actions[ai];
        let mut dims = a.out_dims.clone();
        dims[0] = *last_batch;
        let unit: usize = dims[1..].iter().product();
        let need = unit * *last_batch;

        let take_home = |homes: &mut Vec<Vec<f32>>, h: usize| -> Vec<f32> {
            let mut buf = std::mem::take(&mut homes[h]);
            if buf.len() != need {
                buf.resize(need, 0.0);
            }
            buf
        };

        let out_t = match (&a.kernel, a.mode) {
            (
                Kernel::Conv {
                    wp,
                    bias,
                    geom,
                    act,
                },
                ExecMode::OutOfPlace { home },
            ) => {
                let mut buf = take_home(homes, home);
                let xt = values[a.x].as_ref().expect("conv input live");
                conv2d_packed_into(
                    xt,
                    wp,
                    bias.as_ref().map(Tensor::as_slice),
                    *geom,
                    *act,
                    &mut buf,
                );
                Tensor::from_vec(buf, dims).expect("conv output shape")
            }
            (
                Kernel::QConv {
                    qw,
                    x_scale,
                    bias,
                    geom,
                    act,
                },
                ExecMode::OutOfPlace { home },
            ) => {
                // Quantize the f32 input into the arena's u8 scratch, then
                // release the (now dead) input *before* taking the output
                // home — pass B may have aliased the two.
                let (c_in, h, w_in) = {
                    let xt = values[a.x].as_ref().expect("qconv input live");
                    let d = xt.dims();
                    let src = xt.as_slice();
                    if qscratch.len() < src.len() {
                        qscratch.resize(src.len(), Q_SCRATCH_FILL);
                    }
                    quantize_activations(src, *x_scale, &mut qscratch[..src.len()]);
                    (d[1], d[2], d[3])
                };
                release_values(&a.early_free, values, val_home, homes);
                let mut buf = take_home(homes, home);
                let (ho, wo) = geom.output_hw(h, w_in);
                let unit_in = c_in * h * w_in;
                let unit_out = qw.m() * ho * wo;
                let pointwise = geom.kh == 1
                    && geom.kw == 1
                    && geom.sh == 1
                    && geom.sw == 1
                    && geom.ph == 0
                    && geom.pw == 0;
                for s in 0..*last_batch {
                    let qs = &qscratch[s * unit_in..(s + 1) * unit_in];
                    let cs = &mut buf[s * unit_out..(s + 1) * unit_out];
                    let bias = bias.as_ref().map(Tensor::as_slice);
                    if pointwise {
                        qgemm_conv_mat(qw, qs, cs, ho * wo, *x_scale, bias, *act);
                    } else {
                        let qim = QIm2colRef {
                            x: qs,
                            c_in,
                            h,
                            w: w_in,
                            geom: *geom,
                            ho,
                            wo,
                        };
                        qgemm_conv(qw, &qim, cs, *x_scale, bias, *act);
                    }
                }
                Tensor::from_vec(buf, dims).expect("qconv output shape")
            }
            (
                Kernel::QLinear {
                    qw,
                    x_scale,
                    bias,
                    act,
                },
                ExecMode::OutOfPlace { home },
            ) => {
                let in_f = qw.k();
                {
                    let xt = values[a.x].as_ref().expect("qlinear input live");
                    let src = xt.as_slice();
                    if qscratch.len() < src.len() {
                        qscratch.resize(src.len(), Q_SCRATCH_FILL);
                    }
                    quantize_activations(src, *x_scale, &mut qscratch[..src.len()]);
                }
                release_values(&a.early_free, values, val_home, homes);
                let mut buf = take_home(homes, home);
                qgemm_linear(
                    qw,
                    &qscratch[..*last_batch * in_f],
                    *last_batch,
                    &mut buf,
                    *x_scale,
                    bias.as_ref().map(Tensor::as_slice),
                    *act,
                );
                Tensor::from_vec(buf, dims).expect("qlinear output shape")
            }
            (Kernel::Depthwise { w, b, geom, act }, ExecMode::OutOfPlace { home }) => {
                let mut buf = take_home(homes, home);
                let xt = values[a.x].as_ref().expect("depthwise input live");
                depthwise_conv2d_fused_into(xt, w, b.as_ref(), *geom, *act, &mut buf);
                Tensor::from_vec(buf, dims).expect("depthwise output shape")
            }
            (
                Kernel::QDepthwise {
                    qw,
                    x_scale,
                    bias,
                    geom,
                    act,
                },
                ExecMode::OutOfPlace { home },
            ) => {
                // Mirror of the QConv arm: quantize into the u8 scratch,
                // release the dead f32 input, then take the output home.
                let (c, h, w_in) = {
                    let xt = values[a.x].as_ref().expect("qdepthwise input live");
                    let d = xt.dims();
                    let src = xt.as_slice();
                    if qscratch.len() < src.len() {
                        qscratch.resize(src.len(), Q_SCRATCH_FILL);
                    }
                    quantize_activations(src, *x_scale, &mut qscratch[..src.len()]);
                    (d[1], d[2], d[3])
                };
                release_values(&a.early_free, values, val_home, homes);
                let mut buf = take_home(homes, home);
                qdepthwise_conv2d_into(
                    &qscratch[..*last_batch * c * h * w_in],
                    *last_batch,
                    qw,
                    bias.as_ref().map(Tensor::as_slice),
                    *geom,
                    *act,
                    *x_scale,
                    h,
                    w_in,
                    &mut buf,
                );
                Tensor::from_vec(buf, dims).expect("qdepthwise output shape")
            }
            (
                Kernel::Fused {
                    expand,
                    dw,
                    project,
                },
                ExecMode::OutOfPlace { home },
            ) => {
                let mut buf = take_home(homes, home);
                let xt = values[a.x].as_ref().expect("fused input live");
                run_fused(expand, dw, project, xt, &mut buf);
                Tensor::from_vec(buf, dims).expect("fused output shape")
            }
            (Kernel::Linear { wp, bias, act }, ExecMode::OutOfPlace { home }) => {
                let mut buf = take_home(homes, home);
                let xt = values[a.x].as_ref().expect("linear input live");
                // With a bias the order must match taped eval (matmul, then
                // add_bias2, then activation); without one the activation
                // rides the GEMM epilogue.
                let gemm_act = if bias.is_some() { Epilogue::None } else { *act };
                nb_tensor::gemm_b_packed(
                    xt.as_slice(),
                    false,
                    wp,
                    &mut buf,
                    *last_batch,
                    None,
                    gemm_act,
                );
                let mut t = Tensor::from_vec(buf, dims).expect("linear output shape");
                if let Some(b) = bias {
                    eltwise::add_bias2_inplace(&mut t, b);
                    act.apply(t.as_mut_slice());
                }
                t
            }
            (kernel, ExecMode::Inherit) => {
                let mut t = values[a.x].take().expect("in-place input live");
                apply_inplace(kernel, &mut t, values);
                t
            }
            (kernel, ExecMode::CopyToHome { home }) => {
                let mut buf = take_home(homes, home);
                let xt = values[a.x].as_ref().expect("in-place input live");
                buf.copy_from_slice(xt.as_slice());
                let mut t = Tensor::from_vec(buf, dims).expect("in-place output shape");
                apply_inplace(kernel, &mut t, values);
                t
            }
            (Kernel::MaxPool { geom }, ExecMode::Fresh) => {
                let (t, _idx) = maxpool2d(values[a.x].as_ref().expect("pool input live"), *geom);
                t
            }
            (Kernel::AvgPool { geom }, ExecMode::Fresh) => {
                avgpool2d(values[a.x].as_ref().expect("pool input live"), *geom)
            }
            (Kernel::Gap, ExecMode::Fresh) => {
                global_avg_pool(values[a.x].as_ref().expect("pool input live"))
            }
            _ => unreachable!("kernel/mode combination not produced by compile"),
        };
        values[a.out] = Some(out_t);
        release_values(&a.free_after, values, val_home, homes);
    }

    /// [`CompiledPlan::run_in`] with a max-abs probe: before each
    /// quantizable action (conv / linear / depthwise) executes, folds its
    /// live f32 input's max-abs into `maxima[action]`. This is the
    /// calibration pass behind [`CompiledPlan::compile_quantized`] — it
    /// runs on an *unfused* f32 plan, and action indices line up with the
    /// quantized build because quantization changes kernels (never the
    /// emission order) and chain fusion runs only after scales are
    /// assigned.
    fn run_calibrate(&self, arena: &mut PlanArena, x: &Tensor, maxima: &mut [f32]) {
        let v = self.bind(arena, x.clone());
        debug_assert_eq!(v.index(), 0);
        for (ai, mx) in maxima.iter_mut().enumerate().take(self.actions.len()) {
            let a = &self.actions[ai];
            if matches!(
                a.kernel,
                Kernel::Conv { .. } | Kernel::Linear { .. } | Kernel::Depthwise { .. }
            ) {
                let xt = arena.values[a.x].as_ref().expect("calibration input live");
                *mx = mx.max(max_abs(xt.as_slice()));
            }
            self.exec(arena, ai);
        }
    }
}

/// Fresh u8 scratch bytes start at the activation zero point; every byte the
/// kernels read is overwritten by `quantize_activations` first, so the fill
/// value is cosmetic.
const Q_SCRATCH_FILL: u8 = nb_tensor::Q_ZERO;

/// Returns dying values' buffers to their arena homes (shared-buffer tensors
/// are dropped instead — their storage is borrowed, not arena-owned).
fn release_values(
    ids: &[usize],
    values: &mut [Option<Tensor>],
    val_home: &[Option<usize>],
    homes: &mut [Vec<f32>],
) {
    for &id in ids {
        if let Some(t) = values[id].take() {
            if let Some(h) = val_home[id] {
                if !t.is_shared() {
                    homes[h] = t.into_vec();
                }
            }
        }
    }
}

/// Applies an in-place kernel to an exclusively-owned tensor.
fn apply_inplace(kernel: &Kernel, t: &mut Tensor, values: &[Option<Tensor>]) {
    match kernel {
        Kernel::BatchNorm {
            gamma,
            beta,
            mean,
            invstd,
        } => eltwise::bn_apply_inplace(t, gamma, beta, mean, invstd),
        Kernel::Relu { alpha } => eltwise::relu_decay_inplace(t, *alpha),
        Kernel::Relu6 { alpha } => eltwise::relu6_decay_inplace(t, *alpha),
        Kernel::Add { rhs } => t.add_assign(values[*rhs].as_ref().expect("add rhs live")),
        _ => unreachable!("not an in-place kernel"),
    }
}

// Thread-local scratch for the fused inverted-residual executor: one f32
// buffer partitioned into [gathered input | expand out | depthwise out |
// project out] strip regions, plus one u8 buffer the quantized path
// reuses across its three quantize steps. Grown to a high-water mark and
// reused, like nb-tensor's packing scratch, and excluded from
// `CompiledPlan::peak_bytes` the same way — it is bounded by the strip
// budget, not the activation footprint.
thread_local! {
    static FUSE_F32: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
    static FUSE_U8: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

fn with_fuse_scratch<R>(
    f32_len: usize,
    u8_len: usize,
    f: impl FnOnce(&mut [f32], &mut [u8]) -> R,
) -> R {
    FUSE_F32.with(|cf| {
        FUSE_U8.with(|cq| {
            let mut fb = cf.take();
            let mut qb = cq.take();
            if fb.len() < f32_len {
                fb.resize(f32_len, 0.0);
            }
            if qb.len() < u8_len {
                qb.resize(u8_len, Q_SCRATCH_FILL);
            }
            let r = f(&mut fb[..], &mut qb[..]);
            cf.set(fb);
            cq.set(qb);
            r
        })
    })
}

/// Depthwise-output rows per fused strip: the largest strip whose f32
/// scratch stays roughly L2-resident, clamped to `[1, ho]`. A pure
/// function of the shapes, so fused replay is deterministic.
fn fused_strip_rows(
    c_in: usize,
    e: usize,
    c_out: usize,
    w: usize,
    wo: usize,
    sh: usize,
    ho: usize,
) -> usize {
    // f32 units per depthwise output row: gathered input and expand output
    // cover `sh` input rows each (the kh-1 halo is amortized), plus the
    // depthwise and project output rows.
    let per_row = (c_in + e) * sh * w + (e + c_out) * wo;
    const TARGET_UNITS: usize = 48 * 1024; // ~192 KiB of f32 strip scratch
    (TARGET_UNITS / per_row.max(1)).clamp(1, ho.max(1))
}

/// Executes a fused expand → depthwise → project block sample by sample:
/// strips of depthwise output rows flow through thread-local scratch, so
/// the two `[E, H, W]` intermediates never round-trip through the arena.
///
/// The quantized variant is **bitwise identical** to its unfused twin:
/// `quantize_activations` is elementwise (strip-wise quantization produces
/// the same bytes), the integer GEMM/stencil stages are exact under any
/// schedule, and the dequant epilogues evaluate the same expression per
/// element. The f32 variant is ULP-bounded only — the strip-shaped
/// pointwise GEMMs may select a different schedule than the full-plane
/// ones. Both are bitwise thread-width invariant.
fn run_fused(expand: &Kernel, dw: &Kernel, project: &Kernel, xt: &Tensor, out: &mut [f32]) {
    let d = xt.dims();
    let (n, c_in, h, w) = (d[0], d[1], d[2], d[3]);
    let x = xt.as_slice();
    match (expand, dw, project) {
        (
            Kernel::Conv {
                wp: ewp,
                bias: ebias,
                act: eact,
                ..
            },
            Kernel::Depthwise {
                w: dww,
                b: dwb,
                geom,
                act: dact,
            },
            Kernel::Conv {
                wp: pwp,
                bias: pbias,
                act: pact,
                ..
            },
        ) => {
            let g = *geom;
            let (ho, wo) = g.output_hw(h, w);
            let (e, c_out) = (ewp.m(), pwp.m());
            debug_assert_eq!(out.len(), n * c_out * ho * wo, "fused output length");
            let strip = fused_strip_rows(c_in, e, c_out, w, wo, g.sh, ho);
            let rows_in_max = ((strip - 1) * g.sh + g.kh).min(h);
            let (xg_cap, e_cap) = (c_in * rows_in_max * w, e * rows_in_max * w);
            let (d_cap, p_cap) = (e * strip * wo, c_out * strip * wo);
            // One depthwise kernel decision per run, on the same shape as
            // the standalone action, so strips run the same kernel.
            let simd = nb_tensor::depthwise::row_strip(e, g.kh * g.kw, ho * wo);
            let ws = dww.as_slice();
            let ebias = ebias.as_ref().map(Tensor::as_slice);
            let dbias = dwb.as_ref().map(Tensor::as_slice);
            let pbias = pbias.as_ref().map(Tensor::as_slice);
            with_fuse_scratch(xg_cap + e_cap + d_cap + p_cap, 0, |fb, _| {
                let (xg, rest) = fb.split_at_mut(xg_cap);
                let (eb, rest) = rest.split_at_mut(e_cap);
                let (db, pb) = rest.split_at_mut(d_cap);
                for s in 0..n {
                    let x_s = &x[s * c_in * h * w..(s + 1) * c_in * h * w];
                    let o_s = &mut out[s * c_out * ho * wo..(s + 1) * c_out * ho * wo];
                    let mut o0 = 0;
                    while o0 < ho {
                        let o1 = (o0 + strip).min(ho);
                        let r0 = (o0 * g.sh).saturating_sub(g.ph);
                        let r1 = ((o1 - 1) * g.sh + g.kh).saturating_sub(g.ph).min(h).max(r0);
                        let ri = r1 - r0;
                        let (ni, no) = (ri * w, (o1 - o0) * wo);
                        if ni > 0 {
                            // A strip that spans the whole input plane needs
                            // no gather: the sample is already the k x n
                            // matrix the pointwise GEMM expects.
                            let xin: &[f32] = if ri == h {
                                &x_s[..c_in * ni]
                            } else {
                                for ci in 0..c_in {
                                    xg[ci * ni..(ci + 1) * ni].copy_from_slice(
                                        &x_s[ci * h * w + r0 * w..ci * h * w + r1 * w],
                                    );
                                }
                                &xg[..c_in * ni]
                            };
                            conv2d_pointwise_mat_into(
                                ewp,
                                xin,
                                &mut eb[..e * ni],
                                ni,
                                ebias,
                                *eact,
                            );
                        }
                        for ci in 0..e {
                            let bv = dbias.map(|b| b[ci]).unwrap_or(0.0);
                            dw_channel_rows(
                                &eb[ci * ni..(ci + 1) * ni],
                                r0,
                                h,
                                w,
                                &ws[ci * g.kh * g.kw..(ci + 1) * g.kh * g.kw],
                                bv,
                                g,
                                wo,
                                o0,
                                o1,
                                &mut db[ci * no..(ci + 1) * no],
                                simd,
                            );
                        }
                        dact.apply(&mut db[..e * no]);
                        // Mirror of the gather skip: a full-plane strip can
                        // project straight into the output sample.
                        if no == ho * wo {
                            conv2d_pointwise_mat_into(pwp, &db[..e * no], o_s, no, pbias, *pact);
                        } else {
                            conv2d_pointwise_mat_into(
                                pwp,
                                &db[..e * no],
                                &mut pb[..c_out * no],
                                no,
                                pbias,
                                *pact,
                            );
                            for co in 0..c_out {
                                o_s[co * ho * wo + o0 * wo..co * ho * wo + o0 * wo + no]
                                    .copy_from_slice(&pb[co * no..(co + 1) * no]);
                            }
                        }
                        o0 = o1;
                    }
                }
            });
        }
        (
            Kernel::QConv {
                qw: eqw,
                x_scale: exs,
                bias: ebias,
                act: eact,
                ..
            },
            Kernel::QDepthwise {
                qw: dqw,
                x_scale: dxs,
                bias: dwb,
                geom,
                act: dact,
            },
            Kernel::QConv {
                qw: pqw,
                x_scale: pxs,
                bias: pbias,
                act: pact,
                ..
            },
        ) => {
            let g = *geom;
            let (ho, wo) = g.output_hw(h, w);
            let (e, c_out) = (eqw.m(), pqw.m());
            debug_assert_eq!(out.len(), n * c_out * ho * wo, "qfused output length");
            let strip = fused_strip_rows(c_in, e, c_out, w, wo, g.sh, ho);
            let rows_in_max = ((strip - 1) * g.sh + g.kh).min(h);
            let (xg_cap, e_cap) = (c_in * rows_in_max * w, e * rows_in_max * w);
            let (d_cap, p_cap) = (e * strip * wo, c_out * strip * wo);
            // u8 scratch: one region shared by the quantized input and the
            // requantized depthwise output (their lifetimes don't overlap),
            // one for the requantized expand output the stencil reads from.
            // Both producers requantize in their epilogues, so no f32
            // intermediate exists between the three stages.
            let qa_cap = xg_cap.max(d_cap);
            let simd = nb_tensor::depthwise::row_strip(e, g.kh * g.kw, ho * wo);
            let scales = dqw.scales();
            let ebias = ebias.as_ref().map(Tensor::as_slice);
            let dbias = dwb.as_ref().map(Tensor::as_slice);
            let pbias = pbias.as_ref().map(Tensor::as_slice);
            with_fuse_scratch(xg_cap + p_cap, qa_cap + e_cap, |fb, qb| {
                let (xg, pb) = fb.split_at_mut(xg_cap);
                let (qa, qe) = qb.split_at_mut(qa_cap);
                for s in 0..n {
                    let x_s = &x[s * c_in * h * w..(s + 1) * c_in * h * w];
                    let o_s = &mut out[s * c_out * ho * wo..(s + 1) * c_out * ho * wo];
                    let mut o0 = 0;
                    while o0 < ho {
                        let o1 = (o0 + strip).min(ho);
                        let r0 = (o0 * g.sh).saturating_sub(g.ph);
                        let r1 = ((o1 - 1) * g.sh + g.kh).saturating_sub(g.ph).min(h).max(r0);
                        let ri = r1 - r0;
                        let (ni, no) = (ri * w, (o1 - o0) * wo);
                        if ni > 0 {
                            // Full-plane strips quantize straight from the
                            // sample; the f32 gather is only a staging copy.
                            let src: &[f32] = if ri == h {
                                &x_s[..c_in * ni]
                            } else {
                                for ci in 0..c_in {
                                    xg[ci * ni..(ci + 1) * ni].copy_from_slice(
                                        &x_s[ci * h * w + r0 * w..ci * h * w + r1 * w],
                                    );
                                }
                                &xg[..c_in * ni]
                            };
                            quantize_activations(src, *exs, &mut qa[..c_in * ni]);
                            // The expand stage requantizes in its epilogue:
                            // its only consumer is the int8 stencil, so the
                            // f32 intermediate never exists.
                            qgemm_conv_mat_requant(
                                eqw,
                                &qa[..c_in * ni],
                                &mut qe[..e * ni],
                                ni,
                                *exs,
                                ebias,
                                *eact,
                                *dxs,
                            );
                        }
                        // The stencil requantizes per channel row: dequant,
                        // activation, and the project stage's input quantize
                        // collapse into its epilogue.
                        for ci in 0..e {
                            let base = dbias.map(|b| b[ci]).unwrap_or(0.0);
                            qdw_channel_rows_requant(
                                &qe[ci * ni..(ci + 1) * ni],
                                r0,
                                h,
                                w,
                                dqw.filter(ci),
                                dqw.kersum(ci),
                                scales[ci] * *dxs,
                                base,
                                *dact,
                                *pxs,
                                g,
                                wo,
                                o0,
                                o1,
                                &mut qa[ci * no..(ci + 1) * no],
                                simd,
                            );
                        }
                        if no == ho * wo {
                            qgemm_conv_mat(pqw, &qa[..e * no], o_s, no, *pxs, pbias, *pact);
                        } else {
                            qgemm_conv_mat(
                                pqw,
                                &qa[..e * no],
                                &mut pb[..c_out * no],
                                no,
                                *pxs,
                                pbias,
                                *pact,
                            );
                            for co in 0..c_out {
                                o_s[co * ho * wo + o0 * wo..co * ho * wo + o0 * wo + no]
                                    .copy_from_slice(&pb[co * no..(co + 1) * no]);
                            }
                        }
                        o0 = o1;
                    }
                }
            });
        }
        _ => unreachable!("fused stages are Conv/Depthwise/Conv or their quantized twins"),
    }
}

/// Identity activation test: slopes are clamped to `[0, 1]`, so
/// `alpha >= 1` means exactly `max(x, x) = x` (and the ReLU6 correction
/// term is multiplied by zero).
fn is_identity_alpha(alpha: f32) -> bool {
    alpha >= 1.0
}

/// Working state of the arena-assignment/liveness pass (pass B of [`build`]).
struct Liveness<'a> {
    /// Uses left per canonical value id (op inputs + 1 for the final output).
    remaining: Vec<usize>,
    val_home: Vec<Option<usize>>,
    home_units: Vec<usize>,
    /// Homes currently unoccupied, available for reuse.
    free: Vec<usize>,
    live_units: usize,
    peak_units: usize,
    val_dims: &'a [Vec<usize>],
}

impl Liveness<'_> {
    fn unit_of(&self, id: usize) -> usize {
        self.val_dims[id][1..].iter().product()
    }

    /// Best-fit home acquisition: smallest free home that fits, else grow
    /// the largest free home, else a new home.
    fn acquire(&mut self, need: usize) -> usize {
        let mut best: Option<usize> = None;
        for (pos, &h) in self.free.iter().enumerate() {
            if self.home_units[h] >= need
                && best.is_none_or(|bp: usize| self.home_units[self.free[bp]] > self.home_units[h])
            {
                best = Some(pos);
            }
        }
        if best.is_none() && !self.free.is_empty() {
            let largest = (0..self.free.len())
                .max_by_key(|&p| self.home_units[self.free[p]])
                .expect("non-empty free list");
            self.home_units[self.free[largest]] = need;
            best = Some(largest);
        }
        match best {
            Some(pos) => self.free.swap_remove(pos),
            None => {
                self.home_units.push(need);
                self.home_units.len() - 1
            }
        }
    }

    /// Records one use of `id`; on its last use the value dies, and (unless
    /// its tensor moves to the output via `Inherit`) its buffer returns to
    /// the arena after the current action.
    fn consume(&mut self, id: usize, free_after: &mut Vec<usize>, return_home: bool) {
        self.remaining[id] -= 1;
        if self.remaining[id] == 0 {
            self.live_units -= self.unit_of(id);
            if return_home {
                free_after.push(id);
                if let Some(h) = self.val_home[id] {
                    self.free.push(h);
                }
            }
        }
    }

    /// Accounts a newly-live output of `unit` per-sample f32s.
    fn store(&mut self, unit: usize) {
        self.live_units += unit;
        self.peak_units = self.peak_units.max(self.live_units);
    }
}

/// Per-op int8 lowering decisions for [`QuantPolicy::Auto`]: `true` means
/// Pass A emits the quantized kernel for the op at that index.
///
/// Int8 pays only when the GEMM saving outruns the activation-quantize pass
/// it forces in front of the kernel, so shallow or tiny layers stay f32.
/// The thresholds come from per-action profiles of the benchmark families
/// on the int8 target machine (DESIGN.md §5j):
///
/// - **Depthwise** always quantizes — the u8/i8 stencil beats the f32 rows
///   even counting its own input quantize.
/// - **Inverted-residual chains** (the pointwise-expand → depthwise →
///   pointwise-project triples Pass F fuses) decide as one unit, so fusion
///   never has to split a chain over precision: quantized iff the expand
///   input depth reaches `MIN_CHAIN_C` (the expand GEMM's reduction depth —
///   at `k = 4` the i8 microkernel runs one maddubs quad and saves nothing)
///   and the depthwise output plane reaches `MIN_SPATIAL` pixels (below
///   that, per-call fixed costs dominate both GEMMs).
/// - **Standalone convs** need `m, k >= MIN_DENSE` and an output plane of
///   `MIN_SPATIAL` — a 3x3 stem from 3 channels (`k = 27`) loses to the
///   f32 implicit GEMM once the quantized im2col pack is charged.
/// - **Linears** need `m, k >= MIN_DENSE` (their `n` is the batch size;
///   the win scales with `m` alone).
fn quant_policy(ops: &[RecOp], val_dims: &[Vec<usize>], rec_uses: &[usize]) -> Vec<bool> {
    const MIN_DENSE: usize = 32;
    const MIN_CHAIN_C: usize = 8;
    const MIN_SPATIAL: usize = 64;
    let pointwise = |g: &ConvGeometry| {
        g.kh == 1 && g.kw == 1 && g.sh == 1 && g.sw == 1 && g.ph == 0 && g.pw == 0
    };
    // Follows op `i`'s output through the directly-following foldable tail
    // (one single-use batch norm, then one single-use activation — exactly
    // what Pass A's peephole consumes) and returns the index past the tail
    // plus the value the next consumer reads.
    let fold_tail = |i: usize, out: usize| -> (usize, usize) {
        let mut j = i + 1;
        let mut tail = out;
        if rec_uses[tail] == 1 {
            if let Some(RecOp::BatchNorm { x, out, .. }) = ops.get(j) {
                if *x == tail {
                    tail = *out;
                    j += 1;
                }
            }
        }
        if rec_uses[tail] == 1 {
            match ops.get(j) {
                Some(RecOp::Relu { x, out, .. }) | Some(RecOp::Relu6 { x, out, .. })
                    if *x == tail =>
                {
                    tail = *out;
                    j += 1;
                }
                _ => {}
            }
        }
        (j, tail)
    };
    let mut policy: Vec<bool> = ops
        .iter()
        .map(|op| match op {
            RecOp::Depthwise { .. } => true,
            RecOp::Conv { w, out, .. } => {
                let d = w.dims();
                let od = &val_dims[*out];
                d[0] >= MIN_DENSE && d[1] * d[2] * d[3] >= MIN_DENSE && od[2] * od[3] >= MIN_SPATIAL
            }
            RecOp::Linear { w, .. } => {
                let (m, k) = w.shape().rc();
                m >= MIN_DENSE && k >= MIN_DENSE
            }
            _ => true,
        })
        .collect();
    // Chain pass: override all three members of each expand → depthwise →
    // project triple with the chain-level decision.
    let mut i = 0;
    while i < ops.len() {
        let chain = (|| {
            let RecOp::Conv {
                w: ew,
                out: e_out,
                geom: eg,
                ..
            } = &ops[i]
            else {
                return None;
            };
            if !pointwise(eg) {
                return None;
            }
            let (j, tail) = fold_tail(i, *e_out);
            let Some(RecOp::Depthwise {
                x: dx, out: d_out, ..
            }) = ops.get(j)
            else {
                return None;
            };
            if *dx != tail || rec_uses[tail] != 1 {
                return None;
            }
            let (j2, tail2) = fold_tail(j, *d_out);
            let Some(RecOp::Conv {
                x: px, geom: pg, ..
            }) = ops.get(j2)
            else {
                return None;
            };
            if *px != tail2 || rec_uses[tail2] != 1 || !pointwise(pg) {
                return None;
            }
            let od = &val_dims[*d_out];
            Some((
                j,
                j2,
                ew.dims()[1] >= MIN_CHAIN_C && od[2] * od[3] >= MIN_SPATIAL,
            ))
        })();
        if let Some((j, j2, q)) = chain {
            policy[i] = q;
            policy[j] = q;
            policy[j2] = q;
            i = j2 + 1;
        } else {
            i += 1;
        }
    }
    policy
}

/// The rewrite + arena-assignment pass: recorded ops in, compiled plan out.
///
/// `quant`, when present, holds per-action input scales (indexed by the
/// action order this pass emits, which is identical with or without it) and
/// switches eligible dense conv/linear/depthwise ops to their int8 kernels
/// — every eligible op under [`QuantPolicy::All`], the shape-filtered
/// subset computed by [`quant_policy`] under [`QuantPolicy::Auto`].
fn build(
    rec: &Recorder,
    final_val: usize,
    in_dims: Vec<usize>,
    opts: PlanOptions,
    quant: Option<&[f32]>,
) -> CompiledPlan {
    let Recorder { vals, ops } = rec;
    let nvals = vals.len();
    let val_dims: Vec<Vec<usize>> = vals.iter().map(|t| t.dims().to_vec()).collect();

    // Rec-level use counts (for fold/fuse legality): one per op input, plus
    // the final output.
    let mut rec_uses = vec![0usize; nvals];
    for op in ops {
        let (x, b) = op.inputs();
        rec_uses[x] += 1;
        if let Some(b) = b {
            rec_uses[b] += 1;
        }
    }
    rec_uses[final_val] += 1;

    // Which ops lower to int8 this build (all-true unless a quantized build
    // asked for the shape-driven mixed-precision policy).
    let qpol: Vec<bool> = match (quant, opts.quant_policy) {
        (Some(_), QuantPolicy::Auto) => quant_policy(ops, &val_dims, &rec_uses),
        _ => vec![true; ops.len()],
    };

    // --- Pass A: peephole rewrite into actions over canonical value ids ---
    let mut canon: Vec<usize> = (0..nvals).collect();
    let mut actions: Vec<Action> = Vec::new();
    let mut packed_bytes = 0usize;
    let mut i = 0;
    while i < ops.len() {
        match &ops[i] {
            RecOp::Conv { x, out, w, b, geom } | RecOp::Depthwise { x, out, w, b, geom } => {
                let depthwise = matches!(ops[i], RecOp::Depthwise { .. });
                let (mut w, mut b) = (w.clone(), b.clone());
                let mut tail = *out;
                let mut consumed = 0usize;
                // Fold a directly-following single-use batch norm.
                if opts.fold_bn && rec_uses[tail] == 1 {
                    if let Some(RecOp::BatchNorm {
                        x: bx,
                        out: bout,
                        snap,
                    }) = ops.get(i + 1)
                    {
                        if *bx == tail {
                            let (wf, bf) = if depthwise {
                                fold_bn_depthwise(&w, b.as_ref(), snap)
                            } else {
                                fold_bn(&w, b.as_ref(), snap)
                            };
                            w = wf;
                            b = Some(bf);
                            canon[*bout] = tail;
                            tail = *bout;
                            consumed += 1;
                        }
                    }
                }
                // Fuse (or elide) a directly-following single-use activation.
                let mut act = Epilogue::None;
                if rec_uses[tail] == 1 {
                    match ops.get(i + 1 + consumed) {
                        Some(RecOp::Relu {
                            x: rx,
                            out: rout,
                            alpha,
                        }) if *rx == tail => {
                            if !is_identity_alpha(*alpha) {
                                act = Epilogue::Relu { alpha: *alpha };
                            }
                            canon[*rout] = canon[tail];
                            consumed += 1;
                        }
                        Some(RecOp::Relu6 {
                            x: rx,
                            out: rout,
                            alpha,
                        }) if *rx == tail => {
                            if !is_identity_alpha(*alpha) {
                                act = Epilogue::Relu6 { alpha: *alpha };
                            }
                            canon[*rout] = canon[tail];
                            consumed += 1;
                        }
                        _ => {}
                    }
                }
                let ai = actions.len();
                let kernel = if depthwise {
                    if let Some(scales) = quant.filter(|_| qpol[i]) {
                        let d = w.dims().to_vec();
                        let qw = QDepthwiseW::pack(w.as_slice(), d[0], d[1], d[2]);
                        packed_bytes += qw.bytes();
                        Kernel::QDepthwise {
                            qw,
                            x_scale: scales[ai],
                            bias: b,
                            geom: *geom,
                            act,
                        }
                    } else {
                        Kernel::Depthwise {
                            w,
                            b,
                            geom: *geom,
                            act,
                        }
                    }
                } else if let Some(scales) = quant.filter(|_| qpol[i]) {
                    let d = w.dims().to_vec();
                    let qw = QPackedW::pack(w.as_slice(), d[0], d[1] * d[2] * d[3]);
                    packed_bytes += qw.bytes();
                    Kernel::QConv {
                        qw,
                        x_scale: scales[ai],
                        bias: b,
                        geom: *geom,
                        act,
                    }
                } else {
                    let d = w.dims().to_vec();
                    let wp = PackedA::pack(w.as_slice(), false, d[0], d[1] * d[2] * d[3]);
                    packed_bytes += wp.bytes();
                    Kernel::Conv {
                        wp,
                        bias: b,
                        geom: *geom,
                        act,
                    }
                };
                actions.push(Action {
                    x: canon[*x],
                    out: canon[*out],
                    out_dims: val_dims[*out].clone(),
                    kernel,
                    mode: ExecMode::Fresh, // assigned in pass B
                    free_after: Vec::new(),
                    early_free: Vec::new(),
                });
                i += 1 + consumed;
            }
            RecOp::Linear { x, out, w, b } => {
                let tail = *out;
                let mut consumed = 0usize;
                let mut act = Epilogue::None;
                if rec_uses[tail] == 1 {
                    match ops.get(i + 1) {
                        Some(RecOp::Relu {
                            x: rx,
                            out: rout,
                            alpha,
                        }) if *rx == tail => {
                            if !is_identity_alpha(*alpha) {
                                act = Epilogue::Relu { alpha: *alpha };
                            }
                            canon[*rout] = tail;
                            consumed += 1;
                        }
                        Some(RecOp::Relu6 {
                            x: rx,
                            out: rout,
                            alpha,
                        }) if *rx == tail => {
                            if !is_identity_alpha(*alpha) {
                                act = Epilogue::Relu6 { alpha: *alpha };
                            }
                            canon[*rout] = tail;
                            consumed += 1;
                        }
                        _ => {}
                    }
                }
                let (out_f, in_f) = w.shape().rc();
                let ai = actions.len();
                let kernel = if let Some(scales) = quant.filter(|_| qpol[i]) {
                    let qw = QPackedW::pack(w.as_slice(), out_f, in_f);
                    packed_bytes += qw.bytes();
                    Kernel::QLinear {
                        qw,
                        x_scale: scales[ai],
                        bias: b.clone(),
                        act,
                    }
                } else {
                    // y = x W^T: the weight is the logical [in_f, out_f]
                    // right operand stored transposed, matching `matmul_nt`.
                    let wp = PackedB::pack(w.as_slice(), true, in_f, out_f);
                    packed_bytes += wp.bytes();
                    Kernel::Linear {
                        wp,
                        bias: b.clone(),
                        act,
                    }
                };
                actions.push(Action {
                    x: canon[*x],
                    out: canon[*out],
                    out_dims: val_dims[*out].clone(),
                    kernel,
                    mode: ExecMode::Fresh,
                    free_after: Vec::new(),
                    early_free: Vec::new(),
                });
                i += 1 + consumed;
            }
            RecOp::BatchNorm { x, out, snap } => {
                let invstd = eltwise::bn_invstd(&snap.running_var(), snap.eps());
                actions.push(Action {
                    x: canon[*x],
                    out: canon[*out],
                    out_dims: val_dims[*out].clone(),
                    kernel: Kernel::BatchNorm {
                        gamma: snap.gamma().value(),
                        beta: snap.beta().value(),
                        mean: snap.running_mean(),
                        invstd,
                    },
                    mode: ExecMode::Fresh,
                    free_after: Vec::new(),
                    early_free: Vec::new(),
                });
                i += 1;
            }
            RecOp::Relu { x, out, alpha } | RecOp::Relu6 { x, out, alpha } => {
                if is_identity_alpha(*alpha) {
                    // Standalone identity activation (PLT endpoint): pure alias.
                    canon[*out] = canon[*x];
                } else {
                    let kernel = if matches!(ops[i], RecOp::Relu { .. }) {
                        Kernel::Relu { alpha: *alpha }
                    } else {
                        Kernel::Relu6 { alpha: *alpha }
                    };
                    actions.push(Action {
                        x: canon[*x],
                        out: canon[*out],
                        out_dims: val_dims[*out].clone(),
                        kernel,
                        mode: ExecMode::Fresh,
                        free_after: Vec::new(),
                        early_free: Vec::new(),
                    });
                }
                i += 1;
            }
            RecOp::MaxPool { x, out, geom } | RecOp::AvgPool { x, out, geom } => {
                let kernel = if matches!(ops[i], RecOp::MaxPool { .. }) {
                    Kernel::MaxPool { geom: *geom }
                } else {
                    Kernel::AvgPool { geom: *geom }
                };
                actions.push(Action {
                    x: canon[*x],
                    out: canon[*out],
                    out_dims: val_dims[*out].clone(),
                    kernel,
                    mode: ExecMode::Fresh,
                    free_after: Vec::new(),
                    early_free: Vec::new(),
                });
                i += 1;
            }
            RecOp::Gap { x, out } => {
                actions.push(Action {
                    x: canon[*x],
                    out: canon[*out],
                    out_dims: val_dims[*out].clone(),
                    kernel: Kernel::Gap,
                    mode: ExecMode::Fresh,
                    free_after: Vec::new(),
                    early_free: Vec::new(),
                });
                i += 1;
            }
            RecOp::Add { a, b, out } => {
                actions.push(Action {
                    x: canon[*a],
                    out: canon[*out],
                    out_dims: val_dims[*out].clone(),
                    kernel: Kernel::Add { rhs: canon[*b] },
                    mode: ExecMode::Fresh,
                    free_after: Vec::new(),
                    early_free: Vec::new(),
                });
                i += 1;
            }
        }
    }
    let final_out = canon[final_val];

    // --- Pass F: fuse pointwise-expand → depthwise → pointwise-project ---
    // Consecutive action triples forming an inverted-residual body collapse
    // into one strip-tiled [`Kernel::Fused`] action when both intermediate
    // values are single-use and neither is the plan output. Runs after
    // Pass A so quantization scales (indexed by pre-fusion action order)
    // are already bound into the sub-kernels, and before Pass B so the
    // `[E, H, W]` intermediates never receive arena homes — fusion shrinks
    // `arena_bytes`, never grows it.
    if opts.fuse {
        let mut uses = vec![0usize; nvals];
        for a in &actions {
            uses[a.x] += 1;
            if let Kernel::Add { rhs } = a.kernel {
                uses[rhs] += 1;
            }
        }
        uses[final_out] += 1;
        let pointwise = |g: &ConvGeometry| {
            g.kh == 1 && g.kw == 1 && g.sh == 1 && g.sw == 1 && g.ph == 0 && g.pw == 0
        };
        let fusable = |acts: &[Action], i: usize| -> bool {
            if i + 2 >= acts.len() {
                return false;
            }
            let (a0, a1, a2) = (&acts[i], &acts[i + 1], &acts[i + 2]);
            let e_pw = match &a0.kernel {
                Kernel::Conv { geom, .. } | Kernel::QConv { geom, .. } => pointwise(geom),
                _ => false,
            };
            let d_dw = matches!(
                a1.kernel,
                Kernel::Depthwise { .. } | Kernel::QDepthwise { .. }
            );
            let p_pw = match &a2.kernel {
                Kernel::Conv { geom, .. } | Kernel::QConv { geom, .. } => pointwise(geom),
                _ => false,
            };
            e_pw
                && d_dw
                && p_pw
                // Precision-homogeneous only: the fused runner executes all
                // three stages in one numeric domain. The Auto quant policy
                // already decides chains as a unit, so this only rejects
                // triples the policy never meant to be chains.
                && a0.kernel.is_quant() == a1.kernel.is_quant()
                && a1.kernel.is_quant() == a2.kernel.is_quant()
                && a1.x == a0.out
                && a2.x == a1.out
                && uses[a0.out] == 1
                && uses[a1.out] == 1
                && a0.out != final_out
                && a1.out != final_out
        };
        // Greedy non-overlapping left-to-right match.
        let mut fuse_at = vec![false; actions.len()];
        let mut i = 0;
        while i < actions.len() {
            if fusable(&actions, i) {
                fuse_at[i] = true;
                i += 3;
            } else {
                i += 1;
            }
        }
        if fuse_at.iter().any(|&f| f) {
            let mut old: Vec<Option<Action>> =
                std::mem::take(&mut actions).into_iter().map(Some).collect();
            let mut i = 0;
            while i < old.len() {
                if fuse_at[i] {
                    let a0 = old[i].take().expect("pass F take");
                    let a1 = old[i + 1].take().expect("pass F take");
                    let a2 = old[i + 2].take().expect("pass F take");
                    actions.push(Action {
                        x: a0.x,
                        out: a2.out,
                        out_dims: a2.out_dims,
                        kernel: Kernel::Fused {
                            expand: Box::new(a0.kernel),
                            dw: Box::new(a1.kernel),
                            project: Box::new(a2.kernel),
                        },
                        mode: ExecMode::Fresh, // assigned in pass B
                        free_after: Vec::new(),
                        early_free: Vec::new(),
                    });
                    i += 3;
                } else {
                    actions.push(old[i].take().expect("pass F take"));
                    i += 1;
                }
            }
        }
    }

    // --- Pass B: arena assignment + liveness over the emitted actions ---
    let mut remaining = vec![0usize; nvals];
    for a in &actions {
        remaining[a.x] += 1;
        if let Kernel::Add { rhs } = a.kernel {
            remaining[rhs] += 1;
        }
    }
    remaining[final_out] += 1;

    let mut st = Liveness {
        remaining,
        val_home: vec![None; nvals],
        home_units: Vec::new(),
        free: Vec::new(),
        live_units: val_dims[0][1..].iter().product(), // the bound input
        peak_units: 0,
        val_dims: &val_dims,
    };
    st.peak_units = st.live_units;

    let mut qscratch_units = 0usize;
    for a in actions.iter_mut() {
        let out = a.out;
        let x = a.x;
        let out_unit: usize = a.out_dims[1..].iter().product();
        let in_place = matches!(
            a.kernel,
            Kernel::BatchNorm { .. }
                | Kernel::Relu { .. }
                | Kernel::Relu6 { .. }
                | Kernel::Add { .. }
        );
        let fresh = matches!(
            a.kernel,
            Kernel::MaxPool { .. } | Kernel::AvgPool { .. } | Kernel::Gap
        );
        // Fused blocks quantize strip-wise into their own thread-local
        // scratch (not the arena's), so they take the plain out-of-place
        // path below even when quantized.
        let quantized = matches!(
            a.kernel,
            Kernel::QConv { .. } | Kernel::QLinear { .. } | Kernel::QDepthwise { .. }
        );

        let mut free_after: Vec<usize> = Vec::new();
        if quantized {
            // Quantize-then-free: the f32 input dies into the u8 scratch
            // copy before the output home is acquired, so a dying input's
            // home is immediately reusable for the output. The transient
            // scratch is accounted in f32-equivalent units so `peak_units`
            // stays an honest high-water mark.
            let in_unit = st.unit_of(x);
            qscratch_units = qscratch_units.max(in_unit);
            let q_units = in_unit.div_ceil(4);
            st.live_units += q_units;
            st.peak_units = st.peak_units.max(st.live_units);
            let mut early_free: Vec<usize> = Vec::new();
            st.consume(x, &mut early_free, true);
            let h = st.acquire(out_unit);
            a.mode = ExecMode::OutOfPlace { home: h };
            st.val_home[out] = Some(h);
            st.store(out_unit);
            st.live_units -= q_units;
            a.early_free = early_free;
        } else if in_place {
            // Consume-then-store accounting: the input leaves before the
            // output lands, so same-size in-place ops never bump the peak.
            let inherits = st.remaining[x] == 1 && x != 0;
            st.consume(x, &mut free_after, !inherits);
            if inherits {
                a.mode = ExecMode::Inherit;
                st.val_home[out] = st.val_home[x];
            } else {
                let h = st.acquire(out_unit);
                a.mode = ExecMode::CopyToHome { home: h };
                st.val_home[out] = Some(h);
            }
            st.store(out_unit);
            if let Kernel::Add { rhs } = a.kernel {
                st.consume(rhs, &mut free_after, true);
            }
        } else if fresh {
            a.mode = ExecMode::Fresh;
            st.val_home[out] = None;
            st.store(out_unit);
            st.consume(x, &mut free_after, true);
        } else {
            let h = st.acquire(out_unit);
            a.mode = ExecMode::OutOfPlace { home: h };
            st.val_home[out] = Some(h);
            st.store(out_unit);
            st.consume(x, &mut free_after, true);
        }
        a.free_after = free_after;
    }
    let Liveness {
        val_home,
        home_units,
        peak_units,
        ..
    } = st;

    CompiledPlan {
        actions,
        in_dims,
        final_out,
        nvals,
        val_home,
        home_units,
        peak_units,
        packed_bytes,
        qscratch_units,
    }
}

/// Compile-time proof that plans may be shared across threads: every field
/// is plain data or `Arc`-backed tensors, so `Send + Sync` must hold (the
/// serving layer relies on `Arc<CompiledPlan>` replayed concurrently).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledPlan>();
    assert_send_sync::<PlanArena>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ActKind, Activation, BatchNorm2d, Conv2d, DepthwiseConv2d, Linear};
    use crate::{Module, Sequential, Session};
    use nb_autograd::nodes_allocated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// conv -> bn -> relu -> depthwise -> bn -> relu6 -> gap -> linear,
    /// with randomized bn statistics so folding is non-trivial.
    fn conv_model(rng: &mut StdRng) -> Sequential {
        let bn1 = BatchNorm2d::new(8);
        bn1.set_running_stats(
            Tensor::randn([8], rng),
            Tensor::randn([8], rng).map(|v| v.abs() + 0.5),
        );
        bn1.gamma().set_value(Tensor::randn([8], rng));
        bn1.beta().set_value(Tensor::randn([8], rng));
        let bn2 = BatchNorm2d::new(8);
        bn2.set_running_stats(
            Tensor::randn([8], rng),
            Tensor::randn([8], rng).map(|v| v.abs() + 0.5),
        );
        Sequential::new()
            .push(Conv2d::new(3, 8, ConvGeometry::same(3, 1), true, rng))
            .push(bn1)
            .push(Activation::new(ActKind::Relu))
            .push(DepthwiseConv2d::new(
                8,
                ConvGeometry::same(3, 1),
                false,
                rng,
            ))
            .push(bn2)
            .push(Activation::new(ActKind::Relu6))
            .push(crate::layers::GlobalAvgPool::new())
            .push(Linear::new(8, 4, true, rng))
    }

    /// Taped eval forward: the reference output and the bytes the tape
    /// retains.
    fn eval_forward(model: &Sequential, x: &Tensor) -> (Tensor, usize) {
        let mut s = Session::new(false);
        let xv = s.input(x.clone());
        let yv = model.forward(&mut s, xv);
        (s.value(yv).clone(), s.graph.retained_bytes())
    }

    #[test]
    fn unfolded_plan_is_bitwise_with_zero_nodes() {
        let mut rng = StdRng::seed_from_u64(10);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let (want, _) = eval_forward(&model, &x);

        let before = nodes_allocated();
        let plan = CompiledPlan::compile_with(
            x.dims(),
            PlanOptions {
                fold_bn: false,
                fuse: false,
                ..PlanOptions::default()
            },
            |f, v| model.forward(f, v),
        );
        let got = plan.run(&x);
        assert_eq!(nodes_allocated(), before, "plan allocated tape nodes");
        assert_eq!(got.dims(), want.dims());
        assert_eq!(got.as_slice(), want.as_slice(), "bitwise parity");
    }

    #[test]
    fn folded_plan_is_close_and_smaller() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let (want, _) = eval_forward(&model, &x);

        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let unfolded = CompiledPlan::compile_with(
            x.dims(),
            PlanOptions {
                fold_bn: false,
                fuse: false,
                ..PlanOptions::default()
            },
            |f, v| model.forward(f, v),
        );
        assert!(
            plan.action_count() < unfolded.action_count(),
            "folding should remove bn/activation actions ({} vs {})",
            plan.action_count(),
            unfolded.action_count()
        );
        let got = plan.run(&x);
        assert!(got.allclose(&want, 1e-4), "folded plan diverged");
        let _ = unfolded.run(&x);
    }

    #[test]
    fn repeated_runs_reuse_arena_and_match_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let mut arena = plan.new_arena();
        let first = plan.run_in(&mut arena, &x);
        let second = plan.run_in(&mut arena, &x);
        assert_eq!(
            first.as_slice(),
            second.as_slice(),
            "runs must be identical"
        );
        // A one-shot run (fresh arena) agrees with the recycled arena.
        assert_eq!(plan.run(&x).as_slice(), first.as_slice());
        // A different batch reuses the same plan and arena.
        let x8 = Tensor::randn([8, 3, 8, 8], &mut rng);
        let big = plan.run_in(&mut arena, &x8);
        assert_eq!(big.dims(), &[8, 4]);
        let (want, _) = eval_forward(&model, &x8);
        assert!(big.allclose(&want, 1e-4));
    }

    #[test]
    fn peak_bytes_below_tape() {
        let mut rng = StdRng::seed_from_u64(13);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let (_, tape_bytes) = eval_forward(&model, &x);
        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let _ = plan.run(&x);
        assert!(
            plan.peak_bytes() < tape_bytes,
            "plan peak {} vs tape {}",
            plan.peak_bytes(),
            tape_bytes
        );
        assert!(plan.arena_bytes() > 0);
        assert!(plan.packed_bytes() > 0);
    }

    #[test]
    fn identity_activations_are_elided() {
        let mut rng = StdRng::seed_from_u64(14);
        let conv = Conv2d::new(3, 4, ConvGeometry::same(3, 1), true, &mut rng);
        let act = Activation::new(ActKind::Relu);
        act.slope().set(1.0); // PLT-linearized
        let model = Sequential::new().push(conv).push(act);
        let x = Tensor::randn([1, 3, 6, 6], &mut rng);
        let (want, _) = eval_forward(&model, &x);
        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        assert_eq!(plan.action_count(), 1, "identity activation not elided");
        let got = plan.run(&x);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn mlp_with_residual_matches_taped_eval() {
        let mut rng = StdRng::seed_from_u64(15);
        let l1 = Linear::new(6, 6, true, &mut rng);
        let l2 = Linear::new(6, 4, false, &mut rng);
        let x = Tensor::randn([3, 6], &mut rng);
        let fwd = |f: &mut dyn Forward, v: Value| {
            let h = l1.forward(f, v);
            let h = f.relu_decay(h, 0.25);
            let h = f.add(h, v);
            l2.forward(f, h)
        };
        let mut s = Session::new(false);
        let xv = s.input(x.clone());
        let yv = fwd(&mut s, xv);
        let want = s.value(yv).clone();

        let plan = CompiledPlan::compile(x.dims(), fwd);
        let got = plan.run(&x);
        assert_eq!(got.as_slice(), want.as_slice(), "residual path bitwise");
    }

    #[test]
    fn arc_shared_plan_replays_concurrently_bitwise() {
        let mut rng = StdRng::seed_from_u64(19);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let plan = std::sync::Arc::new(CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v)));
        let want = plan.run(&x);
        let outputs: Vec<Tensor> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let plan = std::sync::Arc::clone(&plan);
                    let x = x.clone();
                    s.spawn(move || {
                        let mut arena = plan.new_arena();
                        let a = plan.run_in(&mut arena, &x);
                        let b = plan.run_in(&mut arena, &x);
                        assert_eq!(a.as_slice(), b.as_slice());
                        a
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .collect()
        });
        for got in outputs {
            assert_eq!(got.as_slice(), want.as_slice(), "concurrent replay bitwise");
        }
    }

    #[test]
    #[should_panic(expected = "structurally different plan")]
    fn foreign_arena_panics() {
        let mut rng = StdRng::seed_from_u64(20);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([1, 3, 8, 8], &mut rng);
        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let other = CompiledPlan::compile(&[1, 6], |f, v| {
            let l = Linear::new(6, 2, true, &mut StdRng::seed_from_u64(0));
            l.forward(f, v)
        });
        let mut arena = other.new_arena();
        let _ = plan.run_in(&mut arena, &x);
    }

    #[test]
    #[should_panic(expected = "per-sample shape")]
    fn wrong_input_shape_panics() {
        let mut rng = StdRng::seed_from_u64(17);
        let model = conv_model(&mut rng);
        let plan = CompiledPlan::compile(&[1, 3, 8, 8], |f, v| model.forward(f, v));
        let _ = plan.run(&Tensor::zeros([1, 3, 9, 9]));
    }

    /// Calibration batches for the quantized-plan tests: a few deterministic
    /// randn batches matching the probe shape.
    fn calib_batches(dims: &[usize], n: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::randn(dims.to_vec(), &mut rng))
            .collect()
    }

    /// `compile_quantized` with the Auto shape policy overridden to All —
    /// the kernel-path tests here use deliberately tiny models that Auto
    /// would (correctly) keep in f32.
    fn compile_quantized_all(
        dims: &[usize],
        calib: &[Tensor],
        fwd: impl FnOnce(&mut dyn Forward, Value) -> Value,
    ) -> CompiledPlan {
        CompiledPlan::compile_quantized_with(
            dims,
            PlanOptions {
                quant_policy: QuantPolicy::All,
                ..PlanOptions::default()
            },
            calib,
            fwd,
        )
    }

    #[test]
    fn quantized_plan_tracks_f32_plan() {
        let mut rng = StdRng::seed_from_u64(30);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let fplan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let qplan = compile_quantized_all(
            x.dims(),
            &calib_batches(x.dims(), quant_calib_batches(), 31),
            |f, v| model.forward(f, v),
        );
        assert!(qplan.is_quantized());
        assert!(!fplan.is_quantized());
        let want = fplan.run(&x);
        let got = qplan.run(&x);
        assert_eq!(got.dims(), want.dims());
        // Int8 PTQ is approximate: bound the error relative to the f32
        // output's dynamic range (the top-1 budget lives in nb-verify).
        let range = max_abs(want.as_slice()).max(1e-6);
        let worst = want
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            worst <= 0.1 * range,
            "quantized output off by {worst} on range {range}"
        );
    }

    #[test]
    fn quantized_plan_is_smaller_and_replay_deterministic() {
        let mut rng = StdRng::seed_from_u64(32);
        let model = conv_model(&mut rng);
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let calib = calib_batches(x.dims(), 2, 33);
        let fplan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let qplan = compile_quantized_all(x.dims(), &calib, |f, v| model.forward(f, v));
        assert!(
            qplan.packed_bytes() < fplan.packed_bytes(),
            "i8 panels should undercut f32 panels ({} vs {})",
            qplan.packed_bytes(),
            fplan.packed_bytes()
        );
        assert!(
            qplan.peak_bytes() <= fplan.peak_bytes(),
            "quantize-then-free should not raise the peak ({} vs {})",
            qplan.peak_bytes(),
            fplan.peak_bytes()
        );
        // Warm-arena replay is bitwise repeatable, and a one-shot arena
        // agrees (integer accumulation is exact under any schedule).
        let mut arena = qplan.new_arena();
        let first = qplan.run_in(&mut arena, &x);
        let second = qplan.run_in(&mut arena, &x);
        assert_eq!(first.as_slice(), second.as_slice());
        assert_eq!(qplan.run(&x).as_slice(), first.as_slice());
        assert!(arena.resident_bytes() > 0);
    }

    #[test]
    fn quantized_pointwise_and_linear_paths_run() {
        // 1x1 stride-1 conv exercises the materialized-matrix fast path;
        // the trailing linear exercises QLinear with bias.
        let mut rng = StdRng::seed_from_u64(34);
        let model = Sequential::new()
            .push(Conv2d::new(
                3,
                16,
                ConvGeometry::pointwise(),
                true,
                &mut rng,
            ))
            .push(Activation::new(ActKind::Relu))
            .push(crate::layers::GlobalAvgPool::new())
            .push(Linear::new(16, 5, true, &mut rng));
        let x = Tensor::randn([3, 3, 6, 6], &mut rng);
        let calib = calib_batches(x.dims(), 2, 35);
        let fplan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let qplan = compile_quantized_all(x.dims(), &calib, |f, v| model.forward(f, v));
        let want = fplan.run(&x);
        let got = qplan.run(&x);
        let range = max_abs(want.as_slice()).max(1e-6);
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            assert!((a - b).abs() <= 0.1 * range, "pointwise quant diverged");
        }
    }

    #[test]
    fn auto_policy_keeps_tiny_model_f32_bitwise() {
        // A shallow stem conv (k = 27 < 32) into a tiny linear (m = 5):
        // both sit under the Auto thresholds, so the "quantized" plan
        // compiles to pure f32 kernels and owes bitwise parity to the
        // plain plan. (Depthwise layers are excluded on purpose — Auto
        // always lowers those.)
        let mut rng = StdRng::seed_from_u64(40);
        let model = Sequential::new()
            .push(Conv2d::new(3, 16, ConvGeometry::same(3, 1), true, &mut rng))
            .push(Activation::new(ActKind::Relu))
            .push(crate::layers::GlobalAvgPool::new())
            .push(Linear::new(16, 5, true, &mut rng));
        let x = Tensor::randn([2, 3, 8, 8], &mut rng);
        let fplan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let qplan =
            CompiledPlan::compile_quantized(x.dims(), &calib_batches(x.dims(), 2, 41), |f, v| {
                model.forward(f, v)
            });
        assert!(!qplan.is_quantized(), "Auto should reject every tiny layer");
        assert_eq!(qplan.run(&x).as_slice(), fplan.run(&x).as_slice());
    }

    #[test]
    fn auto_policy_quantizes_wide_chain_as_unit() {
        // An inverted-residual chain over the Auto thresholds (c_in=8,
        // 16x16 plane) quantizes whole — and still fuses, proving the
        // chain decision and Pass F's homogeneity check line up.
        let mut rng = StdRng::seed_from_u64(42);
        let model = Sequential::new()
            .push(Conv2d::new(
                8,
                48,
                ConvGeometry::pointwise(),
                true,
                &mut rng,
            ))
            .push(Activation::new(ActKind::Relu6))
            .push(DepthwiseConv2d::new(
                48,
                ConvGeometry::same(3, 1),
                true,
                &mut rng,
            ))
            .push(Activation::new(ActKind::Relu6))
            .push(Conv2d::new(
                48,
                8,
                ConvGeometry::pointwise(),
                true,
                &mut rng,
            ));
        let x = Tensor::randn([1, 8, 16, 16], &mut rng);
        let qplan =
            CompiledPlan::compile_quantized(x.dims(), &calib_batches(x.dims(), 2, 43), |f, v| {
                model.forward(f, v)
            });
        assert!(qplan.is_quantized(), "chain over thresholds should lower");
        let fused = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        assert_eq!(
            qplan.action_count(),
            fused.action_count(),
            "quantized chain should still fuse to one action"
        );
    }

    #[test]
    #[should_panic(expected = "at least one calibration batch")]
    fn compile_quantized_rejects_empty_calibration() {
        let mut rng = StdRng::seed_from_u64(36);
        let model = conv_model(&mut rng);
        let _ = CompiledPlan::compile_quantized(&[1, 3, 8, 8], &[], |f, v| model.forward(f, v));
    }

    #[test]
    fn quant_calib_batches_default() {
        // The knob is read per call; without the env var it is 4.
        if std::env::var("NB_QUANT_CALIB").is_err() {
            assert_eq!(quant_calib_batches(), 4);
        }
    }

    /// Satellite coverage for random fold configurations without proptest:
    /// sweep channel counts, eps values, and affine/non-affine configs.
    #[test]
    fn bn_fold_sweep_matches_unfused_path() {
        let mut rng = StdRng::seed_from_u64(18);
        for &(c, eps, affine) in &[
            (1usize, 1e-5f32, true),
            (3, 1e-3, false),
            (8, 1e-1, true),
            (13, 1e-7, false),
            (32, 1e-5, true),
        ] {
            let conv = Conv2d::new(3, c, ConvGeometry::same(3, 1), affine, &mut rng);
            let bn = BatchNorm2d::new(c).with_eps(eps);
            bn.set_running_stats(
                Tensor::randn([c], &mut rng),
                Tensor::randn([c], &mut rng).map(|v| v.abs() + 0.1),
            );
            if affine {
                bn.gamma().set_value(Tensor::randn([c], &mut rng));
                bn.beta().set_value(Tensor::randn([c], &mut rng));
            }
            let model = Sequential::new().push(conv).push(bn);
            let x = Tensor::randn([2, 3, 6, 6], &mut rng);
            let (want, _) = eval_forward(&model, &x);
            let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
            let got = plan.run(&x);
            assert!(
                got.allclose(&want, 1e-3),
                "fold sweep c={c} eps={eps} affine={affine}"
            );
        }
    }
}
