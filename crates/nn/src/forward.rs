//! The [`Forward`] execution abstraction.
//!
//! Layer code (`Module::forward` and the model-level forwards built on it)
//! is written once against this trait and served by two implementations:
//!
//! - the taped [`Session`] — records every op on an autograd [`Graph`]
//!   node so [`Session::backward`] can run, retains all intermediates, and
//!   honours training semantics (batch statistics, running-stat updates);
//! - the shape-only recorder inside [`CompiledPlan`](crate::CompiledPlan)
//!   compilation — captures the op sequence and parameter snapshots once,
//!   which the plan then rewrites and replays without a tape.
//!
//! Both paths share the pointwise kernels in [`nb_tensor::eltwise`] and the
//! convolution/GEMM kernels, so for a fixed thread-pool width an unfolded,
//! unfused plan produces bitwise the activations of taped eval (see the
//! parity suite in `nb-verify`).
//!
//! [`Graph`]: nb_autograd::Graph

use crate::layers::{BatchNorm2d, BnUpdate};
use crate::{Parameter, Session};
use nb_autograd::Value;
use nb_tensor::{ConvGeometry, Tensor};

/// One execution path's view of a forward pass.
///
/// [`Value`] handles are executor-local: a handle produced by one executor
/// is meaningless to another. A value may feed any number of later ops (a
/// residual branch reuses its input).
///
/// Parameters are passed as [`Parameter`] handles, not tensors: the taped
/// executor binds them (gradient-bearing, idempotent per session) while the
/// plan recorder snapshots their values.
pub trait Forward {
    /// Whether layers should run in training mode (batch statistics, etc.).
    fn training(&self) -> bool;

    /// Inserts an input tensor, returning its handle.
    fn input(&mut self, t: Tensor) -> Value;

    /// The tensor behind a handle.
    fn value(&self, v: Value) -> &Tensor;

    /// Takes the tensor behind a handle out of the executor (cheaply, via
    /// COW-sharing on the taped path).
    fn take(&mut self, v: Value) -> Tensor;

    /// Declares one extra future use of `v`. A no-op by default: both
    /// executors keep every value readable for the whole forward pass, and
    /// no layer calls it. It stays so that wrappers that override it keep
    /// compiling.
    fn retain(&mut self, _v: Value) {}

    /// Dense 2-D convolution with a layer's weight/bias parameters.
    fn conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        geom: ConvGeometry,
    ) -> Value;

    /// Dense convolution over the leading `[out_c, in_c]` channel slice of
    /// `w` (NetAug weight sharing), bias-free.
    fn conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        out_c: usize,
        in_c: usize,
        geom: ConvGeometry,
    ) -> Value;

    /// Depthwise 2-D convolution with a layer's weight/bias parameters.
    fn depthwise_conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        geom: ConvGeometry,
    ) -> Value;

    /// Depthwise convolution over the leading `channels` slice of `w`,
    /// bias-free.
    fn depthwise_conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        channels: usize,
        geom: ConvGeometry,
    ) -> Value;

    /// Fully-connected product `y = x W^T (+ b)`.
    fn linear(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>) -> Value;

    /// Fully-connected product using only the leading `in_features` columns
    /// of every weight row (NetAug's sliced classifier).
    fn linear_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        in_features: usize,
    ) -> Value;

    /// Batch normalization with the layer's full parameter set. Training
    /// semantics (batch statistics + running-stat EMA updates) are the
    /// executor's responsibility; eval mode always normalizes with running
    /// statistics and never writes them.
    fn batch_norm(&mut self, x: Value, bn: &BatchNorm2d) -> Value;

    /// Batch normalization over the first `channels` channels of a sliced
    /// activation, touching only the leading entries of the running
    /// statistics when training.
    fn batch_norm_sliced(&mut self, x: Value, bn: &BatchNorm2d, channels: usize) -> Value;

    /// Decayable ReLU `y = max(alpha*x, x)`.
    fn relu_decay(&mut self, x: Value, alpha: f32) -> Value;

    /// Decayable ReLU6 `y = max(alpha*x, x) - (1-alpha)*max(0, x-6)`.
    fn relu6_decay(&mut self, x: Value, alpha: f32) -> Value;

    /// Windowed max pooling.
    fn max_pool(&mut self, x: Value, geom: ConvGeometry) -> Value;

    /// Windowed average pooling.
    fn avg_pool(&mut self, x: Value, geom: ConvGeometry) -> Value;

    /// Global average pooling `[n,c,h,w] -> [n,c]`.
    fn global_avg_pool(&mut self, x: Value) -> Value;

    /// Elementwise sum of two same-shape values (residual join).
    fn add(&mut self, a: Value, b: Value) -> Value;
}

impl Forward for Session {
    fn training(&self) -> bool {
        self.training
    }

    fn input(&mut self, t: Tensor) -> Value {
        Session::input(self, t)
    }

    fn value(&self, v: Value) -> &Tensor {
        self.graph.value(v)
    }

    fn take(&mut self, v: Value) -> Tensor {
        self.graph.value(v).clone()
    }

    fn conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        geom: ConvGeometry,
    ) -> Value {
        let wv = self.bind(w);
        let bv = b.map(|p| self.bind(p));
        self.graph.conv2d(x, wv, bv, geom)
    }

    fn conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        out_c: usize,
        in_c: usize,
        geom: ConvGeometry,
    ) -> Value {
        let wv = self.bind(w);
        let wv = self.graph.narrow_out_in(wv, (0, out_c), (0, in_c));
        self.graph.conv2d(x, wv, None, geom)
    }

    fn depthwise_conv2d(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        geom: ConvGeometry,
    ) -> Value {
        let wv = self.bind(w);
        let bv = b.map(|p| self.bind(p));
        self.graph.depthwise_conv2d(x, wv, bv, geom)
    }

    fn depthwise_conv2d_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        channels: usize,
        geom: ConvGeometry,
    ) -> Value {
        let wv = self.bind(w);
        let wv = self.graph.narrow0(wv, 0, channels);
        self.graph.depthwise_conv2d(x, wv, None, geom)
    }

    fn linear(&mut self, x: Value, w: &Parameter, b: Option<&Parameter>) -> Value {
        let wv = self.bind(w);
        let y = self.graph.matmul_nt(x, wv);
        match b {
            Some(b) => {
                let bv = self.bind(b);
                self.graph.add_bias2(y, bv)
            }
            None => y,
        }
    }

    fn linear_sliced(
        &mut self,
        x: Value,
        w: &Parameter,
        b: Option<&Parameter>,
        in_features: usize,
    ) -> Value {
        let (out_f, big_in) = w.value().shape().rc();
        let wv = self.bind(w);
        // Narrow the input-feature dimension through a rank-4 view so the
        // gradient scatters back into the full weight.
        let w4 = self.graph.reshape(wv, [out_f, big_in, 1, 1]);
        let w4 = self.graph.narrow_out_in(w4, (0, out_f), (0, in_features));
        let wk = self.graph.reshape(w4, [out_f, in_features]);
        let y = self.graph.matmul_nt(x, wk);
        match b {
            Some(b) => {
                let bv = self.bind(b);
                self.graph.add_bias2(y, bv)
            }
            None => y,
        }
    }

    fn batch_norm(&mut self, x: Value, bn: &BatchNorm2d) -> Value {
        let gamma = self.bind(bn.gamma());
        let beta = self.bind(bn.beta());
        if self.training {
            let (y, stats) = self.graph.batch_norm_train(x, gamma, beta, bn.eps());
            if self.update_bn_stats {
                let update = BnUpdate {
                    momentum: bn.momentum(),
                    channels: bn.channels(),
                    mean: stats.mean,
                    var: stats.var,
                };
                self.apply_or_record_bn(bn.running_mean_param(), bn.running_var_param(), update);
            }
            y
        } else {
            let rm = bn.running_mean();
            let rv = bn.running_var();
            self.graph
                .batch_norm_eval(x, gamma, beta, &rm, &rv, bn.eps())
        }
    }

    fn batch_norm_sliced(&mut self, x: Value, bn: &BatchNorm2d, channels: usize) -> Value {
        let k = channels;
        let gamma = self.bind(bn.gamma());
        let gamma = self.graph.narrow0(gamma, 0, k);
        let beta = self.bind(bn.beta());
        let beta = self.graph.narrow0(beta, 0, k);
        if self.training {
            let (y, stats) = self.graph.batch_norm_train(x, gamma, beta, bn.eps());
            if !self.update_bn_stats {
                return y;
            }
            let update = BnUpdate {
                momentum: bn.momentum(),
                channels: k,
                mean: stats.mean,
                var: stats.var,
            };
            self.apply_or_record_bn(bn.running_mean_param(), bn.running_var_param(), update);
            y
        } else {
            let rm = bn.running_mean().narrow0(0, k);
            let rv = bn.running_var().narrow0(0, k);
            self.graph
                .batch_norm_eval(x, gamma, beta, &rm, &rv, bn.eps())
        }
    }

    fn relu_decay(&mut self, x: Value, alpha: f32) -> Value {
        self.graph.relu_decay(x, alpha)
    }

    fn relu6_decay(&mut self, x: Value, alpha: f32) -> Value {
        self.graph.relu6_decay(x, alpha)
    }

    fn max_pool(&mut self, x: Value, geom: ConvGeometry) -> Value {
        self.graph.max_pool(x, geom)
    }

    fn avg_pool(&mut self, x: Value, geom: ConvGeometry) -> Value {
        self.graph.avg_pool(x, geom)
    }

    fn global_avg_pool(&mut self, x: Value) -> Value {
        self.graph.global_avg_pool(x)
    }

    fn add(&mut self, a: Value, b: Value) -> Value {
        self.graph.add(a, b)
    }
}
