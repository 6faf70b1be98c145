//! Forward-pass op constructors: each records a node on the tape.

use crate::graph::{Graph, Op, Value};
use nb_tensor::{
    avgpool2d, conv2d, depthwise_conv2d, eltwise, global_avg_pool, maxpool2d, ConvGeometry, Shape,
    Tensor,
};

/// Batch statistics produced by a training-mode batch-norm forward, for the
/// layer to fold into its running averages.
#[derive(Debug, Clone)]
pub struct BnBatchStats {
    /// Per-channel batch mean.
    pub mean: Tensor,
    /// Per-channel *biased* batch variance.
    pub var: Tensor,
}

impl Graph {
    /// Elementwise sum of two same-shape values.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&mut self, a: Value, b: Value) -> Value {
        let out = self.value(a).add(self.value(b));
        let rg = self.wants_grad(a) || self.wants_grad(b);
        self.push(out, Op::Add(a, b), rg)
    }

    /// Elementwise difference of two same-shape values.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&mut self, a: Value, b: Value) -> Value {
        let out = self.value(a).sub(self.value(b));
        let rg = self.wants_grad(a) || self.wants_grad(b);
        self.push(out, Op::Sub(a, b), rg)
    }

    /// Elementwise product of two same-shape values.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&mut self, a: Value, b: Value) -> Value {
        let out = self.value(a).mul(self.value(b));
        let rg = self.wants_grad(a) || self.wants_grad(b);
        self.push(out, Op::Mul(a, b), rg)
    }

    /// Multiplies a value by a compile-time constant scalar.
    pub fn scale(&mut self, a: Value, s: f32) -> Value {
        let out = self.value(a).scale(s);
        let rg = self.wants_grad(a);
        self.push(out, Op::Scale(a, s), rg)
    }

    /// Adds an `[f]` bias across the rows of an `[n,f]` value.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2 or `bias` is not `[f]`.
    pub fn add_bias2(&mut self, x: Value, bias: Value) -> Value {
        let mut out = self.value(x).clone();
        eltwise::add_bias2_inplace(&mut out, self.value(bias));
        let rg = self.wants_grad(x) || self.wants_grad(bias);
        self.push(out, Op::AddBias2(x, bias), rg)
    }

    /// `x [n,in] * w [out,in]^T -> [n,out]` — the Linear-layer product.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_nt(&mut self, x: Value, w: Value) -> Value {
        let out = self.value(x).matmul_nt(self.value(w));
        let rg = self.wants_grad(x) || self.wants_grad(w);
        self.push(out, Op::MatMulNT(x, w), rg)
    }

    /// Dense 2-D convolution. See [`nb_tensor::conv2d`] for shape contracts.
    pub fn conv2d(&mut self, x: Value, w: Value, b: Option<Value>, geom: ConvGeometry) -> Value {
        let out = conv2d(self.value(x), self.value(w), b.map(|b| self.value(b)), geom);
        let rg = self.wants_grad(x)
            || self.wants_grad(w)
            || b.map(|b| self.wants_grad(b)).unwrap_or(false);
        self.push(out, Op::Conv2d { x, w, b, geom }, rg)
    }

    /// Depthwise 2-D convolution. See [`nb_tensor::depthwise_conv2d`].
    pub fn depthwise_conv2d(
        &mut self,
        x: Value,
        w: Value,
        b: Option<Value>,
        geom: ConvGeometry,
    ) -> Value {
        let out = depthwise_conv2d(self.value(x), self.value(w), b.map(|b| self.value(b)), geom);
        let rg = self.wants_grad(x)
            || self.wants_grad(w)
            || b.map(|b| self.wants_grad(b)).unwrap_or(false);
        self.push(out, Op::DepthwiseConv2d { x, w, b, geom }, rg)
    }

    /// Training-mode batch norm: normalizes with batch statistics and returns
    /// them so the owning layer can update its running averages.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 4 or `gamma`/`beta` are not `[c]`.
    pub fn batch_norm_train(
        &mut self,
        x: Value,
        gamma: Value,
        beta: Value,
        eps: f32,
    ) -> (Value, BnBatchStats) {
        let (mean_t, var_t) = eltwise::bn_batch_stats(self.value(x));
        let invstd = eltwise::bn_invstd(&var_t, eps);
        let out = self.bn_forward(x, gamma, beta, &mean_t, &invstd);
        let rg = self.wants_grad(x) || self.wants_grad(gamma) || self.wants_grad(beta);
        let v = self.push(
            out,
            Op::BatchNorm {
                x,
                gamma,
                beta,
                mean: mean_t.clone(),
                invstd,
                training: true,
            },
            rg,
        );
        (
            v,
            BnBatchStats {
                mean: mean_t,
                var: var_t,
            },
        )
    }

    /// Inference-mode batch norm using fixed running statistics.
    ///
    /// # Panics
    ///
    /// Panics on shape inconsistencies.
    pub fn batch_norm_eval(
        &mut self,
        x: Value,
        gamma: Value,
        beta: Value,
        running_mean: &Tensor,
        running_var: &Tensor,
        eps: f32,
    ) -> Value {
        let invstd = eltwise::bn_invstd(running_var, eps);
        let out = self.bn_forward(x, gamma, beta, running_mean, &invstd);
        let rg = self.wants_grad(x) || self.wants_grad(gamma) || self.wants_grad(beta);
        self.push(
            out,
            Op::BatchNorm {
                x,
                gamma,
                beta,
                mean: running_mean.clone(),
                invstd,
                training: false,
            },
            rg,
        )
    }

    fn bn_forward(
        &self,
        x: Value,
        gamma: Value,
        beta: Value,
        mean: &Tensor,
        invstd: &Tensor,
    ) -> Tensor {
        let (gamma, beta) = (self.value(gamma), self.value(beta));
        eltwise::bn_normalize(self.value(x), gamma, beta, mean, invstd)
    }

    /// Decayable ReLU `y = max(alpha*x, x)` (paper Eq. 2). `alpha = 0` is the
    /// plain ReLU, `alpha = 1` the identity; PLT sweeps alpha from 0 to 1.
    pub fn relu_decay(&mut self, x: Value, alpha: f32) -> Value {
        let out = eltwise::relu_decay(self.value(x), alpha);
        let rg = self.wants_grad(x);
        self.push(out, Op::ReluDecay { x, alpha }, rg)
    }

    /// Decayable ReLU6 `y = max(alpha*x, x) - (1-alpha)*max(0, x-6)`.
    /// `alpha = 0` is ReLU6 (clamp to `[0, 6]`), `alpha = 1` the identity.
    pub fn relu6_decay(&mut self, x: Value, alpha: f32) -> Value {
        let out = eltwise::relu6_decay(self.value(x), alpha);
        let rg = self.wants_grad(x);
        self.push(out, Op::Relu6Decay { x, alpha }, rg)
    }

    /// Max pooling.
    pub fn max_pool(&mut self, x: Value, geom: ConvGeometry) -> Value {
        let (out, idx) = maxpool2d(self.value(x), geom);
        let rg = self.wants_grad(x);
        self.push(out, Op::MaxPool { x, idx }, rg)
    }

    /// Average pooling.
    pub fn avg_pool(&mut self, x: Value, geom: ConvGeometry) -> Value {
        let out = avgpool2d(self.value(x), geom);
        let rg = self.wants_grad(x);
        self.push(out, Op::AvgPool { x, geom }, rg)
    }

    /// Global average pooling `[n,c,h,w] -> [n,c]`.
    pub fn global_avg_pool(&mut self, x: Value) -> Value {
        let x_shape = self.value(x).shape().clone();
        let out = global_avg_pool(self.value(x));
        let rg = self.wants_grad(x);
        self.push(out, Op::GlobalAvgPool { x, x_shape }, rg)
    }

    /// Shape change preserving data order.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&mut self, x: Value, shape: impl Into<Shape>) -> Value {
        let x_shape = self.value(x).shape().clone();
        let out = self.value(x).reshape(shape);
        let rg = self.wants_grad(x);
        self.push(out, Op::Reshape { x, x_shape }, rg)
    }

    /// Sub-tensor of `len` entries along dimension 0. Gradients scatter back
    /// into the parent's matching region (used by NetAug weight sharing).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds dimension 0.
    pub fn narrow0(&mut self, x: Value, start: usize, len: usize) -> Value {
        let out = self.value(x).narrow0(start, len);
        let rg = self.wants_grad(x);
        let _ = len;
        self.push(out, Op::Narrow0 { x, start }, rg)
    }

    /// Slices the leading output-channel and input-channel dimensions of a
    /// rank-4 conv weight: `w[out.0..out.0+out.1, inn.0..inn.0+inn.1, :, :]`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank 4 or a range is out of bounds.
    pub fn narrow_out_in(&mut self, w: Value, out: (usize, usize), inn: (usize, usize)) -> Value {
        let dst = self.value(w).narrow_out_in(out, inn);
        let rg = self.wants_grad(w);
        self.push(dst, Op::NarrowOutIn { w, out, inn }, rg)
    }

    /// Mean of every element, producing a scalar.
    pub fn mean_all(&mut self, x: Value) -> Value {
        let n = self.value(x).numel();
        let out = Tensor::scalar(self.value(x).mean());
        let rg = self.wants_grad(x);
        self.push(out, Op::MeanAll { x, n }, rg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_decay_endpoints() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![-2.0, 3.0], [2]).unwrap(), false);
        let relu = g.relu_decay(x, 0.0);
        assert_eq!(g.value(relu).as_slice(), &[0.0, 3.0]);
        let ident = g.relu_decay(x, 1.0);
        assert_eq!(g.value(ident).as_slice(), &[-2.0, 3.0]);
        let half = g.relu_decay(x, 0.5);
        assert_eq!(g.value(half).as_slice(), &[-1.0, 3.0]);
    }

    #[test]
    fn relu6_decay_endpoints() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![-2.0, 3.0, 8.0], [3]).unwrap(), false);
        let r6 = g.relu6_decay(x, 0.0);
        assert_eq!(g.value(r6).as_slice(), &[0.0, 3.0, 6.0]);
        let ident = g.relu6_decay(x, 1.0);
        assert_eq!(g.value(ident).as_slice(), &[-2.0, 3.0, 8.0]);
    }

    #[test]
    fn batch_norm_train_normalizes() {
        let mut g = Graph::new();
        let x = g.leaf(
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [4, 1, 1, 1]).unwrap(),
            false,
        );
        let gamma = g.leaf(Tensor::ones([1]), false);
        let beta = g.leaf(Tensor::zeros([1]), false);
        let (y, stats) = g.batch_norm_train(x, gamma, beta, 1e-5);
        assert!((stats.mean.item() - 4.0).abs() < 1e-5);
        assert!((stats.var.item() - 5.0).abs() < 1e-4);
        let out = g.value(y);
        assert!(out.mean().abs() < 1e-5);
        let var = out.map(|v| v * v).mean();
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batch_norm_eval_uses_running_stats() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::full([2, 1, 1, 1], 10.0), false);
        let gamma = g.leaf(Tensor::full([1], 2.0), false);
        let beta = g.leaf(Tensor::full([1], 1.0), false);
        let rm = Tensor::full([1], 8.0);
        let rv = Tensor::full([1], 4.0);
        let y = g.batch_norm_eval(x, gamma, beta, &rm, &rv, 0.0);
        // 2 * (10-8)/2 + 1 = 3
        assert!(g.value(y).allclose(&Tensor::full([2, 1, 1, 1], 3.0), 1e-4));
    }

    #[test]
    fn narrow_out_in_slices_weight() {
        let mut g = Graph::new();
        let w = g.leaf(Tensor::from_fn([3, 2, 1, 1], |i| i as f32), false);
        let s = g.narrow_out_in(w, (1, 2), (0, 1));
        assert_eq!(g.value(s).dims(), &[2, 1, 1, 1]);
        assert_eq!(g.value(s).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn mean_all_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]).unwrap(), false);
        let m = g.mean_all(x);
        assert_eq!(g.value(m).item(), 2.0);
    }
}
