//! The [`Module`] trait and the per-step [`Session`] that bridges parameters
//! and the autograd tape.

use crate::layers::BnUpdate;
use crate::Parameter;
use nb_autograd::{Graph, OpTimes, Value};
use nb_tensor::Tensor;
use std::collections::HashMap;

/// One deferred batch-norm statistics update, captured while a session
/// runs with [`Session::record_bn_updates`] enabled: the layer's
/// running-stat parameters (as seen by *this* session's model replica)
/// plus the update itself. The data-parallel trainer maps the parameters
/// to canonical indices and replays the updates onto the master model in
/// slice order.
pub struct BnRecord {
    /// The replica's running-mean parameter.
    pub mean: Parameter,
    /// The replica's running-variance parameter.
    pub var: Parameter,
    /// The captured batch statistics and momentum.
    pub update: BnUpdate,
}

/// One training (or evaluation) step's worth of state: an autograd tape plus
/// the set of parameters bound into it.
///
/// Binding the same [`Parameter`] twice returns the same tape leaf, so
/// weight sharing (as in NetAug's sub-network forward) costs nothing and
/// gradients from every use accumulate correctly.
pub struct Session {
    /// The underlying autograd tape.
    pub graph: Graph,
    /// Whether layers should run in training mode (batch statistics, etc.).
    pub training: bool,
    /// Whether training-mode batch norms may update their running
    /// statistics. NetAug's auxiliary full-width forward disables this so
    /// the deployed sub-network's statistics are not polluted.
    pub update_bn_stats: bool,
    bound: HashMap<usize, Value>,
    bindings: Vec<(Parameter, Value)>,
    /// `Some` while batch-norm statistics updates are being recorded for
    /// deferred replay instead of applied inline.
    bn_records: Option<Vec<BnRecord>>,
}

impl Session {
    /// A fresh session in the given mode.
    pub fn new(training: bool) -> Self {
        Session {
            graph: Graph::new(),
            training,
            update_bn_stats: true,
            bound: HashMap::new(),
            bindings: Vec::new(),
            bn_records: None,
        }
    }

    /// Switches the session to *recording* batch-norm statistics updates:
    /// training-mode batch norms capture their `(batch mean, batch var,
    /// momentum)` instead of folding them into the running statistics
    /// inline. The data-parallel trainer enables this on shard sessions so
    /// the EMA chain can be replayed onto the master model in slice order.
    pub fn record_bn_updates(&mut self) {
        self.bn_records = Some(Vec::new());
    }

    /// Drains the recorded batch-norm updates, in forward-encounter order.
    pub fn take_bn_records(&mut self) -> Vec<BnRecord> {
        self.bn_records.take().unwrap_or_default()
    }

    /// Applies an update inline, or records it when recording is enabled.
    /// Called by the training-mode batch-norm forward (both full-width and
    /// sliced); routing both modes through [`BnUpdate::apply`] keeps the
    /// running-statistics bits identical across trainers.
    pub(crate) fn apply_or_record_bn(
        &mut self,
        mean: &Parameter,
        var: &Parameter,
        update: BnUpdate,
    ) {
        match &mut self.bn_records {
            Some(records) => records.push(BnRecord {
                mean: mean.clone(),
                var: var.clone(),
                update,
            }),
            None => update.apply(mean, var),
        }
    }

    /// Inserts an input tensor (no gradient).
    pub fn input(&mut self, t: Tensor) -> Value {
        self.graph.constant(t)
    }

    /// Binds a parameter into the tape, returning its leaf. Idempotent per
    /// parameter per session. Frozen parameters (see
    /// [`Parameter::set_trainable`]) bind as constants.
    ///
    /// Binding is clone-free: the tape leaf COW-shares the parameter's
    /// storage, and a parameter update after binding copies on write, so
    /// mid-session mutation is never observable through the tape.
    pub fn bind(&mut self, p: &Parameter) -> Value {
        if let Some(&v) = self.bound.get(&p.key()) {
            return v;
        }
        let trainable = p.trainable();
        let v = self.graph.leaf(p.value(), trainable);
        self.bound.insert(p.key(), v);
        if trainable {
            self.bindings.push((p.clone(), v));
        }
        v
    }

    /// Runs the backward pass from `loss` and accumulates the resulting
    /// gradients into every bound parameter.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward(&mut self, loss: Value) {
        self.graph.backward(loss);
        for (p, v) in &self.bindings {
            if let Some(g) = self.graph.take_grad(*v) {
                p.add_grad(&g);
            }
        }
    }

    /// The forward value of a node (convenience passthrough).
    pub fn value(&self, v: Value) -> &Tensor {
        self.graph.value(v)
    }

    /// Where this step's time went, per op kind, forward and backward (see
    /// [`OpTimes`]).
    pub fn op_times(&self) -> &OpTimes {
        self.graph.op_times()
    }
}

/// A neural-network building block: a differentiable function of one tensor
/// plus a set of named parameters.
pub trait Module {
    /// Runs the layer's forward computation on an executor: recorded on the
    /// tape when `f` is a [`Session`], recorded once for compilation when
    /// `f` is the [`CompiledPlan`](crate::CompiledPlan) recorder.
    fn forward(&self, f: &mut dyn crate::Forward, x: Value) -> Value;

    /// Visits every parameter with its hierarchical name
    /// (`prefix` + `.local_name`).
    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter));

    /// All parameters, in visit order.
    fn parameters(&self) -> Vec<Parameter>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        self.visit_params("", &mut |_, p| out.push(p.clone()));
        out
    }

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize
    where
        Self: Sized,
    {
        let mut n = 0;
        self.visit_params("", &mut |_, p| n += p.numel());
        n
    }
}

/// Joins a prefix and a local parameter name with a dot (no leading dot when
/// the prefix is empty).
pub fn join_name(prefix: &str, local: &str) -> String {
    if prefix.is_empty() {
        local.to_string()
    } else {
        format!("{prefix}.{local}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_is_idempotent() {
        let mut s = Session::new(true);
        let p = Parameter::new(Tensor::ones([2]));
        let a = s.bind(&p);
        let b = s.bind(&p);
        assert_eq!(a, b);
        assert_eq!(s.graph.len(), 1);
    }

    #[test]
    fn backward_populates_parameter_grads() {
        let mut s = Session::new(true);
        let p = Parameter::new(Tensor::from_vec(vec![2.0, 3.0], [2]).unwrap());
        let v = s.bind(&p);
        let sq = s.graph.mul(v, v);
        let loss = s.graph.mean_all(sq);
        s.backward(loss);
        // d mean(x^2) /dx = 2x/2 = x
        assert!(p
            .grad()
            .allclose(&Tensor::from_vec(vec![2.0, 3.0], [2]).unwrap(), 1e-6));
    }

    #[test]
    fn shared_binding_accumulates_both_uses() {
        let mut s = Session::new(true);
        let p = Parameter::new(Tensor::from_vec(vec![1.0], [1]).unwrap());
        let v = s.bind(&p);
        let v2 = s.bind(&p); // same leaf
        let y = s.graph.add(v, v2); // y = 2x
        let loss = s.graph.mean_all(y);
        s.backward(loss);
        assert_eq!(p.grad().item(), 2.0);
    }

    #[test]
    fn bind_is_clone_free_and_isolated_from_mutation() {
        let mut s = Session::new(true);
        let p = Parameter::new(Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap());
        let v = s.bind(&p);
        // clone-free: parameter and tape leaf share one buffer
        assert_eq!(
            p.value().as_slice().as_ptr(),
            s.value(v).as_slice().as_ptr(),
            "bind deep-copied the parameter"
        );
        // mid-session mutation copies on write and is invisible to the tape
        p.update(|val, _| val.as_mut_slice()[0] = 99.0);
        assert_eq!(p.value().as_slice(), &[99.0, 2.0]);
        assert_eq!(s.value(v).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn op_times_count_each_node_and_backward_arm_by_kind() {
        use crate::layers::{
            ActKind, Activation, BatchNorm2d, Conv2d, DepthwiseConv2d, GlobalAvgPool, Linear,
        };
        use crate::Sequential;
        use nb_autograd::OpKind;
        use nb_tensor::ConvGeometry;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(3);
        let net = Sequential::new()
            .push(Conv2d::new(3, 8, ConvGeometry::same(3, 2), false, &mut rng))
            .push(BatchNorm2d::new(8))
            .push(Activation::new(ActKind::Relu6))
            .push(DepthwiseConv2d::new(
                8,
                ConvGeometry::pointwise(),
                false,
                &mut rng,
            ))
            .push(DepthwiseConv2d::new(
                8,
                ConvGeometry::same(3, 1),
                false,
                &mut rng,
            ))
            .push(Conv2d::new(
                8,
                4,
                ConvGeometry::pointwise(),
                false,
                &mut rng,
            ))
            .push(BatchNorm2d::new(4))
            .push(GlobalAvgPool::new())
            .push(Linear::new(4, 3, true, &mut rng));
        let mut s = Session::new(true);
        let x = s.input(Tensor::randn([2, 3, 8, 8], &mut rng));
        let logits = net.forward(&mut s, x);
        let loss = s.graph.softmax_cross_entropy(logits, &[0, 2], 0.0);
        s.backward(loss);
        let counts: Vec<(OpKind, u64, u64)> = s
            .op_times()
            .iter()
            .map(|(k, t)| (k, t.forward_count, t.backward_count))
            .collect();
        // Leaves: the image, five weights, two (gamma, beta) pairs and the
        // linear bias. Leaves have no backward arm.
        assert_eq!(
            counts,
            vec![
                (OpKind::Leaf, 11, 0),
                (OpKind::AddBias2, 1, 1),
                (OpKind::MatMulNT, 1, 1),
                (OpKind::ConvPointwise, 1, 1),
                (OpKind::Conv, 1, 1),
                (OpKind::Depthwise1x1, 1, 1),
                (OpKind::Depthwise3x3, 1, 1),
                (OpKind::BatchNormTrain, 2, 2),
                (OpKind::Relu6Decay, 1, 1),
                (OpKind::GlobalAvgPool, 1, 1),
                (OpKind::SoftmaxCrossEntropy, 1, 1),
            ]
        );
        let total: u64 = s.op_times().iter().map(|(_, t)| t.forward_ns).sum();
        assert!(total > 0, "forward time recorded");
    }

    #[test]
    fn join_name_formats() {
        assert_eq!(join_name("", "weight"), "weight");
        assert_eq!(join_name("block1.conv", "bias"), "block1.conv.bias");
    }
}
