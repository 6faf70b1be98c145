//! The computation tape: nodes, values, and the backward pass driver.

use crate::optime::{OpKind, OpTimes};
use nb_tensor::{ConvGeometry, Shape, Tensor};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Count of tape nodes ever allocated by this thread. Grad-free execution
    /// paths must not move it; tests diff it around an eval forward to prove
    /// no `Graph` node was recorded.
    static NODES_ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Total number of [`Graph`] nodes allocated by the calling thread so far.
///
/// Monotonic; diff two readings to count allocations across a region. A
/// graph only grows on the thread that owns it, so tapes built concurrently
/// on other threads never show up in the difference. The compiled inference
/// plan is required to leave this unchanged.
pub fn nodes_allocated() -> usize {
    NODES_ALLOCATED.with(Cell::get)
}

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that produced it.
///
/// The same handle type doubles as the slot index of other `Forward`
/// implementations (e.g. the compiled plan's shape recorder in `nb-nn`),
/// which is what lets one `Module::forward` definition serve every execution
/// path; [`Value::index`]/[`Value::from_index`] convert explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Value(pub(crate) usize);

impl Value {
    /// The raw index this handle wraps.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a handle from a raw index. Only meaningful for the executor
    /// that assigned the index.
    pub fn from_index(i: usize) -> Self {
        Value(i)
    }
}

/// The recorded operation that produced a node, together with whatever
/// context its backward pass needs.
#[derive(Debug)]
pub(crate) enum Op {
    /// Input or parameter; no parents.
    Leaf,
    /// Elementwise `a + b`.
    Add(Value, Value),
    /// Elementwise `a - b`.
    Sub(Value, Value),
    /// Elementwise `a * b`.
    Mul(Value, Value),
    /// `a * scalar`.
    Scale(Value, f32),
    /// `x + bias` with `bias` broadcast over `[n, f]` rows.
    AddBias2(Value, Value),
    /// `x [n,in] * w[out,in]^T` (the Linear layer product).
    MatMulNT(Value, Value),
    /// Dense convolution.
    Conv2d {
        x: Value,
        w: Value,
        b: Option<Value>,
        geom: ConvGeometry,
    },
    /// Depthwise convolution.
    DepthwiseConv2d {
        x: Value,
        w: Value,
        b: Option<Value>,
        geom: ConvGeometry,
    },
    /// Batch normalization over `[n, c, h, w]`; `mean`/`invstd` are the
    /// statistics actually used in the forward pass (batch stats when
    /// training, running stats when not).
    BatchNorm {
        x: Value,
        gamma: Value,
        beta: Value,
        mean: Tensor,
        invstd: Tensor,
        training: bool,
    },
    /// Decayable ReLU `y = max(alpha * x, x)` (paper Eq. 2).
    ReluDecay { x: Value, alpha: f32 },
    /// Decayable ReLU6 `y = max(alpha*x, x) - (1-alpha)*max(0, x-6)`.
    Relu6Decay { x: Value, alpha: f32 },
    /// Max pooling (saved argmax routing).
    MaxPool { x: Value, idx: Vec<u32> },
    /// Average pooling.
    AvgPool { x: Value, geom: ConvGeometry },
    /// Global average pooling `[n,c,h,w] -> [n,c]`.
    GlobalAvgPool { x: Value, x_shape: Shape },
    /// Shape change with identical data.
    Reshape { x: Value, x_shape: Shape },
    /// Sub-tensor along dim 0 (rows of a matrix / out-channels of a weight).
    Narrow0 { x: Value, start: usize },
    /// Sub-tensor along dims 0 and 1 of a rank-4 conv weight.
    NarrowOutIn {
        w: Value,
        out: (usize, usize),
        inn: (usize, usize),
    },
    /// Softmax cross-entropy (mean over batch) against integer labels, with
    /// optional label smoothing; `probs` are the saved softmax outputs.
    SoftmaxCrossEntropy {
        logits: Value,
        labels: Vec<usize>,
        smoothing: f32,
        probs: Tensor,
    },
    /// Temperature-scaled KL distillation loss against constant teacher
    /// probabilities; `student_probs` are the saved `softmax(z/T)`.
    KdKlLoss {
        logits: Value,
        teacher_probs: Tensor,
        temperature: f32,
        student_probs: Tensor,
    },
    /// Mean-squared error between two graph values (both receive gradient).
    MseBetween { a: Value, b: Value },
    /// Mean-squared error against a constant target.
    MseToConst { a: Value, target: Tensor },
    /// Masked binary cross-entropy with logits against constant targets;
    /// `probs` are the saved sigmoid outputs. Mean over mask support.
    BceWithLogits {
        logits: Value,
        targets: Tensor,
        mask: Tensor,
        probs: Tensor,
    },
    /// Masked smooth-L1 (Huber, delta=1) against constant targets. Mean over
    /// mask support.
    SmoothL1 {
        pred: Value,
        targets: Tensor,
        mask: Tensor,
    },
    /// Mean of all elements (scalar output).
    MeanAll { x: Value, n: usize },
}

impl Op {
    /// The kind the per-op time record files this node under.
    pub(crate) fn kind(&self) -> OpKind {
        let pointwise = |g: &ConvGeometry| *g == ConvGeometry::pointwise();
        match self {
            Op::Leaf => OpKind::Leaf,
            Op::Add(..) => OpKind::Add,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::Scale(..) => OpKind::Scale,
            Op::AddBias2(..) => OpKind::AddBias2,
            Op::MatMulNT(..) => OpKind::MatMulNT,
            Op::Conv2d { geom, .. } if pointwise(geom) => OpKind::ConvPointwise,
            Op::Conv2d { .. } => OpKind::Conv,
            Op::DepthwiseConv2d { geom, .. } if pointwise(geom) => OpKind::Depthwise1x1,
            Op::DepthwiseConv2d { geom, .. } if (geom.kh, geom.kw) == (3, 3) => {
                OpKind::Depthwise3x3
            }
            Op::DepthwiseConv2d { .. } => OpKind::Depthwise,
            Op::BatchNorm { training: true, .. } => OpKind::BatchNormTrain,
            Op::BatchNorm { .. } => OpKind::BatchNormEval,
            Op::ReluDecay { .. } => OpKind::ReluDecay,
            Op::Relu6Decay { .. } => OpKind::Relu6Decay,
            Op::MaxPool { .. } => OpKind::MaxPool,
            Op::AvgPool { .. } => OpKind::AvgPool,
            Op::GlobalAvgPool { .. } => OpKind::GlobalAvgPool,
            Op::Reshape { .. } => OpKind::Reshape,
            Op::Narrow0 { .. } => OpKind::Narrow0,
            Op::NarrowOutIn { .. } => OpKind::NarrowOutIn,
            Op::SoftmaxCrossEntropy { .. } => OpKind::SoftmaxCrossEntropy,
            Op::KdKlLoss { .. } => OpKind::KdKlLoss,
            Op::MseBetween { .. } => OpKind::MseBetween,
            Op::MseToConst { .. } => OpKind::MseToConst,
            Op::BceWithLogits { .. } => OpKind::BceWithLogits,
            Op::SmoothL1 { .. } => OpKind::SmoothL1,
            Op::MeanAll { .. } => OpKind::MeanAll,
        }
    }
}

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
    pub requires_grad: bool,
}

/// A single-use computation tape.
///
/// Build one per training step: insert leaves for inputs and parameters,
/// call op methods to record the forward pass, then [`Graph::backward`] to
/// populate gradients.
///
/// # Examples
///
/// ```
/// use nb_autograd::Graph;
/// use nb_tensor::Tensor;
///
/// let mut g = Graph::new();
/// let x = g.leaf(Tensor::from_vec(vec![1.0, -2.0], [2])?, true);
/// let y = g.relu_decay(x, 0.0);        // plain ReLU
/// let loss = g.mean_all(y);
/// g.backward(loss);
/// assert_eq!(g.grad(x).unwrap().as_slice(), &[0.5, 0.0]);
/// # Ok::<(), nb_tensor::TensorError>(())
/// ```
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Time per op kind, forward and backward.
    pub(crate) op_times: OpTimes,
    /// When the last node was pushed (or the tape was created).
    last_push: Instant,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::new(),
            op_times: OpTimes::default(),
            last_push: Instant::now(),
        }
    }

    /// Where this tape's time went, per op kind: see [`OpTimes`].
    pub fn op_times(&self) -> &OpTimes {
        &self.op_times
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts an input or parameter tensor.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Value {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// Inserts a constant (no gradient).
    pub fn constant(&mut self, value: Tensor) -> Value {
        self.leaf(value, false)
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Value {
        NODES_ALLOCATED.with(|n| n.set(n.get() + 1));
        let now = Instant::now();
        self.op_times
            .record_forward(op.kind(), now.duration_since(self.last_push));
        self.last_push = now;
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Value(self.nodes.len() - 1)
    }

    /// Bytes held by retained node values and gradients — the activation
    /// memory an eval forward on the tape keeps alive. Counts each tensor's
    /// storage once even when buffers are COW-shared, so this is an upper
    /// bound on unique bytes.
    pub fn retained_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                (n.value.numel() + n.grad.as_ref().map(|g| g.numel()).unwrap_or(0))
                    * std::mem::size_of::<f32>()
            })
            .sum()
    }

    pub(crate) fn wants_grad(&self, v: Value) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of a node.
    pub fn value(&self, v: Value) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node, if any was produced by
    /// [`backward`](Self::backward).
    pub fn grad(&self, v: Value) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Takes the gradient out of the node, leaving `None`.
    pub fn take_grad(&mut self, v: Value) -> Option<Tensor> {
        self.nodes[v.0].grad.take()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn accumulate(&mut self, v: Value, g: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let mut g = Graph::new();
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let v = g.leaf(t.clone(), true);
        assert_eq!(g.value(v), &t);
        assert!(g.grad(v).is_none());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::ones([2]));
        g.accumulate(c, Tensor::ones([2]));
        assert!(g.grad(c).is_none());
    }

    #[test]
    fn accumulate_sums() {
        let mut g = Graph::new();
        let v = g.leaf(Tensor::zeros([2]), true);
        g.accumulate(v, Tensor::ones([2]));
        g.accumulate(v, Tensor::ones([2]));
        assert_eq!(g.grad(v).unwrap().as_slice(), &[2.0, 2.0]);
        let taken = g.take_grad(v).unwrap();
        assert_eq!(taken.as_slice(), &[2.0, 2.0]);
        assert!(g.grad(v).is_none());
    }

    #[test]
    fn node_count_ignores_tapes_on_other_threads() {
        use std::sync::Barrier;
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                let mut g = Graph::new();
                for _ in 0..16 {
                    g.constant(Tensor::ones([1]));
                }
                gate.wait();
            });
            let before = nodes_allocated();
            gate.wait();
            gate.wait();
            assert_eq!(nodes_allocated() - before, 0);
        });
    }
}
