//! Where a tape's time went, per op kind.
//!
//! Every [`Graph`](crate::Graph) keeps an [`OpTimes`] record, always on: a
//! node's forward time is the time from the previous node's push to its own
//! (so it includes whatever the caller did between the two ops), and a
//! backward arm's time runs from its start to the end of its gradient
//! accumulation. Reading the clock costs two calls per node, far below the
//! cost of any op the record is for.

use std::time::Duration;

/// What a tape node computes, as [`OpTimes`] groups it. Dense and depthwise
/// convolutions and batch norm split by the geometries and modes whose
/// kernels differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An input or parameter.
    Leaf,
    /// Elementwise `a + b`.
    Add,
    /// Elementwise `a - b`.
    Sub,
    /// Elementwise `a * b`.
    Mul,
    /// `a * scalar`.
    Scale,
    /// Row bias add over `[n, f]`.
    AddBias2,
    /// The Linear-layer product `x w^T`.
    MatMulNT,
    /// Dense 1x1, stride-1, unpadded convolution.
    ConvPointwise,
    /// Any other dense convolution (the stem, in the paper's nets).
    Conv,
    /// Depthwise 1x1, stride-1, unpadded convolution (the layers expansion
    /// inserts).
    Depthwise1x1,
    /// Depthwise 3x3 convolution, any stride and padding.
    Depthwise3x3,
    /// Any other depthwise convolution.
    Depthwise,
    /// Batch norm with batch statistics.
    BatchNormTrain,
    /// Batch norm with running statistics.
    BatchNormEval,
    /// Decayable ReLU.
    ReluDecay,
    /// Decayable ReLU6.
    Relu6Decay,
    /// Max pooling.
    MaxPool,
    /// Average pooling.
    AvgPool,
    /// Global average pooling.
    GlobalAvgPool,
    /// Shape change.
    Reshape,
    /// Sub-tensor along dimension 0.
    Narrow0,
    /// Sub-tensor of a conv weight's leading dimensions.
    NarrowOutIn,
    /// Softmax cross-entropy loss.
    SoftmaxCrossEntropy,
    /// Distillation KL loss.
    KdKlLoss,
    /// Mean-squared error between two values.
    MseBetween,
    /// Mean-squared error against a constant.
    MseToConst,
    /// Masked binary cross-entropy with logits.
    BceWithLogits,
    /// Masked smooth-L1 loss.
    SmoothL1,
    /// Mean of all elements.
    MeanAll,
}

impl OpKind {
    /// Every kind, in declaration order.
    pub const ALL: [OpKind; 29] = [
        OpKind::Leaf,
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Scale,
        OpKind::AddBias2,
        OpKind::MatMulNT,
        OpKind::ConvPointwise,
        OpKind::Conv,
        OpKind::Depthwise1x1,
        OpKind::Depthwise3x3,
        OpKind::Depthwise,
        OpKind::BatchNormTrain,
        OpKind::BatchNormEval,
        OpKind::ReluDecay,
        OpKind::Relu6Decay,
        OpKind::MaxPool,
        OpKind::AvgPool,
        OpKind::GlobalAvgPool,
        OpKind::Reshape,
        OpKind::Narrow0,
        OpKind::NarrowOutIn,
        OpKind::SoftmaxCrossEntropy,
        OpKind::KdKlLoss,
        OpKind::MseBetween,
        OpKind::MseToConst,
        OpKind::BceWithLogits,
        OpKind::SmoothL1,
        OpKind::MeanAll,
    ];
}

/// Time and calls of one op kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTime {
    /// Forward nanoseconds: for each node, the time since the previous push.
    pub forward_ns: u64,
    /// Nodes recorded.
    pub forward_count: u64,
    /// Nanoseconds in the backward arm, gradient accumulation included.
    pub backward_ns: u64,
    /// Backward arms run.
    pub backward_count: u64,
}

/// A tape's time per [`OpKind`]; [`OpTimes::merge`] sums records across
/// steps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpTimes {
    by_kind: [OpTime; OpKind::ALL.len()],
}

impl OpTimes {
    /// The record of one kind (zero if it never ran).
    pub fn get(&self, kind: OpKind) -> OpTime {
        self.by_kind[kind as usize]
    }

    /// The kinds that ran forward or backward, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, OpTime)> + '_ {
        OpKind::ALL
            .iter()
            .zip(&self.by_kind)
            .filter(|(_, t)| t.forward_count + t.backward_count > 0)
            .map(|(&k, &t)| (k, t))
    }

    /// Adds `other`'s times and counts to this record.
    pub fn merge(&mut self, other: &OpTimes) {
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            a.forward_ns += b.forward_ns;
            a.forward_count += b.forward_count;
            a.backward_ns += b.backward_ns;
            a.backward_count += b.backward_count;
        }
    }

    pub(crate) fn record_forward(&mut self, kind: OpKind, t: Duration) {
        let e = &mut self.by_kind[kind as usize];
        e.forward_ns += t.as_nanos() as u64;
        e.forward_count += 1;
    }

    pub(crate) fn record_backward(&mut self, kind: OpKind, t: Duration) {
        let e = &mut self.by_kind[kind as usize];
        e.backward_ns += t.as_nanos() as u64;
        e.backward_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_their_own_slot() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?}");
        }
    }

    #[test]
    fn merge_sums_and_iter_skips_idle_kinds() {
        let mut a = OpTimes::default();
        a.record_forward(OpKind::Conv, Duration::from_nanos(5));
        let mut b = OpTimes::default();
        b.record_forward(OpKind::Conv, Duration::from_nanos(7));
        b.record_backward(OpKind::MeanAll, Duration::from_nanos(2));
        a.merge(&b);
        let got: Vec<_> = a.iter().collect();
        assert_eq!(
            got,
            vec![
                (
                    OpKind::Conv,
                    OpTime {
                        forward_ns: 12,
                        forward_count: 2,
                        ..OpTime::default()
                    }
                ),
                (
                    OpKind::MeanAll,
                    OpTime {
                        backward_ns: 2,
                        backward_count: 1,
                        ..OpTime::default()
                    }
                ),
            ]
        );
    }
}
