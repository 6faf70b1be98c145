//! Network building blocks: conv+BN+activation units, the inverted residual
//! block, and the *expandable pointwise slot* that NetBooster's surgery
//! targets.

use nb_autograd::Value;
use nb_nn::layers::{ActKind, Activation, BatchNorm2d, Conv2d, DepthwiseConv2d, Slope};
use nb_nn::{join_name, Forward, Module, Parameter};
use nb_tensor::ConvGeometry;
use rand::Rng;

/// Convolution followed by batch norm and an activation.
#[derive(Debug)]
pub struct ConvBnAct {
    /// The convolution (bias-free; BN supplies the affine).
    pub conv: Conv2d,
    /// The batch norm.
    pub bn: BatchNorm2d,
    /// The activation.
    pub act: Activation,
}

impl ConvBnAct {
    /// A Kaiming-initialized conv-BN-act unit.
    pub fn new(
        in_c: usize,
        out_c: usize,
        geom: ConvGeometry,
        act: ActKind,
        rng: &mut impl Rng,
    ) -> Self {
        ConvBnAct {
            conv: Conv2d::new(in_c, out_c, geom, false, rng),
            bn: BatchNorm2d::new(out_c),
            act: Activation::new(act),
        }
    }
}

impl Module for ConvBnAct {
    fn forward(&self, f: &mut dyn Forward, x: Value) -> Value {
        let y = self.conv.forward(f, x);
        let y = self.bn.forward(f, y);
        self.act.forward(f, y)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter)) {
        self.conv.visit_params(&join_name(prefix, "conv"), f);
        self.bn.visit_params(&join_name(prefix, "bn"), f);
    }
}

/// One convolutional unit inside an inserted block.
#[derive(Debug)]
pub enum InsertedConv {
    /// Dense convolution.
    Dense(Conv2d),
    /// Depthwise convolution.
    Depthwise(DepthwiseConv2d),
}

impl InsertedConv {
    fn forward(&self, f: &mut dyn Forward, x: Value) -> Value {
        match self {
            InsertedConv::Dense(c) => c.forward(f, x),
            InsertedConv::Depthwise(c) => c.forward(f, x),
        }
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter)) {
        match self {
            InsertedConv::Dense(c) => c.visit_params(prefix, f),
            InsertedConv::Depthwise(c) => c.visit_params(prefix, f),
        }
    }
}

/// One stage of an inserted block: conv, BN, and an optional *decayable*
/// activation (absent after linear projections).
#[derive(Debug)]
pub struct InsertedUnit {
    /// The convolution.
    pub conv: InsertedConv,
    /// The batch norm (folded into the conv at contraction).
    pub bn: BatchNorm2d,
    /// Decayable activation, if any; its [`Slope`] is driven by PLT.
    pub act: Option<Activation>,
}

/// The multi-layer block NetBooster substitutes for a single pointwise
/// convolution during training (paper Step 1).
///
/// All internal activations are decayable; once PLT has driven every slope
/// to 1 the block is affine and [`is_linearized`](Self::is_linearized)
/// returns true, at which point the contraction engine can merge it back
/// into one convolution.
#[derive(Debug)]
pub struct InsertedBlock {
    /// The stages, applied in order.
    pub units: Vec<InsertedUnit>,
    /// Whether a skip connection bypasses the block (only legal when input
    /// and output channel counts match).
    pub residual: bool,
}

impl InsertedBlock {
    /// The slopes of every decayable activation inside the block.
    pub fn slopes(&self) -> Vec<Slope> {
        self.units
            .iter()
            .filter_map(|u| u.act.as_ref().map(|a| a.slope().clone()))
            .collect()
    }

    /// True once every internal activation has decayed to the identity.
    pub fn is_linearized(&self) -> bool {
        self.units
            .iter()
            .all(|u| u.act.as_ref().map(|a| a.is_linear()).unwrap_or(true))
    }

    /// Input channels of the block.
    pub fn in_channels(&self) -> usize {
        match &self.units[0].conv {
            InsertedConv::Dense(c) => c.in_channels(),
            InsertedConv::Depthwise(c) => c.channels(),
        }
    }

    /// Output channels of the block.
    pub fn out_channels(&self) -> usize {
        match &self.units[self.units.len() - 1].conv {
            InsertedConv::Dense(c) => c.out_channels(),
            InsertedConv::Depthwise(c) => c.channels(),
        }
    }

    /// Multiply–accumulate count at the given spatial size (all units are
    /// stride 1, so the size is constant through the block).
    pub fn flops(&self, h: usize, w: usize) -> u64 {
        self.units
            .iter()
            .map(|u| match &u.conv {
                InsertedConv::Dense(c) => c.flops(h, w),
                InsertedConv::Depthwise(c) => c.flops(h, w),
            })
            .sum()
    }
}

impl Module for InsertedBlock {
    fn forward(&self, f: &mut dyn Forward, x: Value) -> Value {
        let mut cur = x;
        for unit in &self.units {
            cur = unit.conv.forward(f, cur);
            cur = unit.bn.forward(f, cur);
            if let Some(act) = &unit.act {
                cur = act.forward(f, cur);
            }
        }
        if self.residual {
            f.add(cur, x)
        } else {
            cur
        }
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter)) {
        for (i, unit) in self.units.iter().enumerate() {
            unit.conv
                .visit_params(&join_name(prefix, &format!("u{i}.conv")), f);
            unit.bn
                .visit_params(&join_name(prefix, &format!("u{i}.bn")), f);
        }
    }
}

/// The surgical site: either the original single pointwise convolution or
/// NetBooster's inserted multi-layer block.
#[derive(Debug)]
pub enum PwSlot {
    /// A single convolution (the original network, or the result of
    /// contraction — which may carry a bias absorbed from the folded BNs).
    Plain(Conv2d),
    /// The expanded deep-giant block (training time only).
    Expanded(InsertedBlock),
}

impl PwSlot {
    /// True while the slot holds an inserted block.
    pub fn is_expanded(&self) -> bool {
        matches!(self, PwSlot::Expanded(_))
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        match self {
            PwSlot::Plain(c) => c.in_channels(),
            PwSlot::Expanded(b) => b.in_channels(),
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        match self {
            PwSlot::Plain(c) => c.out_channels(),
            PwSlot::Expanded(b) => b.out_channels(),
        }
    }

    /// Multiply–accumulate count at the given spatial size.
    pub fn flops(&self, h: usize, w: usize) -> u64 {
        match self {
            PwSlot::Plain(c) => c.flops(h, w),
            PwSlot::Expanded(b) => b.flops(h, w),
        }
    }
}

impl Module for PwSlot {
    fn forward(&self, f: &mut dyn Forward, x: Value) -> Value {
        match self {
            PwSlot::Plain(c) => c.forward(f, x),
            PwSlot::Expanded(b) => b.forward(f, x),
        }
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter)) {
        match self {
            // Both variants share the prefix so backbone weights keep their
            // names across expansion/contraction where shapes allow.
            PwSlot::Plain(c) => c.visit_params(prefix, f),
            PwSlot::Expanded(b) => b.visit_params(prefix, f),
        }
    }
}

/// A MobileNetV2-style inverted residual block whose expand conv sits in a
/// [`PwSlot`].
#[derive(Debug)]
pub struct MbBlock {
    /// The expand pointwise conv (absent when the block's expansion ratio
    /// is 1), wrapped in the expandable slot.
    pub expand: Option<PwSlot>,
    /// BN after the expand slot.
    pub expand_bn: Option<BatchNorm2d>,
    /// Activation after the expand slot.
    pub expand_act: Option<Activation>,
    /// The depthwise conv.
    pub dw: DepthwiseConv2d,
    /// BN after the depthwise conv.
    pub dw_bn: BatchNorm2d,
    /// Activation after the depthwise conv.
    pub dw_act: Activation,
    /// The linear projection conv.
    pub project: Conv2d,
    /// BN after the projection (no activation: linear bottleneck).
    pub project_bn: BatchNorm2d,
    /// Whether the block has a skip connection.
    pub residual: bool,
}

impl MbBlock {
    /// Builds a block from a spec entry.
    pub fn new(spec: &crate::spec::BlockSpec, rng: &mut impl Rng) -> Self {
        let hidden = spec.in_c * spec.expand_ratio;
        let has_expand = spec.expand_ratio != 1;
        MbBlock {
            expand: has_expand.then(|| {
                PwSlot::Plain(Conv2d::new(
                    spec.in_c,
                    hidden,
                    ConvGeometry::pointwise(),
                    false,
                    rng,
                ))
            }),
            expand_bn: has_expand.then(|| BatchNorm2d::new(hidden)),
            expand_act: has_expand.then(|| Activation::new(ActKind::Relu6)),
            dw: DepthwiseConv2d::new(
                hidden,
                ConvGeometry::same(spec.kernel, spec.stride),
                false,
                rng,
            ),
            dw_bn: BatchNorm2d::new(hidden),
            dw_act: Activation::new(ActKind::Relu6),
            project: Conv2d::new(hidden, spec.out_c, ConvGeometry::pointwise(), false, rng),
            project_bn: BatchNorm2d::new(spec.out_c),
            residual: spec.stride == 1 && spec.in_c == spec.out_c,
        }
    }

    /// Hidden (post-expand) channel count.
    pub fn hidden_channels(&self) -> usize {
        self.dw.channels()
    }
}

impl Module for MbBlock {
    fn forward(&self, f: &mut dyn Forward, x: Value) -> Value {
        let mut cur = x;
        if let Some(expand) = &self.expand {
            cur = expand.forward(f, cur);
            cur = self
                .expand_bn
                .as_ref()
                .expect("bn with expand")
                .forward(f, cur);
            cur = self
                .expand_act
                .as_ref()
                .expect("act with expand")
                .forward(f, cur);
        }
        cur = self.dw.forward(f, cur);
        cur = self.dw_bn.forward(f, cur);
        cur = self.dw_act.forward(f, cur);
        cur = self.project.forward(f, cur);
        cur = self.project_bn.forward(f, cur);
        if self.residual {
            f.add(cur, x)
        } else {
            cur
        }
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter)) {
        if let Some(expand) = &self.expand {
            expand.visit_params(&join_name(prefix, "expand"), f);
            self.expand_bn
                .as_ref()
                .expect("bn with expand")
                .visit_params(&join_name(prefix, "expand_bn"), f);
        }
        self.dw.visit_params(&join_name(prefix, "dw"), f);
        self.dw_bn.visit_params(&join_name(prefix, "dw_bn"), f);
        self.project.visit_params(&join_name(prefix, "project"), f);
        self.project_bn
            .visit_params(&join_name(prefix, "project_bn"), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BlockSpec;
    use nb_nn::Session;
    use nb_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(in_c: usize, out_c: usize, t: usize, s: usize) -> BlockSpec {
        BlockSpec {
            in_c,
            out_c,
            expand_ratio: t,
            kernel: 3,
            stride: s,
        }
    }

    #[test]
    fn block_shapes_stride1() {
        let mut rng = StdRng::seed_from_u64(0);
        let b = MbBlock::new(&spec(8, 12, 6, 1), &mut rng);
        let mut s = Session::new(false);
        let x = s.input(Tensor::randn([2, 8, 8, 8], &mut rng));
        let y = b.forward(&mut s, x);
        assert_eq!(s.value(y).dims(), &[2, 12, 8, 8]);
        assert!(!b.residual);
        assert_eq!(b.hidden_channels(), 48);
    }

    #[test]
    fn block_shapes_stride2() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = MbBlock::new(&spec(8, 8, 6, 2), &mut rng);
        let mut s = Session::new(false);
        let x = s.input(Tensor::randn([1, 8, 8, 8], &mut rng));
        let y = b.forward(&mut s, x);
        assert_eq!(s.value(y).dims(), &[1, 8, 4, 4]);
        assert!(!b.residual, "stride 2 disables residual");
    }

    #[test]
    fn residual_when_in_eq_out_stride1() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = MbBlock::new(&spec(8, 8, 6, 1), &mut rng);
        assert!(b.residual);
    }

    #[test]
    fn ratio1_block_has_no_expand_slot() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = MbBlock::new(&spec(8, 8, 1, 1), &mut rng);
        assert!(b.expand.is_none());
        let mut s = Session::new(false);
        let x = s.input(Tensor::randn([1, 8, 6, 6], &mut rng));
        let y = b.forward(&mut s, x);
        assert_eq!(s.value(y).dims(), &[1, 8, 6, 6]);
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let b = MbBlock::new(&spec(4, 6, 6, 1), &mut rng);
        let mut s = Session::new(true);
        let x = s.input(Tensor::randn([2, 4, 5, 5], &mut rng));
        let y = b.forward(&mut s, x);
        let pooled = s.graph.global_avg_pool(y);
        let loss = s.graph.softmax_cross_entropy(pooled, &[0, 1], 0.0);
        s.backward(loss);
        let mut n_nonzero = 0;
        b.visit_params("", &mut |name, p| {
            assert!(p.grad().abs_sum().is_finite(), "{name} grad finite");
            if p.grad().abs_sum() > 0.0 {
                n_nonzero += 1;
            }
        });
        assert!(n_nonzero >= 8, "most params receive gradient: {n_nonzero}");
    }

    #[test]
    fn conv_bn_act_unit() {
        let mut rng = StdRng::seed_from_u64(5);
        let unit = ConvBnAct::new(3, 8, ConvGeometry::same(3, 2), ActKind::Relu6, &mut rng);
        let mut s = Session::new(false);
        let x = s.input(Tensor::randn([1, 3, 8, 8], &mut rng));
        let y = unit.forward(&mut s, x);
        assert_eq!(s.value(y).dims(), &[1, 8, 4, 4]);
        assert!(s.value(y).min_value() >= 0.0, "relu6 clamps below");
    }

    #[test]
    fn slot_forward_matches_inner_conv() {
        let mut rng = StdRng::seed_from_u64(6);
        let conv = Conv2d::new(4, 6, ConvGeometry::pointwise(), false, &mut rng);
        let x = Tensor::randn([1, 4, 3, 3], &mut rng);
        let mut s1 = Session::new(false);
        let x1 = s1.input(x.clone());
        let direct = conv.forward(&mut s1, x1);
        let direct = s1.value(direct).clone();
        let slot = PwSlot::Plain(conv);
        let mut s2 = Session::new(false);
        let x2 = s2.input(x);
        let via = slot.forward(&mut s2, x2);
        assert!(s2.value(via).allclose(&direct, 1e-6));
        assert!(!slot.is_expanded());
        assert_eq!(slot.in_channels(), 4);
        assert_eq!(slot.out_channels(), 6);
    }
}
