//! The tiny-network model: stem, inverted-residual stages, head, classifier.
//!
//! One struct ([`TinyNet`]) covers every preset in `spec` (the MobileNetV2
//! family and the MCUNet-style net). Beyond the plain forward pass it
//! provides:
//!
//! - `forward_subnet` / `extract_subnet`: width-sliced execution with shared
//!   weights, the mechanism behind the NetAug baseline;
//! - public access to each block's [`PwSlot`](crate::blocks::PwSlot), where
//!   NetBooster's expansion and contraction operate;
//! - FLOPs/parameter profiling for the experiment tables.

use crate::blocks::{ConvBnAct, MbBlock, PwSlot};
use crate::spec::TnnConfig;
use nb_autograd::Value;
use nb_nn::layers::{ActKind, BatchNorm2d, GlobalAvgPool, Linear};
use nb_nn::{join_name, CompiledPlan, Forward, Module, Parameter};
use nb_tensor::{ConvGeometry, Tensor};
use rand::Rng;

/// FLOPs/parameter summary produced by [`TinyNet::profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Multiply–accumulate operations for one sample.
    pub flops: u64,
    /// Scalar parameter count.
    pub params: usize,
}

/// A tiny convolutional classifier built from a [`TnnConfig`].
#[derive(Debug)]
pub struct TinyNet {
    /// The architecture this model instantiates.
    pub config: TnnConfig,
    /// Stem conv (3x3).
    pub stem: ConvBnAct,
    /// Inverted-residual stages.
    pub blocks: Vec<MbBlock>,
    /// Head 1x1 conv to the feature dimension.
    pub head: ConvBnAct,
    /// Global pooling before the classifier.
    pub pool: GlobalAvgPool,
    /// The linear classifier.
    pub classifier: Linear,
}

impl TinyNet {
    /// A freshly initialized network.
    pub fn new(config: TnnConfig, rng: &mut impl Rng) -> Self {
        let stem = ConvBnAct::new(
            3,
            config.stem_c,
            ConvGeometry::same(3, config.stem_stride),
            ActKind::Relu6,
            rng,
        );
        let blocks = config.blocks.iter().map(|b| MbBlock::new(b, rng)).collect();
        let last_c = config
            .blocks
            .last()
            .map(|b| b.out_c)
            .unwrap_or(config.stem_c);
        let head = ConvBnAct::new(
            last_c,
            config.head_c,
            ConvGeometry::pointwise(),
            ActKind::Relu6,
            rng,
        );
        let classifier = Linear::new(config.head_c, config.classes, true, rng);
        TinyNet {
            config,
            stem,
            blocks,
            head,
            pool: GlobalAvgPool::new(),
            classifier,
        }
    }

    /// Forward pass up to (and including) the head conv: `[n, head_c, h, w]`.
    pub fn forward_conv_features(&self, f: &mut dyn Forward, x: Value) -> Value {
        let mut cur = self.stem.forward(f, x);
        for block in &self.blocks {
            cur = block.forward(f, cur);
        }
        self.head.forward(f, cur)
    }

    /// Forward pass to the pooled feature vector `[n, head_c]`.
    pub fn forward_features(&self, f: &mut dyn Forward, x: Value) -> Value {
        let fm = self.forward_conv_features(f, x);
        self.pool.forward(f, fm)
    }

    /// Compiles the eval-mode forward pass into a [`CompiledPlan`]
    /// (batch-norm folding, fused activations, prepacked weights, static
    /// activation arena) for an input of shape `dims`. The plan accepts any
    /// batch size; per-sample dims are fixed at compile time. Recompile
    /// after mutating parameters or architecture.
    pub fn compile_eval(&self, dims: &[usize]) -> CompiledPlan {
        CompiledPlan::compile(dims, |f, x| self.forward(f, x))
    }

    /// Convenience: eval-mode logits for a `[n,3,s,s]` batch, computed on
    /// the compiled serving path (see [`TinyNet::compile_eval`]). Callers
    /// evaluating many batches should hold a plan instead of paying the
    /// compile step per call.
    pub fn logits_eval(&self, images: &Tensor) -> Tensor {
        self.compile_eval(images.dims()).run(images)
    }

    /// Replaces the classifier with a freshly initialized head for
    /// `classes` outputs (downstream transfer).
    pub fn reset_classifier(&mut self, classes: usize, rng: &mut impl Rng) {
        self.classifier = Linear::new(self.config.head_c, classes, true, rng);
        self.config.classes = classes;
    }

    /// Indices of blocks whose expand slot exists (candidates for
    /// NetBooster expansion).
    pub fn expandable_block_indices(&self) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.expand.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of currently expanded slots.
    pub fn expanded_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.expand, Some(PwSlot::Expanded(_))))
            .count()
    }

    /// FLOPs and parameter count at the given input resolution.
    pub fn profile(&self, input: usize) -> Profile {
        let mut h = input;
        let mut w = input;
        let mut flops = self.stem.conv.flops(h, w);
        let (sh, sw) = ConvGeometry::same(3, self.config.stem_stride).output_hw(h, w);
        h = sh;
        w = sw;
        for block in &self.blocks {
            if let Some(slot) = &block.expand {
                flops += slot.flops(h, w);
            }
            flops += block.dw.flops(h, w);
            let (nh, nw) = block.dw.geom().output_hw(h, w);
            h = nh;
            w = nw;
            flops += block.project.flops(h, w);
        }
        flops += self.head.conv.flops(h, w);
        flops += self.classifier.flops();
        Profile {
            flops,
            params: self.param_count(),
        }
    }

    // ----- NetAug width-sliced execution -----------------------------------

    /// Forward pass of the width-`base` sub-network embedded in this
    /// (wider) supernet, sharing weights via channel slicing. Used by the
    /// NetAug baseline: gradients flow into the leading channels of every
    /// supernet weight.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not element-wise narrower than this config or
    /// differs in depth/stride/kernels.
    pub fn forward_subnet(&self, f: &mut dyn Forward, x: Value, base: &TnnConfig) -> Value {
        let cfg = &self.config;
        assert_eq!(cfg.blocks.len(), base.blocks.len(), "subnet depth");
        assert_eq!(cfg.classes, base.classes, "subnet classes");
        assert!(base.stem_c <= cfg.stem_c, "subnet stem width");
        // stem
        let mut cur = f.conv2d_sliced(
            x,
            self.stem.conv.weight(),
            base.stem_c,
            3,
            self.stem.conv.geom(),
        );
        cur = f.batch_norm_sliced(cur, &self.stem.bn, base.stem_c);
        cur = f.relu6_decay(cur, 0.0);
        // blocks
        for (block, (bs, full)) in self.blocks.iter().zip(base.blocks.iter().zip(&cfg.blocks)) {
            assert_eq!(bs.kernel, full.kernel, "subnet kernel");
            assert_eq!(bs.stride, full.stride, "subnet stride");
            assert_eq!(bs.expand_ratio, full.expand_ratio, "subnet ratio");
            let in_k = bs.in_c;
            let hidden_k = bs.in_c * bs.expand_ratio;
            let out_k = bs.out_c;
            let residual = block.residual && in_k == out_k;
            let block_in = cur;
            if let Some(PwSlot::Plain(conv)) = &block.expand {
                cur = f.conv2d_sliced(cur, conv.weight(), hidden_k, in_k, conv.geom());
                cur = f.batch_norm_sliced(
                    cur,
                    block.expand_bn.as_ref().expect("bn with expand"),
                    hidden_k,
                );
                cur = f.relu6_decay(cur, 0.0);
            } else if block.expand.is_some() {
                panic!("forward_subnet requires un-expanded slots");
            }
            // depthwise
            cur = f.depthwise_conv2d_sliced(cur, block.dw.weight(), hidden_k, block.dw.geom());
            cur = f.batch_norm_sliced(cur, &block.dw_bn, hidden_k);
            cur = f.relu6_decay(cur, 0.0);
            // project
            cur = f.conv2d_sliced(
                cur,
                block.project.weight(),
                out_k,
                hidden_k,
                block.project.geom(),
            );
            cur = f.batch_norm_sliced(cur, &block.project_bn, out_k);
            if residual {
                cur = f.add(cur, block_in);
            }
        }
        // head
        let last_k = base.blocks.last().map(|b| b.out_c).unwrap_or(base.stem_c);
        cur = f.conv2d_sliced(
            cur,
            self.head.conv.weight(),
            base.head_c,
            last_k,
            self.head.conv.geom(),
        );
        cur = f.batch_norm_sliced(cur, &self.head.bn, base.head_c);
        cur = f.relu6_decay(cur, 0.0);
        cur = f.global_avg_pool(cur);
        // classifier: slice input features
        f.linear_sliced(
            cur,
            self.classifier.weight(),
            self.classifier.bias(),
            base.head_c,
        )
    }

    /// Materializes the width-`base` sub-network as a standalone model by
    /// copying the leading channels of every weight (the final step of
    /// NetAug training).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`forward_subnet`](Self::forward_subnet).
    pub fn extract_subnet(&self, base: &TnnConfig, rng: &mut impl Rng) -> TinyNet {
        let sub = TinyNet::new(base.clone(), rng);
        copy_sliced_conv(&self.stem.conv, &sub.stem.conv);
        copy_sliced_bn(&self.stem.bn, &sub.stem.bn);
        for (big, small) in self.blocks.iter().zip(&sub.blocks) {
            match (&big.expand, &small.expand) {
                (Some(PwSlot::Plain(bc)), Some(PwSlot::Plain(sc))) => {
                    copy_sliced_conv(bc, sc);
                    copy_sliced_bn(
                        big.expand_bn.as_ref().expect("bn with expand"),
                        small.expand_bn.as_ref().expect("bn with expand"),
                    );
                }
                (None, None) => {}
                _ => panic!("extract_subnet requires un-expanded plain slots"),
            }
            // depthwise weight [c,kh,kw]
            let bw = big.dw.weight().value();
            let k = small.dw.channels();
            small.dw.weight().set_value(bw.narrow0(0, k));
            copy_sliced_bn(&big.dw_bn, &small.dw_bn);
            copy_sliced_conv(&big.project, &small.project);
            copy_sliced_bn(&big.project_bn, &small.project_bn);
        }
        copy_sliced_conv(&self.head.conv, &sub.head.conv);
        copy_sliced_bn(&self.head.bn, &sub.head.bn);
        // classifier: [classes, feat] slice features
        let bw = self.classifier.weight().value();
        let (classes, feat) = sub.classifier.weight().value().shape().rc();
        let (_, big_feat) = bw.shape().rc();
        let mut w = Tensor::zeros([classes, feat]);
        for r in 0..classes {
            let src = &bw.as_slice()[r * big_feat..r * big_feat + feat];
            w.as_mut_slice()[r * feat..(r + 1) * feat].copy_from_slice(src);
        }
        sub.classifier.weight().set_value(w);
        sub.classifier
            .bias()
            .expect("classifier bias")
            .set_value(self.classifier.bias().expect("classifier bias").value());
        sub
    }
}

/// Slices the leading `[k_out, k_in, :, :]` block of `src`'s weight into
/// `dst` (which must be exactly that shape).
fn copy_sliced_conv(src: &nb_nn::layers::Conv2d, dst: &nb_nn::layers::Conv2d) {
    let sw = src.weight().value();
    let d = dst.weight().value().shape().dims().to_vec();
    let sd = sw.dims().to_vec();
    let (kh, kw) = (d[2], d[3]);
    let mut out = Tensor::zeros(dst.weight().value().shape().clone());
    {
        let os = out.as_mut_slice();
        let ss = sw.as_slice();
        for o in 0..d[0] {
            for i in 0..d[1] {
                let s0 = ((o * sd[1]) + i) * kh * kw;
                let d0 = ((o * d[1]) + i) * kh * kw;
                os[d0..d0 + kh * kw].copy_from_slice(&ss[s0..s0 + kh * kw]);
            }
        }
    }
    dst.weight().set_value(out);
}

fn copy_sliced_bn(src: &BatchNorm2d, dst: &BatchNorm2d) {
    let k = dst.channels();
    dst.gamma().set_value(src.gamma().value().narrow0(0, k));
    dst.beta().set_value(src.beta().value().narrow0(0, k));
    dst.set_running_stats(
        src.running_mean().narrow0(0, k),
        src.running_var().narrow0(0, k),
    );
}

impl Module for TinyNet {
    fn forward(&self, f: &mut dyn Forward, x: Value) -> Value {
        let feats = self.forward_features(f, x);
        self.classifier.forward(f, feats)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Parameter)) {
        self.stem.visit_params(&join_name(prefix, "stem"), f);
        for (i, block) in self.blocks.iter().enumerate() {
            block.visit_params(&join_name(prefix, &format!("block{i}")), f);
        }
        self.head.visit_params(&join_name(prefix, "head"), f);
        self.classifier
            .visit_params(&join_name(prefix, "classifier"), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{mcunet_like, mobilenet_v2_tiny};
    use nb_nn::Session;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
        let mut s = Session::new(false);
        let x = s.input(Tensor::randn([2, 3, 32, 32], &mut rng));
        let y = net.forward(&mut s, x);
        assert_eq!(s.value(y).dims(), &[2, 10]);
    }

    #[test]
    fn mcunet_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = TinyNet::new(mcunet_like(5), &mut rng);
        let logits = net.logits_eval(&Tensor::randn([1, 3, 32, 32], &mut rng));
        assert_eq!(logits.dims(), &[1, 5]);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn profile_counts_positive_and_ordered() {
        let mut rng = StdRng::seed_from_u64(2);
        let tiny = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
        let big = TinyNet::new(crate::spec::mobilenet_v2_100(10), &mut rng);
        let pt = tiny.profile(32);
        let pb = big.profile(32);
        assert!(pt.flops > 0 && pt.params > 0);
        assert!(pb.flops > pt.flops);
        assert!(pb.params > pt.params);
    }

    #[test]
    fn expandable_indices_skip_ratio1() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
        let idx = net.expandable_block_indices();
        assert!(!idx.contains(&0), "first block has ratio 1");
        assert_eq!(idx.len(), net.blocks.len() - 1);
        assert_eq!(net.expanded_count(), 0);
    }

    #[test]
    fn training_step_updates_all_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = TinyNet::new(mobilenet_v2_tiny(4), &mut rng);
        let mut s = Session::new(true);
        let x = s.input(Tensor::randn([2, 3, 16, 16], &mut rng));
        let y = net.forward(&mut s, x);
        let loss = s.graph.softmax_cross_entropy(y, &[0, 2], 0.0);
        s.backward(loss);
        let mut with_grad = 0;
        let mut total = 0;
        net.visit_params("", &mut |_, p| {
            total += 1;
            if p.grad().abs_sum() > 0.0 {
                with_grad += 1;
            }
        });
        // running-stat buffers never receive gradients; everything else should
        assert!(
            with_grad * 2 >= total,
            "{with_grad}/{total} params got gradient"
        );
    }

    #[test]
    fn subnet_forward_matches_extracted_model() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = mobilenet_v2_tiny(6);
        let aug_cfg = base.width_scaled(1.5).with_classes(6);
        let supernet = TinyNet::new(aug_cfg, &mut rng);
        let x = Tensor::randn([2, 3, 16, 16], &mut rng);
        // eval-mode sliced forward
        let mut s = Session::new(false);
        let xv = s.input(x.clone());
        let y = supernet.forward_subnet(&mut s, xv, &base);
        let via_slices = s.value(y).clone();
        // extracted standalone model
        let sub = supernet.extract_subnet(&base, &mut rng);
        let direct = sub.logits_eval(&x);
        assert!(
            via_slices.allclose(&direct, 1e-3),
            "max diff {}",
            via_slices.max_abs_diff(&direct)
        );
    }

    #[test]
    fn subnet_gradients_touch_leading_channels_only() {
        let mut rng = StdRng::seed_from_u64(6);
        let base = mobilenet_v2_tiny(4);
        let supernet = TinyNet::new(base.width_scaled(2.0).with_classes(4), &mut rng);
        let mut s = Session::new(true);
        let x = s.input(Tensor::randn([2, 3, 16, 16], &mut rng));
        let y = supernet.forward_subnet(&mut s, x, &base);
        let loss = s.graph.softmax_cross_entropy(y, &[0, 1], 0.0);
        s.backward(loss);
        // stem weight: rows beyond base.stem_c receive zero gradient
        let g = supernet.stem.conv.weight().grad();
        let d = g.dims().to_vec();
        let lead = g.narrow0(0, base.stem_c).abs_sum();
        let tail = g.narrow0(base.stem_c, d[0] - base.stem_c).abs_sum();
        assert!(lead > 0.0);
        assert_eq!(tail, 0.0);
    }

    #[test]
    fn param_names_unique() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = TinyNet::new(mobilenet_v2_tiny(10), &mut rng);
        let mut names = Vec::new();
        net.visit_params("", &mut |n, _| names.push(n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate parameter names");
    }
}
