//! Property-based tests for plan-time batch-norm folding: over random
//! channel counts, eps values, and affine/non-affine configurations, a
//! `CompiledPlan` that folds an eval-mode batch norm into its preceding
//! conv/depthwise must match the unfused conv-then-bn path within a
//! reduction-scaled tolerance (folding reassociates the per-channel scale,
//! so bitwise equality is not expected — that regime is covered by the
//! fold-off plan tests in `nb_nn::plan`).

use nb_nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d};
use nb_nn::{CompiledPlan, Module, Sequential, Session};
use nb_tensor::{ConvGeometry, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Taped eval forward: the unfused conv-then-bn reference.
fn eval_forward(model: &Sequential, x: &Tensor) -> Tensor {
    let mut s = Session::new(false);
    let xv = s.input(x.clone());
    let yv = model.forward(&mut s, xv);
    s.value(yv).clone()
}

/// `1e-4 * sqrt(k)`: the repo's standard allclose bound for a length-`k`
/// reduction perturbed by one rounding per term.
fn tol(k: usize) -> f32 {
    1e-4 * (k as f32).sqrt().max(1.0)
}

fn random_bn(c: usize, eps: f32, affine: bool, seed: u64) -> BatchNorm2d {
    let mut rng = StdRng::seed_from_u64(seed);
    let bn = BatchNorm2d::new(c).with_eps(eps);
    bn.set_running_stats(
        Tensor::randn([c], &mut rng),
        Tensor::randn([c], &mut rng).map(|v| v.abs() + 0.05),
    );
    if affine {
        bn.gamma()
            .set_value(Tensor::rand_uniform([c], 0.2, 2.0, &mut rng));
        bn.beta().set_value(Tensor::randn([c], &mut rng));
    }
    bn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense conv + bn: the folded plan matches the unfused taped path.
    #[test]
    fn folded_dense_conv_bn_matches_unfused(
        in_c in 1usize..6,
        out_c in 1usize..17,
        kernel in prop::sample::select(vec![1usize, 3]),
        conv_bias in any::<bool>(),
        affine in any::<bool>(),
        eps in prop::sample::select(vec![1e-7f32, 1e-5, 1e-3, 1e-1]),
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(in_c, out_c, ConvGeometry::same(kernel, 1), conv_bias, &mut rng);
        let model = Sequential::new()
            .push(conv)
            .push(random_bn(out_c, eps, affine, seed ^ 0x9e37));
        let x = Tensor::randn([2, in_c, 7, 7], &mut rng);
        let want = eval_forward(&model, &x);
        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let got = plan.run(&x);
        let k = in_c * kernel * kernel;
        prop_assert!(
            got.allclose(&want, tol(k)),
            "dense fold diverged: in_c={in_c} out_c={out_c} k={kernel} bias={conv_bias} affine={affine} eps={eps}"
        );
    }

    /// Depthwise conv + bn: the folded plan matches the unfused path.
    #[test]
    fn folded_depthwise_conv_bn_matches_unfused(
        channels in 1usize..13,
        dw_bias in any::<bool>(),
        affine in any::<bool>(),
        eps in prop::sample::select(vec![1e-7f32, 1e-5, 1e-3, 1e-1]),
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dw = DepthwiseConv2d::new(channels, ConvGeometry::same(3, 1), dw_bias, &mut rng);
        let model = Sequential::new()
            .push(dw)
            .push(random_bn(channels, eps, affine, seed ^ 0x7f4a));
        let x = Tensor::randn([2, channels, 7, 7], &mut rng);
        let want = eval_forward(&model, &x);
        let plan = CompiledPlan::compile(x.dims(), |f, v| model.forward(f, v));
        let got = plan.run(&x);
        prop_assert!(
            got.allclose(&want, tol(9)),
            "depthwise fold diverged: c={channels} bias={dw_bias} affine={affine} eps={eps}"
        );
    }
}
