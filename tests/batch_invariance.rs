//! Batched serving is bitwise equal to solo replay. For the three tenants
//! of nbbench's `serve-steady` workload (Table I's MobileNetV2-Tiny in f32
//! and int8, and MCUNet in f32, at 32x32), each request's slice of a
//! coalesced batch of 1 to 16 must equal its batch-1 replay bit for bit.

use netbooster::models::{mcunet_like, mobilenet_v2_tiny, TinyNet, TnnConfig};
use netbooster::nn::{CompiledPlan, Module};
use netbooster::serve::{coalesce, split_batch};
use netbooster::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The batch-1 probe shape the serving plans compile at.
const PROBE: [usize; 4] = [1, 3, 32, 32];

/// Compiles a 10-class net of `cfg` in f32, or in int8 when `quantized`.
fn plan(cfg: fn(usize) -> TnnConfig, quantized: bool) -> CompiledPlan {
    let mut rng = StdRng::seed_from_u64(1);
    let model = TinyNet::new(cfg(10), &mut rng);
    if !quantized {
        return CompiledPlan::compile(&PROBE, |f, x| model.forward(f, x));
    }
    let calib: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([2, 3, 32, 32], &mut rng))
        .collect();
    let plan = CompiledPlan::compile_quantized(&PROBE, &calib, |f, x| model.forward(f, x));
    assert!(plan.is_quantized(), "the int8 tenant should quantize");
    plan
}

/// Replays 16 samples alone once each, then every prefix of them as one
/// coalesced batch, and holds each batched slice to its solo bits.
fn assert_batch_invariant(name: &str, plan: &CompiledPlan) {
    let mut rng = StdRng::seed_from_u64(2);
    let samples: Vec<Tensor> = (0..16)
        .map(|_| Tensor::randn([3, 32, 32], &mut rng))
        .collect();
    let solo: Vec<Tensor> = samples
        .iter()
        .map(|s| plan.run(&coalesce(std::slice::from_ref(s))))
        .collect();
    for n in 1..=samples.len() {
        let batched = split_batch(&plan.run(&coalesce(&samples[..n])), n);
        for (i, (got, want)) in batched.iter().zip(&solo).enumerate() {
            assert_eq!(got.dims(), want.dims(), "{name}: response shape");
            assert!(
                got.as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}: request {i} of a batch of {n} differs from its solo replay"
            );
        }
    }
}

#[test]
fn tiny_f32_batches_match_solo_replay_bitwise() {
    assert_batch_invariant("tiny.f32", &plan(mobilenet_v2_tiny, false));
}

#[test]
fn tiny_i8_batches_match_solo_replay_bitwise() {
    assert_batch_invariant("tiny.i8", &plan(mobilenet_v2_tiny, true));
}

#[test]
fn mcunet_f32_batches_match_solo_replay_bitwise() {
    assert_batch_invariant("mcunet.f32", &plan(mcunet_like, false));
}
