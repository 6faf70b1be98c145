//! Golden bits of taped training steps. On the train net of nbbench's
//! `train-netbooster` workload (MobileNetV2-Tiny with 4 classes, expanded
//! into its deep giant by the paper's default plan, on synthetic images),
//! one taped forward and backward pass must reproduce recorded digests of
//! the loss and of every parameter gradient for:
//!
//! - the giant at batch 8 (one data-parallel gradient slice);
//! - the giant at batch 32 with every PLT slope at 0.5 (a PLT step);
//! - the contracted Tiny at batch 32 (a finetune step).
//!
//! The kernels promise bit-identical results across schedules and thread
//! widths, so a kernel rewrite that keeps its contract keeps these digests.
//! The bits also depend on the host: the f32 GEMM's FMA microkernel runs
//! only with AVX2 and FMA, and the random initialization, the synthetic
//! images and the loss call libm's `ln`, `cos`, `sin` and `exp`, whose
//! last bits differ between C libraries. The digests were recorded on
//! x86_64 Linux with glibc on an AVX2+FMA CPU; elsewhere the test skips
//! with a printed reason.

use netbooster::core::{contract_model, expand, ExpansionHandle, ExpansionPlan};
use netbooster::data::recipe::{Family, Nuisance};
use netbooster::data::{Batch, DataLoader, Split, SyntheticVision};
use netbooster::models::{mobilenet_v2_tiny, TinyNet};
use netbooster::nn::{Module, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training images drawn; every case reads the first batch.
const IMAGES: usize = 32;
/// Seed of the data and of the giant's initialization.
const SEED: u64 = 7;

/// Recorded digests: giant at batch 8, PLT step, finetune step.
const GIANT_B8: u64 = 0x71bb_0bbe_4b2d_2f40;
const PLT_B32: u64 = 0x953b_4f6d_85c4_30c1;
const FINETUNE_B32: u64 = 0xae0c_7822_f409_0d9a;

/// Why this host cannot reproduce the recorded bits, if it cannot.
fn why_skip() -> Option<&'static str> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        let fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        (!fma).then_some("the recorded bits need a CPU with AVX2 and FMA")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        Some("the recorded bits need x86_64 Linux with glibc's libm")
    }
}

/// The giant and the handle to the slopes its PLT decays.
fn giant() -> (TinyNet, ExpansionHandle) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut model = TinyNet::new(mobilenet_v2_tiny(4), &mut rng);
    let handle = expand(&mut model, &ExpansionPlan::paper_default(), &mut rng);
    (model, handle)
}

fn batch(size: usize) -> Batch {
    let data = SyntheticVision::new(
        "training-bits",
        Family::Objects,
        4,
        32,
        IMAGES,
        Nuisance::easy(),
        SEED,
        Split::Train,
    );
    DataLoader::new(&data, size)
        .epoch_iter(0)
        .next()
        .expect("a training batch")
}

/// FNV-1a over 32-bit words.
fn fnv(h: &mut u64, word: u32) {
    for b in word.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// One taped training step of `model` on `batch`: the digest of the loss's
/// bits and of every parameter gradient's, in parameter order.
fn step_digest(model: &TinyNet, batch: &Batch) -> u64 {
    let params = model.parameters();
    for p in &params {
        p.zero_grad();
    }
    let mut s = Session::new(true);
    let x = s.input(batch.images.clone());
    let logits = model.forward(&mut s, x);
    let loss = s.graph.softmax_cross_entropy(logits, &batch.labels, 0.0);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, s.value(loss).as_slice()[0].to_bits());
    s.backward(loss);
    for p in &params {
        for v in p.grad().as_slice() {
            fnv(&mut h, v.to_bits());
        }
    }
    h
}

#[test]
fn taped_training_steps_keep_their_bits() {
    if let Some(why) = why_skip() {
        println!("skipped: {why}");
        return;
    }
    let (model, handle) = giant();
    let giant_b8 = step_digest(&model, &batch(8));
    let b32 = batch(32);
    for s in &handle.slopes {
        s.set(0.5);
    }
    let plt_b32 = step_digest(&model, &b32);
    for s in &handle.slopes {
        s.set(1.0);
    }
    let mut tiny = model;
    contract_model(&mut tiny);
    let finetune_b32 = step_digest(&tiny, &b32);
    assert_eq!(
        [giant_b8, plt_b32, finetune_b32],
        [GIANT_B8, PLT_B32, FINETUNE_B32],
        "training bits moved: got [{giant_b8:#018x}, {plt_b32:#018x}, {finetune_b32:#018x}]"
    );
}
