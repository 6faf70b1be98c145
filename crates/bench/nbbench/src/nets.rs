//! The networks and inputs the workloads draw from, all derived from the
//! run's seed: the MobileNetV2-Tiny and MCUNet-like configurations of paper
//! Table I (`nb_bench::table1_zoo`) at a 32x32 input, their f32 and int8
//! compiled plans, and synthetic images.

use nb_data::recipe::{Family, Nuisance};
use nb_data::{Dataset, Split, SyntheticVision};
use nb_models::{TinyNet, TnnConfig};
use nb_nn::{quant_calib_batches, CompiledPlan, Module};
use nb_tensor::Tensor;
use netbooster_core::{contract_model, expand, ExpansionPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-sample input shape.
pub const IMAGE: [usize; 3] = [3, 32, 32];
/// Classifier width of the inference nets.
pub const CLASSES: usize = 10;

/// Which Table I network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// MobileNetV2-Tiny, 3x3 depthwise throughout.
    Tiny,
    /// The MCUNet-like searched net, with 3x3, 5x5 and 7x7 depthwise.
    Mcunet,
}

/// Numeric format of a compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// `CompiledPlan::compile`.
    F32,
    /// `CompiledPlan::compile_quantized` (int8 post-training quantized).
    I8,
}

/// One of the four deployed plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanKind {
    /// The network.
    pub net: Net,
    /// Its numeric format.
    pub prec: Precision,
}

/// The four plans `infer-b1` replays, in round-robin order.
pub const PLANS: [PlanKind; 4] = [
    PlanKind {
        net: Net::Tiny,
        prec: Precision::F32,
    },
    PlanKind {
        net: Net::Tiny,
        prec: Precision::I8,
    },
    PlanKind {
        net: Net::Mcunet,
        prec: Precision::F32,
    },
    PlanKind {
        net: Net::Mcunet,
        prec: Precision::I8,
    },
];

impl PlanKind {
    /// Metric-name suffix, e.g. `tiny_f32`.
    pub fn name(self) -> &'static str {
        match (self.net, self.prec) {
            (Net::Tiny, Precision::F32) => "tiny_f32",
            (Net::Tiny, Precision::I8) => "tiny_i8",
            (Net::Mcunet, Precision::F32) => "mcunet_f32",
            (Net::Mcunet, Precision::I8) => "mcunet_i8",
        }
    }
}

/// The Table I configuration of `net`.
pub fn config(net: Net) -> TnnConfig {
    let mut zoo = nb_bench::table1_zoo(CLASSES);
    let index = match net {
        Net::Tiny => 0,
        Net::Mcunet => 1,
    };
    zoo.swap_remove(index).1
}

/// The network as deployed. Tiny goes through the NetBooster path: built,
/// expanded into its deep giant, linearized (every PLT slope at 1) and
/// contracted back. MCUNet is used as built. Weights are untrained; the
/// timing and the checks do not depend on them.
pub fn build(net: Net, seed: u64) -> TinyNet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = TinyNet::new(config(net), &mut rng);
    if net == Net::Tiny {
        let handle = expand(&mut model, &ExpansionPlan::paper_default(), &mut rng);
        for slope in &handle.slopes {
            slope.set(1.0);
        }
        contract_model(&mut model);
    }
    model
}

/// The same architecture built directly, never expanded.
pub fn vanilla(net: Net, seed: u64) -> TinyNet {
    TinyNet::new(config(net), &mut StdRng::seed_from_u64(seed))
}

fn dataset(seed: u64, n: usize, split: Split) -> SyntheticVision {
    SyntheticVision::new(
        "nbbench",
        Family::Objects,
        CLASSES,
        IMAGE[1],
        n,
        Nuisance::standard(),
        seed,
        split,
    )
}

/// `n` synthetic validation images, each `[1, 3, 32, 32]`.
pub fn images(seed: u64, n: usize) -> Vec<Tensor> {
    let data = dataset(seed, n, Split::Val);
    (0..n)
        .map(|i| data.get(i).0.reshape([1, IMAGE[0], IMAGE[1], IMAGE[2]]))
        .collect()
}

/// Stacks `[1, ...]` images into one `[n, ...]` batch.
pub fn stack(images: &[Tensor]) -> Tensor {
    Tensor::stack0(images).reshape([images.len(), IMAGE[0], IMAGE[1], IMAGE[2]])
}

/// The int8 calibration set: `quant_calib_batches()` batches of 8 training
/// images.
pub fn calibration(seed: u64) -> Vec<Tensor> {
    let batches = quant_calib_batches();
    let data = dataset(seed, batches * 8, Split::Train);
    let all: Vec<Tensor> = (0..data.len())
        .map(|i| data.get(i).0.reshape([1, IMAGE[0], IMAGE[1], IMAGE[2]]))
        .collect();
    all.chunks(8).map(stack).collect()
}

/// Compiles `model` for batch `batch` in `prec`.
pub fn compile(model: &TinyNet, prec: Precision, batch: usize, calib: &[Tensor]) -> CompiledPlan {
    let dims = [batch, IMAGE[0], IMAGE[1], IMAGE[2]];
    match prec {
        Precision::F32 => CompiledPlan::compile(&dims, |f, x| model.forward(f, x)),
        Precision::I8 => CompiledPlan::compile_quantized(&dims, calib, |f, x| model.forward(f, x)),
    }
}

/// Builds `kind`'s network and calibration set from `seed` and compiles
/// it: everything a serving factory does on a cache miss.
pub fn build_plan(kind: PlanKind, seed: u64, batch: usize) -> CompiledPlan {
    let model = build(kind.net, seed);
    let calib = match kind.prec {
        Precision::F32 => Vec::new(),
        Precision::I8 => calibration(seed),
    };
    compile(&model, kind.prec, batch, &calib)
}

/// Normalized max-abs divergence `max|a - b| / (1 + max|b|)`, the measure
/// nb-verify's contraction audit uses.
pub fn norm_div(a: &Tensor, b: &Tensor) -> f32 {
    let scale = 1.0 + b.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    a.max_abs_diff(b) / scale
}

/// Whether two tensors have the same shape and bits.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contracted_tiny_keeps_the_vanilla_architecture() {
        let c = build(Net::Tiny, 1);
        assert_eq!(c.expanded_count(), 0);
        assert_eq!(c.profile(32).flops, vanilla(Net::Tiny, 1).profile(32).flops);
        assert_eq!(config(Net::Mcunet).name, "mcunet");
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = images(3, 2);
        assert_eq!(a[0].dims(), &[1, 3, 32, 32]);
        assert!(bitwise_eq(&a[1], &images(3, 2)[1]));
        assert!(!bitwise_eq(&a[1], &images(4, 2)[1]));
        assert_eq!(stack(&a).dims(), &[2, 3, 32, 32]);
        let calib = calibration(3);
        assert_eq!(calib.len(), quant_calib_batches());
        assert_eq!(calib[0].dims(), &[8, 3, 32, 32]);
    }
}
