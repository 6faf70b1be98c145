//! # netbooster
//!
//! A from-scratch Rust reproduction of **"NetBooster: Empowering Tiny Deep
//! Learning By Standing on the Shoulders of Deep Giants"** (DAC 2023):
//! expansion-then-contraction training for tiny neural networks, together
//! with the full substrate it needs (tensors, autograd, layers, optimizers,
//! synthetic datasets, MobileNetV2/MCUNet models) and every baseline the
//! paper compares against (NetAug, KD, tf-KD, RCO-KD, Rocket Launching).
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names. See `README.md` for a tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```no_run
//! use netbooster::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let data = synthetic_imagenet(Scale::Smoke);
//! let cfg = NetBoosterConfig::with_epochs(2, 1, 1, TrainConfig::default());
//! let mut rng = StdRng::seed_from_u64(0);
//! let out = netbooster_train(
//!     &mobilenet_v2_tiny(data.train.num_classes()),
//!     &data.train,
//!     &data.val,
//!     &cfg,
//!     &mut rng,
//! );
//! println!("final accuracy: {:.1}%", out.final_acc);
//! ```

#![warn(missing_docs)]

/// Dense tensors and numeric kernels.
pub use nb_tensor as tensor;

/// Tape-based reverse-mode autodiff.
pub use nb_autograd as autograd;

/// Layers, modules, parameters, and checkpointing.
pub use nb_nn as nn;

/// Optimizers and learning-rate schedules.
pub use nb_optim as optim;

/// Synthetic datasets, augmentation, and loading.
pub use nb_data as data;

/// Network architectures (MobileNetV2 family, MCUNet-style, detector).
pub use nb_models as models;

/// The NetBooster pipeline and baselines.
pub use netbooster_core as core;

/// Metrics and experiment-table reporting.
pub use nb_metrics as metrics;

/// Correctness subsystem: differential kernel oracles, contraction
/// exactness audits, and the seed-sweep harness.
pub use nb_verify as verify;

/// Multi-tenant batched inference server over shared compiled plans.
pub use nb_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use nb_data::{
        downstream_suite, synthetic_imagenet, Augment, DataLoader, Dataset, DatasetPair, Scale,
        Split, SyntheticVision, SyntheticVoc,
    };
    pub use nb_metrics::{ap50, Accuracy, TextTable};
    pub use nb_models::{
        mcunet_like, mobilenet_v2_100, mobilenet_v2_35, mobilenet_v2_50, mobilenet_v2_tiny,
        summarize, DetectorNet, TinyNet, TnnConfig,
    };
    pub use nb_nn::{Forward, Module, Parameter, Session, StateDict};
    pub use nb_optim::{CosineAnneal, LrSchedule, Sgd, SgdConfig};
    pub use nb_tensor::{ConvGeometry, Shape, Tensor};
    pub use netbooster_core::{
        contract_model, expand, linear_probe_transfer, netbooster_train, netbooster_transfer,
        seed_sweep, train_netaug, train_vanilla, BlockKind, DecayCurve, ExpansionPlan, KdConfig,
        NetAugConfig, NetBoosterConfig, Placement, SweepCriterion, TrainConfig,
    };
}
