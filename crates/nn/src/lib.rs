//! # nb-nn
//!
//! Neural-network layers over [`nb_autograd`]: convolutions, batch norm,
//! decayable activations (the handle Progressive Linearization Tuning
//! drives), linear and pooling layers, a [`Sequential`] container, weight
//! initialization, and state-dict checkpointing.
//!
//! The central abstractions are [`Module`] (a differentiable function with
//! named parameters) and [`Forward`] (one execution path's view of a
//! forward pass). There are two executors. The taped [`Session`] records
//! one training step's tape plus the parameter bindings into it, and runs
//! eval forwards on the same tape. The [`CompiledPlan`] is the inference
//! path, compiled once per model from a [`Forward`] recording of the same
//! `Module::forward`: batch-norm folding, activation fusion, prepacked GEMM
//! weights, and a static activation arena.
//!
//! ## Example
//!
//! ```
//! use nb_nn::{layers::{ActKind, Activation, Linear}, Module, Sequential, Session};
//! use nb_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Sequential::new()
//!     .push(Linear::new(8, 16, true, &mut rng))
//!     .push(Activation::new(ActKind::Relu))
//!     .push(Linear::new(16, 4, true, &mut rng));
//! let mut s = Session::new(true);
//! let x = s.input(Tensor::randn([2, 8], &mut rng));
//! let logits = mlp.forward(&mut s, x);
//! let loss = s.graph.softmax_cross_entropy(logits, &[0, 3], 0.0);
//! s.backward(loss);
//! assert!(mlp.parameters().iter().all(|p| p.grad().abs_sum() >= 0.0));
//! ```

#![warn(missing_docs)]

pub mod fold;
mod forward;
pub mod init;
pub mod layers;
mod module;
mod param;
pub mod plan;
mod sequential;
mod state;

pub use fold::{fold_bn, fold_bn_depthwise};
pub use forward::Forward;
pub use module::{join_name, BnRecord, Module, Session};
pub use param::Parameter;
pub use plan::{quant_calib_batches, CompiledPlan, PlanArena, PlanOptions, QuantPolicy};
pub use sequential::Sequential;
pub use state::{copy_params, named_parameters, StateDict};
