//! # nb-autograd
//!
//! Tape-based reverse-mode automatic differentiation over [`nb_tensor`]
//! tensors, covering exactly the op set the NetBooster reproduction needs:
//! convolutions (dense and depthwise), batch normalization, the *decayable*
//! activations that Progressive Linearization Tuning sweeps, pooling, and
//! classification/distillation/detection losses.
//!
//! A [`Graph`] is a single-use tape: create one per training step, record
//! the forward pass through its op methods, call [`Graph::backward`], then
//! read gradients off the leaves.
//!
//! ## Example
//!
//! ```
//! use nb_autograd::Graph;
//! use nb_tensor::{ConvGeometry, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::randn([2, 3, 8, 8], &mut rng));
//! let w = g.leaf(Tensor::randn([4, 3, 3, 3], &mut rng).scale(0.1), true);
//! let y = g.conv2d(x, w, None, ConvGeometry::same(3, 1));
//! let y = g.relu_decay(y, 0.0);
//! let pooled = g.global_avg_pool(y);
//! let loss = g.softmax_cross_entropy(pooled, &[1, 3], 0.0);
//! g.backward(loss);
//! assert_eq!(g.grad(w).unwrap().dims(), &[4, 3, 3, 3]);
//! ```

#![warn(missing_docs)]

mod backward;
mod check;
mod graph;
mod loss;
mod ops;
mod optime;
mod reduce;

pub use check::{grad_check, GradCheckReport};
pub use graph::{nodes_allocated, Graph, Value};
pub use loss::softmax_rows;
pub use ops::BnBatchStats;
pub use optime::{OpKind, OpTime, OpTimes};
pub use reduce::{extract_grads, tree_reduce, GradSet};
