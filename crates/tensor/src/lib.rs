//! # nb-tensor
//!
//! Dense `f32` tensors and the numeric kernels underneath the NetBooster
//! reproduction stack: elementwise math, matrix multiplication, dense and
//! depthwise 2-D convolution (with gradients), and pooling.
//!
//! Everything is CPU-only, contiguous, and row-major (`NCHW` for images).
//!
//! ## Threading and memory model
//!
//! Heavy kernels are data-parallel over a **persistent, process-wide worker
//! pool** ([`threadpool`]): workers are spawned lazily on first use and then
//! sleep between jobs, so going parallel costs a queue push instead of a
//! thread spawn. The pool width defaults to the machine parallelism and can
//! be pinned with the `NB_NUM_THREADS` environment variable (read once, at
//! first use; `NB_NUM_THREADS=1` disables worker threads entirely).
//! [`with_thread_cap`] lowers the width per-thread for the duration of a
//! closure, which is how tests compare thread counts within one process.
//!
//! Matrix multiplication uses a cache-blocked, packed GEMM
//! ([`gemm`](mod@gemm)): a 4x8 register-tile microkernel over `MC x KC`
//! packed A blocks and `KC x NC` packed B strips, with transposed operands
//! handled at pack time so `matmul`, `matmul_nt`, and `matmul_tn` share one
//! kernel. Every f32 GEMM, whatever its shape, runs that one blocked
//! schedule; only whether its rows split across the pool depends on the
//! shape. The depthwise stencils run their AVX2 row-strip kernels wherever
//! the host has AVX2 and the geometry has one ([`depthwise`]). The
//! convolution *forward* is an **implicit GEMM**: the packing loop reads
//! the input image through a virtual im2col layout, so the
//! `[c_in*kh*kw, ho*wo]` column matrix is never materialized — only the
//! backward pass still lowers explicitly.
//! Packing panels and the backward-path column matrices live in
//! **thread-local scratch buffers** that grow to a high-water mark and are
//! reused, so steady-state training steps perform no kernel-side heap
//! allocation beyond output tensors. The convolution bias is fused into the
//! GEMM epilogue (outputs are initialized from the bias rather than zero).
//!
//! Tensor storage is `Arc`-backed copy-on-write: `Tensor::clone` and
//! `reshape` are O(1) buffer shares, and a shared buffer is copied only at
//! the first mutation. This is what makes parameter binding on the autograd
//! tape clone-free. The shared elementwise forward kernels in [`eltwise`]
//! are the single source of truth for pointwise layer math and batch norm,
//! so the taped and compiled execution paths produce bitwise-identical
//! activations.
//!
//! **Determinism:** every GEMM output element is produced by exactly one
//! thread with a fixed k-accumulation order that depends only on `k`, so
//! matmul results are bitwise identical for any thread count, and each
//! element's bits are independent of how many other rows and columns the
//! call computes (batch size, strip width). Convolution input gradients are
//! per-sample and equally thread-count-invariant, and depthwise `dw`/`db`
//! and the batch-norm statistics and gradients ([`eltwise`]) are
//! channel-owned (fully width-invariant); the dense conv `dw`/`db`
//! reductions sum per-chunk partials in a fixed chunk order, which is
//! deterministic for a given pool width (run-to-run) but may round
//! differently across widths.
//!
//! ## Example
//!
//! ```
//! use nb_tensor::{conv2d, ConvGeometry, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let image = Tensor::randn([1, 3, 8, 8], &mut rng);     // NCHW
//! let weight = Tensor::randn([16, 3, 3, 3], &mut rng);    // [out,in,kh,kw]
//! let feature = conv2d(&image, &weight, None, ConvGeometry::same(3, 2));
//! assert_eq!(feature.dims(), &[1, 16, 4, 4]);
//! ```

#![warn(missing_docs)]

mod conv;
pub mod depthwise;
pub mod eltwise;
mod error;
pub mod gemm;
mod matmul;
mod pool;
pub mod qgemm;
mod shape;
mod simd;
mod tensor;
pub mod threadpool;

pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_into, conv2d_packed_into, conv2d_pointwise_mat_into,
    depthwise_conv2d, depthwise_conv2d_backward, depthwise_conv2d_fused_into, im2col,
};
pub use depthwise::{dw_channel_rows, qdepthwise_conv2d_into, qdw_channel_rows, QDepthwiseW};
pub use eltwise::Epilogue;
pub use error::TensorError;
pub use gemm::{gemm, gemm_b_packed, PackedA, PackedB};
pub use matmul::{available_threads, matmul_into};
pub use pool::{
    avgpool2d, avgpool2d_backward, global_avg_pool, global_avg_pool_backward, maxpool2d,
    maxpool2d_backward,
};
pub use qgemm::{
    activation_scale, max_abs, qgemm_conv, qgemm_conv_mat, qgemm_conv_mat_requant, qgemm_linear,
    quantize_activations, QIm2colRef, QOut, QPackedW, Q_ZERO,
};
pub use shape::{ConvGeometry, Shape};
pub use tensor::Tensor;
pub use threadpool::{num_threads, parallel_for, with_thread_cap};
