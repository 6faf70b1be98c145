//! Dynamic-batching primitives: coalesce single-sample requests into one
//! batched tensor, replay the plan once, and split the batched output back
//! into per-request tensors.
//!
//! Coalescing is a pure memory concatenation along a new leading batch
//! dimension, and every kernel the compiled plan replays is per-sample
//! independent in its batch dimension: convolutions, depthwise, pooling
//! and GAP loop over samples, and a linear layer's GEMM runs the same
//! blocked schedule at every batch, where each output element's bits
//! depend only on its own input row, its weight column and `k` (int8
//! linears accumulate exactly). So a coalesced request's slice of the
//! batched output is **bitwise identical** to running that request alone
//! at batch 1, for f32 and int8 plans alike. The property suite in
//! `tests/serve.rs` holds the server to exactly that, and the workspace
//! test `tests/batch_invariance.rs` holds the Table I tenants to it at
//! batches 1–16.

use nb_tensor::Tensor;

/// Concatenates per-request sample tensors (each `[c, h, w]`-shaped, or
/// any common per-sample shape) into one `[n, ...]` batch.
///
/// # Panics
///
/// Panics on an empty slice or mismatched per-sample dims.
pub fn coalesce(samples: &[Tensor]) -> Tensor {
    assert!(!samples.is_empty(), "coalesce needs at least one sample");
    let sample_dims = samples[0].dims().to_vec();
    let unit: usize = sample_dims.iter().product();
    let mut data = Vec::with_capacity(unit * samples.len());
    for s in samples {
        assert_eq!(
            s.dims(),
            &sample_dims[..],
            "coalesced samples must share per-sample dims"
        );
        data.extend_from_slice(s.as_slice());
    }
    let mut dims = Vec::with_capacity(sample_dims.len() + 1);
    dims.push(samples.len());
    dims.extend_from_slice(&sample_dims);
    Tensor::from_vec(data, dims).expect("coalesced batch shape")
}

/// Splits a `[n, ...]` batched output into `n` per-request tensors of
/// shape `[1, ...]` (matching what a batch-1 run of the same request
/// produces).
///
/// # Panics
///
/// Panics if `batch`'s leading dim is not `n`.
pub fn split_batch(batch: &Tensor, n: usize) -> Vec<Tensor> {
    assert_eq!(batch.dims()[0], n, "split_batch count mismatch");
    let unit: usize = batch.dims()[1..].iter().product();
    let mut dims = batch.dims().to_vec();
    dims[0] = 1;
    let data = batch.as_slice();
    (0..n)
        .map(|i| {
            Tensor::from_vec(data[i * unit..(i + 1) * unit].to_vec(), dims.clone())
                .expect("split sample shape")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coalesce_then_split_round_trips() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<Tensor> = (0..5).map(|_| Tensor::randn([3, 4, 4], &mut rng)).collect();
        let batch = coalesce(&samples);
        assert_eq!(batch.dims(), &[5, 3, 4, 4]);
        let back = split_batch(&batch, 5);
        for (orig, got) in samples.iter().zip(&back) {
            assert_eq!(got.dims(), &[1, 3, 4, 4]);
            assert_eq!(orig.as_slice(), got.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "share per-sample dims")]
    fn mismatched_sample_dims_panic() {
        let a = Tensor::zeros([3, 4, 4]);
        let b = Tensor::zeros([3, 4, 5]);
        coalesce(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_coalesce_panics() {
        coalesce(&[]);
    }
}
