//! Finite-difference gradient checking.
//!
//! Used by this crate's own tests and by downstream crates to validate new
//! layers: build the same scalar loss twice around a perturbed input and
//! compare the analytic gradient to the central difference.

use crate::graph::{Graph, Value};
use nb_tensor::Tensor;

/// Result of a gradient check: the worst relative error and where it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest relative error over all probed coordinates.
    pub max_rel_err: f32,
    /// Flat index of the worst coordinate.
    pub worst_index: usize,
    /// Analytic derivative at the worst coordinate.
    pub analytic: f32,
    /// Numeric derivative at the worst coordinate.
    pub numeric: f32,
}

impl GradCheckReport {
    /// True when the worst relative error is at most `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Checks the gradient of a scalar-valued graph function with respect to one
/// input tensor.
///
/// `f` receives a graph and a leaf for the (possibly perturbed) input and
/// must return a scalar loss value. The analytic gradient is compared
/// against central finite differences at every coordinate (or a strided
/// subset when the tensor has more than `max_probes` entries).
///
/// The actual step at coordinate `i` is `eps * (1 + |x_i|)`: a fixed step
/// is catastrophically cancelled for large-magnitude parameters (the loss
/// difference drops below f32 resolution) and disproportionately large for
/// tiny ones. The difference quotient divides by the *representable* step
/// `(x_i + h) - (x_i - h)` as rounded to f32, removing the quantization
/// component of the error.
///
/// # Panics
///
/// Panics if `f` does not return a scalar or produces no gradient for the
/// input.
pub fn grad_check(
    input: &Tensor,
    eps: f32,
    max_probes: usize,
    mut f: impl FnMut(&mut Graph, Value) -> Value,
) -> GradCheckReport {
    // analytic pass
    let mut g = Graph::new();
    let x = g.leaf(input.clone(), true);
    let loss = f(&mut g, x);
    g.backward(loss);
    let analytic = g
        .grad(x)
        .expect("grad_check: input received no gradient")
        .clone();

    let n = input.numel();
    let stride = n.div_ceil(max_probes).max(1);
    let mut report = GradCheckReport {
        max_rel_err: 0.0,
        worst_index: 0,
        analytic: 0.0,
        numeric: 0.0,
    };
    let mut probe = |i: usize, report: &mut GradCheckReport| {
        let mut eval = |t: &Tensor| -> f32 {
            let mut g = Graph::new();
            let x = g.leaf(t.clone(), false);
            let loss = f(&mut g, x);
            g.value(loss).item()
        };
        let xi = input.as_slice()[i];
        let h = eps * (1.0 + xi.abs());
        let mut plus = input.clone();
        plus.as_mut_slice()[i] = xi + h;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] = xi - h;
        let step = plus.as_slice()[i] - minus.as_slice()[i];
        let numeric = (eval(&plus) - eval(&minus)) / step;
        let a = analytic.as_slice()[i];
        let rel = (a - numeric).abs() / (1.0 + a.abs().max(numeric.abs()));
        if rel > report.max_rel_err {
            *report = GradCheckReport {
                max_rel_err: rel,
                worst_index: i,
                analytic: a,
                numeric,
            };
        }
    };
    for i in (0..n).step_by(stride) {
        probe(i, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_tensor::ConvGeometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn conv2d_input_gradient() {
        let mut r = rng();
        let x = Tensor::randn([2, 3, 6, 6], &mut r);
        let w = Tensor::randn([4, 3, 3, 3], &mut r);
        let b = Tensor::randn([4], &mut r);
        let geom = ConvGeometry::same(3, 2);
        let rep = grad_check(&x, 1e-2, 40, |g, xin| {
            let wv = g.constant(w.clone());
            let bv = g.constant(b.clone());
            let y = g.conv2d(xin, wv, Some(bv), geom);
            g.mean_all(y)
        });
        assert!(rep.passes(2e-2), "{rep:?}");
    }

    #[test]
    fn conv2d_weight_gradient() {
        let mut r = rng();
        let x = Tensor::randn([2, 2, 5, 5], &mut r);
        let w = Tensor::randn([3, 2, 3, 3], &mut r);
        let geom = ConvGeometry::same(3, 1);
        let rep = grad_check(&w, 1e-2, 54, |g, win| {
            let xv = g.constant(x.clone());
            let y = g.conv2d(xv, win, None, geom);
            g.mean_all(y)
        });
        assert!(rep.passes(2e-2), "{rep:?}");
    }

    #[test]
    fn depthwise_gradient() {
        let mut r = rng();
        let x = Tensor::randn([2, 3, 5, 5], &mut r);
        let w = Tensor::randn([3, 3, 3], &mut r);
        let geom = ConvGeometry::same(3, 1);
        let rep = grad_check(&w, 1e-2, 27, |g, win| {
            let xv = g.constant(x.clone());
            let y = g.depthwise_conv2d(xv, win, None, geom);
            g.mean_all(y)
        });
        assert!(rep.passes(2e-2), "{rep:?}");
        let rep = grad_check(&x, 1e-2, 30, |g, xin| {
            let wv = g.constant(w.clone());
            let y = g.depthwise_conv2d(xin, wv, None, geom);
            g.mean_all(y)
        });
        assert!(rep.passes(2e-2), "{rep:?}");
    }

    #[test]
    fn matmul_nt_gradient() {
        let mut r = rng();
        let x = Tensor::randn([4, 6], &mut r);
        let w = Tensor::randn([5, 6], &mut r);
        let rep = grad_check(&x, 1e-2, 24, |g, xin| {
            let wv = g.constant(w.clone());
            let y = g.matmul_nt(xin, wv);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "{rep:?}");
        let rep = grad_check(&w, 1e-2, 30, |g, win| {
            let xv = g.constant(x.clone());
            let y = g.matmul_nt(xv, win);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "{rep:?}");
    }

    #[test]
    fn batch_norm_train_gradient() {
        let mut r = rng();
        let x = Tensor::randn([4, 2, 3, 3], &mut r);
        let gamma = Tensor::rand_uniform([2], 0.5, 1.5, &mut r);
        let beta = Tensor::randn([2], &mut r);
        let rep = grad_check(&x, 1e-2, 40, |g, xin| {
            let ga = g.constant(gamma.clone());
            let be = g.constant(beta.clone());
            let (y, _) = g.batch_norm_train(xin, ga, be, 1e-5);
            // weight the output so the grad isn't trivially uniform
            let wts = g.constant(Tensor::from_fn([4, 2, 3, 3], |i| (i % 7) as f32 - 3.0));
            let y = g.mul(y, wts);
            g.mean_all(y)
        });
        assert!(rep.passes(3e-2), "{rep:?}");
        let rep = grad_check(&gamma, 1e-3, 2, |g, gin| {
            let xv = g.constant(x.clone());
            let be = g.constant(beta.clone());
            let (y, _) = g.batch_norm_train(xv, gin, be, 1e-5);
            let wts = g.constant(Tensor::from_fn([4, 2, 3, 3], |i| (i % 5) as f32));
            let y = g.mul(y, wts);
            g.mean_all(y)
        });
        assert!(rep.passes(2e-2), "{rep:?}");
    }

    #[test]
    fn batch_norm_eval_gradient() {
        let mut r = rng();
        let x = Tensor::randn([2, 2, 3, 3], &mut r);
        let gamma = Tensor::rand_uniform([2], 0.5, 1.5, &mut r);
        let beta = Tensor::randn([2], &mut r);
        let rm = Tensor::randn([2], &mut r);
        let rv = Tensor::rand_uniform([2], 0.5, 2.0, &mut r);
        let rep = grad_check(&x, 1e-2, 36, |g, xin| {
            let ga = g.constant(gamma.clone());
            let be = g.constant(beta.clone());
            let y = g.batch_norm_eval(xin, ga, be, &rm, &rv, 1e-5);
            let wts = g.constant(Tensor::from_fn([2, 2, 3, 3], |i| (i % 3) as f32));
            let y = g.mul(y, wts);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "{rep:?}");
    }

    #[test]
    fn relu_decay_gradient_mid_alpha() {
        let mut r = rng();
        let x = Tensor::randn([64], &mut r);
        for &alpha in &[0.0, 0.3, 0.7, 1.0] {
            let rep = grad_check(&x, 1e-3, 64, |g, xin| {
                let y = g.relu_decay(xin, alpha);
                let w = g.constant(Tensor::from_fn([64], |i| (i as f32 - 30.0) / 10.0));
                let y = g.mul(y, w);
                g.mean_all(y)
            });
            assert!(rep.passes(2e-2), "alpha {alpha}: {rep:?}");
        }
    }

    #[test]
    fn relu6_decay_gradient() {
        let mut r = rng();
        let x = Tensor::rand_uniform([64], -8.0, 10.0, &mut r);
        for &alpha in &[0.0, 0.5, 1.0] {
            let rep = grad_check(&x, 1e-3, 64, |g, xin| {
                let y = g.relu6_decay(xin, alpha);
                let w = g.constant(Tensor::from_fn([64], |i| (i as f32 - 30.0) / 10.0));
                let y = g.mul(y, w);
                g.mean_all(y)
            });
            assert!(rep.passes(2e-2), "alpha {alpha}: {rep:?}");
        }
    }

    #[test]
    fn pooling_gradients() {
        let mut r = rng();
        let x = Tensor::randn([1, 2, 6, 6], &mut r);
        let geom = ConvGeometry::square(2, 2, 0);
        let rep = grad_check(&x, 1e-2, 36, |g, xin| {
            let y = g.avg_pool(xin, geom);
            let w = g.constant(Tensor::from_fn([1, 2, 3, 3], |i| i as f32 / 5.0));
            let y = g.mul(y, w);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "avg: {rep:?}");
        let rep = grad_check(&x, 1e-3, 36, |g, xin| {
            let y = g.max_pool(xin, geom);
            let w = g.constant(Tensor::from_fn([1, 2, 3, 3], |i| i as f32 / 5.0));
            let y = g.mul(y, w);
            g.mean_all(y)
        });
        assert!(rep.passes(2e-2), "max: {rep:?}");
        let rep = grad_check(&x, 1e-2, 36, |g, xin| {
            let y = g.global_avg_pool(xin);
            let w = g.constant(Tensor::from_fn([1, 2], |i| i as f32 + 1.0));
            let y = g.mul(y, w);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "gap: {rep:?}");
    }

    #[test]
    fn softmax_cross_entropy_gradient() {
        let mut r = rng();
        let logits = Tensor::randn([4, 5], &mut r);
        for &s in &[0.0f32, 0.1] {
            let rep = grad_check(&logits, 1e-2, 20, |g, lin| {
                g.softmax_cross_entropy(lin, &[0, 2, 4, 1], s)
            });
            assert!(rep.passes(1e-2), "smoothing {s}: {rep:?}");
        }
    }

    #[test]
    fn kd_loss_gradient() {
        let mut r = rng();
        let logits = Tensor::randn([3, 4], &mut r);
        let teacher = crate::loss::softmax_rows(&Tensor::randn([3, 4], &mut r));
        let rep = grad_check(&logits, 1e-2, 12, |g, lin| g.kd_kl_loss(lin, &teacher, 4.0));
        assert!(rep.passes(1e-2), "{rep:?}");
    }

    #[test]
    fn detection_loss_gradients() {
        let mut r = rng();
        let logits = Tensor::randn([12], &mut r);
        let targets = Tensor::rand_uniform([12], 0.0, 1.0, &mut r).map(|v| v.round());
        let mask = Tensor::from_fn([12], |i| if i % 3 == 0 { 0.0 } else { 1.0 });
        let rep = grad_check(&logits, 1e-2, 12, |g, lin| {
            g.bce_with_logits(lin, &targets, &mask)
        });
        assert!(rep.passes(1e-2), "bce: {rep:?}");
        let pred = Tensor::randn([12], &mut r).scale(2.0);
        let rep = grad_check(&pred, 1e-3, 12, |g, pin| g.smooth_l1(pin, &targets, &mask));
        assert!(rep.passes(2e-2), "smooth_l1: {rep:?}");
    }

    #[test]
    fn eps_scales_with_parameter_magnitude() {
        // with a fixed step of 1e-3, a quadratic loss over order-1e3 inputs
        // has a loss difference of ~2e-6 relative to the loss itself —
        // below f32 resolution, so the numeric derivative quantizes to
        // garbage. the magnitude-scaled step keeps the check meaningful.
        let mut r = rng();
        let big = Tensor::from_fn([16], |i| {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            sign * (800.0 + 50.0 * i as f32)
        });
        let rep = grad_check(&big, 1e-3, 16, |g, xin| {
            let y = g.mul(xin, xin);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "large magnitude: {rep:?}");
        // and a tiny-magnitude input must not be swamped by the step either
        let small = Tensor::randn([16], &mut r).scale(1e-4);
        let rep = grad_check(&small, 1e-3, 16, |g, xin| {
            let w = g.constant(Tensor::from_fn([16], |i| i as f32 - 7.5));
            let y = g.mul(xin, w);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "small magnitude: {rep:?}");
    }

    #[test]
    fn mse_between_gradient_both_sides() {
        let mut r = rng();
        let a = Tensor::randn([8], &mut r);
        let b = Tensor::randn([8], &mut r);
        let rep = grad_check(&a, 1e-3, 8, |g, ain| {
            let bv = g.leaf(b.clone(), true);
            g.mse_between(ain, bv)
        });
        assert!(rep.passes(1e-2), "a side: {rep:?}");
        let rep = grad_check(&b, 1e-3, 8, |g, bin| {
            let av = g.constant(a.clone());
            g.mse_between(av, bin)
        });
        assert!(rep.passes(1e-2), "b side: {rep:?}");
    }

    #[test]
    fn bias_gradients() {
        let mut r = rng();
        let b = Tensor::randn([3], &mut r);
        let x2 = Tensor::randn([4, 3], &mut r);
        let rep = grad_check(&b, 1e-3, 3, |g, bin| {
            let xv = g.constant(x2.clone());
            let y = g.add_bias2(xv, bin);
            let w = g.constant(Tensor::from_fn([4, 3], |i| i as f32 / 3.0));
            let y = g.mul(y, w);
            g.mean_all(y)
        });
        assert!(rep.passes(1e-2), "bias2: {rep:?}");
    }
}
