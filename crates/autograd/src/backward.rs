//! The reverse pass: propagates gradients from a scalar loss to every leaf.

use crate::graph::{Graph, Node, Op, Value};
use nb_tensor::{
    avgpool2d_backward, conv2d_backward, depthwise_conv2d_backward, eltwise,
    global_avg_pool_backward, maxpool2d_backward, Tensor,
};
use std::time::Instant;

/// Whether node `v` takes a gradient; arms compute an input's gradient
/// only when it does.
fn wants(nodes: &[Node], v: Value) -> bool {
    nodes[v.0].requires_grad
}

fn accumulate_into(nodes: &mut [Node], v: Value, g: Tensor) {
    let node = &mut nodes[v.0];
    if !node.requires_grad {
        return;
    }
    match &mut node.grad {
        Some(acc) => acc.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

impl Graph {
    /// Runs reverse-mode differentiation from `loss` (which must be scalar),
    /// accumulating gradients into every node that requires them.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Value) {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward() requires a scalar loss, got {}",
            self.nodes[loss.0].value.shape()
        );
        let seed = Tensor::from_vec(vec![1.0], self.nodes[loss.0].value.shape().clone())
            .expect("scalar seed");
        // Seed directly (even if the loss node is itself a leaf).
        {
            let node = &mut self.nodes[loss.0];
            match &mut node.grad {
                Some(acc) => acc.add_assign(&seed),
                slot @ None => *slot = Some(seed),
            }
        }
        for i in (0..=loss.0).rev() {
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &rest[0];
            if !node.requires_grad || matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(g) = node.grad.clone() else {
                continue;
            };
            let started = Instant::now();
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    accumulate_into(before, a, g.clone());
                    accumulate_into(before, b, g);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    accumulate_into(before, a, g.clone());
                    if wants(before, b) {
                        accumulate_into(before, b, g.scale(-1.0));
                    }
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    if wants(before, a) {
                        let da = g.mul(&before[b.0].value);
                        accumulate_into(before, a, da);
                    }
                    if wants(before, b) {
                        let db = g.mul(&before[a.0].value);
                        accumulate_into(before, b, db);
                    }
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    accumulate_into(before, a, g.scale(s));
                }
                Op::AddBias2(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    let db = wants(before, bias).then(|| {
                        let (_, f) = g.shape().rc();
                        let gs = g.as_slice();
                        Tensor::from_fn([f], |fi| gs.iter().skip(fi).step_by(f).sum())
                    });
                    accumulate_into(before, x, g);
                    if let Some(db) = db {
                        accumulate_into(before, bias, db);
                    }
                }
                Op::MatMulNT(x, w) => {
                    let (x, w) = (*x, *w);
                    // y = x w^T : dx = g w ; dw = g^T x
                    if wants(before, x) {
                        let dx = g.matmul(&before[w.0].value);
                        accumulate_into(before, x, dx);
                    }
                    if wants(before, w) {
                        let dw = g.matmul_tn(&before[x.0].value);
                        accumulate_into(before, w, dw);
                    }
                }
                Op::Conv2d { x, w, b, geom } => {
                    let (x, w, b, geom) = (*x, *w, *b, *geom);
                    let (dx, dw, db) = conv2d_backward(
                        &before[x.0].value,
                        &before[w.0].value,
                        &g,
                        geom,
                        b.is_some(),
                        wants(before, x),
                    );
                    if let Some(dx) = dx {
                        accumulate_into(before, x, dx);
                    }
                    accumulate_into(before, w, dw);
                    if let (Some(b), Some(db)) = (b, db) {
                        accumulate_into(before, b, db);
                    }
                }
                Op::DepthwiseConv2d { x, w, b, geom } => {
                    let (x, w, b, geom) = (*x, *w, *b, *geom);
                    let (dx, dw, db) = depthwise_conv2d_backward(
                        &before[x.0].value,
                        &before[w.0].value,
                        &g,
                        geom,
                        b.is_some(),
                        wants(before, x),
                    );
                    if let Some(dx) = dx {
                        accumulate_into(before, x, dx);
                    }
                    accumulate_into(before, w, dw);
                    if let (Some(b), Some(db)) = (b, db) {
                        accumulate_into(before, b, db);
                    }
                }
                Op::BatchNorm {
                    x,
                    gamma,
                    beta,
                    mean,
                    invstd,
                    training,
                } => {
                    let (xv, gammav, betav, training) = (*x, *gamma, *beta, *training);
                    let (dx, dgamma, dbeta) = eltwise::bn_backward(
                        &before[xv.0].value,
                        &g,
                        &before[gammav.0].value,
                        mean,
                        invstd,
                        training,
                    );
                    accumulate_into(before, xv, dx);
                    accumulate_into(before, gammav, dgamma);
                    accumulate_into(before, betav, dbeta);
                }
                Op::ReluDecay { x, alpha } => {
                    let (x, alpha) = (*x, *alpha);
                    let dx = eltwise::relu_decay_backward(&before[x.0].value, &g, alpha);
                    accumulate_into(before, x, dx);
                }
                Op::Relu6Decay { x, alpha } => {
                    let (x, alpha) = (*x, *alpha);
                    let dx = eltwise::relu6_decay_backward(&before[x.0].value, &g, alpha);
                    accumulate_into(before, x, dx);
                }
                Op::MaxPool { x, idx } => {
                    let x = *x;
                    let dx = maxpool2d_backward(before[x.0].value.shape(), &g, idx);
                    accumulate_into(before, x, dx);
                }
                Op::AvgPool { x, geom } => {
                    let (x, geom) = (*x, *geom);
                    let dx = avgpool2d_backward(before[x.0].value.shape(), &g, geom);
                    accumulate_into(before, x, dx);
                }
                Op::GlobalAvgPool { x, x_shape } => {
                    let x = *x;
                    let dx = global_avg_pool_backward(x_shape, &g);
                    accumulate_into(before, x, dx);
                }
                Op::Reshape { x, x_shape } => {
                    let x = *x;
                    let dx = g.reshape(x_shape.clone());
                    accumulate_into(before, x, dx);
                }
                Op::Narrow0 { x, start } => {
                    let (x, start) = (*x, *start);
                    let parent_shape = before[x.0].value.shape().clone();
                    let inner: usize = parent_shape.dims()[1..].iter().product();
                    let mut dx = Tensor::zeros(parent_shape);
                    dx.as_mut_slice()[start * inner..start * inner + g.numel()]
                        .copy_from_slice(g.as_slice());
                    accumulate_into(before, x, dx);
                }
                Op::NarrowOutIn { w, out, inn } => {
                    let (w, out, inn) = (*w, *out, *inn);
                    let parent_shape = before[w.0].value.shape().clone();
                    let d = parent_shape.dims().to_vec();
                    let (kh, kw) = (d[2], d[3]);
                    let mut dw = Tensor::zeros(parent_shape);
                    {
                        let ds = dw.as_mut_slice();
                        let gsl = g.as_slice();
                        for oi in 0..out.1 {
                            for ii in 0..inn.1 {
                                let s0 = (oi * inn.1 + ii) * kh * kw;
                                let d0 = (((out.0 + oi) * d[1]) + (inn.0 + ii)) * kh * kw;
                                ds[d0..d0 + kh * kw].copy_from_slice(&gsl[s0..s0 + kh * kw]);
                            }
                        }
                    }
                    accumulate_into(before, w, dw);
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    smoothing,
                    probs,
                } => {
                    let logits = *logits;
                    let (n, k) = probs.shape().rc();
                    let off = smoothing / k as f32;
                    let on = 1.0 - smoothing + off;
                    let gscale = g.item() / n as f32;
                    let ps = probs.as_slice();
                    let dl = Tensor::from_fn([n, k], |i| {
                        let (row, col) = (i / k, i % k);
                        let t = if col == labels[row] { on } else { off };
                        (ps[i] - t) * gscale
                    });
                    accumulate_into(before, logits, dl);
                }
                Op::KdKlLoss {
                    logits,
                    teacher_probs,
                    temperature,
                    student_probs,
                } => {
                    let logits = *logits;
                    let (n, _) = student_probs.shape().rc();
                    let gscale = g.item() * temperature / n as f32;
                    let dl = student_probs.sub(teacher_probs).scale(gscale);
                    accumulate_into(before, logits, dl);
                }
                Op::MseBetween { a, b } => {
                    let (a, b) = (*a, *b);
                    let n = before[a.0].value.numel() as f32;
                    let d = before[a.0]
                        .value
                        .sub(&before[b.0].value)
                        .scale(2.0 * g.item() / n);
                    let db = wants(before, b).then(|| d.scale(-1.0));
                    accumulate_into(before, a, d);
                    if let Some(db) = db {
                        accumulate_into(before, b, db);
                    }
                }
                Op::MseToConst { a, target } => {
                    let a = *a;
                    let n = before[a.0].value.numel() as f32;
                    let d = before[a.0].value.sub(target).scale(2.0 * g.item() / n);
                    accumulate_into(before, a, d);
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    mask,
                    probs,
                } => {
                    let logits = *logits;
                    let support: f32 = mask.as_slice().iter().filter(|&&m| m > 0.0).count() as f32;
                    let gscale = g.item() / support;
                    let dl = Tensor::from_fn(probs.shape().clone(), |i| {
                        mask.as_slice()[i] * (probs.as_slice()[i] - targets.as_slice()[i]) * gscale
                    });
                    accumulate_into(before, logits, dl);
                }
                Op::SmoothL1 {
                    pred,
                    targets,
                    mask,
                } => {
                    let pred = *pred;
                    let support: f32 = mask.as_slice().iter().filter(|&&m| m > 0.0).count() as f32;
                    let gscale = g.item() / support;
                    let ps = before[pred.0].value.as_slice();
                    let dl = Tensor::from_fn(targets.shape().clone(), |i| {
                        let d = ps[i] - targets.as_slice()[i];
                        mask.as_slice()[i] * d.clamp(-1.0, 1.0) * gscale
                    });
                    accumulate_into(before, pred, dl);
                }
                Op::MeanAll { x, n } => {
                    let (x, n) = (*x, *n);
                    let shape = before[x.0].value.shape().clone();
                    let dx = Tensor::full(shape, g.item() / n as f32);
                    accumulate_into(before, x, dx);
                }
            }
            self.op_times
                .record_backward(node.op.kind(), started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn add_mul_chain() {
        // loss = mean((a + b) * a) over 2 elements
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap(), true);
        let b = g.leaf(Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap(), true);
        let s = g.add(a, b);
        let p = g.mul(s, a);
        let loss = g.mean_all(p);
        g.backward(loss);
        // d/da = (2a + b)/2 ; d/db = a/2
        assert!(g
            .grad(a)
            .unwrap()
            .allclose(&Tensor::from_vec(vec![2.5, 4.0], [2]).unwrap(), 1e-6));
        assert!(g
            .grad(b)
            .unwrap()
            .allclose(&Tensor::from_vec(vec![0.5, 1.0], [2]).unwrap(), 1e-6));
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let mut g = Graph::new();
        let logits = g.leaf(
            Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.0, 2.0, -2.0], [2, 3]).unwrap(),
            true,
        );
        let loss = g.softmax_cross_entropy(logits, &[2, 0], 0.0);
        g.backward(loss);
        let dl = g.grad(logits).unwrap();
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| dl.at2(r, c)).sum();
            assert!(s.abs() < 1e-6, "row {r} grad sum {s}");
        }
        // gradient at the true label must be negative (pull up)
        assert!(dl.at2(0, 2) < 0.0);
        assert!(dl.at2(1, 0) < 0.0);
    }

    #[test]
    fn scale_and_sub() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![2.0], [1]).unwrap(), true);
        let b = g.leaf(Tensor::from_vec(vec![5.0], [1]).unwrap(), true);
        let s = g.sub(a, b);
        let y = g.scale(s, 3.0);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().item(), 3.0);
        assert_eq!(g.grad(b).unwrap().item(), -3.0);
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::ones([2]), true);
        let y = g.scale(a, 2.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g2 = Graph::new();
            let a2 = g2.leaf(Tensor::ones([2]), true);
            let y2 = g2.scale(a2, 2.0);
            g2.backward(y2);
        }));
        assert!(result.is_err());
        let loss = g.mean_all(y);
        g.backward(loss); // fine
    }

    #[test]
    fn diamond_fanout_accumulates() {
        // y = a*a + a  => dy/da = 2a + 1
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![3.0], [1]).unwrap(), true);
        let sq = g.mul(a, a);
        let y = g.add(sq, a);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().item(), 7.0);
    }

    #[test]
    fn narrow0_grad_scatters() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_fn([4, 2], |i| i as f32), true);
        let mid = g.narrow0(a, 1, 2);
        let loss = g.mean_all(mid);
        g.backward(loss);
        let da = g.grad(a).unwrap();
        assert_eq!(da.as_slice(), &[0.0, 0.0, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0]);
    }

    #[test]
    fn narrow_out_in_grad_scatters() {
        let mut g = Graph::new();
        let w = g.leaf(Tensor::zeros([3, 2, 1, 1]), true);
        let s = g.narrow_out_in(w, (1, 1), (1, 1));
        let loss = g.mean_all(s);
        g.backward(loss);
        let dw = g.grad(w).unwrap();
        let mut want = Tensor::zeros([3, 2, 1, 1]);
        want.as_mut_slice()[3] = 1.0; // (out=1, in=1)
        assert!(dw.allclose(&want, 1e-7));
    }
}
