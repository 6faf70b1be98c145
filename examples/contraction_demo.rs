//! The heart of NetBooster, in isolation: build an inserted inverted
//! residual block, decay its activations to the identity, and contract it
//! into a single 1x1 convolution — verifying that the outputs match exactly
//! and that the inference cost collapses back.
//!
//! Run: `cargo run --release --example contraction_demo`

use netbooster::core::{build_inserted_block, contract_inserted_block, BlockKind};
use netbooster::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let (in_c, out_c, ratio) = (8, 16, 6);
    let block = build_inserted_block(BlockKind::InvertedResidual, in_c, out_c, ratio, &mut rng);
    println!(
        "inserted block: {} -> {} channels, ratio {ratio}, {} units, {} decay slopes",
        in_c,
        out_c,
        block.units.len(),
        block.slopes().len()
    );
    println!("FLOPs at 16x16: {}", block.flops(16, 16));

    // Progressive linearization, compressed into one demo sweep.
    let x = Tensor::randn([2, in_c, 16, 16], &mut rng);
    for alpha in [0.0f32, 0.5, 1.0] {
        for s in block.slopes() {
            s.set(alpha);
        }
        let mut s = Session::new(false);
        let xin = s.input(x.clone());
        let y = block.forward(&mut s, xin);
        println!(
            "alpha = {alpha:.1}: output mean {:+.4}, linearized = {}",
            s.value(y).mean(),
            block.is_linearized()
        );
    }

    // Contract: the three convolutions (with their BNs folded) collapse into
    // one 1x1 conv via the paper's Eq. 3-4.
    let conv = contract_inserted_block(&block);
    println!(
        "\ncontracted to a single {}x{} conv: FLOPs at 16x16 = {} ({}x cheaper)",
        conv.geom().kh,
        conv.geom().kw,
        conv.flops(16, 16),
        block.flops(16, 16) / conv.flops(16, 16).max(1)
    );

    let mut s = Session::new(false);
    let xin = s.input(x.clone());
    let want = block.forward(&mut s, xin);
    let xin2 = s.input(x);
    let got = conv.forward(&mut s, xin2);
    let diff = s.value(got).max_abs_diff(s.value(want));
    println!("max |contracted - linearized block| = {diff:.2e} (exact up to fp rounding)");
    assert!(diff < 1e-3);
}
