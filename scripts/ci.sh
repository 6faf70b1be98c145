#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
# Every cargo stage below that resolves dependencies runs with --locked, so
# a change that would rewrite a committed Cargo.lock (the workspace's or
# nbbench's) fails here by name instead of editing the lock file.

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors) =="
# broken, ambiguous and private intra-doc links fail here, so a deleted or
# renamed item cannot leave a dangling link in the docs
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --offline

echo "== cargo test =="
cargo test --locked --workspace -q

echo "== cargo test --release (nb-tensor) =="
# the unsafe AVX2 kernels run their bitwise grids optimized, as the
# benchmark runs them; the debug run above checks their memory footprints
cargo test --release --locked -q -p nb-tensor

echo "== verify_all (fast mode) =="
# differential kernel oracles (gemm, conv, depthwise, pooling, and batch
# norm's training statistics, normalize and backward, each at widths
# {1, 2, max} and bitwise against width 1 where the kernel promises
# width-invariant bits), contraction exactness audits, taped-vs-plan
# parity (bitwise with folding and fusion off, ULP-bounded with folding
# on), concurrent Arc-shared plan replay parity, data-parallel trainer
# parity (fit_parallel vs fit, bitwise, worker-count invariant), seed
# sweep; exits non-zero and prints per-case tables on any divergence
cargo run --release --locked -q -p nb-verify --bin verify_all -- --fast

echo "== verify_all (quant smoke) =="
# the int8 column alone: compiles the quantized inverted-residual tinynet
# plan (compile_quantized, Auto mixed-precision policy — the suite pins
# that the depthwise stages actually quantize) and holds it to the top-1
# accuracy-drop budget plus zero-graph-node replay, thread-width bitwise
# invariance, and fused-vs-unfused bitwise parity of the quantized chain
# executor — a fast standalone stage so a quant regression is named
# directly instead of surfacing as a generic verify_all failure
cargo run --release --locked -q -p nb-verify --bin verify_all -- --quant-smoke

# The end-to-end benchmark is a package of its own (crates/bench/nbbench,
# declared by BENCHMARK.json), so the workspace-wide fmt, clippy and test
# stages above never see it; these three stages cover it.
echo "== nbbench: cargo fmt --check =="
cargo fmt --manifest-path crates/bench/nbbench/Cargo.toml -- --check

echo "== nbbench: cargo clippy (warnings are errors) =="
cargo clippy --locked --offline --manifest-path crates/bench/nbbench/Cargo.toml --all-targets -- -D warnings

echo "== nbbench (build + smoke tests) =="
# builds the benchmark against the current crates and runs every declared
# workload briefly, checking its metrics against BENCHMARK.json
cargo test --release --locked --offline --manifest-path crates/bench/nbbench/Cargo.toml

echo "CI OK"
