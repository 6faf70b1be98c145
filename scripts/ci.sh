#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== verify_all (fast mode) =="
# differential kernel oracles, contraction exactness audits, taped-vs-plan
# parity (bitwise with folding and fusion off, ULP-bounded with folding
# on), concurrent Arc-shared plan replay parity, data-parallel trainer
# parity (fit_parallel vs fit, bitwise, worker-count invariant), seed
# sweep; exits non-zero and prints per-case tables on any divergence
cargo run --release -q -p nb-verify --bin verify_all -- --fast

echo "== verify_all (quant smoke) =="
# the int8 column alone: compiles the quantized inverted-residual tinynet
# plan (compile_quantized, Auto mixed-precision policy — the suite pins
# that the depthwise stages actually quantize) and holds it to the top-1
# accuracy-drop budget plus zero-graph-node replay, thread-width bitwise
# invariance, and fused-vs-unfused bitwise parity of the quantized chain
# executor — a fast standalone stage so a quant regression is named
# directly instead of surfacing as a generic verify_all failure
cargo run --release -q -p nb-verify --bin verify_all -- --quant-smoke

echo "== bench_infer (smoke) =="
# sanity-checks the eval executors: the compiled plan's activation peak
# must stay below what the tape retains, and the int8 plan must hold its
# speed and peak-bytes gates (exits non-zero otherwise)
mkdir -p target
cargo run --release -q -p nb-bench --bin bench_infer -- --smoke target/BENCH_infer_smoke.json >/dev/null

echo "== bench_train (smoke) =="
# exercises the data-parallel trainer end to end (streaming loader, shard
# dispatch, deterministic tree-reduce, BN replay) at 1 and 2 shards; smoke
# mode checks completion and finite throughput only — the dp(max)-vs-dp(1)
# throughput gate runs in the full-mode binary that produces the checked-in
# BENCH_train.json
cargo run --release -q -p nb-bench --bin bench_train -- --smoke target/BENCH_train_smoke.json >/dev/null

echo "== bench_serve (smoke) =="
# drives the multi-tenant server with a fixed-seed open-loop trace and
# gates on the drain contract (accepted == completed) and on tail latency
# (per-model p99 <= max(50 x p50, 10 ms)); the traffic seed is baked into
# the binary
cargo run --release -q -p nb-serve --bin bench_serve -- --smoke target/BENCH_serve_smoke.json >/dev/null

echo "== nbbench (build + smoke tests) =="
# the end-to-end benchmark is a package of its own (crates/bench/nbbench,
# declared by BENCHMARK.json), so `cargo test --workspace` never compiles
# it; this stage builds it against the current crates and runs every
# declared workload briefly, checking its metrics against BENCHMARK.json
cargo test --release --offline --manifest-path crates/bench/nbbench/Cargo.toml

echo "CI OK"
