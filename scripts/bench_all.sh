#!/usr/bin/env bash
# One entry point for every benchmark binary, in full (non-smoke) mode:
# refreshes all four checked-in BENCH_*.json files at the repo root and
# exits non-zero if any binary's perf gate fails (each gates its own
# claims — kernel ns/op regressions, plan-vs-tape peak bytes, the 2x int8
# gate on GEMM-bound rows, serve tail latency and drain, dp(max)-vs-dp(1)
# training throughput).
#
# Run it before and after a perf-relevant change and diff the JSON files.
# Pin the pool width with NB_NUM_THREADS for stable numbers; full runs
# take several minutes.
#
# Usage: scripts/bench_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench_kernels =="
cargo run --release -q -p nb-bench --bin bench_kernels -- BENCH_kernels.json

echo "== bench_infer =="
cargo run --release -q -p nb-bench --bin bench_infer -- BENCH_infer.json >/dev/null

echo "== bench_train =="
cargo run --release -q -p nb-bench --bin bench_train -- BENCH_train.json >/dev/null

echo "== bench_serve =="
cargo run --release -q -p nb-serve --bin bench_serve -- BENCH_serve.json >/dev/null

echo "bench_all OK — refreshed BENCH_kernels.json BENCH_infer.json BENCH_train.json BENCH_serve.json"
