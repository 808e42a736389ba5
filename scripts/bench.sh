#!/usr/bin/env bash
# Engine performance benchmark: builds the bench rig in release mode and
# runs the emulation-engine scenario suite against the recorded pre-overhaul
# baseline, writing BENCH_emulator.json at the repo root.
#
# Usage:
#   scripts/bench.sh            full suite (60-router grid + the sharded
#                               scaling matrix incl. the 1,000-router WAN,
#                               5 iterations)
#   scripts/bench.sh --smoke    tiny grid + 2-shard cluster slice,
#                               1 iteration — CI bit-rot guard
#   scripts/bench.sh --watch    also run the continuous-verification
#                               window (minutes of wall time; opt-in)
#
# Extra flags are passed through to engine_bench (e.g. --iters 9,
# --threads 1,2,4,8).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building engine_bench (release)"
cargo build -q --release -p mfv-bench --bin engine_bench

echo "==> running engine scenario suite"
./target/release/engine_bench \
  --baseline scripts/bench_baseline.txt \
  --out BENCH_emulator.json \
  "$@"

echo "==> BENCH_emulator.json"
cat BENCH_emulator.json

