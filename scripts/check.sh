#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test cycle.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (every crate and target, test code included, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> mfv-lint (determinism & panic-safety rules + suppression inventory)"
cargo run -q -p mfv-lint

echo "==> mfv-conflint (cross-device config analysis on tracked topologies)"
cargo run -q -p mfv-conflint -- --deny-warnings examples/topologies/*.json

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> obs-smoke: same-seed chaos run, twice, must dump byte-identical obs JSON"
cargo build --release -q --example chaos_run --example watch_run
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
for run in a b; do
  target/release/examples/chaos_run \
    --obs-json "$obs_tmp/obs_$run.json" --obs-exclude-wall >/dev/null
done
cmp "$obs_tmp/obs_a.json" "$obs_tmp/obs_b.json" || {
  echo "obs-smoke FAILED: deterministic obs dumps differ between same-seed runs" >&2
  diff "$obs_tmp/obs_a.json" "$obs_tmp/obs_b.json" >&2 || true
  exit 1
}

echo "==> watch-smoke: same-seed chaos watch must replay byte-identically"
for run in a b; do
  target/release/examples/watch_run \
    --seed 7 --grid 4x3 --duration-secs 45 --drop-pct 20 \
    --journal "$obs_tmp/verdicts_$run.txt" \
    --obs-json "$obs_tmp/watch_obs_$run.json" --obs-exclude-wall >/dev/null
done
cmp "$obs_tmp/verdicts_a.txt" "$obs_tmp/verdicts_b.txt" || {
  echo "watch-smoke FAILED: verdict journals differ between same-seed runs" >&2
  diff "$obs_tmp/verdicts_a.txt" "$obs_tmp/verdicts_b.txt" >&2 || true
  exit 1
}
cmp "$obs_tmp/watch_obs_a.json" "$obs_tmp/watch_obs_b.json" || {
  echo "watch-smoke FAILED: watch obs dumps differ between same-seed runs" >&2
  diff "$obs_tmp/watch_obs_a.json" "$obs_tmp/watch_obs_b.json" >&2 || true
  exit 1
}

echo "==> serve-smoke: scripted query batch against mfvctl serve must match golden answers"
# Start the query server on an ephemeral port, replay the scripted batch
# over one connection, and diff against the recorded answers. The batch
# ends with QUIT, so the client exits cleanly; the server is killed after.
target/release/mfvctl serve examples/topologies/six-node.json --port 0 \
  >"$obs_tmp/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^listening on //p' "$obs_tmp/serve.log")"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] || {
  echo "serve-smoke FAILED: server never reported its address" >&2
  cat "$obs_tmp/serve.log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
target/release/mfvctl query "$serve_addr" \
  <tests/fixtures/serve_smoke.batch >"$obs_tmp/serve_answers.txt"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
cmp tests/fixtures/serve_smoke.golden "$obs_tmp/serve_answers.txt" || {
  echo "serve-smoke FAILED: query answers diverged from the golden batch" >&2
  diff tests/fixtures/serve_smoke.golden "$obs_tmp/serve_answers.txt" >&2 || true
  exit 1
}

echo "==> pipeline-smoke: every benchmark workload's checks and pinned answers at seconds scale"
cargo run --release --offline --quiet --manifest-path pipeline_bench/Cargo.toml -- --all --smoke >/dev/null

echo "==> lock files: nothing above may have rewritten a committed (or staged) lock"
git diff --exit-code -- Cargo.lock pipeline_bench/Cargo.lock || {
  echo "lock check FAILED: a build rewrote a stale lock file; stage or commit it with the dependency edit" >&2
  exit 1
}

echo "==> one walker: mfv-verify's non-test code builds no FIB (the class index is the only forwarding engine)"
# Each file's product code ends where its `#[cfg(test)]` module starts.
for f in crates/verify/src/*.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\.fib\(\)|Fib::new'; then
    echo "one-walker check FAILED: $f builds or reads a Fib outside its tests" >&2
    exit 1
  fi
done

echo "==> one what-if path: the sweep forks, it never cold-boots a context; extraction builds no second dataplane"
if sed '/#\[cfg(test)\]/,$d' crates/core/src/whatif.rs | grep -nE '\.compute\('; then
  echo "what-if check FAILED: crates/core/src/whatif.rs cold-boots outside its tests (compute is the test oracle)" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/extract.rs | grep -nE '\.dataplane\(\)'; then
  echo "what-if check FAILED: crates/core/src/extract.rs exports the emulation's dataplane instead of reading node facts and up links" >&2
  exit 1
fi

echo "==> all checks passed"
