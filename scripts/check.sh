#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test cycle. The
# structural guards (what the code keeps once, test modules last, the
# documents' names and budgets) are tests/structure.rs, which tier-1 runs.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The restriction lints every in-scope crate root (and the planted-violation
# fixture) warns on: P1 / W1, plus "a suppression states its reason".
root_lints="unwrap_used expect_used panic unreachable unimplemented indexing_slicing allow_attributes_without_reason"

# Prints the lines under the given trees that name the `Relaxed` atomic
# ordering outside a whole-line comment; fails if there are none. An enum
# variant is the one thing of rule D3 that clippy cannot be configured to ban.
relaxed_in() {
  grep -rnE --include='*.rs' '\bRelaxed\b' "$@" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (every crate and target, test code included, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> invariant scope: crates/clippy.toml and the lint attribute at every in-scope crate root"
# D1/D2/D3/P1/W1 (DESIGN.md § "Determinism & panic-safety invariants") are
# the clippy run above. What that run cannot see is its own scope shrinking:
# a deleted clippy.toml or crate-root attribute just makes it pass.
[ -f crates/clippy.toml ] || {
  echo "invariant scope FAILED: crates/clippy.toml is missing (D1, D2 and D3 are configured there)" >&2
  exit 1
}
for root in crates/{mgmt,verify,core,obs,serve,wire,conflint}/src/lib.rs src/bin/mfvctl.rs; do
  for lint in $root_lints; do
    sed -n '/^#!\[warn($/,/^)\]$/p' "$root" | grep -q "clippy::$lint\b" || {
      echo "invariant scope FAILED: $root does not warn on clippy::$lint at its crate root" >&2
      exit 1
    }
  done
done
if relaxed_in crates/*/src; then
  echo "invariant scope FAILED: D3 bans the Relaxed ordering under crates/ (thread scheduling would leak into results)" >&2
  exit 1
fi
expects="$(grep -rnE '#!?\[expect\(' crates/*/src || true)"
echo "$(grep -c . <<<"$expects") reasoned #[expect] suppressions under crates/*/src (one whose lint stops firing fails the clippy step):"
sed 's/^/  /' <<<"$expects"

echo "==> the gate still bites: clippy must reject tests/fixtures/lint_gate and name every planted rule"
if CLIPPY_CONF_DIR="$PWD/crates" cargo clippy --offline --quiet \
  --manifest-path tests/fixtures/lint_gate/Cargo.toml --target-dir target/lint_gate \
  -- -D warnings 2>"$tmp/lint_gate.log"; then
  echo "lint-gate FAILED: clippy accepted the planted violations" >&2
  exit 1
fi
for lint in $root_lints disallowed_types disallowed_methods; do
  grep -q "index\.html#$lint\$" "$tmp/lint_gate.log" || {
    echo "lint-gate FAILED: clippy::$lint did not fire on its planted violation" >&2
    cat "$tmp/lint_gate.log" >&2
    exit 1
  }
done
for banned in 'type `std::collections::HashMap`' 'type `std::collections::HashSet`' \
  'type `std::time::SystemTime`' 'method `std::time::Instant::now`' \
  'method `std::sync::mpsc::Receiver::try_iter`' 'note: D1:' 'note: D2:' 'note: D3:'; do
  grep -qF "$banned" "$tmp/lint_gate.log" || {
    echo "lint-gate FAILED: no diagnostic mentions: $banned" >&2
    cat "$tmp/lint_gate.log" >&2
    exit 1
  }
done
relaxed_in tests/fixtures/lint_gate/src >/dev/null || {
  echo "lint-gate FAILED: the Relaxed grep missed the planted Ordering::Relaxed" >&2
  exit 1
}

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> obs-smoke: same-seed chaos run, twice, must dump byte-identical obs JSON"
for run in a b; do
  target/release/experiments chaos \
    --obs-json "$tmp/obs_$run.json" --obs-exclude-wall >/dev/null
done
cmp "$tmp/obs_a.json" "$tmp/obs_b.json" || {
  echo "obs-smoke FAILED: deterministic obs dumps differ between same-seed runs" >&2
  diff "$tmp/obs_a.json" "$tmp/obs_b.json" >&2 || true
  exit 1
}

echo "==> watch-smoke: same-seed chaos watch must replay byte-identically"
for run in a b; do
  target/release/experiments watch 4 3 --seed 7 \
    --journal "$tmp/verdicts_$run.txt" \
    --obs-json "$tmp/watch_obs_$run.json" --obs-exclude-wall >/dev/null
done
cmp "$tmp/verdicts_a.txt" "$tmp/verdicts_b.txt" || {
  echo "watch-smoke FAILED: verdict journals differ between same-seed runs" >&2
  diff "$tmp/verdicts_a.txt" "$tmp/verdicts_b.txt" >&2 || true
  exit 1
}
cmp "$tmp/watch_obs_a.json" "$tmp/watch_obs_b.json" || {
  echo "watch-smoke FAILED: watch obs dumps differ between same-seed runs" >&2
  diff "$tmp/watch_obs_a.json" "$tmp/watch_obs_b.json" >&2 || true
  exit 1
}

echo "==> serve-smoke: scripted query batch against mfvctl serve must match golden answers"
# Start the query server on an ephemeral port with the model's dataplane as
# the DIFF baseline, replay the scripted batch over one connection, and diff
# against the recorded answers. The batch ends with QUIT, so the client
# exits cleanly; the server is killed after.
target/release/mfvctl serve examples/topologies/six-node.json --port 0 --baseline model \
  >"$tmp/serve.log" 2>&1 &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^listening on //p' "$tmp/serve.log")"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] || {
  echo "serve-smoke FAILED: server never reported its address" >&2
  cat "$tmp/serve.log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
target/release/mfvctl query "$serve_addr" \
  <tests/fixtures/serve_smoke.batch >"$tmp/serve_answers.txt"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
cmp tests/fixtures/serve_smoke.golden "$tmp/serve_answers.txt" || {
  echo "serve-smoke FAILED: query answers diverged from the golden batch" >&2
  diff tests/fixtures/serve_smoke.golden "$tmp/serve_answers.txt" >&2 || true
  exit 1
}

echo "==> pipeline-smoke: every benchmark workload's checks and pinned answers at seconds scale"
cargo run --release --offline --quiet --manifest-path pipeline_bench/Cargo.toml -- --all --smoke >/dev/null

echo "==> lock files: nothing above may have rewritten a committed (or staged) lock"
git diff --exit-code -- Cargo.lock pipeline_bench/Cargo.lock tests/fixtures/lint_gate/Cargo.lock || {
  echo "lock check FAILED: a build rewrote a stale lock file; stage or commit it with the dependency edit" >&2
  exit 1
}

echo "==> the ledger: every exact count and answer pin of BENCH_pipeline.json unmoved against the one it replaced"
# The tracked ledger against the one it replaced (the newest committed
# version that differs from it): every exact count and every answer pin must
# agree. Its timing verdicts are one run on a guest that is noisy by the day
# and are printed, not gated; the bounds are gated on paired runs.
before=""
for commit in $(git log --format=%H -- BENCH_pipeline.json 2>/dev/null || true); do
  git show "$commit:BENCH_pipeline.json" >"$tmp/ledger_before.json"
  if ! cmp -s "$tmp/ledger_before.json" BENCH_pipeline.json; then
    before="$commit"
    break
  fi
done
if [ -n "$before" ]; then
  cargo run --release --offline --quiet --manifest-path pipeline_bench/Cargo.toml -- \
    --compare "$tmp/ledger_before.json" BENCH_pipeline.json >"$tmp/ledger_compare.txt" || true
  grep -E 'FAIL$' "$tmp/ledger_compare.txt" || true
  if grep -qE '!=|ids differ|missing on one side' "$tmp/ledger_compare.txt"; then
    echo "ledger check FAILED: BENCH_pipeline.json moved an exact count or an answer pin against $before" >&2
    exit 1
  fi
fi

echo "==> all checks passed"
