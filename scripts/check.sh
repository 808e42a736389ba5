#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build+test cycle.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The restriction lints every in-scope crate root (and the planted-violation
# fixture) warns on: P1 / W1, plus "a suppression states its reason".
root_lints="unwrap_used expect_used panic unreachable unimplemented indexing_slicing allow_attributes_without_reason"

# Prints the non-test lines of the given files as `file:line: text`: every
# `#[cfg(test)]` item is skipped, wherever it sits.
non_test() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip { o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c; opened = opened || o > 0
           if (opened && depth <= 0) skip = 0; next }
    { print FILENAME ":" FNR ": " $0 }
  ' "$@"
}

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

echo "==> mfvctl lint (cross-device config analysis on tracked topologies)"
cargo run -q --bin mfvctl -- lint --deny-warnings examples/topologies/*.json

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
# Start the query server on an ephemeral port, replay the scripted batch
# over one connection, and diff against the recorded answers. The batch
# ends with QUIT, so the client exits cleanly; the server is killed after.
target/release/mfvctl serve examples/topologies/six-node.json --port 0 \
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

echo "==> tests last: no product item follows a #[cfg(test)] item, so the size count and the non-test greps see all of it"
# Top-level items start in column 0; an item behind #[cfg(test)] (other
# attributes and doc comments may sit between) is test code.
misplaced="$(awk '
  FNR == 1 { pending = 0; seen = 0 }
  /^#\[cfg\(test\)\]/ { pending = 1; seen = 1; next }
  /^(pub|fn|mod|use|impl|struct|enum|const|static|type|trait|macro_rules!|unsafe|extern|async)([^A-Za-z0-9_]|$)/ {
    if (seen && !pending) print FILENAME ":" FNR ": " $0
    pending = 0
  }
' $(find crates/*/src src examples -name '*.rs' | sort))"
[ -z "$misplaced" ] || {
  echo "tests-last check FAILED: product code after a test module (move the test module to the end of its file):" >&2
  echo "$misplaced" >&2
  exit 1
}

echo "==> lock files: nothing above may have rewritten a committed (or staged) lock"
git diff --exit-code -- Cargo.lock pipeline_bench/Cargo.lock tests/fixtures/lint_gate/Cargo.lock || {
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

echo "==> one emulation, one thread: the engine holds no synchronisation primitive, and every fan-out takes its width from a threads field"
for f in crates/emulator/src/{engine,shard}.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'Mutex|Barrier|thread::|catch_unwind|lock_or_recover'; then
    echo "one-thread check FAILED: $f names a threading primitive outside its tests (parallelism is pool::run_indexed over whole emulations)" >&2
    exit 1
  fi
done
# Newlines are flattened first so a call rustfmt broke after the paren still matches.
for f in crates/*/src/*.rs crates/*/src/bin/*.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | tr '\n' ' ' | grep -oE 'run_indexed\([[:space:]]*[0-9][^,)]*'; then
    echo "one-thread check FAILED: $f hard-codes a fan-out width (pass EmulationBackend::threads or EmulationConfig::threads)" >&2
    exit 1
  fi
done

echo "==> one front door: queries take the analysis, one program per paper result, documents within budget"
for f in crates/verify/src/{queries,coverage}.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | tr '\n' ' ' | grep -oE 'pub fn [a-z_]+\([^)]*&Dataplane'; then
    echo "front-door check FAILED: $f exports a query over a &Dataplane (build one ForwardingAnalysis and pass it)" >&2
    exit 1
  fi
done
docs="README.md DESIGN.md EXPERIMENTS.md"
if grep -nF -- '-p mfv-conflint' $docs; then
  echo "front-door check FAILED: the documents run mfv-conflint, which has no binary (the lint is mfvctl lint)" >&2
  exit 1
fi
for name in $(grep -ohE -- '--example +[a-z_]+|examples/[a-z_]+\.rs' $docs | sed -E 's/--example +//; s/examples\///; s/\.rs$//' | sort -u); do
  [ -f "examples/$name.rs" ] || {
    echo "front-door check FAILED: the documents name example '$name', which does not exist" >&2
    exit 1
  }
done
# The binary checks every id before it runs anything and reports the first it
# does not know: with a sentinel last, that must be the sentinel.
ids="$(grep -ohE 'experiments -- [ea][0-9]+( [ea][0-9]+)*' $docs | sed 's/experiments -- //' | tr ' ' '\n' | sort -u | tr '\n' ' ' || true)"
verdict="$(target/release/experiments $ids no-such-id 2>&1 || true)"
grep -qF 'unknown experiment id `no-such-id`' <<<"$verdict" || {
  echo "front-door check FAILED: the documents name an experiment id the binary rejects (of: $ids): $verdict" >&2
  exit 1
}
for doc in DESIGN.md EXPERIMENTS.md; do
  [ "$(wc -l <"$doc")" -le 500 ] || {
    echo "front-door check FAILED: $doc is over 500 lines (describe the system as it is; history is git log)" >&2
    exit 1
  }
done
if sed '/#\[cfg(test)\]/,$d' crates/emulator/src/engine.rs | grep -nF 'm.inc('; then
  echo "front-door check FAILED: crates/emulator/src/engine.rs flushes counters (that is engine/export.rs)" >&2
  exit 1
fi

echo "==> one copy per distinct set: handles not copies in the BGP engine and the FIB, BGP's routes once per router, the ceilings still there"
if sed '/#\[cfg(test)\]/,$d' crates/routing/src/bgp.rs | grep -nE 'BTreeMap<Prefix, BgpAttrs>|attrs: BgpAttrs'; then
  echo "one-copy check FAILED: crates/routing/src/bgp.rs stores an attribute set by value (hold an Arc<BgpAttrs> from the engine's InternSet)" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/routing/src/bgp.rs | grep -nE 'next_hops: Vec<Ipv4Addr>'; then
  echo "one-copy check FAILED: crates/routing/src/bgp.rs stores a selection's next hops by value (hold an Arc<[Ipv4Addr]> from the engine's InternSet)" >&2
  exit 1
fi
# Newlines are flattened first so a call rustfmt broke after the paren still matches.
if sed '/#\[cfg(test)\]/,$d' crates/vrouter/src/router.rs | tr '\n' ' ' | grep -oE 'set_route\([^)]*(Ebgp|Ibgp)Learned'; then
  echo "one-copy check FAILED: crates/vrouter/src/router.rs copies BGP's selection into the RIB (Fib::patch reads the selection in place)" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/routing/src/rib.rs | grep -nE 'next_hops: Vec<FibNextHop>'; then
  echo "one-copy check FAILED: crates/routing/src/rib.rs stores a next-hop set by value (FibEntry holds an Arc<[FibNextHop]> from the table's InternSet)" >&2
  exit 1
fi
# By name, and counted: a renamed or deleted test would otherwise pass as "0 tests".
cargo test -q -p mfv-routing --lib equal_attribute_sets_are_stored_once_and_the_store_stays_bounded | grep -q '1 passed' || {
  echo "one-copy check FAILED: the bounded-intern-set test did not run and pass" >&2
  exit 1
}
cargo test -q --test work_ceiling a_converged_wan_stores_each_distinct_set_once | grep -q '1 passed' || {
  echo "one-copy check FAILED: the live-bytes-per-FIB-entry ceiling did not run and pass" >&2
  exit 1
}
cargo test -q -p mfv-vrouter --test delta_oracle a_prefix_bgp_and_the_igp_both_carry_goes_to_the_lower_admin_distance | grep -q '1 passed' || {
  echo "one-copy check FAILED: the delta oracle's BGP-against-IGP contest did not run and pass" >&2
  exit 1
}
cargo test -q -p mfv-routing --lib ecmp_excludes_a_path_that_lost_on_med | grep -q '1 passed' || {
  echo "one-copy check FAILED: the multipath MED test did not run and pass" >&2
  exit 1
}
echo "==> one computation per distinct input: liveness per IGP move, one resolution per gateway, one Adj-RIB-Out per export group"
lookups="$(sed '/#\[cfg(test)\]/,$d' crates/routing/src/bgp.rs | grep -c 'resolver\.igp_metric(' || true)"
[ "$lookups" -eq 2 ] || {
  echo "one-computation check FAILED: non-test bgp.rs asks resolver.igp_metric in $lookups places (two: the session's reachability refresh and the decision batch's memo)" >&2
  exit 1
}
if sed '/#\[cfg(test)\]/,$d' crates/routing/src/bgp.rs | sed -n '/^struct Session {/,/^}/p' | grep -n 'rib_out'; then
  echo "one-computation check FAILED: Session holds a rib_out again (the Adj-RIB-Out is its ExportGroup's table)" >&2
  exit 1
fi
cargo test -q -p mfv-routing --lib export_groups_send_what_per_peer_adj_rib_outs_would | grep -q '1 passed' || {
  echo "one-computation check FAILED: the export-group proptest against the per-peer reference did not run and pass" >&2
  exit 1
}
cargo test -q -p mfv-vrouter --test delta_oracle every_poll_leaves_tables_equal_to_a_rebuild_from_the_sources | grep -q '1 passed' || {
  echo "one-computation check FAILED: the delta oracle (session liveness included) did not run and pass" >&2
  exit 1
}
cargo test -q --test work_ceiling a_reflector_computes_each_distinct_thing_once | grep -q '1 passed' || {
  echo "one-computation check FAILED: the reflector's work ceilings did not run and pass" >&2
  exit 1
}

echo "==> one hand-over: extraction decodes no JSON (typed Gets in process, JSON at the wire)"
if sed '/#\[cfg(test)\]/,$d' crates/core/src/extract.rs | grep -nE 'Telemetry|serde_json|\.aft\('; then
  echo "one-hand-over check FAILED: non-test crates/core/src/extract.rs reads a state tree (take the typed Get, mfv_mgmt::ForwardingState)" >&2
  exit 1
fi
cargo test -q -p mfv-core --lib typed_get_equals_the_json_get | grep -q '1 passed' || {
  echo "one-hand-over check FAILED: the typed ≡ JSON Get test did not run and pass" >&2
  exit 1
}

echo "==> one render per change: a watch reads typed device state, renders a tree only for a change and decodes a mirror once per change"
watch_src="$(sed '/#\[cfg(test)\]/,$d' crates/mgmt/src/watch.rs)"
if grep -nF 'Telemetry::from_router' <<<"$watch_src"; then
  echo "one-render check FAILED: non-test crates/mgmt/src/watch.rs reads whole state trees (the device side reads DeviceState)" >&2
  exit 1
fi
dataplane_fn="$(sed -n '/^    pub fn dataplane(/,/^    }$/p' <<<"$watch_src")"
[ -n "$dataplane_fn" ] || {
  echo "one-render check FAILED: no Watcher::dataplane in crates/mgmt/src/watch.rs (update this step if it moved)" >&2
  exit 1
}
if grep -nF '.aft(' <<<"$dataplane_fn"; then
  echo "one-render check FAILED: Watcher::dataplane decodes mirrors (each stream keeps the ForwardingState decoded when its mirror changed)" >&2
  exit 1
fi
cargo test -q -p mfv-mgmt --lib typed_reads_stream_what_full_reads_would | grep -q '1 passed' || {
  echo "one-render check FAILED: the typed-against-full-read stream test did not run and pass" >&2
  exit 1
}
cargo test -q --test work_ceiling a_quiet_watch_renders_only_its_syncs | grep -q '1 passed' || {
  echo "one-render check FAILED: the watch render / decode ceiling did not run and pass" >&2
  exit 1
}

echo "==> one record per happening: diff writes the canonical order itself, a watch happening is counted and journaled once, the retry and stream timings are constants"
if non_test crates/mgmt/src/*.rs | grep -E 'fn canonicalize\b|(struct|enum|type|trait) (WatchEvent|CollectorConfig)\b'; then
  echo "one-record check FAILED: non-test crates/mgmt defines canonicalize, WatchEvent or CollectorConfig again (diff sorts its own batch; WatchStats and the watcher's journal record each happening; the collector's and watcher's timings are constants)" >&2
  exit 1
fi
cargo test -q -p mfv-mgmt --test gnmi_roundtrip diff_is_canonical | grep -q '1 passed' || {
  echo "one-record check FAILED: the canonical-diff proptest did not run and pass" >&2
  exit 1
}

echo "==> one answer per query: a standing query re-asks the batch queries, with no per-pair dependency layer"
if non_test crates/verify/src/*.rs | grep -E '(struct|enum|type|trait) (DepSet|PairState|SrcState)\b|fn (dispositions_from_deps|[a-z_]+_with_deps)\b'; then
  echo "one-answer check FAILED: non-test crates/verify defines a dependency set, a per-pair or per-source state, or a *_with_deps query again (StandingQueries::evaluate asks the batch queries)" >&2
  exit 1
fi
standing_src="$(non_test crates/verify/src/standing.rs)"
for query in unreachable_pairs_with detect_loops_with detect_blackholes_with; do
  grep -qE "\b$query\(" <<<"$standing_src" || {
    echo "one-answer check FAILED: non-test crates/verify/src/standing.rs no longer calls $query (a standing query is the batch query)" >&2
    exit 1
  }
done
cargo test -q -p mfv-verify --test proptests standing_pair_work_is_unchanged_on_a_fixed_delta_sequence | grep -q '1 passed' || {
  echo "one-answer check FAILED: the standing-against-fresh delta sequence did not run and pass" >&2
  exit 1
}

echo "==> one encoding per LSP: IS-IS encodes and checksums an LSP where it originates one, and SPF runs over the graph it keeps"
# An LSP is encoded through `StoredLsp::encode` or `IsisPdu::Lsp(..).encode()`,
# checksummed by those or by `fletcher16`; a received one was verified by the
# decoder that stored it. Non-test isis.rs may do the first once, in the
# origination, and nothing else.
isis_src="$(sed '/#\[cfg(test)\]/,$d' crates/routing/src/isis.rs)"
lsp_codec="$(grep -cE 'StoredLsp::encode\(|IsisPdu::Lsp\([^_]|checksum\(|fletcher16' <<<"$isis_src" || true)"
originated="$(sed -n '/^    fn regenerate_own_lsp(/,/^    }$/p' <<<"$isis_src" | grep -c 'StoredLsp::encode(' || true)"
[ "$lsp_codec" -eq 1 ] && [ "$originated" -eq 1 ] || {
  echo "one-encoding check FAILED: non-test crates/routing/src/isis.rs encodes or checksums an LSP outside regenerate_own_lsp (flood, ack and describe the stored bytes and entry)" >&2
  exit 1
}
cargo test -q -p mfv-routing --lib spf_over_the_maintained_graph_is_the_reference_spf | grep -q '1 passed' || {
  echo "one-encoding check FAILED: the SPF-against-the-reference proptest did not run and pass" >&2
  exit 1
}
cargo test -q --test work_ceiling an_lsp_is_encoded_and_checksummed_once | grep -q '1 passed' || {
  echo "one-encoding check FAILED: the LSP encode / checksum ceiling did not run and pass" >&2
  exit 1
}

echo "==> one table per entity: a shard holds its schedule; every router, stream, journal and counter is one fleet-wide table"
shard_struct="$(sed '/#\[cfg(test)\]/,$d' crates/emulator/src/shard.rs | sed -n '/^pub(crate) struct Shard {/,/^}/p')"
[ -n "$shard_struct" ] || {
  echo "one-table check FAILED: no struct Shard in crates/emulator/src/shard.rs (update this step if it moved)" >&2
  exit 1
}
if grep -nE 'VirtualRouter|ExternalPeer|ChaCha8Rng|Journal|EventTally|LoopWall|churn' <<<"$shard_struct"; then
  echo "one-table check FAILED: struct Shard holds per-entity or per-run state (it belongs in the Fleet)" >&2
  exit 1
fi
for f in crates/emulator/src/*.rs crates/emulator/src/engine/*.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'merge_churn|merged_journal|fn absorb'; then
    echo "one-table check FAILED: $f merges per-shard copies (there is one churn tracker, one journal, one tally)" >&2
    exit 1
  fi
done
cargo test -q --test work_ceiling a_shard_costs_no_per_node_state | grep -q '1 passed' || {
  echo "one-table check FAILED: the per-shard memory test did not run and pass" >&2
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
