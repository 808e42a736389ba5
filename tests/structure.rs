//! The structural guards: what this repo keeps once stays once. Each row
//! of [`ROWS`] keeps a structure DESIGN.md says the code keeps in one place
//! (one forwarding engine, one thread per emulation, one copy of each
//! distinct set, ...) from coming back in a second form: it counts literal
//! patterns in the non-test view of its files, every `#[cfg(test)]` item
//! skipped wherever it sits. [`REQUIRED`] names the tests that hold the same
//! structures by behaviour. Pattern marks: `*` is any span up to the next
//! `)`, `#` optional whitespace then a digit, `~` one character other than
//! `_`, `@` optional whitespace then a word, `^` the start of a word.

use std::path::Path;

use Rule::*;

/// `files`: globs from the repository root (`*` is any span), then maybe
/// ` > ` and the opening text of the items to read instead of the whole
/// view. Every pattern of `rule` rejects `plant`, repeated past a bound.
struct Row {
    files: &'static str,
    rule: Rule,
    why: &'static str,
    plant: &'static str,
}

/// How often each `|`-separated pattern may occur in a file's view. `Names`:
/// each match names a file, its path with the word `@` read for `@`.
/// `Once`: one match across all the row's files together.
enum Rule {
    Absent(&'static str),
    Present(&'static str),
    Exactly(usize, &'static str),
    AtMost(usize, &'static str),
    Names(&'static str, &'static str),
    Once(&'static str),
}

const ALL_RUST: &str = "crates/*/src/*.rs src/*.rs examples/*.rs";
const DOCS: &str = "README.md DESIGN.md EXPERIMENTS.md";

const ROWS: &[Row] = &[
    Row {
        files: "crates/verify/src/*.rs",
        rule: Absent(".fib()|Fib::new"),
        why: "one walker: the class index is mfv-verify's only forwarding engine",
        plant: "let fib = Fib::new(); rib.fib();",
    },
    Row {
        files: "crates/core/src/whatif.rs",
        rule: Absent(".compute("),
        why: "one what-if path: the sweep forks; a cold boot is the test oracle",
        plant: "let cold = backend.compute(&snapshot.without_links(cuts));",
    },
    Row {
        files: "crates/bench/src/bin/*.rs",
        rule: Absent("remove_wire(|::derive("),
        why: "one what-if path: the experiments binary prints the sweep's own record and \
              replays no fork",
        plant: "fork.remove_wire(&link); let fa = ForwardingAnalysis::derive(&dp, &parent);",
    },
    Row {
        files: "crates/*/src/*.rs",
        rule: Absent("ForwardingState"),
        why: "one read: extraction and the watch read a device through DeviceState::read",
        plant: "pub struct ForwardingState { pub aft: Aft }",
    },
    Row {
        files: "crates/mgmt/src/*.rs crates/core/src/*.rs",
        rule: Absent("fib_version("),
        why: "one change epoch: extraction and the watch ask a router's FIB epoch, never its bare version",
        plant: "let unchanged = router.fib_version() == last;",
    },
    Row {
        files: "crates/core/src/extract.rs",
        rule: Absent(".dataplane()"),
        why: "one what-if path: extraction reads node facts, not the emulated dataplane",
        plant: "let reference = emu.dataplane();",
    },
    Row {
        files: "crates/emulator/src/engine.rs crates/emulator/src/shard.rs",
        rule: Absent("Mutex|Barrier|thread::|catch_unwind|lock_or_recover"),
        why: "one emulation, one thread: parallelism is run_indexed over emulations",
        plant: "Mutex::new(Barrier::new(2)); thread::spawn(catch_unwind(lock_or_recover));",
    },
    Row {
        files: ALL_RUST,
        rule: Absent("run_indexed(#"),
        why: "one emulation, one thread: a fan-out's width is EmulationBackend::threads",
        plant: "let out = run_indexed(\n    4,\n    seeds.len(),\n    run,\n);",
    },
    Row {
        files: "crates/verify/src/queries.rs crates/verify/src/coverage.rs",
        rule: Absent("pub fn *&Dataplane"),
        why: "one front door: a query takes the ForwardingAnalysis, not a &Dataplane",
        plant: "pub fn detect_loops(\n    dp: &Dataplane,\n) -> Vec<Finding> {}",
    },
    Row {
        files: "crates/verify/src/queries.rs",
        rule: Absent(".intersect("),
        why: "one pass per diff: a differential query walks both class indexes once per source",
        plant: "let inter = set_b.intersect(set_a);",
    },
    Row {
        files: "crates/verify/src/graph.rs > impl ClassCache {",
        rule: Absent("fib_digest"),
        why: "one shape per prefix layout: node classes and index shapes are keyed by prefixes, not by next hops",
        plant: "self.by_digest.get(&node.fib_digest())",
    },
    Row {
        files: "crates/emulator/src/engine.rs",
        rule: Absent("m.inc("),
        why: "one front door: counter flushing is engine/export.rs",
        plant: "m.inc(\"engine.events.processed\", n);",
    },
    Row {
        files: DOCS,
        rule: Absent("-p mfv-conflint"),
        why: "one front door: the lint is mfvctl lint; mfv-conflint has no binary",
        plant: "cargo run -p mfv-conflint -- topo.json",
    },
    Row {
        files: DOCS,
        rule: Names("examples/@.rs", "--example @|examples/@.rs"),
        why: "one front door: every example the documents name exists",
        plant: "cargo run --example replay_chaos; see examples/replay_chaos.rs",
    },
    Row {
        files: "DESIGN.md EXPERIMENTS.md",
        rule: AtMost(500, "\n"),
        why: "one front door: a document describes the system as it is in 500 lines",
        plant: "\n",
    },
    Row {
        files: "crates/routing/src/bgp.rs",
        rule: Absent("BTreeMap<Prefix, BgpAttrs>|attrs: BgpAttrs|next_hops: Vec<Ipv4Addr>"),
        why: "one copy per distinct set: BGP holds Arc handles from its InternSets",
        plant: "BTreeMap<Prefix, BgpAttrs>, attrs: BgpAttrs, next_hops: Vec<Ipv4Addr>",
    },
    Row {
        files: "crates/vrouter/src/router.rs",
        rule: Absent("set_route(*EbgpLearned|set_route(*IbgpLearned"),
        why: "one copy per distinct set: Fib::patch reads BGP's selection in place",
        plant: "rib.set_route(\n    Source::EbgpLearned,\n); rib.set_route(IbgpLearned);",
    },
    Row {
        files: "crates/routing/src/rib.rs",
        rule: Absent("next_hops: Vec<FibNextHop>"),
        why: "one copy per distinct set: a FibEntry holds an Arc<[FibNextHop]>",
        plant: "pub struct FibEntry { pub next_hops: Vec<FibNextHop> }",
    },
    Row {
        files: "crates/routing/src/rib.rs > pub struct Fib {",
        rule: Absent("PrefixTrie<FibEntry>|InternSet"),
        why: "one group table per FIB: an entry names its next-hop group by id; a set is \
              stored once, in the table's groups",
        plant: "pub struct Fib {\n    trie: PrefixTrie<FibEntry>,\n    sets: InternSet<Arc<[FibNextHop]>>,\n}",
    },
    Row {
        files: "crates/mgmt/src/aft.rs > pub fn from_fib(",
        rule: Absent("&[FibNextHop]"),
        why: "one group table per FIB: the AFT numbers the FIB's groups by their ids, not \
              by looking each entry's set up",
        plant: "pub fn from_fib(fib: &Fib) -> Aft {\n    let ids: BTreeMap<&[FibNextHop], u64>;\n}",
    },
    Row {
        files: "crates/core/src/extract.rs",
        rule: Absent("emu: &Emulation"),
        why: "one hand-over: extraction consumes the emulation, letting each router go once \
              it is read",
        plant: "pub fn extract_snapshot(emu: &Emulation, collector: &Collector) {}",
    },
    Row {
        files: "crates/routing/src/bgp.rs",
        rule: Exactly(2, "resolver.igp_metric("),
        why: "one computation per distinct input: session reachability in `reaches`, a \
              decision's per-batch memo in `best`",
        plant: "let metric = resolver.igp_metric(next_hop);",
    },
    Row {
        files: "crates/routing/src/bgp.rs > struct Neighbor {",
        rule: Absent("rib_out|rib_in|by_next_hop"),
        why: "one computation per distinct input: paths and next-hop counts are the \
              engine's table, the Adj-RIB-Out is the group's",
        plant: "struct Neighbor {\n    rib_out: Out,\n    rib_in: In,\n    by_next_hop: Index,\n}",
    },
    Row {
        files: "crates/routing/src/bgp.rs > struct Neighbor {",
        rule: Absent("BTreeMap<Prefix"),
        why: "one table per engine: every received path and the selection sit in the \
              engine's prefix-keyed table, none in a neighbor",
        plant: "struct Neighbor {\n    rib_in: BTreeMap<Prefix, RibInEntry>,\n}",
    },
    Row {
        files: "crates/types/src/trie.rs",
        rule: Absent("Box<Node"),
        why: "one arena per trie: nodes sit in one Vec and name their children by u32 index",
        plant: "struct Node<V> { children: [Option<Box<Node<V>>>; 2] }",
    },
    Row {
        files: "crates/core/src/extract.rs",
        rule: Absent("Telemetry|serde_json|.aft("),
        why: "one hand-over: extraction takes the device's typed read, DeviceState::read",
        plant: "let tree: Telemetry = serde_json::from_str(&json)?; tree.aft();",
    },
    Row {
        files: "crates/mgmt/src/watch.rs",
        rule: Absent("Telemetry|serde_json|diff(|apply("),
        why: "no render in the watch: a stream carries a DeviceState's leaf groups, and each \
              mirror is a DeviceState",
        plant: "let old = Telemetry::from_state(last)?; let batch = diff(&old, &new); \
                let mirror = apply(&m, &batch); serde_json::to_string(&mirror)",
    },
    Row {
        files: "crates/mgmt/src/*.rs",
        rule: Absent("canonicalize|WatchEvent|CollectorConfig"),
        why: "one record per happening: diff sorts its batch; stats and journal record",
        plant: "fn canonicalize(b: &mut Batch) {} enum WatchEvent {} struct CollectorConfig;",
    },
    Row {
        files: "crates/verify/src/*.rs",
        rule: Absent("DepSet|PairState|SrcState|dispositions_from_deps|_with_deps"),
        why: "one answer per query: no per-pair dependency layer beside the batch queries",
        plant: "DepSet PairState SrcState dispositions_from_deps() reachability_with_deps()",
    },
    Row {
        files: "crates/verify/src/standing.rs",
        rule: Present("unreachable_pairs_with(|detect_loops_with(|detect_blackholes_with("),
        why: "one answer per query: a standing query asks the three batch queries",
        plant: "fn evaluate(&mut self) { self.reachability_from_deps() }",
    },
    Row {
        files: "crates/routing/src/isis.rs",
        rule: Exactly(1, "StoredLsp::encode("),
        why: "one encoding per LSP: one encode, in the origination",
        plant: "let stored = StoredLsp::encode(&lsp);",
    },
    Row {
        files: "crates/routing/src/isis.rs > fn regenerate_own_lsp(",
        rule: Exactly(1, "StoredLsp::encode("),
        why: "one encoding per LSP: the origination is where the one encode sits",
        plant: "fn regenerate_own_lsp(&mut self) {\n    StoredLsp::encode(&lsp);\n}\n",
    },
    Row {
        files: "crates/routing/src/isis.rs",
        rule: Absent("IsisPdu::Lsp(~|checksum(|fletcher16"),
        why: "one encoding per LSP: flood, ack and describe the stored bytes and entry",
        plant: "IsisPdu::Lsp(lsp.clone()).encode(); lsp.checksum(); fletcher16(&bytes);",
    },
    Row {
        files: "crates/routing/src/isis.rs",
        rule: Absent("Vec<IfaceId>|build_hello(*).encode("),
        why: "one allocation per frame: the out-queue names adjacency slots, and a hello is \
              encoded once per adjacency state, where it is cached",
        plant: "out: VecDeque<(Vec<IfaceId>, Bytes)>; self.send(iface, self.build_hello(iface).encode());",
    },
    Row {
        files: "crates/wire/src/isis.rs > pub fn receive(",
        rule: Absent("decode_lsp|decode_tlvs"),
        why: "one walker: a received frame is read through the TLV walk the typed decode \
              uses, straight into what the engine keeps",
        plant: "pub fn receive(frame: Bytes) {\n    decode_lsp(&mut buf); decode_tlvs(&mut buf);\n}",
    },
    Row {
        files: "crates/emulator/src/shard.rs > fn dispatch_router_events(",
        rule: Absent("iface|Iface"),
        why: "one allocation per frame: a frame names its port, which the boot-time port \
              table resolves to a link; no interface name is read per frame",
        plant: "fn dispatch_router_events() {\n    let iface: IfaceRef = resolve(&name);\n}",
    },
    Row {
        files: "crates/vrouter/src/router.rs crates/emulator/src/shard.rs",
        rule: Absent(".encode("),
        why: "one encoding per frame: a BGP or IS-IS frame is encoded where it is built, in \
              the engines and the feeds; the router and the shard pass its bytes on",
        plant: "let payload = msg.encode()?;",
    },
    Row {
        files: "crates/emulator/src/shard.rs",
        rule: Exactly(1, ".bgp_flow_clock"),
        why: "one BGP send path: a router's or a feed's segment leaves the shard through \
              send_bgp, the one place a flow clock moves",
        plant: "let clock = self.bgp_flow_clock.entry((src, dst));",
    },
    Row {
        files: "crates/emulator/src/shard.rs > struct Shard {",
        rule: Absent("VirtualRouter|ExternalPeer|ChaCha8Rng|Journal|EventTally|LoopWall|churn"),
        why: "one table per entity: a shard is a schedule; entities live in the Fleet",
        plant: "struct Shard { VirtualRouter ExternalPeer ChaCha8Rng Journal EventTally \
                LoopWall churn }",
    },
    Row {
        files: "crates/emulator/src/*.rs",
        rule: Absent("merge_churn|merged_journal|fn absorb"),
        why: "one table per entity: one churn tracker, one journal, one tally",
        plant: "fn merge_churn() {} fn merged_journal() {} fn absorb(&mut self) {}",
    },
    Row {
        files: "crates/core/src/scenarios.rs",
        rule: Absent("port_count|PortLinks|mem::replace|.clone().iface("),
        why: "one address plan: a generated scenario's ports and cables are Wiring's",
        plant: "let mut port_count = vec![0; n]; let links: PortLinks = Vec::new(); \
                specs[i] = std::mem::replace(&mut specs[i], x); specs[j].clone().iface(b);",
    },
    Row {
        files: "crates/core/src/scenarios.rs",
        rule: AtMost(2, "p2p(|ifname("),
        why: "one address plan: the /31 allocator and the port namer, each defined and \
              called once",
        plant: "let (a, b) = p2p(link_no); let port = ifname(vendor, i);",
    },
    Row {
        files: "crates/*/src/*.rs src/*.rs tests/*.rs",
        rule: Once("impl GlobalAlloc@"),
        why: "one allocation accountant: heap costs are counted by mfv_obs::alloc, which a \
              binary or test registers",
        // Split, so this file does not hold the violation it plants.
        plant: concat!("unsafe impl Global", "Alloc for PerThreadCounting {}"),
    },
    Row {
        files: "crates/*/src/*.rs",
        rule: Absent("enum PeerState"),
        why: "one BGP session machine: a router's engine and an external feed both step \
              bgp::Session; no second FSM beside it",
        plant: "pub enum PeerState {\n    Idle,\n    OpenSent,\n    Established,\n}",
    },
    Row {
        files: "crates/*/src/*.rs",
        rule: Once("fn step("),
        why: "one BGP session machine: RFC 4271's (state × event) table is written once, \
              Session::step",
        plant: "pub fn step(&mut self, now: SimTime, event: Event) -> Step {}",
    },
    Row {
        files: "crates/emulator/src/*.rs",
        rule: Absent(
            "^ext_wake|^ext_next|^ext_rng|^ext_shard|schedule_ext_poll|DeliverToExternal|enum Owner",
        ),
        why: "one entity key: routers and feeds are woken, seeded, placed, addressed and \
              delivered to through one table each, indexed by Entity",
        plant: "enum Owner { External(usize) } ext_wake ext_next ext_rng ext_shard \
                schedule_ext_poll(fleet, idx, at); DeliverToExternal { idx, payload }",
    },
];

/// The tests that hold the same structures by behaviour, as `file::name`.
const REQUIRED: &[&str] = &[
    "crates/routing/src/bgp.rs::equal_attribute_sets_are_stored_once_and_the_store_stays_bounded",
    "crates/routing/src/bgp.rs::ecmp_excludes_a_path_that_lost_on_med",
    "crates/routing/src/bgp.rs::export_groups_send_what_per_peer_adj_rib_outs_would",
    "crates/routing/src/isis.rs::spf_over_the_maintained_graph_is_the_reference_spf",
    "crates/routing/src/isis.rs::an_lsp_that_moves_nothing_here_evaluates_no_prefix",
    "crates/vrouter/tests/delta_oracle.rs::a_prefix_bgp_and_the_igp_both_carry_goes_to_the_lower_admin_distance",
    "crates/vrouter/tests/delta_oracle.rs::every_poll_leaves_tables_equal_to_a_rebuild_from_the_sources",
    "crates/core/src/extract.rs::typed_get_equals_the_json_get",
    "crates/mgmt/src/watch.rs::typed_reads_stream_what_full_reads_would",
    "crates/mgmt/src/gnmi.rs::a_typed_delta_is_the_tree_diff",
    "crates/mgmt/tests/gnmi_roundtrip.rs::diff_is_canonical",
    "crates/verify/tests/proptests.rs::standing_pair_work_is_unchanged_on_a_fixed_delta_sequence",
    "crates/verify/tests/proptests.rs::one_pass_diff_is_the_pairwise_diff",
    "crates/verify/tests/proptests.rs::an_index_from_a_cached_shape_is_a_fresh_index",
    "crates/verify/src/graph.rs::a_cache_hit_checks_the_key_not_only_its_digest",
    "crates/core/src/whatif.rs::a_single_cut_sweep_reuses_the_baseline_shape",
    "tests/work_ceiling.rs::a_fork_copies_no_route",
    "tests/work_ceiling.rs::a_converged_wan_stores_each_distinct_set_once",
    "tests/work_ceiling.rs::a_reflector_computes_each_distinct_thing_once",
    "tests/work_ceiling.rs::a_quiet_watch_renders_only_its_syncs",
    "tests/work_ceiling.rs::an_lsp_is_encoded_and_checksummed_once",
    "tests/work_ceiling.rs::a_shard_costs_no_per_node_state",
    "tests/work_ceiling.rs::walking_a_fib_allocates_one_small_buffer",
    "crates/types/tests/proptests.rs::trie_arena_follows_a_map_model",
    "crates/routing/src/rib.rs::fib_groups_follow_a_map_model",
    "tests/work_ceiling.rs::extraction_holds_one_routers_aft_at_a_time",
    "crates/wire/tests/proptests.rs::receive_is_the_typed_decode",
    "tests/work_ceiling.rs::an_isis_frame_costs_one_allocation",
    "crates/routing/src/bgp.rs::a_group_in_sync_shares_one_encoding_of_each_update",
    "crates/wire/tests/proptests.rs::bgp_decoder_rejects_truncations",
    "crates/core/src/whatif.rs::wan24_single_cuts_from_a_fork_equal_the_cold_boot",
    "crates/core/src/extract.rs::extraction_against_a_parent_is_a_fresh_extraction",
    "crates/verify/tests/proptests.rs::a_derived_analysis_is_a_fresh_analysis",
    "crates/mgmt/src/watch.rs::a_rescheduled_router_at_the_streamed_version_is_read_again",
    "crates/vrouter/src/router.rs::a_fib_epoch_names_one_instance_and_moves_with_its_fib",
    "tests/work_ceiling.rs::an_spf_run_allocates_only_the_routes_it_hands_out",
    "tests/work_ceiling.rs::a_quiet_watch_tick_allocates_nothing",
    "crates/routing/src/bgp.rs::the_session_machine_is_rfc_4271_but_for_named_deviations",
    "crates/routing/src/bgp.rs::a_summary_counts_the_paths_a_table_walk_finds",
    "crates/emulator/src/inject.rs::a_router_gone_past_the_hold_time_gets_the_table_again",
    "crates/emulator/src/engine.rs::a_zero_route_feed_counts_as_drained_once_its_session_is_established",
    "tests/work_ceiling.rs::a_context_records_what_its_fork_and_hand_over_cost",
];

/// The files `glob` names. Tests run in the repository root.
fn files(glob: &str) -> Vec<String> {
    fn walk(path: String, glob: &str, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(&path).into_iter().flatten().flatten() {
            walk(format!("{path}/{}", entry.file_name().display()), glob, out);
        }
        if matches(glob.as_bytes(), path.as_bytes()) && Path::new(&path).is_file() {
            out.push(path);
        }
    }
    fn matches(glob: &[u8], path: &[u8]) -> bool {
        match glob {
            [b'*', rest @ ..] => (0..=path.len()).any(|i| matches(rest, &path[i..])),
            [c, rest @ ..] => path.first() == Some(c) && matches(rest, &path[1..]),
            [] => path.is_empty(),
        }
    }
    let (mut out, top) = (Vec::new(), glob.split('/').next().unwrap_or(glob));
    walk(top.to_string(), glob, &mut out);
    out
}

/// The length of the item `text` starts with: through the brace that closes
/// its body, through its `;` if it has none, or up to a closer it did not open.
fn item_len(text: &str) -> usize {
    let (b, mut depth, mut i) = (text.as_bytes(), 0, 0);
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => i += text[i..].find('\n').unwrap_or(b.len()),
            b'"' => {
                i += 1;
                while b.get(i).is_some_and(|&c| c != b'"') {
                    i += 1 + usize::from(b[i] == b'\\');
                }
            }
            b'\'' if b.get(i + 2) == Some(&b'\'') => i += 2,
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b'}' if depth == 1 => return i + 1,
            b')' | b']' | b'}' => depth -= 1,
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// `text` without its `#[cfg(test)]` items, wherever they sit.
fn non_test(text: &str) -> String {
    let (mut out, mut rest, attr) = (String::new(), text, "#[cfg(test)]");
    let own_line = |s: &str, at: usize| s[..at].trim_end_matches([' ', '\t']).ends_with('\n');
    while let Some((at, _)) = rest.match_indices(attr).find(|&(at, _)| own_line(rest, at)) {
        out.push_str(&rest[..at]);
        rest = &rest[at + attr.len()..];
        rest = &rest[item_len(rest)..];
    }
    out + rest
}

/// Where `pattern` matches `text` from byte `i`: its end, and the word `@` read.
fn match_at<'t>(pattern: &[u8], text: &'t str, i: usize) -> Option<(usize, &'t str)> {
    let b = text.as_bytes();
    let blank = b.len() - b[i..].trim_ascii_start().len();
    match pattern {
        [] => Some((i, "")),
        [b'*', rest @ ..] => (i..=b.len())
            .take_while(|&j| j == i || b[j - 1] != b')')
            .find_map(|j| match_at(rest, text, j)),
        [b'#', rest @ ..] if b.get(blank).is_some_and(u8::is_ascii_digit) => {
            match_at(rest, text, blank + 1)
        }
        [b'~', rest @ ..] if b.get(i).is_some_and(|&c| c != b'_') => match_at(rest, text, i + 1),
        [b'^', rest @ ..] if i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') => {
            match_at(rest, text, i)
        }
        [b'@', rest @ ..] => {
            let after = text.get(blank..)?;
            let mut words = after.split(|c: char| !c.is_alphanumeric() && c != '_');
            let word = words.next().filter(|word| !word.is_empty())?;
            Some((match_at(rest, text, blank + word.len())?.0, word))
        }
        [b'#' | b'~' | b'^', ..] => None,
        [c, rest @ ..] if b.get(i) == Some(c) => match_at(rest, text, i + 1),
        _ => None,
    }
}

fn patterns(rule: &Rule) -> &'static str {
    let (Absent(p) | Present(p) | Exactly(_, p) | AtMost(_, p) | Names(_, p) | Once(p)) = *rule;
    p
}

/// The matches of `pattern` in `view`, each with the word `@` read.
fn hits<'t>(pattern: &str, view: &'t str) -> Vec<&'t str> {
    let hits = (0..view.len()).filter_map(|i| match_at(pattern.as_bytes(), view, i));
    hits.map(|(_, word)| word).collect()
}

/// What `row` finds wrong with `file`'s text: one line per failing pattern.
fn violations(row: &Row, file: &str, text: &str) -> Vec<String> {
    let mut view = non_test(text);
    if let Some((_, item)) = row.files.split_once(" > ") {
        let items = view.match_indices(item).map(|(at, _)| &view[at..]);
        view = items.map(|item| &item[..item_len(item)]).collect();
        if view.is_empty() {
            return vec![format!("{file}: no `{item}` (update its row): {}", row.why)];
        }
    }
    let mut out = Vec::new();
    for pattern in patterns(&row.rule).split('|') {
        let found = hits(pattern, &view);
        let ok = match row.rule {
            Absent(_) => found.is_empty(),
            Present(_) => !found.is_empty(),
            Exactly(n, _) => found.len() == n,
            AtMost(n, _) => found.len() <= n,
            Once(_) => found.len() <= 1,
            Names(path, _) => found
                .iter()
                .all(|word| Path::new(&path.replace('@', word)).is_file()),
        };
        let (n, pattern) = (found.len(), pattern.escape_debug());
        out.extend((!ok).then(|| format!("{file}: `{pattern}` {n} times: {}", row.why)));
    }
    out
}

#[test]
fn every_row_holds_on_the_tree() {
    let mut failures = Vec::new();
    for row in ROWS {
        let mut across = 0;
        for glob in row.files.split(" > ").next().unwrap_or_default().split(' ') {
            let files = files(glob);
            failures.extend(files.is_empty().then(|| format!("`{glob}` names no file")));
            for file in files {
                let text = std::fs::read_to_string(&file).expect(&file);
                failures.extend(violations(row, &file, &text));
                if let Once(pattern) = row.rule {
                    across += hits(pattern, &non_test(&text)).len();
                }
            }
        }
        if matches!(row.rule, Once(_)) && across != 1 {
            failures.push(format!("{}: {across} matches: {}", row.files, row.why));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Each row's plant trips every pattern of the row, a bounded count at one
/// copy too many; behind `#[cfg(test)]` it is test code, and passes.
#[test]
fn every_row_rejects_its_planted_violation() {
    for row in ROWS {
        let plant = match row.rule {
            Exactly(n, _) | AtMost(n, _) => row.plant.repeat(n + 1),
            Once(_) => row.plant.repeat(2),
            _ => row.plant.to_string(),
        };
        let (found, want) = (violations(row, "plant.rs", &plant), patterns(&row.rule));
        assert_eq!(found.len(), want.split('|').count(), "{found:?}");
        if matches!(row.rule, Absent(_)) && !row.files.contains(" > ") {
            let hidden = format!("fn product() {{}}\n#[cfg(test)]\nmod tests {{\n{plant}\n}}\n");
            let found = violations(row, "plant.rs", &hidden);
            assert!(found.is_empty(), "{}: {found:?}", row.why);
        }
    }
}

#[test]
fn every_required_test_exists_and_is_not_ignored() {
    for required in REQUIRED {
        let (file, name) = required.rsplit_once("::").expect("file::name");
        let text = std::fs::read_to_string(file).expect(file);
        let at = text.find(&format!("fn {name}("));
        let at = at.unwrap_or_else(|| panic!("no test {required} (update REQUIRED)"));
        let above = text[..at].trim_end_matches(' ').lines().rev();
        let attrs = above.take_while(|l| l.trim_start().starts_with(['#', '/']));
        let attrs: String = attrs.collect();
        assert!(attrs.contains("#[test]"), "{required} is not a #[test]");
        assert!(!attrs.contains("ignore"), "{required} is ignored");
    }
}

/// Nothing follows a test item, so the size count (each file up to its first
/// `#[cfg(test)]`) and the rows see the same product code.
#[test]
fn test_items_come_last() {
    for file in ALL_RUST.split(' ').flat_map(files) {
        let text = std::fs::read_to_string(&file).expect(&file);
        let first = text.find("#[cfg(test)]").unwrap_or(text.len());
        let last = non_test(&text).trim_end() == text[..first].trim_end();
        assert!(last, "{file}: product code after a test item");
    }
}
