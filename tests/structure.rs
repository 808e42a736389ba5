//! The structural guards: what this repo keeps once stays once. Each row
//! of [`ROWS`] keeps a structure DESIGN.md says the code keeps in one place
//! (one forwarding engine, one thread per emulation, one copy of each
//! distinct set, ...) from coming back in a second form: it counts literal
//! patterns in the non-test view of its files, every `#[cfg(test)]` item
//! skipped wherever it sits. [`REQUIRED`] names the tests that hold the same
//! structures by behaviour. Pattern marks: `*` is any span up to the next
//! `)`, `#` optional whitespace then a digit, `~` one character other than
//! `_`, `@` optional whitespace then a word.

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
enum Rule {
    Absent(&'static str),
    Present(&'static str),
    Exactly(usize, &'static str),
    AtMost(usize, &'static str),
    Names(&'static str, &'static str),
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
        files: "crates/routing/src/bgp.rs",
        rule: Exactly(2, "resolver.igp_metric("),
        why: "one computation per distinct input: session reachability, batch memo",
        plant: "let metric = resolver.igp_metric(next_hop);",
    },
    Row {
        files: "crates/routing/src/bgp.rs > struct Session {",
        rule: Absent("rib_out"),
        why: "one computation per distinct input: the Adj-RIB-Out is the group's",
        plant: "struct Session {\n    rib_out: BTreeMap<Prefix, Route>,\n}",
    },
    Row {
        files: "crates/core/src/extract.rs",
        rule: Absent("Telemetry|serde_json|.aft("),
        why: "one hand-over: extraction takes the typed Get, mfv_mgmt::ForwardingState",
        plant: "let tree: Telemetry = serde_json::from_str(&json)?; tree.aft();",
    },
    Row {
        files: "crates/mgmt/src/watch.rs",
        rule: Absent("Telemetry::from_router"),
        why: "one render per change: a watch's device side reads a typed DeviceState",
        plant: "let tree = Telemetry::from_router(router);",
    },
    Row {
        files: "crates/mgmt/src/watch.rs > pub fn dataplane(",
        rule: Absent(".aft("),
        why: "one render per change: a stream decodes its mirror once per change",
        plant: "pub fn dataplane(&self) -> Dataplane {\n    mirror.aft()\n}",
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
];

/// The tests that hold the same structures by behaviour, as `file::name`.
const REQUIRED: &[&str] = &[
    "crates/routing/src/bgp.rs::equal_attribute_sets_are_stored_once_and_the_store_stays_bounded",
    "crates/routing/src/bgp.rs::ecmp_excludes_a_path_that_lost_on_med",
    "crates/routing/src/bgp.rs::export_groups_send_what_per_peer_adj_rib_outs_would",
    "crates/routing/src/isis.rs::spf_over_the_maintained_graph_is_the_reference_spf",
    "crates/vrouter/tests/delta_oracle.rs::a_prefix_bgp_and_the_igp_both_carry_goes_to_the_lower_admin_distance",
    "crates/vrouter/tests/delta_oracle.rs::every_poll_leaves_tables_equal_to_a_rebuild_from_the_sources",
    "crates/core/src/extract.rs::typed_get_equals_the_json_get",
    "crates/mgmt/src/watch.rs::typed_reads_stream_what_full_reads_would",
    "crates/mgmt/tests/gnmi_roundtrip.rs::diff_is_canonical",
    "crates/verify/tests/proptests.rs::standing_pair_work_is_unchanged_on_a_fixed_delta_sequence",
    "tests/work_ceiling.rs::a_converged_wan_stores_each_distinct_set_once",
    "tests/work_ceiling.rs::a_reflector_computes_each_distinct_thing_once",
    "tests/work_ceiling.rs::a_quiet_watch_renders_only_its_syncs",
    "tests/work_ceiling.rs::an_lsp_is_encoded_and_checksummed_once",
    "tests/work_ceiling.rs::a_shard_costs_no_per_node_state",
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
        [b'@', rest @ ..] => {
            let after = text.get(blank..)?;
            let mut words = after.split(|c: char| !c.is_alphanumeric() && c != '_');
            let word = words.next().filter(|word| !word.is_empty())?;
            Some((match_at(rest, text, blank + word.len())?.0, word))
        }
        [b'#' | b'~', ..] => None,
        [c, rest @ ..] if b.get(i) == Some(c) => match_at(rest, text, i + 1),
        _ => None,
    }
}

fn patterns(rule: &Rule) -> &'static str {
    let (Absent(p) | Present(p) | Exactly(_, p) | AtMost(_, p) | Names(_, p)) = *rule;
    p
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
        let hits = (0..view.len()).filter_map(|i| match_at(pattern.as_bytes(), &view, i));
        let found: Vec<&str> = hits.map(|(_, word)| word).collect();
        let ok = match row.rule {
            Absent(_) => found.is_empty(),
            Present(_) => !found.is_empty(),
            Exactly(n, _) => found.len() == n,
            AtMost(n, _) => found.len() <= n,
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
        for glob in row.files.split(" > ").next().unwrap_or_default().split(' ') {
            let files = files(glob);
            failures.extend(files.is_empty().then(|| format!("`{glob}` names no file")));
            for file in files {
                let text = std::fs::read_to_string(&file).expect(&file);
                failures.extend(violations(row, &file, &text));
            }
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
