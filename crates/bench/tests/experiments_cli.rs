//! The `experiments` binary's argument contract (an id it does not know is
//! a usage error, not an empty run) and the headline line of every paper
//! result it regenerates — it is the one program per result, so the numbers
//! EXPERIMENTS.md quotes are asserted here on its output.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_id_is_rejected_before_anything_runs() {
    // `e2` is valid and listed first: rejection must still come before it
    // starts, so stdout stays empty.
    let out = experiments(&["e2", "e9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "ran something: {:?}", out.stdout);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown experiment id `e9`"), "{stderr}");
    assert!(
        stderr.contains("e1 e2 e3 e4 e5 e6 e7 a1 a2 a3 heap converge watch chaos"),
        "valid ids missing: {stderr}"
    );
}

#[test]
fn a_bad_option_is_rejected_before_anything_runs() {
    for (args, message) in [
        (&["e2", "--journal"][..], "option '--journal' needs a value"),
        (&["e2", "--bogus"][..], "unknown option '--bogus'"),
        (&["watch", "--seed", "x"][..], "bad --seed"),
        (
            &["converge", "--grid", "3"][..],
            "--grid takes <cols> <rows>",
        ),
        (
            &["watch", "0", "0"][..],
            "a grid takes cols >= 1 and rows >= 1",
        ),
        (&["watch", "1", "1"][..], "at least two routers"),
        (&["converge", "--grid", "0", "3"][..], "a grid takes"),
        (
            &["heap", "0", "0"][..],
            "2..=200 regions of 3..=256 routers",
        ),
        (&["converge", "1", "20"][..], "a regional WAN takes"),
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// Every id the documents pass to `experiments --` (the words that open the
/// command, up to a number, an option or its end) is one the binary knows:
/// with a sentinel last, the sentinel is the only id it refuses.
#[test]
fn the_documents_name_only_ids_the_binary_knows() {
    let read = |doc| std::fs::read_to_string(format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR")));
    let docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(|doc| read(doc).expect(doc));
    let mut args = std::collections::BTreeSet::new();
    for text in &docs {
        for (at, call) in text.match_indices("experiments -- ") {
            let rest = &text[at + call.len()..];
            let words = rest
                .split(|c: char| !c.is_alphanumeric() && c != ' ')
                .next();
            let words = words.unwrap_or_default().split_whitespace();
            args.extend(words.take_while(|w| w.starts_with(char::is_lowercase)));
        }
    }
    assert!(args.contains("watch") && args.contains("e7"), "{args:?}");
    let mut args: Vec<&str> = args.into_iter().collect();
    args.push("no-such-id");
    let out = experiments(&args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("unknown experiment id `no-such-id`"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn known_id_runs_only_that_experiment() {
    let out = experiments(&["e2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("\nE2: "), "{stdout}");
    assert!(!stdout.contains("\nE1: "), "{stdout}");
}

/// Runs `experiments <args>`, asserts each headline substring and returns
/// the output.
fn assert_headlines(args: &[&str], headlines: &[&str]) -> String {
    let out = experiments(args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for headline in headlines {
        assert!(
            stdout.contains(headline),
            "missing `{headline}` in:\n{stdout}"
        );
    }
    stdout
}

#[test]
fn e1_finds_the_as3_to_as2_loss() {
    assert_headlines(
        &["e1"],
        &[
            "fate-changed classes: 16",
            "deliverability-changed classes: 16",
            "from r5: 2 classes lost",
            "from r6: 2 classes lost",
            "loss of connectivity AS3 → AS2 discovered    paper: yes                    measured: yes",
            "from r5: dst 2.2.2.3/32, 100.64.0.2/32 — was [accepted at r3], now [no route at r5]",
        ],
    );
}

#[test]
fn e2_counts_unrecognized_lines_in_the_papers_band() {
    assert_headlines(
        &["e2"],
        &[
            "r1         67          27            40        10         30",
            "r4         58          20            38         8         30",
            "paper: 38–42                  measured: 38–40",
        ],
    );
}

#[test]
fn e3_model_drops_what_emulation_delivers() {
    assert_headlines(
        &["e3"],
        &[
            "emulation: pairwise reachability             paper: full                   measured: full",
            "model: reachability R2 → R1                  paper: dropped                measured: dropped",
            "model broken pairs: [(r1, r2), (r1, r3), (r2, r1), (r3, r1)]",
            "7 classes deliverable only in emulation",
        ],
    );
}

#[test]
fn e4_quick_hits_the_single_machine_wall() {
    assert_headlines(
        &["e4", "--quick"],
        &[
            "     20        yes    421.072s         63ms      2037     780",
            "     70         NO  (insufficient cluster capacity",
            "paper: ~60                    measured: 64",
            "measured: 1088 pods fit on 17 (15 machines: 960)",
            "paper: 12–17 min              measured: 12.5 min",
        ],
    );
}

#[test]
fn e5_quick_convergence_is_injection_paced() {
    let stdout = assert_headlines(
        &["e5", "--quick"],
        &[
            "       2500     7.0min       1.972s      2386        50242",
            "      10000     7.0min       2.006s      2752       200242",
            "measured: 2.006s at 10000 routes; ≈3.4 min at 2M/feed",
        ],
    );
    // Each row's peak heap, and that per FIB entry: what a route costs,
    // at most 5 % over the 183 B and 174 B measured (the network's own
    // routes weigh more in the smaller table).
    for (routes, entries, ceiling) in [("2500", 50_242, 192), ("10000", 200_242, 183)] {
        let mut rows = stdout
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>());
        let row = rows.find(|cols| cols.first() == Some(&routes));
        let row = row.expect("a row per feed size");
        let (peak, per_entry): (usize, usize) = (row[5].parse().unwrap(), row[6].parse().unwrap());
        assert_eq!(per_entry, peak / entries, "{row:?}");
        assert!(per_entry <= ceiling, "{per_entry} B per FIB entry: {row:?}");
    }
}

#[test]
fn e6_broken_isis_is_visible_in_the_device_cli() {
    let out = experiments(&["e6"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("verification: 4 broken reachability pairs"),
        "{stdout}"
    );
    // r2's LSDB holds r1 and itself; r3 never joined, and has no neighbor.
    let lsdb = stdout
        .split("r2# show isis database")
        .nth(1)
        .expect("lsdb shown");
    let (lsdb, neighbors) = lsdb
        .split_once("r3# show isis neighbors")
        .expect("neighbors shown");
    assert!(lsdb.contains(" r1\n") && lsdb.contains(" r2\n"), "{lsdb}");
    assert!(!lsdb.contains(" r3\n"), "{lsdb}");
    assert_eq!(
        neighbors.lines().filter(|l| l.contains("Ethernet")).count(),
        0
    );
}

#[test]
fn e7_static_and_runtime_tiers_agree_on_every_family() {
    assert_headlines(&["e7"], &["measured: 8/8"]);
}

#[test]
fn a1_seeds_expose_two_converged_dataplanes() {
    assert_headlines(
        &["a1"],
        &[
            "8 seeds → 2 distinct converged dataplanes",
            "reachability-level result stable across runs paper: (desired)              measured: yes",
        ],
    );
}

#[test]
fn a2_every_single_cut_of_the_chain_breaks_something() {
    assert_headlines(
        &["a2"],
        &[
            "six-node snapshot has 5 links",
            "any 2 cut(s): 10 contexts",
            "0 cut contexts survive, 5 cause reachability loss",
            "class cache: 29 node analyses reused, 7 computed",
        ],
    );
}

#[test]
fn a3_interplay_crash_loses_seven_classes() {
    assert_headlines(
        &["a3"],
        &[
            "routing process crashes observed             paper: 1 (production incident) measured: 1",
            "measured: 7 packet classes lost",
            "measured: no (vjunos unsupported)",
        ],
    );
}

#[test]
fn heap_bgp_engines_hold_a_handle_per_route_not_a_copy() {
    let out = experiments(&["heap", "3", "4"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("regional_wan(3, 4), seed 1: 12 routers, 198 FIB entries"),
        "{stdout}"
    );
    // A row's last column is bytes per FIB entry. `bgp`: 936 with every
    // Adj-RIB entry owning its attributes, 382 with one stored copy per set.
    // `rib`: 335 with BGP's selection copied into it, 228 with connected,
    // static and IS-IS routes only.
    let per_entry = |piece: &str| -> usize {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{piece} ")))
            .and_then(|row| row.split_whitespace().last()?.parse().ok())
            .unwrap_or_else(|| panic!("a {piece} row:\n{stdout}"))
    };
    assert!(per_entry("bgp") < 450, "{stdout}");
    assert!(per_entry("rib") < 250, "{stdout}");
    // `engine`: what the emulation holds beside its routers' pieces.
    assert!(per_entry("engine") > 0, "{stdout}");
    // `compute`'s peak holds the emulation it converged. At this size the
    // run's obs dump (and, in a debug build, the digest check's dataplane)
    // weighs as much as the extracted dataplane, so that it is not built
    // beside the network is held in bytes by
    // `work_ceiling.rs::extraction_holds_one_routers_aft_at_a_time`.
    let bytes = |piece: &str| -> usize {
        let row = stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{piece} ")));
        let bytes = row.and_then(|row| row.split_whitespace().next()?.parse().ok());
        bytes.unwrap_or_else(|| panic!("a {piece} row:\n{stdout}"))
    };
    assert!(bytes("compute peak") >= bytes("emulation"), "{stdout}");
    // A client's twelve routes carry four attribute sets, stored four times.
    assert!(
        stdout.contains("client       r00x01        12          4       4"),
        "{stdout}"
    );
}

#[test]
fn converge_prints_the_span_table_and_the_once_per_distinct_input_counters() {
    assert_headlines(
        &["converge", "3", "4"],
        &[
            "regional_wan(3, 4), seed 1: 2447 events",
            "\nconverge.poll ",
            "\nconverge.settle ",
            "\nsum ",
            "\nrouter.bgp ",
            // 12 routers, 1,516 polls, 204 decisions: a lookup per session
            // per IGP move, a resolution per gateway per batch, an export
            // per group per scope prefix.
            "engine.polls.router                   1516",
            "fib.gateway_resolutions                 62",
            "bgp.liveness_lookups                    42",
            "bgp.export_computations                324",
            // Extraction, typed against the JSON Get it replaced: the same
            // dataplane either way.
            "\nextract (typed Get) ",
            "\nJSON Get (replaced) ",
            "\ndigests equal: 217077b89c5abfa8",
        ],
    );
}

#[test]
fn converge_grid_prints_spf_per_run_and_one_encoding_per_lsp() {
    assert_headlines(
        &["converge", "--grid", "3", "2"],
        &[
            "isis_grid(3, 2), seed 1: 1162 events",
            // What the run allocated, against the messages it delivered.
            "\nallocations: ",
            " in the run, ",
            " per delivered message (550)\n",
            "\nrouter.spf ",
            "\nSPF: 52 runs, ",
            " us per run\n",
            // A route pass over every reached system's prefixes would merge
            // 494 reach entries over those runs.
            "\nroute pass: 147 prefix evaluations\n",
            // Six routers originate 20 LSPs and receive 134: an encoding per
            // origination, a checksum per encoding and per LSP received.
            "isis.lsp_encodes                        20",
            "isis.lsp_checksums                     154",
            "\ndigests equal: 03eb3f31a92f5ec4",
        ],
    );
    // The grid is a flag: a bare word is an experiment id.
    let out = experiments(&["converge", "grid", "3", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown experiment id `grid`"), "{stderr}");
}

#[test]
fn sweep_replays_the_fork_path_phase_by_phase() {
    // Seven single-link cuts of a six-router grid, as
    // `verify_link_cuts_detailed` records them: each phase's median wall
    // time and allocations, the median context's work and the class cache's
    // reuse, which are exact.
    let stdout = assert_headlines(
        &["sweep", "3", "2"],
        &[
            "isis_grid(3, 2), seed 1: 7 contexts, one at a time; baseline 1162 events",
            "\nphase                  median ms  allocations\n",
            "per context (median): 87 events, 11 SPF runs, 45 route-pass prefix evaluations",
            // Every cut of so small a grid moves every router's FIB: each
            // is read, none keeps its baseline node.
            "routers re-read per context (median): 6 of 6",
            "findings over all contexts: 42",
            // Every router of the grid carries one prefix layout, and no
            // single cut moves a prefix.
            "class cache: node classes 47 reused, 1 built; index shapes 7 reused, 1 built",
        ],
    );
    // A row per phase of the sweep's own record — the hand-over is
    // `extract`: extraction tears the fork down as it reads it; `diff`
    // builds the context's class index on its first lookup — and per
    // context: its name, its median milliseconds and its median
    // allocations, which every phase makes.
    let phases = "clone remove_wire run_until_converged extract analysis diff context";
    for phase in phases.split(' ') {
        let row = stdout.lines().find(|l| l.split(' ').next() == Some(phase));
        let row: Vec<&str> = row.expect(phase).split_whitespace().collect();
        let allocs = row.get(2).and_then(|a| a.parse::<u64>().ok());
        assert!(row.len() == 3 && row[1].parse::<f64>().is_ok(), "{row:?}");
        assert!(allocs.is_some_and(|a| a > 0), "{row:?}");
    }
}

#[test]
fn watch_reads_per_tick_and_decodes_per_mirror_change() {
    assert_headlines(
        &["watch", "4", "3"],
        &[
            "isis_grid(4, 3), 1.0min watched: 24 evaluations",
            // 12 initial syncs and 15 resyncs; 745 reads of which 30 found
            // a change to stream, as a batch of the leaf groups it moved;
            // nothing is rendered. 705 reads found the FIB at the epoch
            // last read and took that read's AFT. The client applied 25 of
            // those batches: 52 decodes.
            "watch.syncs.initial            12",
            "watch.resyncs                  15",
            "watch.batches.emitted          30",
            "watch.device_reads            745",
            "watch.aft_reuses              705",
            "watch.mirror_decodes           52",
            "\nwatch.tick ",
            "\nwatch.evaluate ",
            "\nboot and rest ",
        ],
    );
}

#[test]
fn watch_writes_its_journal_and_obs_dump() {
    let dir = std::env::temp_dir();
    let (journal, dump) = (
        dir.join("experiments_watch_journal.txt"),
        dir.join("experiments_watch_obs.json"),
    );
    let out = experiments(&[
        "watch",
        "4",
        "3",
        "--seed",
        "7",
        "--journal",
        journal.to_str().unwrap(),
        "--obs-json",
        dump.to_str().unwrap(),
        "--obs-exclude-wall",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("watch.verdict_updates          62\nwatch.gaps                      9\nwatch.session_losses            4"),
        "{stdout}"
    );
    assert!(
        stdout.contains("watch.resyncs                  13"),
        "{stdout}"
    );
    let journal = std::fs::read_to_string(journal).expect("journal written");
    assert_eq!(journal.lines().count(), 62, "{journal}");
    let dump = std::fs::read_to_string(dump).expect("obs dump written");
    assert!(dump.contains("\"watch.resyncs\": 13"), "{dump}");
    assert!(!dump.contains("\"wall\""), "{dump}");
}

#[test]
fn chaos_reports_oscillation_and_qualified_answers_and_writes_its_obs_dump() {
    let dump = std::env::temp_dir().join("experiments_chaos_obs.json");
    assert_headlines(
        &["chaos", "--obs-json", dump.to_str().unwrap()],
        &[
            "control:  verdict=converged  boot=801.634s  convergence=1.174s  msgs=18342",
            "chaos:    verdict=oscillating (32 prefixes churning, period 4.000s)  msgs=37082",
            "degraded: coverage=93.3% of 30 nodes",
            "unreachable pairs over covered nodes: 273",
        ],
    );
    let dump = std::fs::read_to_string(dump).expect("obs dump written");
    assert!(
        dump.contains("\"verify.query.unreachable_pairs\""),
        "{dump}"
    );
    assert!(dump.contains("\"wall\""), "{dump}");
}
