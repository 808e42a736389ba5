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
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn known_id_runs_only_that_experiment() {
    let out = experiments(&["e2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("\nE2: "), "{stdout}");
    assert!(!stdout.contains("\nE1: "), "{stdout}");
}

/// Runs `experiments <args>` and asserts each headline substring.
fn assert_headlines(args: &[&str], headlines: &[&str]) {
    let out = experiments(args);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for headline in headlines {
        assert!(
            stdout.contains(headline),
            "missing `{headline}` in:\n{stdout}"
        );
    }
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
    assert_headlines(
        &["e5", "--quick"],
        &[
            "       2500     7.0min       1.972s      2382        50242",
            "      10000     7.0min       2.007s      2739       200242",
            "measured: 2.007s at 10000 routes; ≈3.4 min at 2M/feed",
        ],
    );
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
            "class cache: 12 node analyses reused, 24 computed",
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
            "\nrouter.spf ",
            "\nSPF: 52 runs, ",
            " us per run\n",
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
fn watch_renders_per_sync_and_change_and_decodes_per_mirror_change() {
    assert_headlines(
        &["watch", "4", "3"],
        &[
            "isis_grid(4, 3), 1.0min watched: 24 evaluations",
            // 12 initial syncs and 15 resyncs; 745 reads of which 30 found
            // a change to stream: 57 renders. The client applied 25 of
            // those batches: 52 decodes.
            "watch.syncs.initial            12",
            "watch.resyncs                  15",
            "watch.batches.emitted          30",
            "watch.device_reads            745",
            "watch.device_renders           57",
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
            "control:  verdict=converged  boot=801.634s  convergence=1.175s  msgs=18365",
            "chaos:    verdict=oscillating (32 prefixes churning, period 4.000s)  msgs=37105",
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
