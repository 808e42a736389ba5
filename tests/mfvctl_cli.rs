//! Black-box tests for the `mfvctl` binary, driven over its real argv/stdout
//! interface (cargo provides the binary path via `CARGO_BIN_EXE_*`).

use std::process::Command;

fn mfvctl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mfvctl"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_example(name: &str, file: &str) -> std::path::PathBuf {
    let (json, _, ok) = mfvctl(&["example", name]);
    assert!(ok);
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, json).unwrap();
    path
}

#[test]
fn help_lists_commands() {
    let (out, _, ok) = mfvctl(&["help"]);
    assert!(ok);
    for cmd in ["run", "diff", "trace", "show", "model", "example"] {
        assert!(out.contains(cmd), "missing '{cmd}' in help:\n{out}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let (_, err, ok) = mfvctl(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn example_emits_valid_topology_json() {
    let (json, _, ok) = mfvctl(&["example", "fig3-line"]);
    assert!(ok);
    let topo = mfv_emulator::Topology::from_json(&json).unwrap();
    assert_eq!(topo.nodes.len(), 3);
    assert_eq!(topo.validate(), Ok(()));
}

#[test]
fn run_reports_convergence_and_reachability() {
    let path = write_example("fig3-line", "mfvctl_run.json");
    let (out, err, ok) = mfvctl(&["run", path.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("converged:   true"), "{out}");
    assert!(out.contains("full mesh"), "{out}");
}

#[test]
fn trace_prints_hops() {
    let path = write_example("fig3-line", "mfvctl_trace.json");
    let (out, err, ok) = mfvctl(&["trace", path.to_str().unwrap(), "r1", "2.2.2.3"]);
    assert!(ok, "{err}");
    assert!(out.contains("accepted at r3"), "{out}");
    assert!(out.contains("r2"), "{out}");
}

#[test]
fn diff_finds_the_e1_outage() {
    let a = write_example("six-node", "mfvctl_a.json");
    let b = write_example("six-node-broken", "mfvctl_b.json");
    let (out, err, ok) = mfvctl(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("deliverability changes"), "{out}");
    assert!(out.contains("2.2.2.3"), "{out}");
}

#[test]
fn model_reports_coverage() {
    let path = write_example("fig3-line", "mfvctl_model.json");
    let (out, err, ok) = mfvctl(&["model", path.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert!(out.contains("unrecognized"), "{out}");
    assert!(out.contains("broken pairs"), "{out}");
}

#[test]
fn show_runs_operator_cli() {
    let path = write_example("fig3-line", "mfvctl_show.json");
    let (out, err, ok) = mfvctl(&[
        "show",
        path.to_str().unwrap(),
        "r2",
        "show",
        "isis",
        "database",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("Link State Database"), "{out}");
    assert!(out.contains("r3"), "{out}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let (_, err, ok) = mfvctl(&["run", "/nonexistent/topo.json"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
}

/// An option a command does not take fails by name before anything runs —
/// `--threads`, which `run` took until the engine's worker pool went, must
/// not silently become a no-op in a script that still passes it.
#[test]
fn unknown_options_are_rejected_by_name() {
    let topo = "examples/topologies/six-node.json";
    for args in [
        vec!["run", topo, "--threads", "4"],
        vec!["run", topo, "--sed", "3"],
        vec!["diff", topo, topo, "--scop", "2.2.2.0/24"],
        vec!["serve", topo, "--port", "0", "--threads", "2"],
        vec!["model", topo, "--bogus", "1"],
        vec!["show", topo, "r1", "--seed", "3", "--bogus", "1"],
    ] {
        let (out, err, ok) = mfvctl(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(out.is_empty(), "{args:?} printed {out}");
        assert!(
            err.contains(&format!("unknown option '{}'", args[args.len() - 2])),
            "{args:?}: {err}"
        );
    }
    let (help, _, _) = mfvctl(&["help"]);
    assert!(!help.contains("--threads"), "{help}");
    // The options each command does take still parse.
    let (out, err, ok) = mfvctl(&["run", topo, "--seed", "3", "--machines", "2"]);
    assert!(ok, "{err}");
    assert!(out.contains("converged:   true"), "{out}");
    let (out, err, ok) = mfvctl(&["diff", topo, topo, "--scope", "2.2.2.0/24"]);
    assert!(ok, "{err}");
    assert!(out.starts_with("0 fate-changed"), "{out}");
    // `show` takes the backend options before the device command (they used
    // to be joined into it, and the network booted with the default seed).
    let show = ["show", topo, "r1", "--seed", "3", "--machines", "2"];
    let (out, err, ok) = mfvctl(&[&show[..], &["show", "ip", "route"]].concat());
    assert!(ok, "{err}");
    assert!(out.contains("2.2.2.2/32"), "{out}");
    assert!(!out.contains("Invalid input"), "{out}");
    let (_, err, ok) = mfvctl(&["show", topo, "r1", "--seed", "x", "show", "ip", "route"]);
    assert!(!ok && err.contains("bad --seed"), "{err}");
}

/// A known option with no value after it fails by name before anything
/// runs: `run topo.json --seed` must not run with the default seed, nor
/// `serve topo.json --baseline` serve without a baseline.
#[test]
fn an_option_without_a_value_is_rejected_by_name() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let topo = "examples/topologies/six-node.json";
    for args in [
        vec!["run", topo, "--seed"],
        vec!["run", topo, "--seed", "3", "--machines"],
        vec!["diff", topo, topo, "--scope"],
        vec!["trace", topo, "r1", "2.2.2.3", "--seed"],
        vec!["serve", topo, "--port", "0", "--baseline"],
        vec!["serve", topo, "--workers"],
    ] {
        // A `serve` that ignored the option would listen until killed.
        let mut child = Command::new(env!("CARGO_BIN_EXE_mfvctl"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let start = Instant::now();
        while child.try_wait().expect("child waits").is_none() {
            if start.elapsed() > Duration::from_secs(60) {
                child.kill().expect("child killed");
                panic!("{args:?} kept running");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("child output");
        let (stdout, err) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
        let name = args[args.len() - 1];
        assert!(
            err.contains(&format!("option '{name}' needs a value")),
            "{args:?}: {err}"
        );
    }
}

/// `mfvctl run topo.json | head -1`: a reader that goes away is a clean
/// exit, not a `failed printing to stdout` panic. The read end is closed
/// before the command has anything to print, so its first write fails.
#[test]
fn closed_stdout_is_a_clean_exit() {
    use std::process::Stdio;
    let topo = "examples/topologies/six-node.json";
    for args in [
        vec!["run", topo],
        vec!["model", topo],
        vec!["diff", topo, topo],
        vec!["trace", topo, "r1", "2.2.2.6"],
        vec!["example", "six-node"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mfvctl"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {err}", out.status);
        assert!(err.is_empty(), "{args:?}: {err}");
    }
}

/// One renderer: `mfvctl trace` prints exactly the payload the server's
/// `TRACE` returns for the same dataplane (both are `Trace`'s `Display`).
#[test]
fn trace_output_equals_the_servers_trace_payload() {
    use mfv_core::{Backend, EmulationBackend, Snapshot};
    use mfv_serve::{QueryIndex, Reply};
    let topo = "examples/topologies/six-node.json";
    let text = std::fs::read_to_string(topo).unwrap();
    let snapshot = Snapshot::new(topo, mfv_emulator::Topology::from_json(&text).unwrap());
    let result = EmulationBackend::default().compute(&snapshot).unwrap();
    let index = QueryIndex::new(&result.dataplane);
    for (src, dst) in [("r1", "2.2.2.6"), ("r5", "2.2.2.3"), ("r6", "203.0.113.9")] {
        let (out, err, ok) = mfvctl(&["trace", topo, src, dst]);
        assert!(ok, "{err}");
        let Reply::Ok(payload) = index.handle(&format!("TRACE {src} {dst}")) else {
            panic!("TRACE {src} {dst} failed");
        };
        assert_eq!(out, format!("{payload}\n"));
    }
}

/// A word past a command's arguments fails by name before anything runs:
/// `run topo.json 7` must not run at the default seed as if the `7` were
/// not there. `show`'s device command and `query`'s request stay variadic.
#[test]
fn a_word_past_a_commands_arguments_is_rejected_by_name() {
    let topo = "examples/topologies/six-node.json";
    for args in [
        vec!["run", topo, "7"],
        vec!["run", topo, "--seed", "3", "7"],
        vec!["model", topo, "extra"],
        vec!["diff", topo, topo, "x"],
        vec!["trace", topo, "r1", "2.2.2.6", "r2"],
        vec!["serve", topo, "--port", "0", "x"],
        vec!["example", "six-node", "x"],
    ] {
        let (out, err, ok) = mfvctl(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(out.is_empty(), "{args:?} printed {out}");
        let word = args[args.len() - 1];
        assert!(
            err.contains(&format!("unexpected argument '{word}' to {}", args[0])),
            "{args:?}: {err}"
        );
    }
}

/// `trace` from a node the topology does not have is refused, as `show`
/// and the server's `TRACE` refuse it, not traced as a down node.
#[test]
fn trace_from_an_unknown_node_is_refused() {
    let topo = "examples/topologies/six-node.json";
    let (out, err, ok) = mfvctl(&["trace", topo, "r9", "2.2.2.1"]);
    assert!(!ok, "{out}");
    assert!(out.is_empty(), "{out}");
    assert!(err.contains("no such node 'r9'"), "{err}");
}

/// `lint` passes every tracked topology under `--deny-warnings` and fails one
/// carrying a conflint error, with the finding on stdout, in either rendering.
#[test]
fn lint_fails_on_a_conflint_error() {
    use mfv_config::SeededMisconfig;
    use mfv_core::scenarios;
    let tracked: Vec<String> = std::fs::read_dir("examples/topologies")
        .unwrap()
        .map(|entry| entry.unwrap().path().display().to_string())
        .filter(|path| path.ends_with(".json"))
        .collect();
    let mut args = vec!["lint", "--deny-warnings"];
    args.extend(tracked.iter().map(String::as_str));
    let (out, err, ok) = mfvctl(&args);
    assert!(ok, "{out}{err}");
    let clean = out.matches("conflint: 0 error(s), 0 warning(s)").count();
    assert!(clean == tracked.len() && clean > 0, "{tracked:?}: {out}");
    let mut configs = scenarios::conflint_base_configs();
    let planted = mfv_config::inject_misconfig(SeededMisconfig::EbgpAsnMismatch, &mut configs, 0)
        .expect("an eBGP session to corrupt");
    let topo = scenarios::conflint_base_topology("c1", &configs);
    let path = std::env::temp_dir().join("mfvctl_lint_c1.json");
    std::fs::write(&path, topo.to_json()).unwrap();
    let path = path.to_str().unwrap();
    let (out, err, ok) = mfvctl(&["lint", path]);
    assert!(!ok, "{out}");
    assert!(out.contains("error[C1]"), "{out}");
    assert!(out.contains(&planted.device), "{out}");
    assert!(err.contains("1 of 1 topologies failed the lint"), "{err}");
    let (out, _, ok) = mfvctl(&["lint", "--json", path]);
    assert!(!ok, "{out}");
    assert!(out.contains("\"errors\": 1"), "{out}");
    let (_, err, ok) = mfvctl(&["lint", path, "--bogus"]);
    assert!(!ok && err.contains("unknown option '--bogus'"), "{err}");
}
