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
}
