//! The `experiments` binary's argument contract: an id it does not know is
//! a usage error, not an empty run.

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
        stderr.contains("e1 e2 e3 e4 e5 e6 e7 a1 a2 a3"),
        "valid ids missing: {stderr}"
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
