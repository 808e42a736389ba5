//! CLI: `cargo run -p mfv-conflint -- [--json] [--deny-warnings] <topology.json>...`
//!
//! Lints one or more topology files (the JSON produced by
//! `Topology::to_json` / `mfvctl example`). Exit codes: 0 = clean (or
//! warnings only, unless `--deny-warnings`), 1 = findings, 2 = usage or
//! I/O error.

// P1 (DESIGN.md § "Determinism & panic-safety invariants"): non-test code
// here degrades through typed errors, never a panic.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::process::ExitCode;

use mfv_conflint::{analyze, Severity};
use mfv_emulator::Topology;

const USAGE: &str = "usage: mfv-conflint [--json] [--deny-warnings] <topology.json>...";

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut paths = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("mfv-conflint: unknown flag `{flag}`\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mfv-conflint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let topo = match Topology::from_json(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mfv-conflint: {path}: not a topology JSON: {e}");
                return ExitCode::from(2);
            }
        };
        let report = match analyze(&topo) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mfv-conflint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if json {
            print!("{}", report.render_json());
        } else {
            print!("{}", report.render());
        }
        let gate = report
            .findings
            .iter()
            .any(|f| deny_warnings || f.severity == Severity::Error);
        failed = failed || gate;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
