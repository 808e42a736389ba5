//! End-to-end linter tests over fixture workspaces.
//!
//! Each fixture under `tests/fixtures/<rule>/` mirrors the real workspace
//! shape (`crates/<name>/src/lib.rs`) and contains, per rule, a positive
//! case (the rule fires), a negative case (clean idiom, no finding), and a
//! suppressed case (annotated with a reasoned `allow`).

use std::path::PathBuf;

use mfv_lint::{scan_workspace, Report, RuleId};

fn scan_fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    scan_workspace(&root).expect("fixture root scans")
}

fn lines_for(report: &Report, rule: RuleId) -> Vec<usize> {
    report
        .violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn d1_fixture_positive_negative_suppressed() {
    let report = scan_fixture("d1");
    // Exactly the two marked positives: the `use` and the struct field.
    // The annotated HashSet and the BTreeMap lines stay quiet.
    assert_eq!(lines_for(&report, RuleId::D1), vec![4, 7]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn d2_fixture_positive_negative_suppressed() {
    let report = scan_fixture("d2");
    // `Instant::now` and `thread_rng`; the annotated clock and the seeded
    // RNG stay quiet.
    assert_eq!(lines_for(&report, RuleId::D2), vec![4, 8]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn p1_fixture_positive_negative_suppressed() {
    let report = scan_fixture("p1");
    // `.unwrap()` and the slice index; the annotated index, the Result
    // path, and the `#[cfg(test)]` module stay quiet.
    assert_eq!(lines_for(&report, RuleId::P1), vec![4, 8]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn w1_fixture_positive_negative_suppressed() {
    let report = scan_fixture("w1");
    // The unguarded index and the `panic!`; the annotated guarded index
    // and the typed-error path stay quiet.
    assert_eq!(lines_for(&report, RuleId::W1), vec![6, 11]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn d3_fixture_positive_negative_suppressed() {
    let report = scan_fixture("d3");
    // The relaxed counter and the `try_iter` drain; the annotated counter,
    // the SeqCst counter, and the sorted `try_recv` drain stay quiet.
    assert_eq!(lines_for(&report, RuleId::D3), vec![7, 11]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn watch_fixture_covers_mgmt_scope() {
    // mgmt is in scope for D1 (watcher iteration order feeds the verdict
    // journal), D2 (seeded stream faults), and P1 (no panics mid-stream):
    // one positive each; the suppressed and clean cases stay quiet.
    let report = scan_fixture("watch");
    assert_eq!(lines_for(&report, RuleId::D1), vec![5]);
    assert_eq!(lines_for(&report, RuleId::D2), vec![14]);
    assert_eq!(lines_for(&report, RuleId::P1), vec![25]);
    assert_eq!(report.violations.len(), 3, "{:#?}", report.violations);
}

#[test]
fn serve_fixture_covers_query_front_end_scope() {
    // serve is in scope for D1 (byte-identical answers across workers
    // forbid order-leaking maps in reply paths) and P1 (malformed
    // requests degrade via ERR replies): one positive each; the
    // suppressed probe and the Result path stay quiet.
    let report = scan_fixture("serve");
    assert_eq!(lines_for(&report, RuleId::D1), vec![5]);
    assert_eq!(lines_for(&report, RuleId::P1), vec![8]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn core_fixture_covers_sweep_scope() {
    // core is in scope for D3 (the what-if sweep's fan-out must not let
    // scheduling order reach its verdicts): the hand-rolled relaxed work
    // cursor fires; the annotated counter and the mutex cursor stay quiet.
    let report = scan_fixture("core");
    assert_eq!(lines_for(&report, RuleId::D3), vec![8]);
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
}

#[test]
fn fixture_reports_are_deterministic() {
    for name in ["d1", "d2", "d3", "p1", "w1", "watch", "serve", "core"] {
        let a = scan_fixture(name);
        let b = scan_fixture(name);
        let key = |r: &Report| -> Vec<(String, usize, usize)> {
            r.violations
                .iter()
                .map(|v| (v.file.display().to_string(), v.line, v.col))
                .collect()
        };
        assert_eq!(key(&a), key(&b), "scan of {name} must be reproducible");
    }
}

/// The real workspace must stay lint-clean: this is the same gate CI runs
/// via `cargo run -p mfv-lint`, expressed as a test so a plain `cargo test`
/// also catches regressions.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .expect("lint crate lives at <root>/crates/lint");
    let report = scan_workspace(&root).expect("workspace scans");
    let rendered: Vec<String> = report.violations.iter().map(mfv_lint::render).collect();
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}
