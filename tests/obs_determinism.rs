//! The mfv-obs determinism contract, end to end: two same-seed runs of the
//! full pipeline (emulate → extract → verify) must produce **byte-identical**
//! `Obs::to_json(false)` dumps. Wall-clock readings live in a separate
//! `"wall"` section that only `to_json(true)` includes — the one part of the
//! dump allowed to differ between replays. This is the committed twin of the
//! CI obs-smoke step (which diffs two `experiments chaos --obs-json` dumps).

use model_free_verification::core::{observed_query, scenarios, Backend, EmulationBackend};
use model_free_verification::obs::Obs;
use model_free_verification::verify::{unreachable_pairs_with, ForwardingAnalysis};

/// One observed pipeline run: a seeded six-node emulation with a flaky
/// management plane (so retry/backoff tallies are non-trivial), extraction,
/// and one observed verification query whose analysis flushes its class
/// index counters.
fn observed_run(seed: u64) -> Obs {
    let mut backend = EmulationBackend::with_seed(seed);
    backend.collector.failures.seed = seed;
    backend.collector.failures.transient_error_pct = 30;
    let snapshot = scenarios::six_node();
    let mut result = backend
        .compute(&snapshot)
        .expect("six-node scenario converges");
    let obs = &mut result.obs;
    assert!(result.meta.converged);
    let fa = ForwardingAnalysis::new(&result.dataplane);
    let reports = observed_query(obs, "verify.query.unreachable_pairs", || {
        unreachable_pairs_with(&fa)
    });
    assert!(reports.is_empty(), "six-node scenario is fully reachable");
    fa.observe_into(obs);
    result.obs
}

#[test]
fn same_seed_dumps_are_byte_identical() {
    let a = observed_run(7).to_json(false);
    let b = observed_run(7).to_json(false);
    assert_eq!(
        a, b,
        "deterministic obs sections diverged between same-seed runs"
    );
    assert!(
        !a.contains("\"wall\""),
        "to_json(false) must omit the wall section"
    );
}

#[test]
fn wall_section_is_present_and_separated() {
    let obs = observed_run(7);
    let bare = obs.to_json(false);
    let full = obs.to_json(true);
    assert!(full.contains("\"wall\""));
    // Including wall only *appends*: the deterministic prefix is unchanged.
    assert!(full.starts_with(bare.trim_end_matches("\n}\n")));
    // The pipeline charged wall time to its stages — the class index
    // build among them, and only there.
    assert!(obs.wall.phase_micros("converge").is_some());
    assert!(obs.wall.phase_micros("extract").is_some());
    assert!(obs.wall.phase_micros("verify.index.build").is_some());
    assert!(!bare.contains("verify.index.build"));
}

#[test]
fn pipeline_phases_and_metrics_are_populated() {
    let obs = observed_run(7);
    for phase in ["boot", "converge", "extract"] {
        let span = obs
            .phases
            .get(phase)
            .unwrap_or_else(|| panic!("{phase} phase span missing"));
        assert!(span.end >= span.start, "{phase} span runs backwards");
    }
    // Each instrumented stage flushed something.
    assert!(obs.metrics.counter("engine.events.processed") > 0);
    assert!(obs.metrics.counter("mgmt.rpc.attempts") > 0);
    assert!(obs.metrics.counter("mgmt.rpc.retries") > 0);
    assert_eq!(obs.metrics.counter("verify.query.unreachable_pairs"), 1);
    // The index's shape and use: 6 nodes × 5 destinations looked up once
    // each, every (class, node) fate computed at build time.
    assert_eq!(obs.metrics.counter("verify.index.lookups"), 30);
    let classes = obs.metrics.counter("verify.index.classes");
    assert!(classes > 0 && classes <= obs.metrics.counter("verify.index.atoms"));
    assert_eq!(
        obs.metrics.counter("verify.index.fates_computed"),
        classes * 6
    );
    assert_eq!(obs.metrics.counter("verify.index.cyclic_classes"), 0);
    assert!(obs.metrics.hist("engine.wake_depth").is_some());
    // The flaky collector's backoff waits land in the extract sim span.
    let extract = obs.phases.get("extract").expect("extract span");
    assert!(extract.duration().as_millis() > 0);
}

#[test]
fn different_seeds_may_differ_but_stay_well_formed() {
    // Not a determinism assertion — just that dumps from different seeds
    // are valid standalone documents (the JSON writer is hand-rolled).
    for seed in [7, 8] {
        let dump = observed_run(seed).to_json(true);
        assert!(dump.starts_with("{\n") && dump.ends_with("}\n"), "{dump}");
        let parsed: serde_json::Value =
            serde_json::from_str(&dump).expect("obs dump parses as JSON");
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("phases_sim_ms").is_some());
        assert!(parsed.get("wall").is_some());
    }
}
