//! `mfv-obs` — deterministic observability for the verification pipeline.
//!
//! The paper's pitch is *accessible* verification: an operator must be able
//! to see what the emulation did — convergence timelines, extraction
//! coverage, where wall-time went — not just a final verdict. This crate is
//! the shared sink every pipeline stage flushes into: a metrics registry
//! ([`Metrics`]: counters, gauges, log2-bucket histograms), span-style phase
//! timers ([`SimPhases`] on the virtual clock, [`WallSection`] on the real
//! one), and a ring-buffered structured event journal ([`Journal`]). What
//! code costs in heap is counted apart, by the one counting allocator a
//! binary or test can register ([`alloc::Accountant`]).
//!
//! # Determinism contract
//!
//! Everything outside [`Obs::wall`] is derived from sim-time, seeded
//! randomness, and event counts only: two runs of the same
//! `(topology, seed, chaos plan)` produce **byte-identical**
//! `to_json(false)` dumps. Wall-clock readings are quarantined in
//! [`wall`] — the one module allowed to touch `Instant` (D2 lint scope) —
//! and serialized under a separate `"wall"` key that `to_json(false)`
//! omits. The `obs_determinism` integration test and the CI obs-smoke step
//! enforce the contract on every change.
//!
//! # Metric naming
//!
//! Names are `&'static str` in `<stage>.<subsystem>.<what>` form
//! (`engine.events.deliver_bgp`, `mgmt.rpc.retries`, `verify.index.lookups`).
//! Static names keep the hot path allocation-free and the BTreeMap-backed
//! registry keeps dump order stable without a sort pass.
//!
//! # Hot-path discipline
//!
//! Instrumented components do *not* call into the registry per event —
//! they keep plain `u64` field counters (or a local [`Hist`]) and flush
//! once at collection points via `Metrics::inc`/`merge_hist`. A metrics
//! update is a BTreeMap lookup; a field increment is one add.

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

pub mod alloc;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod wall;

pub use journal::{Event, Journal};
pub use metrics::{Hist, Metrics};
pub use phase::{SimPhases, SimSpan, PHASES};
pub use wall::{WallSection, WallTimer};

/// The full observability state for one pipeline run: deterministic
/// sections (metrics, sim phases, journal) plus the quarantined wall-time
/// section.
#[derive(Clone, Default, Debug)]
pub struct Obs {
    /// Deterministic counters/gauges/histograms.
    pub metrics: Metrics,
    /// Sim-time span per pipeline phase (boot/flood/converge/extract/verify).
    pub phases: SimPhases,
    /// Ring-buffered structured events (sim-time stamped).
    pub journal: Journal,
    /// Wall-clock section — excluded from determinism comparisons.
    pub wall: WallSection,
}

impl Obs {
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Folds another `Obs` into this one: counters and histograms add,
    /// phases and gauges take the other's values where present, journal
    /// events append in order.
    pub fn merge(&mut self, other: Obs) {
        self.metrics.merge(&other.metrics);
        self.phases.merge(&other.phases);
        self.journal.merge(other.journal);
        self.wall.merge(&other.wall);
    }

    /// Serializes to JSON with stable key order. With `include_wall =
    /// false` the dump contains only deterministic sections and two
    /// same-seed runs must produce byte-identical output; `true` appends
    /// the `"wall"` section (never compared across runs).
    pub fn to_json(&self, include_wall: bool) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        self.metrics.write_json(&mut s, 1);
        s.push_str(",\n");
        self.phases.write_json(&mut s, 1);
        s.push_str(",\n");
        self.journal.write_json(&mut s, 1);
        if include_wall {
            s.push_str(",\n");
            self.wall.write_json(&mut s, 1);
        }
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_types::SimTime;

    fn sample() -> Obs {
        let mut obs = Obs::new();
        obs.metrics.inc("engine.crashes", 2);
        obs.metrics.inc("engine.events.deliver_bgp", 40);
        obs.metrics.gauge("engine.nodes", 3);
        obs.metrics.record("engine.wake_depth", 0);
        obs.metrics.record("engine.wake_depth", 5);
        obs.metrics.record("engine.wake_depth", 5_000);
        obs.phases.record("boot", SimTime(0), SimTime(430_000));
        obs.phases
            .record("converge", SimTime(430_000), SimTime(500_000));
        obs.journal
            .push(SimTime(450_000), "chaos.link_down", "r2:Ethernet2");
        obs.wall.add_phase("boot", 1234);
        obs.wall.metrics.inc("verify.query_wall_us", 77);
        obs
    }

    #[test]
    fn json_is_reproducible_and_separates_wall() {
        let a = sample().to_json(false);
        let b = sample().to_json(false);
        assert_eq!(a, b, "deterministic section must be byte-stable");
        assert!(!a.contains("\"wall\""));
        let full = sample().to_json(true);
        assert!(full.contains("\"wall\""));
        assert!(full.starts_with("{\n"), "{full}");
        assert!(full.ends_with("}\n"));
        // The deterministic prefix is unchanged by including wall.
        assert!(full.starts_with(a.trim_end_matches("\n}\n")));
    }

    #[test]
    fn merge_adds_counters_and_appends_journal() {
        let mut a = sample();
        let b = sample();
        a.merge(b);
        assert_eq!(a.metrics.counter("engine.crashes"), 4);
        assert_eq!(a.journal.len(), 2);
        let h = a.metrics.hist("engine.wake_depth").expect("hist exists");
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 5_000);
    }
}
