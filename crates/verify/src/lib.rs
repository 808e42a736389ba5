//! The dataplane verification engine — this workspace's counterpart to the
//! (modified) Batfish verification engine of §4.2.
//!
//! Operates purely on [`mfv_dataplane::Dataplane`] snapshots, so it is
//! backend-agnostic: feed it emulation-extracted AFT state (model-free) or a
//! model-computed dataplane (baseline) and ask the same questions —
//! which is precisely what lets the paper compare the two worlds with one
//! Differential Reachability query.
//!
//! - [`graph`] — symbolic packet-class analysis ([`ForwardingAnalysis`])
//! - `index` — the forwarding-equivalence-class index every query reads:
//!   atoms → classes → one next-hop graph walk per class
//! - [`queries`] — the query library (differential reachability,
//!   reachability, loops, black holes, multipath consistency), one function
//!   per query, each taking the [`ForwardingAnalysis`]
//! - [`coverage`] — coverage-qualified answers over partially-extracted
//!   snapshots (which devices a verdict does and does not speak for)
//! - [`standing`] — standing queries for continuous verification: the
//!   batch queries re-asked per snapshot through a shared class cache,
//!   emitting verdict transitions instead of full reports

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

pub mod coverage;
pub mod graph;
mod index;
pub mod queries;
pub mod standing;

/// Runs a verification query under observation: bumps the deterministic
/// counter `name` and records the query's wall latency (µs) into the
/// wall-quarantined histogram of the same name. Use a
/// `verify.query.<kind>` name so dumps group by query type.
pub fn observed_query<T>(obs: &mut mfv_obs::Obs, name: &'static str, f: impl FnOnce() -> T) -> T {
    obs.metrics.inc(name, 1);
    let timer = mfv_obs::WallTimer::start();
    let out = f();
    obs.wall.metrics.record(name, timer.elapsed_micros());
    out
}

pub use coverage::{qualified_reachability, qualified_unreachable_pairs, Coverage, Qualified};
pub use graph::{
    ClassCache, Disposition, DispositionRows, ForwardingAnalysis, NodeClasses, NodeView, Trace,
    TraceHop,
};
pub use index::IndexStats;
pub use queries::{
    deliverability_changes, detect_blackholes_with, detect_loops_with,
    detect_multipath_inconsistency, differential_reachability_with, disposition_summary,
    reachability, unreachable_pairs_with, BlackHoleFinding, DiffFinding, LoopFinding,
    ReachabilityReport,
};
pub use standing::{StandingQueries, Verdict, VerdictUpdate};
