//! The model-free verification pipeline — the paper's primary contribution.
//!
//! ```text
//!   configs + topology + context          (Snapshot)
//!        │
//!        ▼
//!   control-plane emulation               (EmulationBackend → mfv-emulator)
//!        │  converged?
//!        ▼
//!   AFT extraction over gNMI              (mfv-mgmt)
//!        │
//!        ▼
//!   dataplane model                        (mfv-dataplane)
//!        │
//!        ▼
//!   verification queries                   (mfv-verify)
//! ```
//!
//! The traditional path ([`ModelBackend`]) slots into the same pipeline at
//! the dataplane step, which is what makes model-vs-model-free differential
//! comparisons (experiment E3) a one-query affair.
//!
//! - [`snapshot`] — verification inputs and what-if variants
//! - [`backend`] — [`EmulationBackend`] (model-free) and [`ModelBackend`]
//! - [`extract`] — AFT extraction with per-node status and coverage
//! - [`scenarios`] — every topology in the paper's evaluation
//! - [`watch`] — continuous verification: a live emulation streamed through
//!   the fault-tolerant watcher into standing queries, the batch queries
//!   re-asked per changed snapshot
//! - [`whatif`] — link-cut context enumeration and parallel sweeps

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

pub mod backend;
pub mod extract;
pub mod scenarios;
pub mod snapshot;
pub mod watch;
pub mod whatif;
pub mod xval;

pub use backend::{
    Backend, BackendError, BackendMeta, BackendResult, ConflintGate, ConflintSummary,
    EmulationBackend, ModelBackend,
};
pub use extract::{extract_snapshot, ExtractedSnapshot};
pub use snapshot::Snapshot;
pub use watch::{run_watch, WatchReport, WatchRunConfig};
pub use whatif::{
    link_cut_context_count, link_cut_contexts, verify_link_cuts_detailed, CutVerdict, SweepError,
    SweepReport,
};

// Re-export the observability sink so pipeline callers need only `mfv-core`.
pub use mfv_obs as obs;

// Re-export the query surface so downstream users need only `mfv-core`:
// build one `ForwardingAnalysis` per dataplane and hand it to every query.
pub use mfv_verify::observed_query;
pub use mfv_verify::{
    deliverability_changes, detect_loops_with, detect_multipath_inconsistency,
    differential_reachability_with, disposition_summary, qualified_reachability,
    qualified_unreachable_pairs, reachability, unreachable_pairs_with, ClassCache, Coverage,
    DiffFinding, Disposition, ForwardingAnalysis, Qualified, StandingQueries, Verdict,
    VerdictUpdate,
};
