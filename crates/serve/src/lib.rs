//! The query-serving front end: load a verified snapshot once, build the
//! forwarding-equivalence-class index, and answer operator queries over
//! TCP for the life of the snapshot.
//!
//! The one-shot pipeline answers one question per process; an operator
//! debugging an incident asks hundreds ("can r3 reach 10.9.0.1? what
//! about 10.9.0.2? trace it"). Re-running symbolic analysis per question
//! would be O(network) every time, when the expensive part — every
//! packet class's fate from every node — is a pure function of the
//! snapshot. So:
//!
//! - [`QueryIndex`] wraps a [`mfv_verify::ForwardingAnalysis`], which
//!   builds its class index once (on the first query, or up front in
//!   [`QueryIndex::warm`]); every point query after that is a lookup.
//!   This is the same structure the standing (watch-mode) queries and the
//!   batch verdicts read — one index, three front ends.
//! - [`Server`] shares one `Arc<QueryIndex>` across blocking worker
//!   threads; the built index is immutable, so any worker can serve any
//!   query with plain reads and all workers return byte-identical answers.
//!
//! The wire protocol is a length-prefixed line protocol: requests are
//! single lines (`REACH r1 r4`), responses are `OK <len>\n` or
//! `ERR <len>\n` followed by exactly `<len>` payload bytes. See
//! [`index::Reply`] and [`index::encode`].

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

pub mod index;
pub mod server;

pub use index::{encode, QueryIndex, Reply};
pub use server::{query_once, Server, ServerConfig, ServerHandle};
