//! Byte-level wire formats for the emulated control planes.
//!
//! The two vendor router implementations in `mfv-vrouter` exchange *encoded
//! bytes*, not shared Rust structures. This matters: the paper's argument for
//! emulation over modeling includes cross-vendor interplay bugs ("one
//! vendor's OS produced an unusual but valid BGP advertisement that caused
//! another vendor's routing process to crash during parsing"). Such a bug is
//! only expressible when each vendor runs its own parser over a real byte
//! stream — which is exactly what this crate enables.
//!
//! - [`bgp`] — BGP-4 messages (RFC 4271 framing, 4-byte ASNs, unknown
//!   optional-transitive attribute passthrough)
//! - [`isis`] — IS-IS PDUs (point-to-point hellos, LSPs, sequence-number
//!   PDUs, TLV-encoded reachability)

// W1 (DESIGN.md § "Determinism & panic-safety invariants"): decoders reject
// malformed input through `DecodeError`, never a panic.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

pub mod bgp;
pub mod isis;

use std::fmt;

/// Error produced when decoding a malformed or truncated message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Which codec failed ("bgp", "isis").
    pub proto: &'static str,
    pub reason: String,
}

impl DecodeError {
    pub fn new(proto: &'static str, reason: impl Into<String>) -> DecodeError {
        DecodeError {
            proto,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} decode error: {}", self.proto, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Error produced when a message cannot be represented on the wire — a body
/// or sub-field larger than its length field can carry. Encoders must return
/// this instead of silently truncating the length (an earlier version wrapped
/// `body.len() as u16`, emitting a corrupt frame the peer misparsed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncodeError {
    /// Which codec failed ("bgp", "isis").
    pub proto: &'static str,
    pub reason: String,
}

impl EncodeError {
    pub fn new(proto: &'static str, reason: impl Into<String>) -> EncodeError {
        EncodeError {
            proto,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} encode error: {}", self.proto, self.reason)
    }
}

impl std::error::Error for EncodeError {}
