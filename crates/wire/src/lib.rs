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

use std::cell::Cell;
use std::convert::Infallible;
use std::fmt;

use bytes::{Bytes, BytesMut};

thread_local! {
    /// What a message is written into, kept between messages.
    static SCRATCH: Cell<BytesMut> = Cell::new(BytesMut::new());
}

/// The message `write` writes, in a frame of exactly its size: one
/// allocation per message, whatever its length.
pub(crate) fn frame(write: impl FnOnce(&mut BytesMut)) -> Bytes {
    let framed = try_frame(|out| {
        write(out);
        Ok::<_, Infallible>(())
    });
    framed.unwrap_or_else(|never| match never {})
}

/// [`frame`] for a writer that can fail: no frame, then.
pub(crate) fn try_frame<E>(write: impl FnOnce(&mut BytesMut) -> Result<(), E>) -> Result<Bytes, E> {
    let mut out = SCRATCH.try_with(Cell::take).unwrap_or_default();
    out.clear();
    let written = write(&mut out).map(|()| Bytes::copy_from_slice(&out));
    let _ = SCRATCH.try_with(|scratch| scratch.set(out));
    written
}

/// Back-patches one byte reserved earlier by a placeholder `put_u8`.
/// A position outside the buffer (impossible by construction — every call
/// passes an offset previously returned by `out.len()`) is a no-op, so the
/// encoder can never panic.
pub(crate) fn patch_u8(out: &mut BytesMut, pos: usize, val: u8) {
    if let Some(b) = out.get_mut(pos) {
        *b = val;
    }
}

/// Back-patches a big-endian u16 reserved earlier by a placeholder
/// `put_u16`. Same no-panic contract as [`patch_u8`].
pub(crate) fn patch_u16_be(out: &mut BytesMut, pos: usize, val: u16) {
    if let Some(slot) = out.get_mut(pos..pos + 2) {
        slot.copy_from_slice(&val.to_be_bytes());
    }
}

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
