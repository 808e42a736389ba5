//! One planted violation per invariant rule (DESIGN.md § "Determinism &
//! panic-safety invariants"), under the crate-root attribute the in-scope
//! crates carry. `scripts/check.sh` lints this crate against
//! `crates/clippy.toml` and fails unless clippy rejects it and names every
//! lint below, and unless its `Relaxed` grep hits `d3_relaxed`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::time::{Instant, SystemTime};

/// D1: `disallowed_types`, both hash collections.
pub fn d1() -> (HashMap<u32, u32>, HashSet<u32>) {
    (HashMap::new(), HashSet::new())
}

/// D2: `disallowed_methods`, `Instant::now`.
pub fn d2_instant() -> Instant {
    Instant::now()
}

/// D2: `disallowed_types`, `SystemTime`.
pub fn d2_system_time() -> SystemTime {
    SystemTime::UNIX_EPOCH
}

/// D3: `disallowed_methods`, `Receiver::try_iter`.
pub fn d3_drain(rx: &Receiver<u32>) -> Vec<u32> {
    rx.try_iter().collect()
}

/// D3: no lint can name an enum variant; the gate greps for it.
pub fn d3_relaxed(n: &AtomicU64) -> u64 {
    n.load(Ordering::Relaxed)
}

/// P1 / W1: `unwrap_used`.
pub fn p1_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// P1 / W1: `expect_used`.
pub fn p1_expect(x: Option<u32>) -> u32 {
    x.expect("planted")
}

/// P1 / W1: `panic`.
pub fn p1_panic() {
    panic!("planted")
}

/// P1 / W1: `unreachable`.
pub fn p1_unreachable() {
    unreachable!("planted")
}

/// P1 / W1: `unimplemented`.
pub fn p1_unimplemented() {
    unimplemented!("planted")
}

/// P1 / W1: `indexing_slicing`.
pub fn p1_index(xs: &[u32]) -> u32 {
    xs[0]
}

/// A suppression without a reason: `allow_attributes_without_reason`.
#[allow(dead_code)]
fn reasonless() {}
