//! Core-scope fixture: the what-if sweep is in scope for D3 — a private
//! work queue on a relaxed cursor is exactly what the shared pool replaced.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

pub fn positive_next_context(cursor: &AtomicUsize) -> usize {
    cursor.fetch_add(1, Ordering::Relaxed) // positive: D3 fires here
}

pub fn suppressed_tally(done: &AtomicU64) {
    // mfv-lint: allow(D3, fixture: progress tally, never read back into a verdict)
    done.fetch_add(1, Ordering::Relaxed);
}

pub fn negative_next_context(cursor: &Mutex<usize>) -> Option<usize> {
    let mut next = cursor.lock().ok()?;
    *next += 1;
    Some(*next - 1)
}
