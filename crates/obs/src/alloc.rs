//! The workspace's one counting allocator: what a piece of code asks the
//! heap for, counted exactly, where wall time on a shared host is noise.
//!
//! [`Accountant`] is the system allocator, counting per thread the bytes
//! and allocations live, their high-water mark and the allocations made.
//! Per thread, so tests running beside each other do not see one another,
//! and an emulation runs, and is cloned, on the thread that asks. A binary
//! or test target registers it with one line,
//! `#[global_allocator] static ALLOC: Accountant = Accountant;`, then reads
//! [`made`] and [`held_by`]; without that line both read zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// (bytes, allocations).
pub type Held = (usize, usize);

/// The system allocator, counting; see the module docs.
pub struct Accountant;

thread_local! {
    static LIVE: Cell<Held> = const { Cell::new((0, 0)) };
    static PEAK: Cell<Held> = const { Cell::new((0, 0)) };
    static MADE: Cell<usize> = const { Cell::new(0) };
}

/// Books `bytes` (negative: a release) and the one allocation they are.
fn book(bytes: isize) {
    if bytes > 0 {
        let _ = MADE.try_with(|made| made.set(made.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        let (b, n) = live.get();
        let now = (
            b.wrapping_add_signed(bytes),
            n.wrapping_add_signed(bytes.signum()),
        );
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every request goes to `System` unchanged, so its contract is
// `System`'s (sizes are non-zero and fit `isize` by that contract). The
// counters are const-initialised `Cell`s without destructors: reaching them
// neither allocates nor re-enters the allocator, and `try_with` covers a
// thread that is tearing down.
unsafe impl GlobalAlloc for Accountant {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        book(-(layout.size() as isize));
        System.dealloc(p, layout)
    }
}

/// The allocations this thread has made so far; a reallocation is one.
pub fn made() -> usize {
    MADE.get()
}

/// Runs `f`; returns what it built, what this thread holds beyond where it
/// started while that is held (0 where `f` let go of more than it made),
/// and how far above the start this thread's live bytes rose in `f`, with
/// the allocations live at that height.
pub fn held_by<T>(f: impl FnOnce() -> T) -> (T, Held, Held) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = f();
    let (now, peak) = (LIVE.get(), PEAK.get());
    let above = |(b, n): Held| (b.saturating_sub(before.0), n.saturating_sub(before.1));
    (out, above(now), above(peak))
}
