//! Memory, measured and warmed from the harness's side.
//!
//! On the benchmark hosts (Firecracker guests with free page reporting) the
//! first touch of a page the host has taken back costs 4–16 µs, and how many
//! of a repetition's pages are in that state depends on what ran in the
//! guest seconds before: the 630,000 faults of `wan1000_converge` read
//! anywhere between 1 and 11 s of system time for the same work. So a
//! repetition grows and touches its heap before anything is timed
//! ([`warm_heap`]), and the parent keeps glibc from handing that heap back
//! ([`CHILD_ENV`]). With the heap warmed by hand, peak RSS says nothing about
//! the program any more; memory is counted where it is asked for instead,
//! by a global allocator that wraps the system one ([`peak_mb`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// For repetition children: never trim the top of the heap, and serve
/// requests up to 32 MiB (the most glibc allows) from the heap, not from
/// fresh mappings. A libc that does not know the variables ignores them.
pub const CHILD_ENV: [(&str, &str); 2] = [
    ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
];

struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread folds its allocations into the shared counters once they add
/// up to this much, so that the sweep's and the server's threads do not
/// fight over one cache line on every allocation.
const FLUSH_BYTES: isize = 64 << 10;

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn note(delta: isize) {
    let folded = PENDING.try_with(|p| {
        let sum = p.get() + delta;
        if sum.abs() >= FLUSH_BYTES {
            p.set(0);
            publish(sum);
        } else {
            p.set(sum);
        }
    });
    if folded.is_err() {
        publish(delta);
    }
}

// SAFETY: every request goes to `System` unchanged; the wrapper only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

/// Forgets every peak so far: the next [`peak_mb`] is about what follows.
pub fn reset_peak() {
    publish(PENDING.with(|p| p.replace(0)));
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most the process has held allocated at once since [`reset_peak`],
/// in MiB, to within [`FLUSH_BYTES`] per thread.
pub fn peak_mb() -> f64 {
    publish(PENDING.with(|p| p.replace(0)));
    PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

/// Grows the heap by `mb` MiB, writes to every page and frees it all again.
/// Under [`CHILD_ENV`] the pages stay with the process, so the workload's
/// own allocations land on memory the host has already backed.
pub fn warm_heap(mb: usize) {
    const CHUNK: usize = 16 << 20;
    let chunks: Vec<Vec<u8>> = (0..(mb << 20).div_ceil(CHUNK))
        .map(|_| {
            let mut chunk: Vec<u8> = Vec::with_capacity(CHUNK);
            for page in chunk.spare_capacity_mut().chunks_mut(4096) {
                page[0].write(1);
            }
            chunk
        })
        .collect();
    drop(std::hint::black_box(chunks));
}

/// Minor page faults of this process so far (`minflt` of `/proc/self/stat`).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The fields after the command's closing parenthesis: state is
            // the first, minflt the eighth.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}
