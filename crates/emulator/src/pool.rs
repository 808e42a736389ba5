//! The one place the emulator spawns threads: a bounded, panic-confining
//! fan-out over independent jobs ([`run_indexed`]) — seeds in
//! [`crate::run_seeds`], cut contexts in `mfv-core`'s what-if sweep. One
//! emulation never spans threads; the parallelism the paper's §6 asks for is
//! many emulations side by side.
//!
//! Determinism note: the width and the scheduling affect only *when* a job
//! runs, never results — every job owns its emulation and writes its own
//! result slot. No `Ordering::Relaxed` atomics live here (rule D3,
//! DESIGN.md): work distribution uses a plain mutex-guarded cursor, which is
//! equally fast at this granularity (items are whole emulation runs).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// Resolves a requested thread count: `0` means "use the host's available
/// parallelism", and the result is clamped to `[1, work_items]` so we never
/// spawn idle workers.
fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let req = if requested == 0 { hw } else { requested };
    req.max(1).min(work_items.max(1))
}

/// Locks a mutex, recovering from poisoning: the guarded values (a cursor,
/// a result slot) are valid at every step, and a job's panic is caught and
/// reported in its own slot, never swallowed.
fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs `job(i)` for every `i in 0..count` across a bounded worker pool,
/// returning per-index outcomes in index order regardless of which worker
/// ran what (`requested_threads == 0` means the host's parallelism).
/// Panics are confined to their item (`Err(message)`); a slot
/// that somehow never ran reports an error rather than aborting the batch.
pub fn run_indexed<T: Send>(
    requested_threads: usize,
    count: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let threads = effective_threads(requested_threads, count);
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let cursor = Mutex::new(0usize);
    let worker = || loop {
        let i = {
            let mut g = lock_or_recover(&cursor);
            if *g >= count {
                break;
            }
            let i = *g;
            *g += 1;
            i
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(i)))
            .map_err(|payload| format!("worker panicked: {}", panic_message(payload)));
        *lock_or_recover(&slots[i]) = Some(outcome);
    };
    // The scope joins every worker before it returns.
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(worker);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            lock_or_recover(&slot)
                .take()
                .unwrap_or_else(|| Err("worker pool lost this item before running it".to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps_to_work_and_floor() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        let out = run_indexed(3, 10, |i| i * i);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_confines_panics_to_their_item() {
        let out = run_indexed(2, 4, |i| {
            if i == 2 {
                panic!("boom {i}");
            }
            i
        });
        assert_eq!(out[0].as_ref().unwrap(), &0);
        assert_eq!(out[1].as_ref().unwrap(), &1);
        assert!(out[2].as_ref().unwrap_err().contains("boom 2"));
        assert_eq!(out[3].as_ref().unwrap(), &3);
    }
}
