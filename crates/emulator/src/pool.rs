//! Shared worker-pool plumbing for every place the workspace spawns
//! threads: the sharded engine's window workers ([`with_workers`]), the
//! multi-seed fan-out and `mfv-core`'s what-if sweep ([`run_indexed`],
//! the one public item). One spawn/bounding implementation,
//! so thread-count clamping, panic confinement, and lock-poison recovery
//! behave identically everywhere.
//!
//! Determinism note: thread counts and scheduling affect only *when* work
//! runs, never results — callers own that contract (the engine via
//! conservative time windows, the seed pool via per-index result slots).
//! No `Ordering::Relaxed` atomics live here (rule D3, DESIGN.md): work
//! distribution uses a plain mutex-guarded cursor, which is equally fast at
//! this granularity (items are whole emulation runs or time windows).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// Resolves a requested thread count: `0` means "use the host's available
/// parallelism", and the result is clamped to `[1, work_items]` so we never
/// spawn idle workers.
pub(crate) fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let req = if requested == 0 { hw } else { requested };
    req.max(1).min(work_items.max(1))
}

/// Locks a mutex, recovering from poisoning: a worker that panicked while
/// holding the guard leaves per-item state that the caller still needs to
/// read (to report the panic deterministically) — the panic itself is
/// surfaced separately, never swallowed.
pub(crate) fn lock_or_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `lead` on the current thread while `threads` scoped workers each
/// execute `worker(index)`. Returns `lead`'s result once every worker has
/// finished. Workers that need to rendezvous with the lead (the engine's
/// barrier protocol) must catch their own panics so the rendezvous always
/// completes; a panic that *does* escape a worker propagates at scope exit.
pub(crate) fn with_workers<R>(
    threads: usize,
    worker: impl Fn(usize) + Sync,
    lead: impl FnOnce() -> R,
) -> R {
    std::thread::scope(|s| {
        for w in 0..threads {
            let worker = &worker;
            s.spawn(move || worker(w));
        }
        lead()
    })
}

/// Renders a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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
    with_workers(
        threads,
        |_w| loop {
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
        },
        || (),
    );
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

    #[test]
    fn with_workers_runs_lead_alongside_workers() {
        let hits = Mutex::new(0usize);
        let r = with_workers(
            4,
            |_w| {
                *lock_or_recover(&hits) += 1;
            },
            || 42,
        );
        assert_eq!(r, 42);
        assert_eq!(*lock_or_recover(&hits), 4);
    }
}
