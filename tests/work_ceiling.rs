//! The O(changed) contract as an exact count.
//!
//! A router poll re-resolves only the FIB prefixes its inputs changed and
//! re-decides only the BGP prefixes whose candidates moved. Wall time
//! cannot pin that on a shared host; the deterministic work counters the
//! engine exports can. Redoing a table per poll would count
//! `polls × table size`; the ceilings below sit a little over what the
//! delta pipeline does today and far more than an order of magnitude under
//! that product.

use model_free_verification::core::{scenarios, EmulationBackend, Snapshot};
use model_free_verification::obs::Obs;

struct Work {
    /// Router polls × mean FIB size: what a rebuild per poll would touch.
    rebuild_per_poll: u64,
    prefixes_resolved: u64,
    prefix_decisions: u64,
}

fn converge(snapshot: &Snapshot) -> Work {
    let mut obs = Obs::new();
    let result = EmulationBackend::with_seed(1)
        .compute_observed(snapshot, &mut obs)
        .expect("scenario converges");
    assert!(result.meta.converged);
    let mean_table = (result.dataplane.total_entries() / snapshot.topology.nodes.len()) as u64;
    Work {
        rebuild_per_poll: obs.metrics.counter("engine.polls.router") * mean_table,
        prefixes_resolved: obs.metrics.counter("vrouter.fib.prefixes_resolved"),
        prefix_decisions: obs.metrics.counter("bgp.prefix_decisions"),
    }
}

#[test]
fn convergence_work_stays_proportional_to_what_changed() {
    // 30 routers, 79-entry tables, 6,585 polls: 4,041 resolutions today.
    // Nothing is originated into BGP on the grid, so nothing is decided.
    let grid = converge(&scenarios::isis_grid(6, 5));
    assert!(grid.rebuild_per_poll > 500_000);
    assert!(
        grid.prefixes_resolved <= 4_500,
        "{} FIB prefixes resolved",
        grid.prefixes_resolved
    );
    assert_eq!(grid.prefix_decisions, 0);

    // The BGP side, on the small stand-in for the 1,000-router WAN: 12
    // routers, 16-entry tables, 1,516 polls: 249 resolutions and 200
    // decisions today.
    let wan = converge(&scenarios::regional_wan(3, 4));
    assert!(wan.rebuild_per_poll > 24_000);
    assert!(
        wan.prefixes_resolved <= 300,
        "{} FIB prefixes resolved",
        wan.prefixes_resolved
    );
    assert!(
        wan.prefix_decisions <= 250,
        "{} BGP prefixes decided",
        wan.prefix_decisions
    );
}
