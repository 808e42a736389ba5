//! Snapshot extraction with graceful degradation.
//!
//! The naive pipeline step "dump every AFT, rebuild the dataplane" becomes
//! a total function here: [`extract_snapshot`] runs a retrying
//! [`Collector`] over every topology node and always returns a dataplane —
//! possibly covering only a subset of nodes — together with per-node
//! [`ExtractionStatus`] and a coverage fraction. Verification downstream
//! qualifies its answers with that coverage instead of aborting (see
//! `mfv_verify::coverage`).
//!
//! Extraction is the emulation's last step, as in the paper's pipeline,
//! which dumps each router's AFT and then tears the emulation down:
//! [`extract_snapshot`] takes the network by value, keeps its up links and
//! routers ([`Emulation::tear_down`]), and drops each router once its typed
//! Get (AFT, addresses, `up`) is answered, before the answer becomes the
//! node's dataplane entry. A router outweighs its entry, so the heap only
//! falls: the peak is the emulation handed over. No state tree is built —
//! JSON is for process boundaries — and ingesting cannot fail, so a node is
//! in the dataplane exactly when its status is covered.

use std::collections::BTreeMap;

use mfv_dataplane::Dataplane;
use mfv_emulator::Emulation;
use mfv_mgmt::{add_covered_links, ingest_aft, Collector, ForwardingState};
use mfv_types::{ExtractionStatus, NodeId};

/// A dataplane plus the provenance of every node's state in it.
#[derive(Clone, Debug)]
pub struct ExtractedSnapshot {
    /// Dataplane over the covered nodes only; links touching a missing
    /// node are dropped with it.
    pub dataplane: Dataplane,
    /// Per-node extraction outcome for every topology node.
    pub status: BTreeMap<NodeId, ExtractionStatus>,
    /// Fraction of topology nodes with extracted state.
    pub coverage: f64,
    /// Total management-plane RPC attempts (retries included).
    pub attempts: u64,
}

impl ExtractedSnapshot {
    pub fn is_complete(&self) -> bool {
        self.status.values().all(|s| s.is_covered())
    }
}

/// Extracts a dataplane from a (possibly still-degraded) emulation, tearing
/// it down as it goes (to keep the network, hand over `emu.clone()`). Nodes
/// whose router instance is gone — evicted by a machine failure and not yet
/// rescheduled — report `Missing("no router instance")`; nodes whose RPC
/// path fails past the collector's retry budget report `Missing` with the
/// exhaustion reason. Never panics, never aborts the sweep.
///
/// Flushes collector tallies (`mgmt.*` metrics) and the `extract` phase
/// span — sim time from the emulation's current clock, wall time from a
/// local stopwatch — into `obs`.
pub fn extract_snapshot(
    emu: Emulation,
    collector: &Collector,
    obs: &mut mfv_obs::Obs,
) -> ExtractedSnapshot {
    let wall = mfv_obs::WallTimer::start();
    let start = emu.now();
    let (links, routers) = emu.tear_down();
    let mut dataplane = Dataplane::new();
    let report = collector.collect_each(routers, ForwardingState::from_router, |node, got| {
        ingest_aft(
            &mut dataplane,
            node.clone(),
            &got.aft,
            got.addresses,
            got.up,
        );
    });
    add_covered_links(&mut dataplane, &links);
    report.observe_into(obs);
    obs.phases
        .record("extract", start, start + report.sim_elapsed);
    obs.wall.add_phase("extract", wall.elapsed_micros());
    ExtractedSnapshot {
        dataplane,
        coverage: report.coverage(),
        status: report.status,
        attempts: report.attempts,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use mfv_mgmt::{collect_afts, dataplane_from_afts, Aft, RpcFailureModel, Telemetry};
    use mfv_types::{SimDuration, SimTime};
    use proptest::prelude::*;

    use super::*;
    use crate::{scenarios, EmulationBackend};

    fn converged(snapshot: &crate::Snapshot) -> Emulation {
        let (emu, meta) = EmulationBackend::with_seed(1)
            .run(snapshot)
            .expect("scenario boots");
        assert!(meta.converged);
        emu
    }

    /// What keeps the in-process shortcut faithful to the paper's gNMI dump:
    /// for every router, the typed Get equals the JSON Get decoded, and the
    /// AFT survives its wire form.
    #[test]
    fn typed_get_equals_the_json_get() {
        let mut routers = Vec::new();
        for snapshot in [scenarios::regional_wan(3, 4), scenarios::isis_grid(3, 2)] {
            let emu = converged(&snapshot);
            routers.extend(
                snapshot
                    .topology
                    .nodes
                    .iter()
                    .map(|n| emu.router(&n.name).expect("router booted").clone()),
            );
            let mut crashed = routers[routers.len() - 1].clone();
            crashed.inject_crash("test");
            crashed.poll(SimTime(emu.now().0 + 1), &|| 0, &mut Vec::new());
            assert!(!crashed.is_running());
            routers.push(crashed);
        }

        for router in &routers {
            let typed = ForwardingState::from_router(router).expect("typed Get");
            let tree = Telemetry::from_router(router).expect("JSON Get");
            assert_eq!(tree.aft().as_ref(), Some(&typed.aft), "{}", router.name);
            assert_eq!(tree.addresses(), typed.addresses, "{}", router.name);
            assert_eq!(tree.is_up(), typed.up, "{}", router.name);
            let wire = typed.aft.to_json().expect("AFT serialises");
            assert_eq!(Aft::from_json(&wire).expect("AFT parses"), typed.aft);
        }
    }

    /// `extract_snapshot` against the JSON path the benchmark's traced run
    /// replays: `collect` → `collect_afts` → `dataplane_from_afts`.
    #[test]
    fn extraction_equals_the_traced_json_replay() {
        for snapshot in [scenarios::regional_wan(3, 4), scenarios::isis_grid(3, 2)] {
            let emu = converged(&snapshot);
            let collector = Collector::default();
            let typed =
                extract_snapshot(emu.clone(), &collector, &mut mfv_obs::Obs::new()).dataplane;
            let nodes = snapshot
                .topology
                .nodes
                .iter()
                .map(|n| (n.name.clone(), emu.router(&n.name)));
            let afts = collect_afts(&collector.collect(nodes).telemetry);
            let replayed = dataplane_from_afts(&afts, &emu.dataplane());
            assert_eq!(typed.digest(), replayed.digest(), "{}", snapshot.name);
            assert_eq!(typed.links, replayed.links, "{}", snapshot.name);
            let addresses = |dp: &Dataplane| {
                dp.nodes
                    .iter()
                    .map(|(n, d)| (n.clone(), d.addresses.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(addresses(&typed), addresses(&replayed));
        }
    }

    fn grid() -> &'static (crate::Snapshot, Emulation, Dataplane) {
        static GRID: OnceLock<(crate::Snapshot, Emulation, Dataplane)> = OnceLock::new();
        GRID.get_or_init(|| {
            let snapshot = scenarios::isis_grid(3, 2);
            let emu = converged(&snapshot);
            let full =
                extract_snapshot(emu.clone(), &Collector::default(), &mut mfv_obs::Obs::new());
            assert!(full.is_complete());
            (snapshot, emu, full.dataplane)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn a_node_is_in_the_dataplane_exactly_when_it_is_covered(
            seed in any::<u64>(),
            timeout_pct in 0u8..50,
            transient_error_pct in 0u8..50,
            forced in 0u8..64,
            stale in 0u8..64,
        ) {
            let (snapshot, emu, full) = grid();
            let names: Vec<&NodeId> = snapshot.topology.nodes.iter().map(|n| &n.name).collect();
            // Bit i of a mask picks the grid's i-th node.
            let picked = |mask: u8| {
                let named = names.iter().enumerate();
                named.filter(move |(i, _)| mask & (1 << i) != 0).map(|(_, n)| (*n).clone())
            };
            let failures = RpcFailureModel {
                seed,
                timeout_pct,
                transient_error_pct,
                force_fail: picked(forced).collect(),
                stale: picked(stale).map(|n| (n, SimDuration::from_secs(30))).collect(),
                down_is_missing: false,
            };
            let collector = Collector::with_failures(failures);
            let got = extract_snapshot(emu.clone(), &collector, &mut mfv_obs::Obs::new());
            prop_assert_eq!(got.status.len(), names.len());
            let mut covered = 0;
            for name in &names {
                let is_covered = got.status[*name].is_covered();
                covered += usize::from(is_covered);
                prop_assert_eq!(got.dataplane.nodes.contains_key(*name), is_covered, "{}", name);
                if let Some(node) = got.dataplane.nodes.get(*name) {
                    prop_assert!(node.fib().same_as(&full.nodes[*name].fib()), "{}", name);
                }
            }
            prop_assert_eq!(got.coverage, covered as f64 / names.len() as f64);
            for link in &got.dataplane.links {
                let ends = [&link.a.0, &link.b.0];
                prop_assert!(ends.iter().all(|n| got.status[*n].is_covered()), "{}", link);
            }
        }
    }
}
