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
//! read ([`DeviceState::read`], a Subscribe's first read) is answered,
//! before the read's AFT, addresses and `up` become the node's dataplane
//! entry. A router outweighs its entry, so the heap only
//! falls: the peak is the emulation handed over. No state tree is built —
//! JSON is for process boundaries — and ingesting cannot fail, so a node is
//! in the dataplane exactly when its status is covered.

use std::collections::BTreeMap;
use std::sync::Arc;

use mfv_dataplane::{Dataplane, NodeDataplane};
use mfv_emulator::Emulation;
use mfv_mgmt::{add_covered_links, Collector, DeviceState, ExtractError};
use mfv_types::{ExtractionStatus, NodeId};
use mfv_vrouter::{FibEpoch, VirtualRouter};

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
    /// The FIB epoch each covered node was read at.
    pub epochs: BTreeMap<NodeId, FibEpoch>,
    /// Covered nodes kept from the parent snapshot rather than read.
    pub kept: usize,
}

impl ExtractedSnapshot {
    pub fn is_complete(&self) -> bool {
        self.status.values().all(|s| s.is_covered())
    }

    /// This snapshot's node for `router`, if it read the router at the
    /// router's current FIB epoch, addresses and liveness.
    fn node_at(&self, router: &VirtualRouter) -> Option<&Arc<NodeDataplane>> {
        let epoch = self.epochs.get(&router.name)?;
        let node = self.dataplane.nodes.get(&router.name)?;
        let same = *epoch == router.fib_epoch()
            && node.up == router.is_running()
            && node.addresses == *router.addresses();
        same.then_some(node)
    }
}

/// One router's answer: its read, or the parent's node.
enum Answer {
    Read(DeviceState),
    Kept(Arc<NodeDataplane>),
}

/// Extracts a dataplane from a (possibly still-degraded) emulation, tearing
/// it down as it goes (to keep the network, hand over `emu.clone()`), and
/// against `parent` if given (a what-if context against its baseline): a
/// router still at the FIB epoch, addresses and liveness the parent read
/// keeps the parent's node, and no AFT is built for it; its Get still goes
/// through the collector. Nodes
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
    parent: Option<&ExtractedSnapshot>,
    obs: &mut mfv_obs::Obs,
) -> ExtractedSnapshot {
    let wall = mfv_obs::WallTimer::start();
    let start = emu.now();
    let (links, routers) = emu.tear_down();
    let mut dataplane = Dataplane::new();
    let (mut epochs, mut kept) = (BTreeMap::new(), 0);
    let read = |router: &VirtualRouter| -> Result<_, ExtractError> {
        let answer = match parent.and_then(|p| p.node_at(router)) {
            Some(node) => Answer::Kept(Arc::clone(node)),
            None => Answer::Read(DeviceState::read(router, None)),
        };
        Ok((router.fib_epoch(), answer))
    };
    let report = collector.collect_each(routers, read, |node, (epoch, answer)| {
        epochs.insert(node.clone(), epoch);
        let state = match answer {
            Answer::Read(read) => Arc::new(read.node()),
            Answer::Kept(shared) => {
                kept += 1;
                shared
            }
        };
        dataplane.nodes.insert(node.clone(), state);
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
        epochs,
        kept,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use mfv_mgmt::{collect_afts, dataplane_from_afts, node_of, Aft, RpcFailureModel, Telemetry};
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
    /// for every router, the node its typed read builds is the node its
    /// render — the JSON Get — decodes to, its addresses are the router's,
    /// and the AFT survives its wire form.
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
            let read = DeviceState::read(router, None);
            let typed = read.node();
            let tree = Telemetry::from_router(router).expect("JSON Get");
            let aft = tree.aft().expect("AFT decodes");
            let decoded = node_of(&aft, tree.addresses(), tree.is_up());
            assert_eq!(typed.entries, decoded.entries, "{}", router.name);
            assert_eq!(typed.addresses, decoded.addresses, "{}", router.name);
            assert_eq!(typed.addresses, *router.addresses(), "{}", router.name);
            assert_eq!(
                (typed.up, decoded.up),
                (router.is_running(), router.is_running())
            );
            let wire = aft.to_json().expect("AFT serialises");
            assert_eq!(Aft::from_json(&wire).expect("AFT parses"), aft);
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
                extract_snapshot(emu.clone(), &collector, None, &mut mfv_obs::Obs::new()).dataplane;
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
            let full = extract_snapshot(
                emu.clone(),
                &Collector::default(),
                None,
                &mut mfv_obs::Obs::new(),
            );
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
            let got = extract_snapshot(emu.clone(), &collector, None, &mut mfv_obs::Obs::new());
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

        // A fork with some wires cut, extracted against its baseline's
        // snapshot — itself taken under RPC failures, so some parent nodes
        // are missing or stale — is the fork's fresh extraction: the same
        // nodes, links, statuses, attempts and epochs; the baseline's node
        // kept only for a router its FIB epoch says did not move.
        #[test]
        fn extraction_against_a_parent_is_a_fresh_extraction(
            cuts in 0u8..=255,
            seeds in (any::<u64>(), any::<u64>()),
            timeout_pct in 0u8..40,
            forced in (0u8..64, 0u8..64),
        ) {
            let (snapshot, emu, _) = grid();
            let names: Vec<&NodeId> = snapshot.topology.nodes.iter().map(|n| &n.name).collect();
            let picked = |mask: u8| {
                let named = names.iter().enumerate();
                named.filter(move |(i, _)| mask & (1 << i) != 0).map(|(_, n)| (*n).clone())
            };
            let collector = |seed, forced| Collector::with_failures(RpcFailureModel {
                seed,
                timeout_pct,
                force_fail: picked(forced).collect(),
                stale: picked(forced >> 1).map(|n| (n, SimDuration::from_secs(30))).collect(),
                ..RpcFailureModel::default()
            });
            let extract = |emu: &Emulation, collector: &Collector, parent| {
                extract_snapshot(emu.clone(), collector, parent, &mut mfv_obs::Obs::new())
            };
            let parent = extract(emu, &collector(seeds.0, forced.0), None);
            let mut fork = emu.clone();
            let links = snapshot.link_ids();
            for (_, link) in links.iter().enumerate().filter(|(i, _)| cuts & (1 << i) != 0) {
                fork.remove_wire(link);
            }
            fork.run_until_converged();
            let collector = collector(seeds.1, forced.1);
            let fresh = extract(&fork, &collector, None);
            let derived = extract(&fork, &collector, Some(&parent));
            prop_assert_eq!(derived.dataplane.digest(), fresh.dataplane.digest());
            prop_assert_eq!(&derived.dataplane.links, &fresh.dataplane.links);
            prop_assert_eq!(&derived.status, &fresh.status);
            prop_assert_eq!(derived.attempts, fresh.attempts);
            prop_assert_eq!(&derived.epochs, &fresh.epochs);
            let mut kept = 0;
            for (name, node) in &derived.dataplane.nodes {
                prop_assert_eq!(&node.addresses, &fresh.dataplane.nodes[name].addresses);
                let shared = parent.dataplane.nodes.get(name).is_some_and(|p| Arc::ptr_eq(p, node));
                let unmoved = parent.epochs.get(name) == derived.epochs.get(name);
                prop_assert_eq!(shared, unmoved, "{}", name);
                kept += usize::from(shared);
            }
            prop_assert_eq!((derived.kept, fresh.kept), (kept, 0));
        }
    }
}
