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
//! One router at a time: each state tree is decoded into the node's
//! dataplane entry and dropped before the next RPC goes out, so the peak
//! holds the result plus one router's tree, not every router's.

use std::collections::BTreeMap;

use mfv_dataplane::Dataplane;
use mfv_emulator::Emulation;
use mfv_mgmt::{add_covered_links, ingest_aft, Collector};
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

/// Extracts a dataplane from a (possibly still-degraded) emulation. Nodes
/// whose router instance is gone — evicted by a machine failure and not yet
/// rescheduled — report `Missing("no router instance")`; nodes whose RPC
/// path fails past the collector's retry budget report `Missing` with the
/// exhaustion reason. Never panics, never aborts the sweep.
///
/// Flushes collector tallies (`mgmt.*` metrics) and the `extract` phase
/// span — sim time from the emulation's current clock, wall time from a
/// local stopwatch — into `obs`.
pub fn extract_snapshot(
    emu: &Emulation,
    collector: &Collector,
    obs: &mut mfv_obs::Obs,
) -> ExtractedSnapshot {
    let wall = mfv_obs::WallTimer::start();
    let nodes = emu
        .topology
        .nodes
        .iter()
        .map(|n| (n.name.clone(), emu.router(&n.name)));
    let mut dataplane = Dataplane::new();
    let report = collector.collect_each(nodes, |node, telemetry| {
        // Forwarding state comes out of the tree, through the AFT's JSON
        // form; what the dump does not carry is read off the instance.
        if let (Some(aft), Some(router)) = (telemetry.aft(), emu.router(node)) {
            ingest_aft(
                &mut dataplane,
                node.clone(),
                &aft,
                router.addresses().clone(),
                router.is_running(),
            );
        }
    });
    add_covered_links(&mut dataplane, emu.up_links());
    report.observe_into(obs);
    let start = emu.now();
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
