//! Management plane: the vendor-agnostic extraction layer between emulation
//! and verification.
//!
//! - [`aft`] — OpenConfig-style Abstract Forwarding Tables (what the
//!   pipeline dumps after convergence and feeds to the verifier)
//! - [`gnmi`] — a gNMI-flavoured Get interface over a device state tree
//! - [`collect`] — a retrying collector over a simulated lossy RPC path,
//!   degrading gracefully to partial coverage instead of aborting
//! - [`watch`] — a fault-tolerant gNMI Subscribe watcher: per-node update
//!   streams with gap detection, backoff resubscription, and snapshot
//!   resync, for continuous verification

pub mod aft;
pub mod collect;
pub mod gnmi;
pub mod watch;

pub use aft::{Aft, AftIpv4Entry, AftNextHop, AftNextHopGroup};
pub use collect::{CollectionReport, Collector, CollectorConfig, RpcFailureModel};
pub use gnmi::{apply, canonicalize, diff, ExtractError, Telemetry, Update};
pub use watch::{StreamFaultModel, TickReport, WatchConfig, WatchEvent, WatchStats, Watcher};

use mfv_dataplane::Dataplane;
use mfv_types::{LinkId, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Extracts a full-network AFT collection from per-node telemetry — the
/// "dump AFTs via gNMI" step of §4.1, applied across the topology.
pub fn collect_afts(telemetry: &BTreeMap<NodeId, Telemetry>) -> BTreeMap<NodeId, Aft> {
    telemetry
        .iter()
        .filter_map(|(n, t)| t.aft().map(|a| (n.clone(), a)))
        .collect()
}

/// Rebuilds a [`Dataplane`] from extracted AFTs plus the link/address
/// context the verifier needs. This is the ingestion path that replaces the
/// model-computed dataplane (the paper's 3,300-line Batfish change).
///
/// Only nodes present in `afts` appear; links with an absent endpoint are
/// dropped with them, so a partially-covered extraction still yields a
/// self-consistent dataplane.
pub fn dataplane_from_afts(afts: &BTreeMap<NodeId, Aft>, reference: &Dataplane) -> Dataplane {
    let mut dp = Dataplane::new();
    for (node, aft) in afts {
        let (addresses, up) = reference
            .nodes
            .get(node)
            .map(|n| (n.addresses.clone(), n.up))
            .unwrap_or_default();
        ingest_aft(&mut dp, node.clone(), aft, addresses, up);
    }
    add_covered_links(&mut dp, &reference.links);
    dp
}

/// Ingests one device: its extracted AFT becomes the node's forwarding
/// state in `dp`. Every path from telemetry to a [`Dataplane`] — a batch of
/// AFTs, the watcher's mirrors, the collector handing over one router at a
/// time — adds its nodes through here.
pub fn ingest_aft(
    dp: &mut Dataplane,
    node: NodeId,
    aft: &Aft,
    addresses: BTreeSet<Ipv4Addr>,
    up: bool,
) {
    dp.add_node(node, &aft.to_fib(), addresses, up);
}

/// Adds the links whose endpoints were both ingested, in the order given;
/// a link touching an uncovered node is dropped with it.
pub fn add_covered_links<'a>(dp: &mut Dataplane, links: impl IntoIterator<Item = &'a LinkId>) {
    for link in links {
        if dp.nodes.contains_key(&link.a.0) && dp.nodes.contains_key(&link.b.0) {
            dp.add_link(link.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aft_ingestion_reproduces_dataplane() {
        use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
        use mfv_types::RouteProtocol;

        let mut fib = Fib::new();
        fib.insert(FibEntry {
            prefix: "10.0.0.0/24".parse().unwrap(),
            proto: RouteProtocol::Connected,
            next_hops: vec![FibNextHop {
                iface: "eth0".into(),
                via: None,
            }],
        });
        let mut reference = Dataplane::new();
        reference.add_node("r1".into(), &fib, Default::default(), true);

        let mut afts = BTreeMap::new();
        afts.insert(NodeId::from("r1"), Aft::from_fib(&fib));

        let rebuilt = dataplane_from_afts(&afts, &reference);
        assert_eq!(rebuilt.digest(), reference.digest());
    }
}
