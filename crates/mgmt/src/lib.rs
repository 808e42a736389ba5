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

// P1 (DESIGN.md § "Determinism & panic-safety invariants"): non-test code
// here degrades through typed errors, never a panic.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

pub mod aft;
pub mod collect;
pub mod gnmi;
pub mod watch;

pub use aft::{Aft, AftIpv4Entry, AftNextHop, AftNextHopGroup};
pub use collect::{CollectionReport, Collector, RpcFailureModel};
pub use gnmi::{apply, diff, DeviceState, ExtractError, Telemetry, Update};
pub use watch::{StreamFaultModel, TickReport, WatchConfig, WatchStats, Watcher};

use mfv_dataplane::{Dataplane, NodeDataplane};
use mfv_types::{LinkId, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

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
        let state = node_of(aft, addresses, up);
        dp.nodes.insert(node.clone(), Arc::new(state));
    }
    add_covered_links(&mut dp, &reference.links);
    dp
}

/// A device's forwarding leaves as its dataplane node. Every path from
/// telemetry to a [`Dataplane`] — a batch of AFTs, the watcher's mirrors,
/// the collector handing over one router at a time — builds its nodes here.
pub fn node_of(aft: &Aft, addresses: BTreeSet<Ipv4Addr>, up: bool) -> NodeDataplane {
    NodeDataplane {
        entries: aft.fib_entries(),
        addresses,
        up,
    }
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
            }]
            .into(),
        });
        let mut reference = Dataplane::new();
        reference.add_node("r1".into(), &fib, Default::default(), true);

        let mut afts = BTreeMap::new();
        afts.insert(NodeId::from("r1"), Aft::from_fib(&fib));

        let rebuilt = dataplane_from_afts(&afts, &reference);
        assert_eq!(rebuilt.digest(), reference.digest());
    }

    /// An AFT from `(top three address bits, length, group, protocol)` rows
    /// in the order given. Group 0 is empty, 3 names a next hop that does
    /// not exist, 4 does not exist itself.
    fn aft_of(rows: &[(u32, u8, u64, bool)]) -> Aft {
        let mut aft = Aft::default();
        aft.next_hops.insert(
            1,
            AftNextHop {
                id: 1,
                interface: "eth0".into(),
                ip_address: None,
            },
        );
        aft.next_hops.insert(
            2,
            AftNextHop {
                id: 2,
                interface: "eth1".into(),
                ip_address: Some(Ipv4Addr::new(10, 0, 0, 1)),
            },
        );
        for (id, next_hops) in [(0, vec![]), (1, vec![1]), (2, vec![2, 1]), (3, vec![9, 2])] {
            aft.next_hop_groups
                .insert(id, AftNextHopGroup { id, next_hops });
        }
        for &(top, len, next_hop_group, isis) in rows {
            aft.ipv4_unicast.push(AftIpv4Entry {
                prefix: mfv_types::Prefix::from_bits(top << 29, len),
                next_hop_group,
                origin_protocol: if isis {
                    mfv_types::RouteProtocol::Isis
                } else {
                    mfv_types::RouteProtocol::Static
                },
            });
        }
        aft
    }

    fn ingested(aft: &Aft) -> Vec<mfv_routing::rib::FibEntry> {
        node_of(aft, Default::default(), true).entries
    }

    /// What `add_node` reads back out of the trie `Aft::to_fib` builds.
    fn via_trie(aft: &Aft) -> Vec<mfv_routing::rib::FibEntry> {
        let mut dp = Dataplane::new();
        dp.add_node("r1".into(), &aft.to_fib(), Default::default(), true);
        dp.nodes[&NodeId::from("r1")].entries.clone()
    }

    #[test]
    fn ingestion_skips_the_trie_but_not_its_order_or_last_wins() {
        // Unsorted; 0.0.0.0/3, /1 and /0 share an address and differ only in
        // length; 128.0.0.0/1 comes three times with three groups (the last,
        // the empty group, must win); groups 3 and 4 dangle.
        let aft = aft_of(&[
            (6, 3, 1, true),
            (4, 1, 1, true),
            (0, 3, 2, false),
            (0, 1, 3, true),
            (4, 1, 2, false),
            (0, 0, 4, false),
            (5, 3, 0, true),
            (4, 1, 0, true),
        ]);
        let entries = ingested(&aft);
        assert_eq!(entries, via_trie(&aft));
        assert_eq!(entries.len(), 6);
        let repeated = entries
            .iter()
            .find(|e| e.prefix == "128.0.0.0/1".parse().unwrap())
            .unwrap();
        assert_eq!(repeated.proto, mfv_types::RouteProtocol::Isis);
        assert!(repeated.next_hops.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn ingestion_equals_the_trie_path(
            rows in proptest::collection::vec(
                (0u32..8, 0u8..4, 0u64..5, proptest::prelude::any::<bool>()),
                0..24,
            )
        ) {
            let aft = aft_of(&rows);
            proptest::prop_assert_eq!(ingested(&aft), via_trie(&aft));
        }
    }
}
