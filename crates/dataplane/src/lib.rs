//! The dataplane snapshot model.
//!
//! A [`Dataplane`] is the unit the verification engine consumes: per-node
//! forwarding state (FIBs) plus the physical adjacency needed to follow a
//! packet from hop to hop. Both backends produce it — the model-free
//! pipeline extracts it from emulated routers' AFTs, the model-based
//! baseline computes it from its control-plane model. Keeping the type
//! backend-agnostic is what lets the paper's prototype reuse Batfish's
//! verification engine unchanged.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mfv_routing::rib::{Fib, FibEntry};
use mfv_types::{IfaceId, LinkId, NodeId};

/// Forwarding state of one node.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NodeDataplane {
    /// FIB entries (serialised form of the node's AFT).
    pub entries: Vec<FibEntry>,
    /// Addresses owned by the node (packets to these are *accepted*).
    pub addresses: BTreeSet<Ipv4Addr>,
    /// Whether the node was up when the snapshot was taken. Crashed nodes
    /// contribute an empty FIB but still occupy their links.
    pub up: bool,
}

impl NodeDataplane {
    /// Rebuilds the LPM structure for lookups.
    pub fn fib(&self) -> Fib {
        let mut fib = Fib::new();
        for e in &self.entries {
            fib.insert(e.clone());
        }
        fib
    }
}

/// A complete network dataplane snapshot.
#[derive(Clone, Debug, Default)]
pub struct Dataplane {
    /// Shared: a derived snapshot keeps its parent's unmoved nodes.
    pub nodes: BTreeMap<NodeId, Arc<NodeDataplane>>,
    /// Physical point-to-point adjacency, in insertion order.
    pub links: Vec<LinkId>,
    /// Dedup index over `links`; kept in sync by [`Dataplane::add_link`].
    link_index: BTreeSet<LinkId>,
}

impl Serialize for Dataplane {
    fn to_value(&self) -> serde::Value {
        let mut m = std::collections::BTreeMap::new();
        let nodes = self.nodes.iter().map(|(n, d)| (n, &**d));
        m.insert(
            "nodes".to_string(),
            nodes.collect::<BTreeMap<_, _>>().to_value(),
        );
        m.insert("links".to_string(), self.links.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for Dataplane {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let nodes: BTreeMap<NodeId, NodeDataplane> =
            Deserialize::from_value(v.get("nodes").unwrap_or(&serde::Value::Null))?;
        let nodes = nodes.into_iter().map(|(n, d)| (n, Arc::new(d))).collect();
        let links: Vec<LinkId> =
            Deserialize::from_value(v.get("links").unwrap_or(&serde::Value::Null))?;
        let link_index = links.iter().cloned().collect();
        Ok(Dataplane {
            nodes,
            links,
            link_index,
        })
    }
}

impl Dataplane {
    pub fn new() -> Dataplane {
        Dataplane::default()
    }

    /// Adds a node's forwarding state.
    pub fn add_node(&mut self, name: NodeId, fib: &Fib, addresses: BTreeSet<Ipv4Addr>, up: bool) {
        let entries = fib.entries().map(|e| e.to_entry()).collect();
        let node = Arc::new(NodeDataplane {
            entries,
            addresses,
            up,
        });
        self.nodes.insert(name, node);
    }

    /// A node's forwarding state to edit, copied first if it is shared.
    pub fn node_mut(&mut self, name: &NodeId) -> Option<&mut NodeDataplane> {
        self.nodes.get_mut(name).map(Arc::make_mut)
    }

    /// Adds a link, ignoring duplicates. The set index makes this O(log n)
    /// instead of the former full-vector scan, while `links` preserves
    /// insertion order for deterministic iteration.
    pub fn add_link(&mut self, link: LinkId) {
        if self.link_index.insert(link.clone()) {
            self.links.push(link);
        }
    }

    /// The node+interface at the far end of `(node, iface)`, if linked.
    pub fn peer_of(&self, node: &NodeId, iface: &IfaceId) -> Option<(&NodeId, &IfaceId)> {
        self.links.iter().find_map(|l| l.peer_of(node, iface))
    }

    /// Which node owns address `ip`, if any.
    pub fn owner_of(&self, ip: Ipv4Addr) -> Option<&NodeId> {
        self.nodes
            .iter()
            .find(|(_, n)| n.addresses.contains(&ip))
            .map(|(name, _)| name)
    }

    /// Total FIB entries across the snapshot (a scale metric).
    pub fn total_entries(&self) -> usize {
        self.nodes.values().map(|n| n.entries.len()).sum()
    }

    /// A stable content digest (used to compare converged dataplanes across
    /// emulation runs in the non-determinism ablation).
    pub fn digest(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for (name, node) in &self.nodes {
            name.hash(&mut h);
            node.up.hash(&mut h);
            for e in &node.entries {
                e.prefix.hash(&mut h);
                e.proto.hash(&mut h);
                e.next_hops.hash(&mut h);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_routing::rib::FibNextHop;
    use mfv_types::RouteProtocol;

    fn fib_with(prefix: &str, iface: &str, via: Option<&str>) -> Fib {
        let mut fib = Fib::new();
        fib.insert(FibEntry {
            prefix: prefix.parse().unwrap(),
            proto: RouteProtocol::Connected,
            next_hops: vec![FibNextHop {
                iface: iface.into(),
                via: via.map(|v| v.parse().unwrap()),
            }]
            .into(),
        });
        fib
    }

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn build_and_query_snapshot() {
        let mut dp = Dataplane::new();
        dp.add_node(
            "r1".into(),
            &fib_with("10.0.0.0/31", "eth0", None),
            [addr("10.0.0.0"), addr("2.2.2.1")].into(),
            true,
        );
        dp.add_node(
            "r2".into(),
            &fib_with("10.0.0.0/31", "eth0", None),
            [addr("10.0.0.1"), addr("2.2.2.2")].into(),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "eth0".into()),
            ("r2".into(), "eth0".into()),
        ));

        assert_eq!(dp.owner_of(addr("2.2.2.2")), Some(&NodeId::from("r2")));
        assert_eq!(dp.owner_of(addr("9.9.9.9")), None);
        let (peer, piface) = dp.peer_of(&"r1".into(), &"eth0".into()).unwrap();
        assert_eq!(peer, &NodeId::from("r2"));
        assert_eq!(piface, &IfaceId::from("eth0"));
        assert_eq!(dp.total_entries(), 2);
        let prefixes: BTreeSet<_> = dp
            .nodes
            .values()
            .flat_map(|n| &n.entries)
            .map(|e| e.prefix)
            .collect();
        assert_eq!(prefixes.len(), 1);
    }

    #[test]
    fn digest_sensitive_to_fib_and_updown() {
        let mut a = Dataplane::new();
        a.add_node(
            "r1".into(),
            &fib_with("10.0.0.0/31", "eth0", None),
            BTreeSet::new(),
            true,
        );
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.node_mut(&NodeId::from("r1")).unwrap().up = false;
        assert_ne!(a.digest(), b.digest());
        let mut c = Dataplane::new();
        c.add_node(
            "r1".into(),
            &fib_with("10.0.0.0/30", "eth0", None),
            BTreeSet::new(),
            true,
        );
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn add_link_dedupes() {
        let mut dp = Dataplane::new();
        let l = LinkId::new(("a".into(), "e0".into()), ("b".into(), "e0".into()));
        dp.add_link(l.clone());
        dp.add_link(LinkId::new(
            ("b".into(), "e0".into()),
            ("a".into(), "e0".into()),
        ));
        assert_eq!(dp.links.len(), 1);
        let _ = l;
    }

    #[test]
    fn node_fib_roundtrip() {
        let fib = fib_with("192.168.0.0/24", "eth1", Some("10.0.0.1"));
        let mut dp = Dataplane::new();
        dp.add_node("r1".into(), &fib, BTreeSet::new(), true);
        let rebuilt = dp.nodes[&NodeId::from("r1")].fib();
        assert!(rebuilt.same_as(&fib));
    }

    #[test]
    fn serde_roundtrip() {
        let mut dp = Dataplane::new();
        dp.add_node(
            "r1".into(),
            &fib_with("10.0.0.0/8", "eth0", Some("1.1.1.1")),
            [addr("1.0.0.1")].into(),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "eth0".into()),
            ("r2".into(), "eth0".into()),
        ));
        let js = serde_json::to_string(&dp).unwrap();
        let back: Dataplane = serde_json::from_str(&js).unwrap();
        assert_eq!(back.digest(), dp.digest());
        assert_eq!(back.links, dp.links);
    }
}
