//! Topology specification: the emulator's equivalent of a KNE topology file.
//!
//! A [`Topology`] names the devices (each with a vendor and a configuration
//! in that vendor's dialect), the point-to-point links between interfaces,
//! and optional external BGP peers used for production-route injection.
//! Serialises to JSON for on-disk topology files.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use mfv_config::{DeviceConfig, Vendor};
use mfv_types::{AsNum, IfaceId, LinkId, NodeId};

/// One emulated device.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeSpec {
    pub name: NodeId,
    pub vendor: Vendor,
    /// Raw configuration text in the vendor's dialect.
    pub config_text: String,
}

impl NodeSpec {
    /// Builds a node spec from an IR config (rendering it to text — the
    /// emulator always ingests text, as the real system ingests files).
    pub fn from_config(name: impl Into<NodeId>, config: &DeviceConfig) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            vendor: config.vendor,
            config_text: mfv_config::render(config),
        }
    }

    /// Parses the config text in the node's dialect.
    pub fn parse_config(&self) -> Result<mfv_config::Parsed, mfv_config::ParseError> {
        mfv_config::parse(self.vendor, &self.config_text)
    }
}

/// A point-to-point link with emulated latency.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopoLink {
    pub a_node: NodeId,
    pub a_iface: IfaceId,
    pub b_node: NodeId,
    pub b_iface: IfaceId,
    /// One-way latency in milliseconds (default 1).
    #[serde(default = "default_latency")]
    pub latency_ms: u64,
}

fn default_latency() -> u64 {
    1
}

impl TopoLink {
    pub fn id(&self) -> LinkId {
        LinkId::new(
            (self.a_node.clone(), self.a_iface.clone()),
            (self.b_node.clone(), self.b_iface.clone()),
        )
    }
}

/// An external BGP peer (route injector): the emulator's stand-in for
/// production route feeds ("inject production-recorded routes — millions
/// from each BGP peer", §5).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExternalPeerSpec {
    /// The peer's own address (must be on a subnet of the attached node).
    pub addr: Ipv4Addr,
    pub asn: AsNum,
    /// Which emulated node it peers with (that node must configure a
    /// neighbor statement for `addr`).
    pub attach_to: NodeId,
    /// Number of synthetic routes to announce.
    pub route_count: usize,
    /// Base prefix pool for generated routes, e.g. `20.0.0.0/8` is carved
    /// into /24s. Defaults used when `None`.
    pub base_octet: Option<u8>,
}

/// The full emulation input: configs + topology (+ context), exactly the
/// paper's input set.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct Topology {
    pub name: String,
    pub nodes: Vec<NodeSpec>,
    pub links: Vec<TopoLink>,
    #[serde(default)]
    pub external_peers: Vec<ExternalPeerSpec>,
}

impl Topology {
    pub fn new(name: impl Into<String>) -> Topology {
        Topology {
            name: name.into(),
            ..Default::default()
        }
    }

    pub fn node(&self, name: &NodeId) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| &n.name == name)
    }

    pub fn add_node(&mut self, spec: NodeSpec) -> &mut Self {
        self.nodes.push(spec);
        self
    }

    /// Links two node interfaces with default latency.
    pub fn add_link(
        &mut self,
        a: (impl Into<NodeId>, impl Into<IfaceId>),
        b: (impl Into<NodeId>, impl Into<IfaceId>),
    ) -> &mut Self {
        self.links.push(TopoLink {
            a_node: a.0.into(),
            a_iface: a.1.into(),
            b_node: b.0.into(),
            b_iface: b.1.into(),
            latency_ms: 1,
        });
        self
    }

    /// Structural validation: link endpoints must name existing nodes, and
    /// no interface may appear in two links.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_eps: Vec<(NodeId, IfaceId)> = Vec::new();
        for l in &self.links {
            for (node, iface) in [(&l.a_node, &l.a_iface), (&l.b_node, &l.b_iface)] {
                if self.node(node).is_none() {
                    return Err(format!("link references unknown node {node}"));
                }
                let ep = (node.clone(), iface.clone());
                if seen_eps.contains(&ep) {
                    return Err(format!("interface {node}:{iface} used by two links"));
                }
                seen_eps.push(ep);
            }
        }
        let mut names: Vec<&NodeId> = self.nodes.iter().map(|n| &n.name).collect();
        names.sort();
        names.dedup();
        if names.len() != self.nodes.len() {
            return Err("duplicate node names".into());
        }
        for p in &self.external_peers {
            if self.node(&p.attach_to).is_none() {
                return Err(format!(
                    "external peer attaches to unknown node {}",
                    p.attach_to
                ));
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("topology serialises")
    }

    pub fn from_json(s: &str) -> Result<Topology, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::RouterSpec;

    fn small_topo() -> Topology {
        let mut t = Topology::new("pair");
        let r1 = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1)).build();
        let r2 = RouterSpec::new("r2", AsNum(65002), Ipv4Addr::new(2, 2, 2, 2)).build();
        t.add_node(NodeSpec::from_config("r1", &r1));
        t.add_node(NodeSpec::from_config("r2", &r2));
        t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
        t
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert_eq!(small_topo().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unknown_node() {
        let mut t = small_topo();
        t.add_link(("r1", "Ethernet2"), ("ghost", "Ethernet1"));
        assert!(t.validate().unwrap_err().contains("unknown node"));
    }

    #[test]
    fn validate_rejects_reused_interface() {
        let mut t = small_topo();
        let r3 = RouterSpec::new("r3", AsNum(65003), Ipv4Addr::new(2, 2, 2, 3)).build();
        t.add_node(NodeSpec::from_config("r3", &r3));
        t.add_link(("r1", "Ethernet1"), ("r3", "Ethernet1"));
        assert!(t.validate().unwrap_err().contains("two links"));
    }

    #[test]
    fn validate_rejects_duplicate_names() {
        let mut t = small_topo();
        let dup = RouterSpec::new("r1", AsNum(65009), Ipv4Addr::new(2, 2, 2, 9)).build();
        t.add_node(NodeSpec::from_config("r1", &dup));
        assert!(t.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn json_roundtrip() {
        let t = small_topo();
        let js = t.to_json();
        let back = Topology::from_json(&js).unwrap();
        assert_eq!(back.nodes.len(), 2);
        assert_eq!(back.links.len(), 1);
        assert_eq!(back.links[0].latency_ms, 1);
        assert_eq!(back.name, "pair");
    }

    #[test]
    fn node_config_parses_in_dialect() {
        let t = small_topo();
        let parsed = t.node(&"r1".into()).unwrap().parse_config().unwrap();
        assert_eq!(&*parsed.config.hostname, "r1");
    }
}
