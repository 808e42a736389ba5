//! Identifier newtypes used across the stack.

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A BGP/IS-IS router identifier — by convention the loopback address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RouterId(pub Ipv4Addr);

impl fmt::Debug for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid:{}", self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Ipv4Addr> for RouterId {
    fn from(a: Ipv4Addr) -> Self {
        RouterId(a)
    }
}

/// An autonomous system number (4-byte capable).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AsNum(pub u32);

impl fmt::Debug for AsNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Display for AsNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The name of an emulated device ("r1", "spine-2", …). Unique per topology.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub Arc<str>);

impl NodeId {
    pub fn new(name: impl Into<Arc<str>>) -> NodeId {
        NodeId(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId(s.into())
    }
}

impl From<String> for NodeId {
    fn from(s: String) -> Self {
        NodeId(s.into())
    }
}

/// An interface name on a device ("Ethernet1", "Loopback0", "ge-0/0/0").
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IfaceId(pub Arc<str>);

impl IfaceId {
    pub fn new(name: impl Into<Arc<str>>) -> IfaceId {
        IfaceId(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Loopback interfaces never carry link traffic and are IGP-passive by
    /// default on both vendor OSes we emulate.
    pub fn is_loopback(&self) -> bool {
        let head = self.0.as_bytes().get(..2);
        head.is_some_and(|head| head.eq_ignore_ascii_case(b"lo"))
    }
}

impl fmt::Debug for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for IfaceId {
    fn from(s: &str) -> Self {
        IfaceId(s.into())
    }
}

impl From<String> for IfaceId {
    fn from(s: String) -> Self {
        IfaceId(s.into())
    }
}

/// A point-to-point link between two (node, interface) endpoints.
///
/// Construction normalises endpoint order so `LinkId::new(a, b) ==
/// LinkId::new(b, a)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId {
    pub a: (NodeId, IfaceId),
    pub b: (NodeId, IfaceId),
}

impl LinkId {
    pub fn new(a: (NodeId, IfaceId), b: (NodeId, IfaceId)) -> LinkId {
        if a <= b {
            LinkId { a, b }
        } else {
            LinkId { a: b, b: a }
        }
    }

    /// Does either endpoint sit on `node`?
    pub fn touches(&self, node: &NodeId) -> bool {
        self.a.0 == *node || self.b.0 == *node
    }

    /// The endpoint opposite to `(node, iface)`, if that is one of ours.
    pub fn peer_of(&self, node: &NodeId, iface: &IfaceId) -> Option<(&NodeId, &IfaceId)> {
        if self.a.0 == *node && self.a.1 == *iface {
            Some((&self.b.0, &self.b.1))
        } else if self.b.0 == *node && self.b.1 == *iface {
            Some((&self.a.0, &self.a.1))
        } else {
            None
        }
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}<->{}:{}", self.a.0, self.a.1, self.b.0, self.b.1)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} <-> {}:{}", self.a.0, self.a.1, self.b.0, self.b.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_id_ordering_matches_numeric() {
        let low = RouterId(Ipv4Addr::new(1, 1, 1, 1));
        let high = RouterId(Ipv4Addr::new(2, 2, 2, 1));
        assert!(low < high);
        assert!(u32::from(low.0) < u32::from(high.0));
    }

    #[test]
    fn loopback_detection() {
        assert!(IfaceId::new("Loopback0").is_loopback());
        assert!(IfaceId::new("lo0").is_loopback());
        assert!(!IfaceId::new("Ethernet2").is_loopback());
    }

    #[test]
    fn link_id_is_order_insensitive() {
        let e1 = (NodeId::from("r1"), IfaceId::from("Ethernet1"));
        let e2 = (NodeId::from("r2"), IfaceId::from("Ethernet1"));
        assert_eq!(LinkId::new(e1.clone(), e2.clone()), LinkId::new(e2, e1));
    }

    #[test]
    fn link_peer_lookup() {
        let e1 = (NodeId::from("r1"), IfaceId::from("Ethernet1"));
        let e2 = (NodeId::from("r2"), IfaceId::from("Ethernet3"));
        let link = LinkId::new(e1, e2);
        let (peer, piface) = link
            .peer_of(&NodeId::from("r1"), &IfaceId::from("Ethernet1"))
            .unwrap();
        assert_eq!(peer, &NodeId::from("r2"));
        assert_eq!(piface, &IfaceId::from("Ethernet3"));
        assert!(link
            .peer_of(&NodeId::from("r1"), &IfaceId::from("Ethernet9"))
            .is_none());
        assert!(link.touches(&NodeId::from("r2")));
        assert!(!link.touches(&NodeId::from("r3")));
    }
}
