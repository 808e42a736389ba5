//! Routing attributes shared by the protocol engines, the model-based
//! baseline, and the verification layer.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::AsNum;

/// BGP origin attribute. Ordering follows the decision process preference:
/// IGP < EGP < Incomplete (lower is better).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Origin {
    Igp,
    Egp,
    Incomplete,
}

impl Origin {
    /// Wire encoding per RFC 4271 §4.3.
    pub fn code(&self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    pub fn from_code(c: u8) -> Option<Origin> {
        match c {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Origin::Igp => "i",
            Origin::Egp => "e",
            Origin::Incomplete => "?",
        };
        f.write_str(s)
    }
}

/// A standard BGP community (`asn:value`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Community(pub u32);

impl Community {
    pub fn new(asn: u16, value: u16) -> Community {
        Community(((asn as u32) << 16) | value as u32)
    }

    pub fn asn(&self) -> u16 {
        (self.0 >> 16) as u16
    }

    pub fn value(&self) -> u16 {
        (self.0 & 0xffff) as u16
    }
}

impl fmt::Debug for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn(), self.value())
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn(), self.value())
    }
}

/// One segment of an AS path.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum AsPathSegment {
    /// Ordered sequence of ASes (counts full length toward path length).
    Sequence(Vec<AsNum>),
    /// Unordered set from aggregation (counts as length 1).
    Set(Vec<AsNum>),
}

/// A BGP AS path: an ordered list of segments.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default, Serialize, Deserialize)]
pub struct AsPath(pub Vec<AsPathSegment>);

impl AsPath {
    /// The empty path (locally-originated route).
    pub fn empty() -> AsPath {
        AsPath(Vec::new())
    }

    /// A path consisting of one sequence of the given ASes.
    pub fn sequence(asns: impl IntoIterator<Item = AsNum>) -> AsPath {
        AsPath(vec![AsPathSegment::Sequence(asns.into_iter().collect())])
    }

    /// Path length for the decision process: sequences count per-AS, sets
    /// count 1 (RFC 4271 §9.1.2.2).
    pub fn route_len(&self) -> usize {
        self.0
            .iter()
            .map(|seg| match seg {
                AsPathSegment::Sequence(s) => s.len(),
                AsPathSegment::Set(_) => 1,
            })
            .sum()
    }

    /// Does the path contain `asn` anywhere? Used for eBGP loop prevention.
    pub fn contains(&self, asn: AsNum) -> bool {
        self.0.iter().any(|seg| match seg {
            AsPathSegment::Sequence(s) | AsPathSegment::Set(s) => s.contains(&asn),
        })
    }

    /// Returns a new path with `asn` prepended, merging into a leading
    /// sequence segment when one exists.
    pub fn prepend(&self, asn: AsNum) -> AsPath {
        let mut segs = self.0.clone();
        match segs.first_mut() {
            Some(AsPathSegment::Sequence(s)) => s.insert(0, asn),
            _ => segs.insert(0, AsPathSegment::Sequence(vec![asn])),
        }
        AsPath(segs)
    }

    /// The neighboring (leftmost) AS on the path, if any.
    pub fn first_as(&self) -> Option<AsNum> {
        match self.0.first() {
            Some(AsPathSegment::Sequence(s)) => s.first().copied(),
            Some(AsPathSegment::Set(s)) => s.first().copied(),
            None => None,
        }
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(s) => {
                    let parts: Vec<String> = s.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsPathSegment::Set(s) => {
                    let parts: Vec<String> = s.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// The protocol a RIB/FIB entry was learned from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum RouteProtocol {
    Connected,
    Static,
    EbgpLearned,
    IbgpLearned,
    Isis,
    /// Routes injected by the emulation harness on behalf of external peers.
    External,
    /// Label-switched-path derived entry (MPLS-TE), outside the Batfish
    /// model's coverage — part of experiment E2.
    MplsTe,
}

impl fmt::Display for RouteProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteProtocol::Connected => "connected",
            RouteProtocol::Static => "static",
            RouteProtocol::EbgpLearned => "ebgp",
            RouteProtocol::IbgpLearned => "ibgp",
            RouteProtocol::Isis => "isis",
            RouteProtocol::External => "external",
            RouteProtocol::MplsTe => "mpls-te",
        };
        f.write_str(s)
    }
}

/// Administrative distance: the cross-protocol preference used when multiple
/// protocols offer the same prefix. Lower wins.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct AdminDistance(pub u8);

impl AdminDistance {
    /// Default administrative distances as used by the EOS-like vendor.
    pub fn default_for(proto: RouteProtocol) -> AdminDistance {
        let d = match proto {
            RouteProtocol::Connected => 0,
            RouteProtocol::Static => 1,
            RouteProtocol::EbgpLearned => 20,
            RouteProtocol::Isis => 115,
            RouteProtocol::IbgpLearned => 200,
            RouteProtocol::External => 20,
            RouteProtocol::MplsTe => 2,
        };
        AdminDistance(d)
    }
}

impl fmt::Display for AdminDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AsPath {
        /// The originating (rightmost) AS on the path, if any.
        fn origin_as(&self) -> Option<AsNum> {
            match self.0.last() {
                Some(AsPathSegment::Sequence(s)) => s.last().copied(),
                Some(AsPathSegment::Set(s)) => s.last().copied(),
                None => None,
            }
        }
    }

    #[test]
    fn origin_preference_order() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn origin_code_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn community_packing() {
        let c = Community::new(65001, 300);
        assert_eq!(c.asn(), 65001);
        assert_eq!(c.value(), 300);
        assert_eq!(c.to_string(), "65001:300");
    }

    #[test]
    fn as_path_length_counts_sets_once() {
        let path = AsPath(vec![
            AsPathSegment::Sequence(vec![AsNum(1), AsNum(2)]),
            AsPathSegment::Set(vec![AsNum(3), AsNum(4), AsNum(5)]),
        ]);
        assert_eq!(path.route_len(), 3);
    }

    #[test]
    fn as_path_prepend_merges_into_sequence() {
        let path = AsPath::sequence([AsNum(2), AsNum(3)]);
        let path = path.prepend(AsNum(1));
        assert_eq!(path, AsPath::sequence([AsNum(1), AsNum(2), AsNum(3)]));
        assert_eq!(path.route_len(), 3);
        assert_eq!(path.first_as(), Some(AsNum(1)));
        assert_eq!(path.origin_as(), Some(AsNum(3)));
    }

    #[test]
    fn as_path_prepend_onto_set_creates_new_segment() {
        let path = AsPath(vec![AsPathSegment::Set(vec![AsNum(9)])]);
        let path = path.prepend(AsNum(1));
        assert_eq!(path.route_len(), 2);
        assert_eq!(path.first_as(), Some(AsNum(1)));
    }

    #[test]
    fn as_path_loop_detection() {
        let path = AsPath::sequence([AsNum(10), AsNum(20)]);
        assert!(path.contains(AsNum(20)));
        assert!(!path.contains(AsNum(30)));
    }

    #[test]
    fn empty_path_properties() {
        let path = AsPath::empty();
        assert_eq!(path.route_len(), 0);
        assert_eq!(path.first_as(), None);
        assert_eq!(path.origin_as(), None);
        assert_eq!(path.to_string(), "");
    }

    #[test]
    fn admin_distance_defaults_ordered_sanely() {
        let conn = AdminDistance::default_for(RouteProtocol::Connected);
        let stat = AdminDistance::default_for(RouteProtocol::Static);
        let ebgp = AdminDistance::default_for(RouteProtocol::EbgpLearned);
        let isis = AdminDistance::default_for(RouteProtocol::Isis);
        let ibgp = AdminDistance::default_for(RouteProtocol::IbgpLearned);
        assert!(conn < stat && stat < ebgp && ebgp < isis && isis < ibgp);
    }

    #[test]
    fn as_path_display() {
        let path = AsPath(vec![
            AsPathSegment::Sequence(vec![AsNum(100), AsNum(200)]),
            AsPathSegment::Set(vec![AsNum(300)]),
        ]);
        assert_eq!(path.to_string(), "100 200 {300}");
    }
}
