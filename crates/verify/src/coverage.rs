//! Coverage-qualified verification.
//!
//! When extraction degrades — a device unreachable over its management
//! plane, another answering from a stale cache — the dataplane under
//! verification covers only part of the network. Silently answering as if
//! it were complete is worse than failing: an absent destination makes
//! every reachability question about it *vacuously* true. This module makes
//! the gap explicit: [`Coverage`] classifies nodes by their
//! [`ExtractionStatus`], and the `qualified_*` queries (over the same
//! [`ForwardingAnalysis`] every other query reads) return a [`Qualified`]
//! answer whose caveats name exactly which devices the verdict does not
//! speak for.

use std::collections::{BTreeMap, BTreeSet};

use mfv_types::{ExtractionStatus, NodeId, SimDuration};

use crate::graph::ForwardingAnalysis;
use crate::queries::{reachability, unreachable_pairs_with, ReachabilityReport};

/// Node-level view of what a snapshot actually covers.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Coverage {
    /// Nodes extracted with current state.
    pub fresh: BTreeSet<NodeId>,
    /// Nodes extracted from a telemetry cache, with the cache's age.
    pub stale: BTreeMap<NodeId, SimDuration>,
    /// Nodes with no extracted state at all, with the reason.
    pub missing: BTreeMap<NodeId, String>,
}

impl Coverage {
    pub fn from_status(status: &BTreeMap<NodeId, ExtractionStatus>) -> Coverage {
        let mut cov = Coverage::default();
        for (node, st) in status {
            match st {
                ExtractionStatus::Fresh => {
                    cov.fresh.insert(node.clone());
                }
                ExtractionStatus::Stale(age) => {
                    cov.stale.insert(node.clone(), *age);
                }
                ExtractionStatus::Missing(reason) => {
                    cov.missing.insert(node.clone(), reason.clone());
                }
            }
        }
        cov
    }

    pub fn total(&self) -> usize {
        self.fresh.len() + self.stale.len() + self.missing.len()
    }

    /// Fraction of nodes with some extracted state (fresh or stale);
    /// `1.0` for an empty node set.
    pub fn fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (self.fresh.len() + self.stale.len()) as f64 / total as f64
    }

    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// Human-readable qualifications attached to query answers computed
    /// over this coverage. Empty when every node is fresh.
    pub fn caveats(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.missing.is_empty() {
            let names: Vec<String> = self.missing.keys().map(|n| n.to_string()).collect();
            out.push(format!(
                "{} of {} nodes not extracted ({}): forwarding through them is unverified \
                 and answers about their addresses are vacuous",
                self.missing.len(),
                self.total(),
                names.join(", "),
            ));
        }
        if !self.stale.is_empty() {
            let names: Vec<String> = self
                .stale
                .iter()
                .map(|(n, age)| format!("{n} ({age} old)"))
                .collect();
            out.push(format!(
                "{} node(s) answered from a stale cache: {}",
                self.stale.len(),
                names.join(", "),
            ));
        }
        out
    }
}

/// A query answer plus the coverage caveats that qualify it.
#[derive(Clone, PartialEq, Debug)]
pub struct Qualified<T> {
    pub value: T,
    /// Empty means the answer is as authoritative as a full extraction.
    pub caveats: Vec<String>,
}

impl<T> Qualified<T> {
    pub fn is_unqualified(&self) -> bool {
        self.caveats.is_empty()
    }
}

/// All-pairs reachability over the covered nodes, qualified by coverage.
/// Pairs involving missing nodes are not enumerated (their state is
/// unknown, not known-broken); the caveats say so.
pub fn qualified_unreachable_pairs(
    fa: &ForwardingAnalysis,
    coverage: &Coverage,
) -> Qualified<Vec<ReachabilityReport>> {
    Qualified {
        value: unreachable_pairs_with(fa),
        caveats: coverage.caveats(),
    }
}

/// Single-pair reachability, qualified by coverage. On top of the blanket
/// coverage caveats, flags the vacuous case where an endpoint itself is
/// missing from the snapshot.
pub fn qualified_reachability(
    fa: &ForwardingAnalysis,
    src: &NodeId,
    dst_node: &NodeId,
    coverage: &Coverage,
) -> Qualified<ReachabilityReport> {
    let mut caveats = coverage.caveats();
    for endpoint in [src, dst_node] {
        if coverage.missing.contains_key(endpoint) {
            caveats.push(format!(
                "endpoint {endpoint} has no extracted state — this report is vacuous",
            ));
        }
    }
    Qualified {
        value: reachability(fa, src, dst_node),
        caveats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_dataplane::Dataplane;
    use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
    use mfv_types::{LinkId, RouteProtocol};
    use std::net::Ipv4Addr;

    fn status_map(entries: &[(&str, ExtractionStatus)]) -> BTreeMap<NodeId, ExtractionStatus> {
        entries
            .iter()
            .map(|(n, s)| (NodeId::from(*n), s.clone()))
            .collect()
    }

    #[test]
    fn coverage_classifies_and_counts() {
        let cov = Coverage::from_status(&status_map(&[
            ("r1", ExtractionStatus::Fresh),
            ("r2", ExtractionStatus::Stale(SimDuration::from_secs(30))),
            ("r3", ExtractionStatus::Missing("deadline".into())),
            ("r4", ExtractionStatus::Fresh),
        ]));
        assert_eq!(cov.fresh.len(), 2);
        assert_eq!(cov.stale.len(), 1);
        assert_eq!(cov.missing.len(), 1);
        assert_eq!(cov.fraction(), 0.75);
        assert!(!cov.is_complete());
        let caveats = cov.caveats();
        assert_eq!(caveats.len(), 2);
        assert!(caveats[0].contains("r3"), "{caveats:?}");
        assert!(caveats[1].contains("r2"), "{caveats:?}");
    }

    #[test]
    fn full_coverage_is_unqualified() {
        let cov = Coverage::from_status(&status_map(&[
            ("r1", ExtractionStatus::Fresh),
            ("r2", ExtractionStatus::Fresh),
        ]));
        assert_eq!(cov.fraction(), 1.0);
        assert!(cov.is_complete());
        assert!(cov.caveats().is_empty());
    }

    fn entry(prefix: &str, iface: &str) -> FibEntry {
        FibEntry {
            prefix: prefix.parse().unwrap(),
            proto: RouteProtocol::Isis,
            next_hops: vec![FibNextHop {
                iface: iface.into(),
                via: None,
            }]
            .into(),
        }
    }

    /// r1—r2 meshed; r3 was not extracted and is absent from the dataplane.
    fn partial_dp() -> Dataplane {
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("2.2.2.2/32", "e0"));
        let mut f2 = Fib::new();
        f2.insert(entry("2.2.2.1/32", "e0"));
        let a1: Ipv4Addr = "2.2.2.1".parse().unwrap();
        let a2: Ipv4Addr = "2.2.2.2".parse().unwrap();
        dp.add_node("r1".into(), &f1, BTreeSet::from([a1]), true);
        dp.add_node("r2".into(), &f2, BTreeSet::from([a2]), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp
    }

    fn partial_cov() -> Coverage {
        Coverage::from_status(&status_map(&[
            ("r1", ExtractionStatus::Fresh),
            ("r2", ExtractionStatus::Fresh),
            (
                "r3",
                ExtractionStatus::Missing("retry budget exhausted".into()),
            ),
        ]))
    }

    #[test]
    fn qualified_pairs_complete_with_caveats() {
        let fa = ForwardingAnalysis::new(&partial_dp());
        let cov = partial_cov();
        let q = qualified_unreachable_pairs(&fa, &cov);
        // The covered pair is mutually reachable; the answer is qualified.
        assert!(q.value.is_empty());
        assert!(!q.is_unqualified());
        assert!(q.caveats[0].contains("r3"), "{:?}", q.caveats);
    }

    #[test]
    fn vacuous_endpoint_is_flagged() {
        let dp = partial_dp();
        let cov = partial_cov();
        let fa = ForwardingAnalysis::new(&dp);
        let q = qualified_reachability(&fa, &"r1".into(), &"r3".into(), &cov);
        // No addresses for r3 in the snapshot: vacuously "fully reachable".
        assert!(q.value.fully_reachable());
        assert!(
            q.caveats.iter().any(|c| c.contains("vacuous")),
            "{:?}",
            q.caveats
        );
    }
}
