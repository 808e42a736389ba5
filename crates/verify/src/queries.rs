//! The verification query library — the Pybatfish-equivalent surface.
//!
//! Every query takes a [`ForwardingAnalysis`]: build one per dataplane
//! (emulation-extracted or model-computed, the queries cannot tell) and
//! pass it to each question asked of that dataplane, so the class index is
//! built once however many queries read it. The flagship query is
//! [`differential_reachability_with`], the one the paper uses for every §5
//! experiment; a single packet's path is [`ForwardingAnalysis::trace`].

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use mfv_types::{IpSet, NodeId};

use crate::graph::{Disposition, ForwardingAnalysis};

/// One row of a differential-reachability report: a class of packets whose
/// fate differs between the two snapshots, for traffic entering at `src`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffFinding {
    pub src: NodeId,
    pub dsts: IpSet,
    pub before: Disposition,
    pub after: Disposition,
}

impl std::fmt::Display for DiffFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "from {}: dst {} — was [{}], now [{}]",
            self.src, self.dsts, self.before, self.after
        )
    }
}

/// Compares packet fates between two snapshots, exhaustively over `scope`
/// (default: the full IPv4 destination space), for every source node present
/// in both. "This query type exhaustively compares network paths for all
/// possible packets across two snapshots, and surfaces cases where the
/// paths differ" (§5). Per source, one pass walks both class indexes'
/// atoms in address order. A what-if sweep passes the same baseline
/// analysis for every variant, so the baseline's class index is built a
/// single time and is all of the baseline a context reads.
pub fn differential_reachability_with(
    fa_before: &ForwardingAnalysis,
    fa_after: &ForwardingAnalysis,
    scope: Option<&IpSet>,
) -> Vec<DiffFinding> {
    let full = IpSet::full();
    let scope = scope.unwrap_or(&full);
    let mut findings = Vec::new();

    for src in fa_before.nodes().keys() {
        if fa_after.nodes().contains_key(src) {
            findings.extend(fa_before.lookup().diff(fa_after.lookup(), src, scope));
        }
    }
    findings.sort_by(|a, b| (&a.src, &a.before, &a.after).cmp(&(&b.src, &b.before, &b.after)));
    findings
}

/// Restricts differential findings to those where *deliverability* changed
/// (lost or gained reachability), filtering out path-only changes.
pub fn deliverability_changes(findings: &[DiffFinding]) -> Vec<&DiffFinding> {
    findings
        .iter()
        .filter(|f| f.before.is_delivered() != f.after.is_delivered())
        .collect()
}

/// Node-to-node reachability: can packets from `src` reach every address
/// `dst_node` owns?
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReachabilityReport {
    pub src: NodeId,
    pub dst_node: NodeId,
    /// Addresses of `dst_node` that are delivered.
    pub delivered: IpSet,
    /// Addresses of `dst_node` that fail, with their fates.
    pub failed: Vec<(IpSet, Disposition)>,
}

impl ReachabilityReport {
    pub fn fully_reachable(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Checks reachability from `src` to all addresses owned by `dst_node`.
pub fn reachability(
    fa: &ForwardingAnalysis,
    src: &NodeId,
    dst_node: &NodeId,
) -> ReachabilityReport {
    let mut delivered = IpSet::empty();
    let mut failed = Vec::new();
    for (set, disp) in fa.dispositions_from(src, &addresses_of(fa, dst_node)) {
        match &disp {
            Disposition::Accepted(node) if node == dst_node => delivered = set,
            _ => failed.push((set, disp)),
        }
    }
    ReachabilityReport {
        src: src.clone(),
        dst_node: dst_node.clone(),
        delivered,
        failed,
    }
}

/// The addresses `node` owns (none if the snapshot lacks it).
fn addresses_of(fa: &ForwardingAnalysis, node: &NodeId) -> IpSet {
    let owned = fa.nodes().get(node).map(|n| &n.addresses);
    address_set(owned.into_iter().flatten())
}

fn address_set<'a>(addresses: impl Iterator<Item = &'a Ipv4Addr>) -> IpSet {
    IpSet::from_ranges(addresses.map(|a| (u32::from(*a), u32::from(*a))))
}

/// All-pairs reachability over node loopback/owned addresses. Returns the
/// pairs that are NOT fully reachable (empty = full mesh reachability).
pub fn unreachable_pairs_with(fa: &ForwardingAnalysis) -> Vec<ReachabilityReport> {
    let nodes = fa.node_names();
    let mut out = Vec::new();
    for src in &nodes {
        for dst in &nodes {
            if src == dst {
                continue;
            }
            let report = reachability(fa, src, dst);
            if !report.fully_reachable() {
                out.push(report);
            }
        }
    }
    out
}

/// A forwarding loop finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopFinding {
    pub src: NodeId,
    pub dsts: IpSet,
    pub at: NodeId,
}

/// Exhaustively searches for destinations that loop, from any entry node.
pub fn detect_loops_with(fa: &ForwardingAnalysis) -> Vec<LoopFinding> {
    let mut out = Vec::new();
    for src in fa.node_names() {
        for (dsts, disp) in fa.dispositions_from(&src, &IpSet::full()) {
            if let Disposition::Loop(at) = disp {
                out.push(LoopFinding {
                    src: src.clone(),
                    dsts,
                    at,
                });
            }
        }
    }
    out
}

/// A black hole: traffic toward an address some node *owns* is dropped
/// (no-route or null-route) somewhere in the network.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlackHoleFinding {
    pub src: NodeId,
    pub dsts: IpSet,
    pub dropped_at: NodeId,
}

/// Searches for black holes toward owned addresses, from any entry node.
/// The scope is the "should be reachable" space: every address an up node
/// owns.
pub fn detect_blackholes_with(fa: &ForwardingAnalysis) -> Vec<BlackHoleFinding> {
    let up = fa.nodes().values().filter(|n| n.up);
    let owned = address_set(up.flat_map(|n| &n.addresses));
    let mut out = Vec::new();
    for src in fa.node_names() {
        for (dsts, disp) in fa.dispositions_from(&src, &owned) {
            if let Disposition::NoRoute(dropped_at) | Disposition::NullRoute(dropped_at) = disp {
                out.push(BlackHoleFinding {
                    src: src.clone(),
                    dsts,
                    dropped_at,
                });
            }
        }
    }
    out
}

/// Classes whose fate depends on which ECMP branch a flow hashes to.
pub fn detect_multipath_inconsistency(fa: &ForwardingAnalysis) -> Vec<(NodeId, IpSet)> {
    let mut out = Vec::new();
    for src in fa.node_names() {
        for (set, disp) in fa.dispositions_from(&src, &IpSet::full()) {
            if matches!(disp, Disposition::EcmpDivergent(_)) {
                out.push((src.clone(), set));
            }
        }
    }
    out
}

/// Summarises delivery fractions per source node: how much of `scope` is
/// delivered / dropped / etc. Used by the experiment harness tables.
pub fn disposition_summary(
    fa: &ForwardingAnalysis,
    scope: &IpSet,
) -> BTreeMap<NodeId, BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    for src in fa.node_names() {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for (set, disp) in fa.dispositions_from(&src, scope) {
            let key = match disp {
                Disposition::Accepted(_) => "accepted",
                Disposition::NoRoute(_) => "no-route",
                Disposition::NullRoute(_) => "null-route",
                Disposition::ExitsNetwork(_) => "exits",
                Disposition::NodeDown(_) => "node-down",
                Disposition::Loop(_) => "loop",
                Disposition::EcmpDivergent(_) => "ecmp-divergent",
            };
            *counts.entry(key.to_string()).or_default() += set.count();
        }
        out.insert(src, counts);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_dataplane::Dataplane;
    use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
    use mfv_types::{LinkId, RouteProtocol};
    use std::collections::BTreeSet;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
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

    /// Two routers, fully meshed routes.
    fn pair_dp() -> Dataplane {
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("2.2.2.2/32", "e0"));
        let mut f2 = Fib::new();
        f2.insert(entry("2.2.2.1/32", "e0"));
        dp.add_node("r1".into(), &f1, BTreeSet::from([addr("2.2.2.1")]), true);
        dp.add_node("r2".into(), &f2, BTreeSet::from([addr("2.2.2.2")]), true);
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));
        dp
    }

    /// Same but r1 lost its route to r2.
    fn broken_pair_dp() -> Dataplane {
        let mut dp = pair_dp();
        let node = dp.node_mut(&NodeId::from("r1")).unwrap();
        node.entries.clear();
        dp
    }

    fn diff(before: &Dataplane, after: &Dataplane, scope: Option<&IpSet>) -> Vec<DiffFinding> {
        let (before, after) = (
            ForwardingAnalysis::new(before),
            ForwardingAnalysis::new(after),
        );
        differential_reachability_with(&before, &after, scope)
    }

    #[test]
    fn differential_reachability_flags_loss() {
        let findings = diff(&pair_dp(), &broken_pair_dp(), None);
        assert!(!findings.is_empty());
        let loss = findings
            .iter()
            .find(|f| f.src == NodeId::from("r1"))
            .expect("finding for r1");
        assert!(loss.dsts.contains(addr("2.2.2.2")));
        assert!(loss.before.is_delivered());
        assert!(!loss.after.is_delivered());
        let deliv = deliverability_changes(&findings);
        assert!(!deliv.is_empty());
    }

    #[test]
    fn differential_reachability_empty_on_identical() {
        let findings = diff(&pair_dp(), &pair_dp(), None);
        assert!(findings.is_empty());
    }

    #[test]
    fn scoped_differential_ignores_out_of_scope() {
        let scope = IpSet::single(addr("9.9.9.9")); // unrelated address
        let findings = diff(&pair_dp(), &broken_pair_dp(), Some(&scope));
        assert!(findings.is_empty());
    }

    #[test]
    fn reachability_report() {
        let dp = pair_dp();
        let fa = ForwardingAnalysis::new(&dp);
        let rep = reachability(&fa, &"r1".into(), &"r2".into());
        assert!(rep.fully_reachable());
        assert!(rep.delivered.contains(addr("2.2.2.2")));

        let broken = broken_pair_dp();
        let fa = ForwardingAnalysis::new(&broken);
        let rep = reachability(&fa, &"r1".into(), &"r2".into());
        assert!(!rep.fully_reachable());
        assert!(rep.delivered.is_empty());
    }

    #[test]
    fn unreachable_pairs_on_clean_and_broken() {
        assert!(unreachable_pairs_with(&ForwardingAnalysis::new(&pair_dp())).is_empty());
        let broken = unreachable_pairs_with(&ForwardingAnalysis::new(&broken_pair_dp()));
        assert_eq!(broken.len(), 1);
        assert_eq!(broken[0].src, NodeId::from("r1"));
    }

    #[test]
    fn loop_and_blackhole_detection() {
        // r1 ↔ r2 loop for 9.9.9.9 which r3 owns (black hole none — loop).
        let mut dp = Dataplane::new();
        let mut f1 = Fib::new();
        f1.insert(entry("9.9.9.9/32", "e0"));
        let mut f2 = Fib::new();
        f2.insert(entry("9.9.9.9/32", "e0"));
        dp.add_node("r1".into(), &f1, BTreeSet::new(), true);
        dp.add_node("r2".into(), &f2, BTreeSet::new(), true);
        dp.add_node(
            "r3".into(),
            &Fib::new(),
            BTreeSet::from([addr("9.9.9.9")]),
            true,
        );
        dp.add_link(LinkId::new(
            ("r1".into(), "e0".into()),
            ("r2".into(), "e0".into()),
        ));

        let fa = ForwardingAnalysis::new(&dp);
        let loops = detect_loops_with(&fa);
        assert!(loops.iter().any(|l| l.dsts.contains(addr("9.9.9.9"))));

        // r3 itself cannot reach 9.9.9.9? It owns it — accepted locally.
        // But r1/r2 traffic to r3's address loops (not a blackhole), while
        // any *other* owned address... give r1 an owned address that r2
        // lacks a route to:
        let blackholes = detect_blackholes_with(&fa);
        // r1→9.9.9.9 loops, so not a blackhole; r2 has no route to nothing
        // else. r3 has no route toward anything → drops at r3.
        assert!(blackholes
            .iter()
            .all(|b| b.dropped_at == NodeId::from("r3")));
    }

    #[test]
    fn disposition_summary_counts() {
        let fa = ForwardingAnalysis::new(&pair_dp());
        let summary = disposition_summary(&fa, &IpSet::full());
        let r1 = &summary[&NodeId::from("r1")];
        assert_eq!(r1["accepted"], 2); // own loopback + r2's
        assert_eq!(r1["no-route"], (1u64 << 32) - 2);
    }
}
