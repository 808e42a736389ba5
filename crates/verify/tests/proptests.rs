//! Property tests for the verification engine over randomly generated
//! dataplanes: exhaustiveness (every packet classified exactly once),
//! self-consistency between the symbolic engine and single-packet traces,
//! differential-reachability identities, and agreement of the class index
//! with an independent single-address oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::ops::Bound;

use proptest::prelude::*;

use mfv_dataplane::Dataplane;
use mfv_routing::rib::{Fib, FibEntry, FibNextHop};
use mfv_types::{ExtractionStatus, IpSet, LinkId, NodeId, Prefix, RouteProtocol, SimTime};
use mfv_verify::{
    detect_blackholes_with, detect_loops_with, differential_reachability_with, reachability,
    ClassCache, Coverage, Disposition, DispositionRows, ForwardingAnalysis, StandingQueries, Trace,
    TraceHop,
};

/// A compact generator for random dataplanes: `n` nodes in a ring, each with
/// a handful of random prefix entries pointing at random neighbors (or
/// null-routed), plus owned addresses.
#[derive(Debug, Clone)]
struct DpShape {
    nodes: usize,
    /// Per node: (prefix bits, prefix len, egress choice, null?)
    entries: Vec<(u32, u8, u8, bool)>,
    owned: Vec<u8>,
}

fn arb_shape() -> impl Strategy<Value = DpShape> {
    (
        2usize..5,
        proptest::collection::vec((any::<u32>(), 8u8..=28, any::<u8>(), any::<bool>()), 0..24),
        proptest::collection::vec(any::<u8>(), 1..8),
    )
        .prop_map(|(nodes, entries, owned)| DpShape {
            nodes,
            entries,
            owned,
        })
}

fn build_dp(shape: &DpShape) -> Dataplane {
    let n = shape.nodes;
    let mut dp = Dataplane::new();
    let mut fibs: Vec<Fib> = (0..n).map(|_| Fib::new()).collect();
    let mut owned: Vec<BTreeSet<Ipv4Addr>> = vec![BTreeSet::new(); n];

    for (i, (bits, len, egress, null)) in shape.entries.iter().enumerate() {
        let node = i % n;
        let prefix = Prefix::from_bits(*bits, *len);
        let next_hops = if *null {
            vec![]
        } else {
            // Egress toward ring-left or ring-right.
            let iface = if egress % 2 == 0 { "left" } else { "right" };
            vec![FibNextHop {
                iface: iface.into(),
                via: None,
            }]
        };
        fibs[node].insert(FibEntry {
            prefix,
            proto: RouteProtocol::Isis,
            next_hops: next_hops.into(),
        });
    }
    for (i, octet) in shape.owned.iter().enumerate() {
        let node = i % n;
        owned[node].insert(Ipv4Addr::new(192, 168, node as u8, *octet));
    }

    for (i, fib) in fibs.iter().enumerate() {
        dp.add_node(
            NodeId::from(format!("n{i}").as_str()),
            fib,
            owned[i].clone(),
            true,
        );
    }
    // Ring links: n_i.right <-> n_{i+1}.left
    for i in 0..n {
        let j = (i + 1) % n;
        if n == 2 && i == 1 {
            break; // avoid reusing the same interfaces for a second link
        }
        dp.add_link(LinkId::new(
            (NodeId::from(format!("n{i}").as_str()), "right".into()),
            (NodeId::from(format!("n{j}").as_str()), "left".into()),
        ));
    }
    dp
}

// ------------------------------------------------------------------ oracle
//
// An independent reference for the class index: it knows nothing of
// atoms, classes or effective match sets. It walks ONE destination
// address at a time through `Fib::lookup`, follows every ECMP branch with
// the path so far on an explicit stack, and is lifted to sets only by the
// fact that LPM answers can change nowhere but at a prefix boundary or an
// owned address.

/// A richer generator than [`DpShape`]: arbitrary links (so cycles of any
/// shape, parallel links, links to nodes the dataplane has no state for),
/// up to three ECMP next hops per entry, interfaces with no link behind
/// them, null routes, down nodes, and prefixes squeezed into one /22 so
/// they nest and collide.
#[derive(Debug, Clone)]
struct NetShape {
    nodes: usize,
    /// (node, prefix bits, prefix length seed, next-hop interface mask, null?)
    entries: Vec<(u8, u32, u8, u8, bool)>,
    owned: Vec<(u8, u32)>,
    down: Vec<u8>,
    /// (node a, iface a, node b — one past the end names a missing node, iface b)
    links: Vec<(u8, u8, u8, u8)>,
    scopes: Vec<(u32, u8)>,
}

fn arb_net() -> impl Strategy<Value = NetShape> {
    (
        1usize..7,
        proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u8..=32, 0u8..8, any::<bool>()),
            0..40,
        ),
        proptest::collection::vec((any::<u8>(), any::<u32>()), 0..10),
        proptest::collection::vec(any::<u8>(), 0..2),
        proptest::collection::vec((any::<u8>(), 0u8..3, any::<u8>(), 0u8..3), 0..10),
        proptest::collection::vec((any::<u32>(), 0u8..=32), 1..5),
    )
        .prop_map(|(nodes, entries, owned, down, links, scopes)| NetShape {
            nodes,
            entries,
            owned,
            down,
            links,
            scopes,
        })
}

fn squeeze(bits: u32) -> u32 {
    0x0a00_0000 | (bits & 0x0000_03ff)
}

fn net_name(i: usize) -> NodeId {
    NodeId::from(format!("n{i}").as_str())
}

fn build_net(shape: &NetShape) -> Dataplane {
    let n = shape.nodes;
    let mut fibs: Vec<Fib> = (0..n).map(|_| Fib::new()).collect();
    for (node, bits, len, mask, null) in &shape.entries {
        // Mostly long prefixes inside the /22, now and then a short one
        // (down to the default route) covering everything.
        let len = if *len > 8 { 22 + len % 11 } else { *len };
        let next_hops = (0..3u8)
            .filter(|b| !null && mask & (1 << b) != 0)
            .map(|b| FibNextHop {
                iface: format!("e{b}").as_str().into(),
                via: None,
            })
            .collect();
        fibs[*node as usize % n].insert(FibEntry {
            prefix: Prefix::from_bits(squeeze(*bits), len),
            proto: RouteProtocol::Isis,
            next_hops,
        });
    }
    let mut owned: Vec<BTreeSet<Ipv4Addr>> = vec![BTreeSet::new(); n];
    for (node, bits) in &shape.owned {
        owned[*node as usize % n].insert(Ipv4Addr::from(squeeze(*bits)));
    }
    let mut dp = Dataplane::new();
    for (i, fib) in fibs.iter().enumerate() {
        let up = !shape.down.iter().any(|d| *d as usize % n == i);
        dp.add_node(net_name(i), fib, owned[i].clone(), up);
    }
    for (a, aif, b, bif) in &shape.links {
        dp.add_link(LinkId::new(
            (net_name(*a as usize % n), format!("e{aif}").as_str().into()),
            (
                net_name(*b as usize % (n + 1)),
                format!("e{bif}").as_str().into(),
            ),
        ));
    }
    dp
}

/// The scopes every oracle comparison runs over: everything, nothing,
/// the owned addresses, and the shape's random prefixes.
fn net_scopes(shape: &NetShape, dp: &Dataplane) -> Vec<IpSet> {
    let owned = dp
        .nodes
        .values()
        .flat_map(|n| n.addresses.iter())
        .map(|a| (u32::from(*a), u32::from(*a)));
    let mut scopes = vec![IpSet::full(), IpSet::empty(), IpSet::from_ranges(owned)];
    for (bits, len) in &shape.scopes {
        scopes.push(IpSet::from_prefix(&Prefix::from_bits(squeeze(*bits), *len)));
    }
    scopes
}

/// Entry nodes worth asking about: every dataplane node, the node links
/// may name without the dataplane knowing it, and a complete stranger.
fn net_sources(shape: &NetShape, fa: &ForwardingAnalysis) -> Vec<NodeId> {
    let mut names = fa.node_names();
    names.push(net_name(shape.nodes));
    names.push(NodeId::from("stranger"));
    names
}

struct Oracle<'a> {
    dp: &'a Dataplane,
    fibs: BTreeMap<&'a NodeId, Fib>,
}

impl<'a> Oracle<'a> {
    fn new(dp: &'a Dataplane) -> Oracle<'a> {
        Oracle {
            dp,
            fibs: dp.nodes.iter().map(|(name, n)| (name, n.fib())).collect(),
        }
    }

    /// The fate of `ip` arriving at `node` after crossing `path`.
    fn walk(&self, node: &NodeId, ip: Ipv4Addr, path: &mut Vec<NodeId>) -> Disposition {
        let state = self.dp.nodes.get(node).filter(|n| n.up);
        let (Some(state), Some(fib)) = (state, self.fibs.get(node)) else {
            return Disposition::NodeDown(node.clone());
        };
        if state.addresses.contains(&ip) {
            return Disposition::Accepted(node.clone());
        }
        if path.contains(node) {
            return Disposition::Loop(node.clone());
        }
        let Some(entry) = fib.lookup(ip) else {
            return Disposition::NoRoute(node.clone());
        };
        if entry.next_hops.is_empty() {
            return Disposition::NullRoute(node.clone());
        }
        path.push(node.clone());
        let mut fates: Vec<Disposition> = entry
            .next_hops
            .iter()
            .map(|nh| match self.dp.peer_of(node, &nh.iface) {
                Some((peer, _)) => self.walk(peer, ip, path),
                None => Disposition::ExitsNetwork(node.clone()),
            })
            .collect();
        path.pop();
        // Branches agree when they fail the same way or deliver to the
        // same node; an agreed fate is reported as the last branch saw it.
        let last = fates.pop().expect("at least one next hop");
        let agree = |f: &Disposition| match (f, &last) {
            (Disposition::Accepted(a), Disposition::Accepted(b)) => a == b,
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
        };
        if fates.iter().all(agree) {
            last
        } else {
            Disposition::EcmpDivergent(node.clone())
        }
    }

    /// The hops of one packet for `ip` entering at `from`, taking the
    /// first next hop wherever there are several.
    fn trace(&self, from: &NodeId, ip: Ipv4Addr) -> Trace {
        let mut hops: Vec<TraceHop> = Vec::new();
        let mut node = from.clone();
        let disposition = loop {
            let revisited = hops.iter().any(|h| h.node == node);
            hops.push(TraceHop {
                node: node.clone(),
                egress: None,
            });
            let state = self.dp.nodes.get(&node).filter(|n| n.up);
            let (Some(state), Some(fib)) = (state, self.fibs.get(&node)) else {
                break Disposition::NodeDown(node);
            };
            if state.addresses.contains(&ip) {
                break Disposition::Accepted(node);
            }
            if revisited {
                break Disposition::Loop(node);
            }
            let Some(entry) = fib.lookup(ip) else {
                break Disposition::NoRoute(node);
            };
            let Some(nh) = entry.next_hops.first() else {
                break Disposition::NullRoute(node);
            };
            hops.last_mut().expect("pushed above").egress = Some(nh.iface.clone());
            match self.dp.peer_of(&node, &nh.iface) {
                Some((peer, _)) => node = peer.clone(),
                None => break Disposition::ExitsNetwork(node),
            }
        };
        Trace { hops, disposition }
    }

    /// Every address at which some node's answer can change.
    fn breakpoints(&self) -> BTreeSet<u32> {
        let mut points = BTreeSet::from([0u32]);
        for node in self.dp.nodes.values() {
            for e in &node.entries {
                points.insert(e.prefix.first());
                points.extend(e.prefix.last().checked_add(1));
            }
            for a in &node.addresses {
                points.insert(u32::from(*a));
                points.extend(u32::from(*a).checked_add(1));
            }
        }
        points
    }

    /// The partition of `scope`, one address walk per piece of `scope`
    /// between consecutive breakpoints.
    fn rows(&self, from: &NodeId, scope: &IpSet) -> DispositionRows {
        let points = self.breakpoints();
        let mut by_fate: BTreeMap<Disposition, Vec<(u32, u32)>> = BTreeMap::new();
        for r in scope.ranges() {
            let mut lo = r.lo;
            loop {
                let hi = points
                    .range((Bound::Excluded(lo), Bound::Included(r.hi)))
                    .next()
                    .map_or(r.hi, |next| next - 1);
                let fate = self.walk(from, Ipv4Addr::from(lo), &mut Vec::new());
                by_fate.entry(fate).or_default().push((lo, hi));
                if hi == r.hi {
                    break;
                }
                lo = hi + 1;
            }
        }
        by_fate
            .into_iter()
            .map(|(fate, ranges)| (IpSet::from_ranges(ranges), fate))
            .collect()
    }
}

/// `rows` cut down to `scope`.
fn restrict(rows: &DispositionRows, scope: &IpSet) -> DispositionRows {
    rows.iter()
        .map(|(set, fate)| (set.intersect(scope), fate.clone()))
        .filter(|(set, _)| !set.is_empty())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn index_agrees_with_single_address_oracle(shape in arb_net()) {
        let dp = build_net(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let oracle = Oracle::new(&dp);
        for src in net_sources(&shape, &fa) {
            for scope in net_scopes(&shape, &dp) {
                let rows = fa.dispositions_from(&src, &scope);
                let want_rows = oracle.rows(&src, &scope);
                prop_assert_eq!(&rows, &want_rows, "rows from {} over {:?}", src, scope);
            }
            for point in oracle.breakpoints() {
                let ip = Ipv4Addr::from(point);
                let want = oracle.walk(&src, ip, &mut Vec::new());
                prop_assert_eq!(fa.fate_of(&src, ip), want, "fate of {} from {}", ip, src);
            }
        }
    }

    #[test]
    fn trace_agrees_with_single_address_oracle(shape in arb_net()) {
        let dp = build_net(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let oracle = Oracle::new(&dp);
        for src in net_sources(&shape, &fa) {
            for point in oracle.breakpoints() {
                let ip = Ipv4Addr::from(point);
                prop_assert_eq!(fa.trace(&src, ip), oracle.trace(&src, ip), "{} from {}", ip, src);
            }
        }
    }

    #[test]
    fn scoped_rows_are_the_full_partition_restricted(shape in arb_net()) {
        let dp = build_net(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        for src in net_sources(&shape, &fa) {
            let full = fa.dispositions_from(&src, &IpSet::full());
            for scope in net_scopes(&shape, &dp) {
                prop_assert_eq!(
                    fa.dispositions_from(&src, &scope),
                    restrict(&full, &scope),
                    "from {} over {:?}", src, scope
                );
            }
        }
    }

    #[test]
    fn queries_agree_with_single_address_oracle(shape in arb_net(), other in arb_net()) {
        let dp = build_net(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let oracle = Oracle::new(&dp);
        let names = fa.node_names();

        for src in &names {
            for dst in &names {
                let owned = dp.nodes[dst].addresses.iter().map(|a| (u32::from(*a), u32::from(*a)));
                let rows = oracle.rows(src, &IpSet::from_ranges(owned));
                let report = reachability(&fa, src, dst);
                let arrives = |fate: &Disposition| *fate == Disposition::Accepted(dst.clone());
                let delivered = rows.iter().find(|(_, fate)| arrives(fate));
                prop_assert_eq!(
                    &report.delivered,
                    &delivered.map_or(IpSet::empty(), |(set, _)| set.clone())
                );
                let failed: DispositionRows =
                    rows.iter().filter(|(_, fate)| !arrives(fate)).cloned().collect();
                prop_assert_eq!(&report.failed, &failed, "{} -> {}", src, dst);
            }
        }

        let mut loops = Vec::new();
        let mut holes = Vec::new();
        let up_owned = dp
            .nodes
            .values()
            .filter(|n| n.up)
            .flat_map(|n| n.addresses.iter())
            .map(|a| (u32::from(*a), u32::from(*a)));
        let up_owned = IpSet::from_ranges(up_owned);
        for src in &names {
            for (set, fate) in oracle.rows(src, &IpSet::full()) {
                if let Disposition::Loop(at) = fate {
                    loops.push((src.clone(), set, at));
                }
            }
            for (set, fate) in oracle.rows(src, &up_owned) {
                if let Disposition::NoRoute(at) | Disposition::NullRoute(at) = fate {
                    holes.push((src.clone(), set, at));
                }
            }
        }
        let got: Vec<_> = detect_loops_with(&fa).into_iter().map(|l| (l.src, l.dsts, l.at)).collect();
        prop_assert_eq!(got, loops);
        let got: Vec<_> = detect_blackholes_with(&fa)
            .into_iter()
            .map(|b| (b.src, b.dsts, b.dropped_at))
            .collect();
        prop_assert_eq!(got, holes);

        // Differential reachability against an unrelated second network
        // over the same node names, full space and scoped.
        let dp_b = build_net(&NetShape { nodes: shape.nodes, ..other });
        let fa_b = ForwardingAnalysis::new(&dp_b);
        let oracle_b = Oracle::new(&dp_b);
        for scope in net_scopes(&shape, &dp) {
            let mut want = Vec::new();
            for src in &names {
                let before = oracle.rows(src, &scope);
                let after = oracle_b.rows(src, &scope);
                for (set_b, fate_b) in &before {
                    for (set_a, fate_a) in &after {
                        let both = set_b.intersect(set_a);
                        if fate_b != fate_a && !both.is_empty() {
                            want.push((src.clone(), both, fate_b.clone(), fate_a.clone()));
                        }
                    }
                }
            }
            let got: Vec<_> = differential_reachability_with(&fa, &fa_b, Some(&scope))
                .into_iter()
                .map(|f| (f.src, f.dsts, f.before, f.after))
                .collect();
            prop_assert_eq!(got, want, "diff over {:?}", scope);
        }
    }
}

// ------------------------------------------------------- standing deltas

/// One snapshot-to-snapshot change `(node pick, kind, address bits, prefix
/// length)`: wipe a FIB, add a null route, drop the last entry, flip
/// liveness, add an owned address, or cut a link.
type Delta = (u8, u8, u32, u8);

fn apply_delta(dp: &mut Dataplane, (which, action, bits, len): Delta) {
    let names: Vec<NodeId> = dp.nodes.keys().cloned().collect();
    let name = &names[which as usize % names.len()];
    let node = dp.nodes.get_mut(name).expect("picked from the key set");
    match action % 6 {
        0 => node.entries.clear(),
        1 => node.entries.push(FibEntry {
            prefix: Prefix::from_bits(bits, len),
            proto: RouteProtocol::Static,
            next_hops: vec![].into(),
        }),
        2 => {
            node.entries.pop();
        }
        3 => node.up = !node.up,
        4 => {
            node.addresses.insert(Ipv4Addr::from(bits));
        }
        _ => {
            if !dp.links.is_empty() {
                dp.links.remove(which as usize % dp.links.len());
            }
        }
    }
}

fn coverage_for(dp: &Dataplane) -> Coverage {
    Coverage::from_status(
        &dp.nodes
            .keys()
            .map(|n| (n.clone(), ExtractionStatus::Fresh))
            .collect(),
    )
}

/// A ring of `n` routers: node i owns 192.168.i.1 and routes every other
/// node's /24 the short way round — both ways at once where they tie.
fn ring_dp(n: usize) -> Dataplane {
    let name = |i: usize| NodeId::from(format!("n{i}").as_str());
    let hop = |iface: &str| FibNextHop {
        iface: iface.into(),
        via: None,
    };
    let mut dp = Dataplane::new();
    for i in 0..n {
        let mut fib = Fib::new();
        for j in (0..n).filter(|j| *j != i) {
            let clockwise = (j + n - i) % n;
            let mut next_hops = Vec::new();
            if clockwise * 2 <= n {
                next_hops.push(hop("right"));
            }
            if clockwise * 2 >= n {
                next_hops.push(hop("left"));
            }
            fib.insert(FibEntry {
                prefix: Prefix::from_bits(u32::from(Ipv4Addr::new(192, 168, j as u8, 0)), 24),
                proto: RouteProtocol::Isis,
                next_hops: next_hops.into(),
            });
        }
        let owned = BTreeSet::from([Ipv4Addr::new(192, 168, i as u8, 1)]);
        dp.add_node(name(i), &fib, owned, true);
        dp.add_link(LinkId::new(
            (name(i), "right".into()),
            (name((i + 1) % n), "left".into()),
        ));
    }
    dp
}

/// Standing work on a fixed delta sequence: each evaluation is one full
/// pass of N(N-1) + 2N units, computed unless the snapshot's inputs equal
/// the previous one's, and the verdicts always equal a fresh evaluation's.
/// Only the quiet delta carries its pass over.
#[test]
fn standing_pair_work_is_unchanged_on_a_fixed_delta_sequence() {
    let net = u32::from(Ipv4Addr::new(192, 168, 0, 0));
    let deltas: [Delta; 9] = [
        (1, 0, 0, 0),        // n1 loses its FIB
        (1, 3, 0, 0),        // n1 goes down
        (1, 3, 0, 0),        // ... and comes back, FIB still empty
        (1, 2, 0, 0),        // nothing to drop: a quiet tick
        (3, 1, net, 24),     // n3 null-routes n0's /24
        (4, 4, net + 77, 0), // n4 starts owning an address inside it
        (0, 5, 0, 0),        // the n0-n1 link is cut
        (5, 2, 0, 0),        // n5 drops its last entry
        (2, 1, net, 16),     // n2 null-routes the whole /16
    ];
    let mut dp = ring_dp(6);
    let mut standing = StandingQueries::new();
    standing.evaluate(SimTime(0), &dp, &coverage_for(&dp));
    let mut work = vec![standing.pair_stats()];
    for (tick, delta) in deltas.into_iter().enumerate() {
        apply_delta(&mut dp, delta);
        let cov = coverage_for(&dp);
        standing.evaluate(SimTime(1_000 * (tick as u64 + 1)), &dp, &cov);
        work.push(standing.pair_stats());
        let mut fresh = StandingQueries::new();
        fresh.evaluate(SimTime(0), &dp, &cov);
        assert_eq!(standing.verdicts(), fresh.verdicts(), "after {delta:?}");
    }
    assert_eq!(work, PINNED_PAIR_WORK);
}

/// `(evaluated, reused)` after the first evaluation and after each delta.
const PINNED_PAIR_WORK: [(u64, u64); 10] = [
    (42, 0),
    (84, 0),
    (126, 0),
    (168, 0),
    (168, 42),
    (210, 42),
    (252, 42),
    (294, 42),
    (336, 42),
    (378, 42),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dispositions_partition_the_scope(shape in arb_shape()) {
        let dp = build_dp(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let scope = IpSet::full();
        for src in fa.node_names() {
            let rows = fa.dispositions_from(&src, &scope);
            // Exhaustive: the classes cover the whole space...
            let total: u64 = rows.iter().map(|(s, _)| s.count()).sum();
            prop_assert_eq!(total, 1u64 << 32, "from {}", src);
            // ...and are pairwise disjoint.
            for (i, (a, _)) in rows.iter().enumerate() {
                for (b, _) in rows.iter().skip(i + 1) {
                    prop_assert!(a.intersect(b).is_empty());
                }
            }
        }
    }

    #[test]
    fn trace_agrees_with_symbolic_engine(shape in arb_shape(), probe in any::<u32>()) {
        let dp = build_dp(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        let ip = Ipv4Addr::from(probe);
        for src in fa.node_names() {
            let trace = fa.trace(&src, ip);
            let rows = fa.dispositions_from(&src, &IpSet::single(ip));
            prop_assert_eq!(rows.len(), 1);
            let (_, symbolic) = &rows[0];
            // The single-packet trace follows the FIRST ECMP branch, so on
            // divergent classes it reports one concrete outcome; otherwise
            // the engines must agree exactly.
            match symbolic {
                Disposition::EcmpDivergent(_) => {}
                s => prop_assert_eq!(&trace.disposition, s, "src {} ip {}", src, ip),
            }
        }
    }

    #[test]
    fn differential_self_is_empty(shape in arb_shape()) {
        let dp = build_dp(&shape);
        let (a, b) = (ForwardingAnalysis::new(&dp), ForwardingAnalysis::new(&dp));
        let findings = differential_reachability_with(&a, &b, None);
        prop_assert!(findings.is_empty());
    }

    #[test]
    fn differential_findings_lie_in_scope(shape in arb_shape(), probe in any::<u32>()) {
        let dp_a = build_dp(&shape);
        // Perturb: drop one node's FIB.
        let mut dp_b = dp_a.clone();
        if let Some(first) = dp_b.nodes.values_mut().next() {
            first.entries.clear();
        }
        let scope = IpSet::from_prefix(&Prefix::from_bits(probe, 16));
        let (a, b) = (ForwardingAnalysis::new(&dp_a), ForwardingAnalysis::new(&dp_b));
        let findings = differential_reachability_with(&a, &b, Some(&scope));
        for f in findings {
            prop_assert!(f.dsts.subtract(&scope).is_empty(), "finding escapes scope");
        }
    }

    #[test]
    fn owned_addresses_accepted_locally(shape in arb_shape()) {
        let dp = build_dp(&shape);
        let fa = ForwardingAnalysis::new(&dp);
        for (name, node) in &dp.nodes {
            for addr in &node.addresses {
                let trace = fa.trace(name, *addr);
                prop_assert_eq!(
                    &trace.disposition,
                    &Disposition::Accepted(name.clone()),
                    "own address must be delivered locally"
                );
            }
        }
    }

    #[test]
    fn down_node_blackholes_everything(shape in arb_shape(), probe in any::<u32>()) {
        let mut dp = build_dp(&shape);
        let first = dp.nodes.keys().next().unwrap().clone();
        dp.nodes.get_mut(&first).unwrap().up = false;
        let fa = ForwardingAnalysis::new(&dp);
        let rows = fa.dispositions_from(&first, &IpSet::single(Ipv4Addr::from(probe)));
        prop_assert_eq!(rows.len(), 1);
        prop_assert_eq!(&rows[0].1, &Disposition::NodeDown(first));
    }

    // A cache warmed on one dataplane must not change the analysis of any
    // mutated variant: cached and uncached dispositions are identical for
    // every entry node, under random FIB mutations (cleared FIBs, extra
    // entries, dropped entries).
    #[test]
    fn cached_analysis_matches_uncached(
        shape in arb_shape(),
        mutations in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), 8u8..=28),
            0..4,
        ),
    ) {
        let base = build_dp(&shape);
        let mut variant = base.clone();
        for (which, action, bits, len) in &mutations {
            let names: Vec<NodeId> = variant.nodes.keys().cloned().collect();
            let name = &names[*which as usize % names.len()];
            let node = variant.nodes.get_mut(name).unwrap();
            match action % 3 {
                0 => node.entries.clear(),
                1 => node.entries.push(FibEntry {
                    prefix: Prefix::from_bits(*bits, *len),
                    proto: RouteProtocol::Static,
                    next_hops: vec![].into(),
                }),
                _ => {
                    node.entries.pop();
                }
            }
        }

        // Warm the cache on the base dataplane, then analyse the variant
        // both through the cache and from scratch.
        let cache = ClassCache::new();
        let _warm = ForwardingAnalysis::with_cache(&base, &cache);
        let cached = ForwardingAnalysis::with_cache(&variant, &cache);
        let uncached = ForwardingAnalysis::new(&variant);
        let scope = IpSet::full();
        for src in uncached.node_names() {
            prop_assert_eq!(
                cached.dispositions_from(&src, &scope),
                uncached.dispositions_from(&src, &scope),
                "cached analysis diverged from {}",
                src
            );
        }
    }

    // The pair-level incremental standing layer must be invisible: after
    // any sequence of deltas (FIB edits, liveness flips, address churn,
    // link cuts), its verdicts are byte-identical to a from-scratch
    // evaluation of the same snapshot.
    #[test]
    fn incremental_standing_matches_from_scratch(
        shape in arb_shape(),
        deltas in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), 8u8..=28),
            1..6,
        ),
    ) {
        let mut dp = build_dp(&shape);
        let mut incremental = StandingQueries::new();
        incremental.evaluate(SimTime(0), &dp, &coverage_for(&dp));
        let mut at = 1_000;
        for (which, action, bits, len) in &deltas {
            apply_delta(&mut dp, (*which, *action, *bits, *len));
            let cov = coverage_for(&dp);
            incremental.evaluate(SimTime(at), &dp, &cov);
            let mut fresh = StandingQueries::new();
            fresh.evaluate(SimTime(at), &dp, &cov);
            prop_assert_eq!(
                incremental.verdicts(),
                fresh.verdicts(),
                "incremental verdicts diverged after delta {:?}",
                (which, action, bits, len)
            );
            at += 1_000;
        }
    }
}
