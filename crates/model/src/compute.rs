//! The model's dataplane computation — an IBDP-style global fixpoint.
//!
//! Unlike the emulator (independent routers exchanging real messages on a
//! virtual wire), the model computes the network's converged state *as one
//! synchronous algorithm*: infer L3 edges from subnet matching, run a global
//! SPF for IS-IS, then iterate rounds of BGP best-path exchange to a
//! fixpoint. This is faithful to how model-based tools work — and therefore
//! inherits their structural blind spots: no vendor quirks, no timing, no
//! implementation bugs, policies approximated (accept-all), one reference
//! decision process.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::net::Ipv4Addr;

use mfv_config::ir::{DeviceConfig, Redistribute};
use mfv_dataplane::Dataplane;
use mfv_routing::policy::BgpAttrs;
use mfv_routing::rib::{NextHop, Rib, RibRoute};
use mfv_types::{
    AsNum, AsPath, IfaceId, LinkId, NodeId, Origin, Prefix, PrefixTrie, RouteProtocol,
};

/// One node as the model sees it.
struct ModelNode {
    name: NodeId,
    cfg: DeviceConfig,
}

impl ModelNode {
    fn l3_ifaces(&self) -> Vec<(&IfaceId, mfv_types::IfaceAddr)> {
        self.cfg
            .interfaces
            .iter()
            .filter(|i| i.is_l3())
            .filter_map(|i| i.addr.map(|a| (&i.name, a)))
            .collect()
    }

    fn isis_enabled(&self, iface: &IfaceId) -> bool {
        if self.cfg.isis.as_ref().map(|i| !i.af_ipv4).unwrap_or(true) {
            return false;
        }
        self.cfg
            .interface(iface)
            .map(|i| i.isis.is_some())
            .unwrap_or(false)
    }

    fn isis_metric(&self, iface: &IfaceId) -> u32 {
        self.cfg
            .interface(iface)
            .and_then(|i| i.isis.as_ref())
            .map(|ii| ii.metric)
            .unwrap_or(10)
    }

    fn asn(&self) -> Option<AsNum> {
        self.cfg.bgp.as_ref().map(|b| b.asn)
    }

    fn addresses(&self) -> std::collections::BTreeSet<Ipv4Addr> {
        self.l3_ifaces().iter().map(|(_, a)| a.addr).collect()
    }
}

/// A BGP session the model established.
#[derive(Clone, Debug)]
struct ModelSession {
    /// (node index, peer address it dials).
    from: usize,
    to: usize,
    /// Our source address toward the peer.
    local_addr: Ipv4Addr,
    ebgp: bool,
    next_hop_self: bool,
}

/// A route in a node's model BGP table.
#[derive(Clone, Debug, PartialEq)]
struct ModelBgpRoute {
    attrs: BgpAttrs,
    /// Session index it was learned over; None = originated.
    learned_via: Option<usize>,
    ebgp: bool,
}

/// The computed result: the dataplane plus inferred edges (for debugging).
pub struct ModelResult {
    pub dataplane: Dataplane,
    /// Edges inferred from subnet matching: this is the model's "L3 edge"
    /// notion the paper's issue #1 breaks (no address → no edge).
    pub edges: Vec<LinkId>,
    /// BGP exchange rounds until fixpoint.
    pub rounds: usize,
}

/// Computes the model dataplane for a set of parsed (model-view) configs.
pub fn compute(configs: Vec<(NodeId, DeviceConfig)>) -> ModelResult {
    let nodes: Vec<ModelNode> = configs
        .into_iter()
        .map(|(name, cfg)| ModelNode { name, cfg })
        .collect();

    // ---- 1. L3 edge inference by subnet matching ----------------------
    // (node idx, iface) ↔ (node idx, iface) where addresses share a subnet.
    let mut edges: Vec<(usize, IfaceId, usize, IfaceId)> = Vec::new();
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            for (ifi, ai) in nodes[i].l3_ifaces() {
                if ifi.is_loopback() {
                    continue;
                }
                for (ifj, aj) in nodes[j].l3_ifaces() {
                    if ifj.is_loopback() {
                        continue;
                    }
                    if ai.same_subnet(&aj) && ai.addr != aj.addr {
                        edges.push((i, ifi.clone(), j, ifj.clone()));
                    }
                }
            }
        }
    }

    // ---- 2. Per-node RIBs: connected + static --------------------------
    let mut ribs: Vec<Rib> = nodes
        .iter()
        .map(|n| {
            let mut rib = Rib::new();
            let connected: Vec<RibRoute> = n
                .l3_ifaces()
                .into_iter()
                .map(|(iface, addr)| {
                    RibRoute::new(
                        addr.subnet(),
                        RouteProtocol::Connected,
                        0,
                        NextHop::Connected(iface.clone()),
                    )
                })
                .collect();
            rib.set_protocol_routes(RouteProtocol::Connected, connected);
            let statics: Vec<RibRoute> = n
                .cfg
                .static_routes
                .iter()
                .map(|s| {
                    RibRoute::new(s.prefix, RouteProtocol::Static, 0, NextHop::Via(s.next_hop))
                })
                .collect();
            rib.set_protocol_routes(RouteProtocol::Static, statics);
            rib
        })
        .collect();

    // ---- 3. Global IS-IS SPF -------------------------------------------
    // Adjacency: an inferred edge whose ends are both IS-IS enabled.
    let isis_edges: Vec<&(usize, IfaceId, usize, IfaceId)> = edges
        .iter()
        .filter(|(i, ifi, j, ifj)| nodes[*i].isis_enabled(ifi) && nodes[*j].isis_enabled(ifj))
        .collect();

    for (root, rib) in ribs.iter_mut().enumerate() {
        let routes = spf_from(root, &nodes, &isis_edges);
        rib.set_protocol_routes(RouteProtocol::Isis, routes);
    }
    // Until step 6 the RIBs hold only connected, static and IS-IS routes:
    // one trie per node answers every transport and next-hop check.
    let igp: Vec<PrefixTrie<()>> = ribs
        .iter()
        .map(|rib| {
            let mut trie = PrefixTrie::new();
            for (p, _) in rib.winners() {
                trie.insert(*p, ());
            }
            trie
        })
        .collect();
    let resolves = |idx: usize, addr: Ipv4Addr| {
        igp[idx]
            .lookup(addr)
            .is_some_and(|(covering, _)| !covering.is_default())
    };

    // ---- 4. BGP sessions -------------------------------------------------
    let mut addr_owner: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
    for (idx, n) in nodes.iter().enumerate() {
        for a in n.addresses() {
            addr_owner.insert(a, idx);
        }
    }
    let mut sessions: Vec<ModelSession> = Vec::new();
    for (idx, n) in nodes.iter().enumerate() {
        let Some(bgp) = &n.cfg.bgp else { continue };
        for nb in &bgp.neighbors {
            if nb.shutdown {
                continue;
            }
            let Some(&owner) = addr_owner.get(&nb.peer) else {
                continue;
            };
            if nodes[owner].asn() != Some(nb.remote_as) {
                continue;
            }
            // Local address: update-source interface, else our address on
            // the peer's subnet, else loopback.
            let local_addr = nb
                .update_source
                .as_ref()
                .and_then(|src| n.cfg.interface(src))
                .and_then(|i| i.addr.map(|a| a.addr))
                .or_else(|| {
                    n.l3_ifaces()
                        .into_iter()
                        .find(|(_, a)| a.subnet().contains(nb.peer))
                        .map(|(_, a)| a.addr)
                })
                .or_else(|| n.cfg.loopback_addr());
            let Some(local_addr) = local_addr else {
                continue;
            };
            // Transport check: the peer address must resolve in our RIB.
            if !resolves(idx, nb.peer) {
                continue;
            }
            sessions.push(ModelSession {
                from: idx,
                to: owner,
                local_addr,
                ebgp: nb.remote_as != bgp.asn,
                next_hop_self: nb.next_hop_self,
            });
        }
    }
    // A session is only up if BOTH directions configured it.
    let dialled: BTreeSet<(usize, usize)> = sessions.iter().map(|s| (s.from, s.to)).collect();
    sessions.retain(|s| dialled.contains(&(s.to, s.from)));
    // Each session's reverse, for split horizon: the first session back.
    let mut first: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (sid, s) in sessions.iter().enumerate() {
        first.entry((s.from, s.to)).or_insert(sid);
    }
    let reverse: Vec<usize> = sessions.iter().map(|s| first[&(s.to, s.from)]).collect();

    // ---- 5. BGP fixpoint iteration ---------------------------------------
    // Per node: prefix → best route.
    let mut tables: Vec<BTreeMap<Prefix, ModelBgpRoute>> = vec![BTreeMap::new(); nodes.len()];

    // Originations.
    for (idx, n) in nodes.iter().enumerate() {
        let Some(bgp) = &n.cfg.bgp else { continue };
        let mut origins: Vec<Prefix> = Vec::new();
        for p in &bgp.networks {
            if ribs[idx].best(p).is_some() {
                origins.push(*p);
            }
        }
        // The model ignores any route-map attached to redistribution — it
        // approximates policy as permit-all (Batfish-style abstraction).
        if bgp
            .redistribute
            .iter()
            .any(|r| r.proto == Redistribute::Connected)
        {
            for (iface, a) in n.l3_ifaces() {
                let _ = iface;
                origins.push(a.subnet());
            }
        }
        for p in origins {
            tables[idx].insert(
                p,
                ModelBgpRoute {
                    attrs: BgpAttrs {
                        origin: Origin::Igp,
                        as_path: AsPath::empty(),
                        next_hop: Ipv4Addr::UNSPECIFIED,
                        med: None,
                        local_pref: None,
                        communities: vec![],
                        foreign_attrs: vec![],
                    },
                    learned_via: None,
                    ebgp: false,
                },
            );
        }
    }

    let mut rounds = 0;
    for _ in 0..64 {
        rounds += 1;
        let mut changed = false;
        // Synchronous exchange round: compute all advertisements from the
        // current tables, then apply.
        let mut incoming: Vec<Vec<(Prefix, ModelBgpRoute)>> = vec![Vec::new(); nodes.len()];
        for (sid, s) in sessions.iter().enumerate() {
            let sender_as = nodes[s.from].asn().expect("session implies bgp");
            for (prefix, route) in &tables[s.from] {
                // Don't bounce a route back over the session it came from.
                if route.learned_via == Some(reverse[sid]) {
                    continue;
                }
                // iBGP split horizon (no reflection in the model).
                if !s.ebgp && route.learned_via.is_some() && !route.ebgp {
                    continue;
                }
                let mut attrs = route.attrs.clone();
                if s.ebgp {
                    // eBGP receiver-side loop check.
                    if let Some(peer_as) = nodes[s.to].asn() {
                        if attrs.as_path.contains(peer_as) {
                            continue;
                        }
                    }
                    attrs.as_path = attrs.as_path.prepend(sender_as);
                    attrs.local_pref = None;
                    attrs.next_hop = s.local_addr;
                } else {
                    attrs.local_pref = Some(attrs.local_pref.unwrap_or(100));
                    if s.next_hop_self
                        || route.learned_via.is_none()
                        || attrs.next_hop == Ipv4Addr::UNSPECIFIED
                    {
                        attrs.next_hop = s.local_addr;
                    }
                }
                incoming[s.to].push((
                    *prefix,
                    ModelBgpRoute {
                        attrs,
                        learned_via: Some(sid),
                        ebgp: s.ebgp,
                    },
                ));
            }
        }
        // Apply + decide.
        for idx in 0..nodes.len() {
            // Group candidates per prefix: current originations + received.
            let mut cands: BTreeMap<Prefix, Vec<ModelBgpRoute>> = BTreeMap::new();
            for (p, r) in &tables[idx] {
                if r.learned_via.is_none() {
                    cands.entry(*p).or_default().push(r.clone());
                }
            }
            for (p, r) in incoming[idx].drain(..) {
                // Next hop must resolve through IGP/connected.
                if resolves(idx, r.attrs.next_hop) {
                    cands.entry(p).or_default().push(r);
                }
            }
            let mut new_table: BTreeMap<Prefix, ModelBgpRoute> = BTreeMap::new();
            for (p, mut routes) in cands {
                routes.sort_by(|a, b| {
                    let lp_a = a.attrs.local_pref.unwrap_or(100);
                    let lp_b = b.attrs.local_pref.unwrap_or(100);
                    lp_b.cmp(&lp_a)
                        .then_with(|| a.learned_via.is_some().cmp(&b.learned_via.is_some()))
                        .then_with(|| {
                            a.attrs
                                .as_path
                                .route_len()
                                .cmp(&b.attrs.as_path.route_len())
                        })
                        .then_with(|| a.attrs.origin.cmp(&b.attrs.origin))
                        .then_with(|| b.ebgp.cmp(&a.ebgp))
                        .then_with(|| a.attrs.next_hop.cmp(&b.attrs.next_hop))
                });
                new_table.insert(p, routes.into_iter().next().unwrap());
            }
            if new_table.len() != tables[idx].len()
                || new_table.iter().any(|(p, r)| tables[idx].get(p) != Some(r))
            {
                changed = true;
                tables[idx] = new_table;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- 6. Install BGP routes and build the dataplane -------------------
    for idx in 0..nodes.len() {
        let routes: Vec<RibRoute> = tables[idx]
            .iter()
            .filter(|(_, r)| r.learned_via.is_some())
            .map(|(p, r)| {
                let proto = if r.ebgp {
                    RouteProtocol::EbgpLearned
                } else {
                    RouteProtocol::IbgpLearned
                };
                RibRoute::new(*p, proto, 0, NextHop::Via(r.attrs.next_hop))
            })
            .collect();
        let (ebgp, ibgp): (Vec<_>, Vec<_>) = routes
            .into_iter()
            .partition(|r| r.proto == RouteProtocol::EbgpLearned);
        ribs[idx].set_protocol_routes(RouteProtocol::EbgpLearned, ebgp);
        ribs[idx].set_protocol_routes(RouteProtocol::IbgpLearned, ibgp);
    }

    let mut dp = Dataplane::new();
    for (idx, n) in nodes.iter().enumerate() {
        dp.add_node(n.name.clone(), &ribs[idx].to_fib(), n.addresses(), true);
    }
    let mut link_ids = Vec::new();
    for (i, ifi, j, ifj) in &edges {
        let id = LinkId::new(
            (nodes[*i].name.clone(), ifi.clone()),
            (nodes[*j].name.clone(), ifj.clone()),
        );
        dp.add_link(id.clone());
        link_ids.push(id);
    }

    ModelResult {
        dataplane: dp,
        edges: link_ids,
        rounds,
    }
}

/// Dijkstra from `root` over the inferred IS-IS edges, producing routes to
/// every remote IS-IS-enabled subnet.
fn spf_from(
    root: usize,
    nodes: &[ModelNode],
    isis_edges: &[&(usize, IfaceId, usize, IfaceId)],
) -> Vec<RibRoute> {
    #[derive(PartialEq, Eq)]
    struct Q(u32, usize);
    impl Ord for Q {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            o.0.cmp(&self.0).then_with(|| o.1.cmp(&self.1))
        }
    }
    impl PartialOrd for Q {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    // Adjacency list: node → (peer, metric, our iface, peer addr on link).
    let mut adj: BTreeMap<usize, Vec<(usize, u32, IfaceId, Ipv4Addr)>> = BTreeMap::new();
    for (i, ifi, j, ifj) in isis_edges.iter() {
        let addr_j = nodes[*j]
            .cfg
            .interface(ifj)
            .and_then(|x| x.addr)
            .map(|a| a.addr)
            .expect("edge implies address");
        let addr_i = nodes[*i]
            .cfg
            .interface(ifi)
            .and_then(|x| x.addr)
            .map(|a| a.addr)
            .expect("edge implies address");
        adj.entry(*i)
            .or_default()
            .push((*j, nodes[*i].isis_metric(ifi), ifi.clone(), addr_j));
        adj.entry(*j)
            .or_default()
            .push((*i, nodes[*j].isis_metric(ifj), ifj.clone(), addr_i));
    }

    let mut dist: BTreeMap<usize, u32> = BTreeMap::new();
    let mut first_hop: BTreeMap<usize, (IfaceId, Ipv4Addr)> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(root, 0);
    heap.push(Q(0, root));
    while let Some(Q(d, u)) = heap.pop() {
        if dist.get(&u).copied().unwrap_or(u32::MAX) < d {
            continue;
        }
        for (v, metric, iface, via) in adj.get(&u).cloned().unwrap_or_default() {
            let nd = d.saturating_add(metric);
            if nd < dist.get(&v).copied().unwrap_or(u32::MAX) {
                dist.insert(v, nd);
                let fh = if u == root {
                    (iface.clone(), via)
                } else {
                    first_hop.get(&u).cloned().expect("reached via known hop")
                };
                first_hop.insert(v, fh);
                heap.push(Q(nd, v));
            }
        }
    }

    // Routes: every IS-IS subnet of every reached node.
    let own_subnets: Vec<Prefix> = nodes[root]
        .l3_ifaces()
        .into_iter()
        .map(|(_, a)| a.subnet())
        .collect();
    let mut best: BTreeMap<Prefix, (u32, (IfaceId, Ipv4Addr))> = BTreeMap::new();
    for (&node, &d) in &dist {
        if node == root {
            continue;
        }
        let Some(fh) = first_hop.get(&node) else {
            continue;
        };
        for iface in &nodes[node].cfg.interfaces {
            if iface.isis.is_none() || !iface.is_l3() {
                continue;
            }
            let Some(addr) = iface.addr else { continue };
            let prefix = addr.subnet();
            if own_subnets.contains(&prefix) {
                continue;
            }
            let metric = d.saturating_add(iface.isis.as_ref().map(|i| i.metric).unwrap_or(10));
            match best.get(&prefix) {
                Some((m, _)) if *m <= metric => {}
                _ => {
                    best.insert(prefix, (metric, fh.clone()));
                }
            }
        }
    }
    best.into_iter()
        .map(|(prefix, (metric, (iface, via)))| {
            RibRoute::new(
                prefix,
                RouteProtocol::Isis,
                metric,
                NextHop::ViaIface(via, iface),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn cfg(text: &str) -> (NodeId, DeviceConfig) {
        let (cfg, _) = parser::parse(text).unwrap();
        (NodeId::from(&*cfg.hostname), cfg)
    }

    /// A clean 2-router IS-IS + eBGP setup the model handles correctly.
    fn pair_texts() -> (String, String) {
        let a = "\
hostname r1
interface Loopback0
   ip address 2.2.2.1/32
   isis enable default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.0/31
   isis enable default
!
router isis default
   net 49.0001.0000.0000.0001.00
   address-family ipv4 unicast
!
router bgp 65001
   neighbor 100.64.0.1 remote-as 65002
   network 2.2.2.1/32
!
";
        let b = "\
hostname r2
interface Loopback0
   ip address 2.2.2.2/32
   isis enable default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.1/31
   isis enable default
!
router isis default
   net 49.0001.0000.0000.0002.00
   address-family ipv4 unicast
!
router bgp 65002
   neighbor 100.64.0.0 remote-as 65001
   network 2.2.2.2/32
!
";
        (a.to_string(), b.to_string())
    }

    #[test]
    fn clean_pair_full_reachability() {
        let (a, b) = pair_texts();
        let result = compute(vec![cfg(&a), cfg(&b)]);
        assert_eq!(result.edges.len(), 1, "one inferred L3 edge");
        let dp = &result.dataplane;
        let r1 = dp.nodes[&NodeId::from("r1")].fib();
        // IS-IS gives the remote loopback; BGP gives it too (eBGP wins).
        let e = r1.lookup("2.2.2.2".parse().unwrap()).expect("route to r2");
        assert_eq!(e.proto, RouteProtocol::EbgpLearned);
    }

    #[test]
    fn fig3_ordering_kills_the_edge() {
        // Same configs but r2's Ethernet1 has ip address BEFORE no
        // switchport → the model drops the address → no L3 edge → no
        // reachability. (The real device is perfectly happy: E3.)
        let (a, b) = pair_texts();
        let b_buggy = b.replace(
            "   no switchport\n   ip address 100.64.0.1/31\n",
            "   ip address 100.64.0.1/31\n   no switchport\n",
        );
        assert_ne!(b, b_buggy, "replacement must have applied");
        let result = compute(vec![cfg(&a), cfg(&b_buggy)]);
        assert_eq!(result.edges.len(), 0, "model sees no L3 edge");
        let dp = &result.dataplane;
        let r1 = dp.nodes[&NodeId::from("r1")].fib();
        assert!(r1.lookup("2.2.2.2".parse().unwrap()).is_none());
    }

    #[test]
    fn ibgp_over_igp_with_next_hop_self() {
        // 3 nodes in a line: r1/r3 eBGP-learn nothing; test iBGP between
        // r1-r3 via loopbacks with r2 pure transit.
        let r1 = "\
hostname r1
interface Loopback0
   ip address 2.2.2.1/32
   isis enable default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.0/31
   isis enable default
!
interface Ethernet9
   no switchport
   ip address 203.0.113.1/24
!
router isis default
   net 49.0001.0000.0000.0001.00
   address-family ipv4 unicast
!
router bgp 65000
   neighbor 2.2.2.3 remote-as 65000
   neighbor 2.2.2.3 update-source Loopback0
   neighbor 2.2.2.3 next-hop-self
   network 203.0.113.0/24
!
";
        let r2 = "\
hostname r2
interface Loopback0
   ip address 2.2.2.2/32
   isis enable default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.1/31
   isis enable default
!
interface Ethernet2
   no switchport
   ip address 100.64.0.2/31
   isis enable default
!
router isis default
   net 49.0001.0000.0000.0002.00
   address-family ipv4 unicast
!
";
        let r3 = "\
hostname r3
interface Loopback0
   ip address 2.2.2.3/32
   isis enable default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.3/31
   isis enable default
!
router isis default
   net 49.0001.0000.0000.0003.00
   address-family ipv4 unicast
!
router bgp 65000
   neighbor 2.2.2.1 remote-as 65000
   neighbor 2.2.2.1 update-source Loopback0
   neighbor 2.2.2.1 next-hop-self
!
";
        let result = compute(vec![cfg(r1), cfg(r2), cfg(r3)]);
        assert_eq!(result.edges.len(), 2);
        let dp = &result.dataplane;
        let r3_fib = dp.nodes[&NodeId::from("r3")].fib();
        let e = r3_fib
            .lookup("203.0.113.7".parse().unwrap())
            .expect("iBGP route via next-hop-self");
        assert_eq!(e.proto, RouteProtocol::IbgpLearned);
        // Resolves through IS-IS toward r2.
        assert_eq!(e.next_hops[0].via, Some("100.64.0.2".parse().unwrap()));
        assert!(result.rounds >= 2);
    }

    #[test]
    fn one_sided_session_stays_down() {
        let (a, b) = pair_texts();
        // Remove r2's neighbor statement: session never comes up.
        let b = b.replace("   neighbor 100.64.0.0 remote-as 65001\n", "");
        let result = compute(vec![cfg(&a), cfg(&b)]);
        let dp = &result.dataplane;
        let r1 = dp.nodes[&NodeId::from("r1")].fib();
        // The loopback is still reachable via IS-IS, but not via BGP.
        let e = r1.lookup("2.2.2.2".parse().unwrap()).unwrap();
        assert_eq!(e.proto, RouteProtocol::Isis);
    }

    #[test]
    fn as_mismatch_blocks_session() {
        let (a, b) = pair_texts();
        let b = b.replace("router bgp 65002", "router bgp 65009");
        let result = compute(vec![cfg(&a), cfg(&b)]);
        let dp = &result.dataplane;
        let r1 = dp.nodes[&NodeId::from("r1")].fib();
        let e = r1.lookup("2.2.2.2".parse().unwrap()).unwrap();
        assert_eq!(e.proto, RouteProtocol::Isis, "no BGP without matching AS");
    }

    #[test]
    fn fixpoint_terminates_quickly_on_small_nets() {
        let (a, b) = pair_texts();
        let result = compute(vec![cfg(&a), cfg(&b)]);
        assert!(result.rounds < 10);
    }
}
