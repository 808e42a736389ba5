//! The scenario library: every topology used by the paper's evaluation,
//! plus parameterised generators for the scale studies.
//!
//! - [`six_node`] / [`six_node_broken`] — Fig. 2 (experiment E1)
//! - [`three_node_line_fig3`] — the Fig. 3 configs, verbatim ordering (E3)
//! - [`conflint_base`] — the static-analysis cross-validation network (E7)
//! - [`isis_line`], [`isis_grid`], [`production_wan`] — scale topologies
//!   (E4, E5)
//! - [`interplay_chain`] — a multi-vendor topology for the cross-vendor
//!   crash study (A3)
//! - [`rr_cluster`], [`clos`], [`regional_wan`] — reflection, ECMP, and the
//!   paper's 1,000-router scale
//!
//! The hand-written networks spell out the paper's own addresses; the
//! generated ones take theirs from one plan, `Wiring`.

#![expect(
    clippy::unwrap_used,
    clippy::indexing_slicing,
    reason = "P1: scenario builders parse/index compile-time literals only; a bad literal is a programming error caught by the scenario tests, and no runtime input reaches these paths"
)]

use std::net::Ipv4Addr;

use mfv_config::{DeviceConfig, IfaceSpec, RouterSpec, Vendor};
use mfv_emulator::{ExternalPeerSpec, NodeSpec, Topology};
use mfv_types::{AsNum, IfaceAddr};

use crate::snapshot::Snapshot;

/// Loopback address for router index `i` (1-based).
fn loopback(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 255, (i / 256) as u8, (i % 256) as u8)
}

/// The two addresses of point-to-point link number `k`.
fn p2p(k: usize) -> (Ipv4Addr, Ipv4Addr) {
    let base = (10u32 << 24) | (64 << 16) | (2 * k as u32);
    (Ipv4Addr::from(base), Ipv4Addr::from(base + 1))
}

/// The host part of an "addr/len" literal.
fn host(s: &str) -> Ipv4Addr {
    s.split('/').next().unwrap().parse().unwrap()
}

/// Interface name `idx` for a vendor.
fn ifname(vendor: Vendor, idx: usize) -> String {
    match vendor {
        Vendor::Ceos => format!("Ethernet{}", idx + 1),
        Vendor::Vjunos => format!("ge-0/0/{idx}"),
    }
}

/// The address-and-port plan of a generated scenario. It holds the
/// routers' specs and adds each interface to its spec in place: an IS-IS
/// link takes the next /31 from [`p2p`], and each end a port named in its
/// router's dialect — the router's next free port unless the caller names
/// one.
struct Wiring {
    specs: Vec<RouterSpec>,
    /// Per router, the index past its highest port in use.
    free: Vec<usize>,
    /// Each cable as (router, port) at both ends, in the order laid.
    cables: Vec<[(usize, String); 2]>,
    /// The /31s handed out.
    links: usize,
}

impl Wiring {
    fn new(specs: impl IntoIterator<Item = RouterSpec>) -> Wiring {
        let specs: Vec<RouterSpec> = specs.into_iter().collect();
        let free = vec![0; specs.len()];
        Wiring {
            specs,
            free,
            cables: Vec::new(),
            links: 0,
        }
    }

    /// Wires routers `a` and `b` with IS-IS on the next /31, each end on
    /// its router's next free port.
    fn wire(&mut self, a: usize, b: usize) {
        let (pa, pb) = (self.free[a], self.free[b]);
        self.wire_on(a, pa, b, pb);
    }

    /// Wires port `pa` of router `a` to port `pb` of router `b` with IS-IS
    /// on the next /31.
    fn wire_on(&mut self, a: usize, pa: usize, b: usize, pb: usize) {
        let (addr_a, addr_b) = p2p(self.links);
        self.links += 1;
        let pa = self.port(a, pa, addr_a, true);
        let pb = self.port(b, pb, addr_b, true);
        self.cables.push([(a, pa), (b, pb)]);
    }

    /// Puts `addr`/31 on port `idx` of router `i` and returns its name.
    fn port(&mut self, i: usize, idx: usize, addr: Ipv4Addr, isis: bool) -> String {
        self.free[i] = self.free[i].max(idx + 1);
        let name = ifname(self.specs[i].vendor, idx);
        let mut iface = IfaceSpec::new(name.clone(), IfaceAddr::new(addr, 31));
        iface.isis = isis;
        self.specs[i].ifaces.push(iface);
        name
    }

    /// Cables two named ports without allocating an address.
    fn cable(&mut self, a: usize, pa: &str, b: usize, pb: &str) {
        self.cables.push([(a, pa.into()), (b, pb.into())]);
    }

    /// One node per spec, in order, then the cables in the order laid.
    fn snapshot(self, name: String) -> Snapshot {
        let mut t = Topology::new(name);
        for spec in &self.specs {
            t.add_node(NodeSpec::from_config(spec.name.as_str(), &spec.build()));
        }
        for [(a, pa), (b, pb)] in self.cables {
            let (a, b) = (self.specs[a].name.as_str(), self.specs[b].name.as_str());
            t.add_link((a, pa), (b, pb));
        }
        Snapshot::new(t.name.clone(), t)
    }
}

// ---------------------------------------------------------------------------
// Fig. 2: the six-node network (E1)
// ---------------------------------------------------------------------------

/// The paper's Fig. 2 network: three two-router ASes in a chain
/// (AS3 — AS1 — AS2), IS-IS + iBGP inside each AS, eBGP between them.
/// Configurations carry production complexity (management daemons, MPLS/TE)
/// so the same snapshot serves experiment E2's coverage measurement.
pub fn six_node() -> Snapshot {
    six_node_inner(false)
}

/// Fig. 2 with the R2–R3 eBGP session administratively taken down — the
/// "buggy version of the configurations" of E1.
pub fn six_node_broken() -> Snapshot {
    six_node_inner(true)
}

fn six_node_inner(break_r2_r3: bool) -> Snapshot {
    let as1 = AsNum(65001);
    let as2 = AsNum(65002);
    let as3 = AsNum(65003);
    let lo = |i: usize| Ipv4Addr::new(2, 2, 2, i as u8);

    // Link subnets.
    let (r1r2_a, r1r2_b) = ("100.64.0.0/31", "100.64.0.1/31");
    let (r3r4_a, r3r4_b) = ("100.64.0.2/31", "100.64.0.3/31");
    let (r5r6_a, r5r6_b) = ("100.64.0.4/31", "100.64.0.5/31");
    let (r2r3_a, r2r3_b) = ("100.64.1.0/31", "100.64.1.1/31");
    let (r6r1_a, r6r1_b) = ("100.64.1.2/31", "100.64.1.3/31");

    // AS1: r1 (border to AS3), r2 (border to AS2).
    let r1 = RouterSpec::new("r1", as1, lo(1))
        .iface(
            IfaceSpec::new("Ethernet1", r1r2_a.parse().unwrap())
                .with_isis()
                .described("to r2"),
        )
        .iface(IfaceSpec::new("Ethernet2", r6r1_b.parse().unwrap()).described("to r6 (AS3)"))
        .ibgp(lo(2))
        .ebgp(host(r6r1_a), as3)
        .network("2.2.2.1/32".parse().unwrap())
        .redistribute_connected_policed("CONN-OUT")
        .route_map("CONN-OUT", RouterSpec::permit_all_route_map())
        .production();
    let r2 = RouterSpec::new("r2", as1, lo(2))
        .iface(
            IfaceSpec::new("Ethernet1", r1r2_b.parse().unwrap())
                .with_isis()
                .described("to r1"),
        )
        .iface(IfaceSpec::new("Ethernet2", r2r3_a.parse().unwrap()).described("to r3 (AS2)"))
        .ibgp(lo(1))
        .ebgp(host(r2r3_b), as2)
        .network("2.2.2.2/32".parse().unwrap())
        .redistribute_connected_policed("CONN-OUT")
        .route_map("CONN-OUT", RouterSpec::permit_all_route_map())
        .production();

    // AS2: r3 (border), r4.
    let r3 = RouterSpec::new("r3", as2, lo(3))
        .iface(
            IfaceSpec::new("Ethernet1", r3r4_a.parse().unwrap())
                .with_isis()
                .described("to r4"),
        )
        .iface(IfaceSpec::new("Ethernet2", r2r3_b.parse().unwrap()).described("to r2 (AS1)"))
        .ibgp(lo(4))
        .ebgp(host(r2r3_a), as1)
        .network("2.2.2.3/32".parse().unwrap())
        .redistribute_connected_policed("CONN-OUT")
        .route_map("CONN-OUT", RouterSpec::permit_all_route_map())
        .production();
    let r4 = RouterSpec::new("r4", as2, lo(4))
        .iface(
            IfaceSpec::new("Ethernet1", r3r4_b.parse().unwrap())
                .with_isis()
                .described("to r3"),
        )
        .ibgp(lo(3))
        .network("2.2.2.4/32".parse().unwrap())
        .production();

    // AS3: r6 (border), r5.
    let r5 = RouterSpec::new("r5", as3, lo(5))
        .iface(
            IfaceSpec::new("Ethernet1", r5r6_a.parse().unwrap())
                .with_isis()
                .described("to r6"),
        )
        .ibgp(lo(6))
        .network("2.2.2.5/32".parse().unwrap())
        .production();
    let r6 = RouterSpec::new("r6", as3, lo(6))
        .iface(
            IfaceSpec::new("Ethernet1", r5r6_b.parse().unwrap())
                .with_isis()
                .described("to r5"),
        )
        .iface(IfaceSpec::new("Ethernet2", r6r1_a.parse().unwrap()).described("to r1 (AS1)"))
        .ibgp(lo(5))
        .ebgp(host(r6r1_b), as1)
        .network("2.2.2.6/32".parse().unwrap())
        .redistribute_connected_policed("CONN-OUT")
        .route_map("CONN-OUT", RouterSpec::permit_all_route_map())
        .production();

    let mut t = Topology::new(if break_r2_r3 {
        "six-node-broken"
    } else {
        "six-node"
    });
    for spec in [&r1, &r2, &r3, &r4, &r5, &r6] {
        let mut cfg = spec.build();
        if break_r2_r3 && spec.name == "r2" {
            if let Some(bgp) = cfg.bgp.as_mut() {
                if let Some(nb) = bgp
                    .neighbors
                    .iter_mut()
                    .find(|n| n.peer == "100.64.1.1".parse::<Ipv4Addr>().unwrap())
                {
                    nb.shutdown = true;
                }
            }
        }
        t.add_node(NodeSpec::from_config(spec.name.clone(), &cfg));
    }
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    t.add_link(("r3", "Ethernet1"), ("r4", "Ethernet1"));
    t.add_link(("r5", "Ethernet1"), ("r6", "Ethernet1"));
    t.add_link(("r2", "Ethernet2"), ("r3", "Ethernet2"));
    t.add_link(("r6", "Ethernet2"), ("r1", "Ethernet2"));

    Snapshot::new(t.name.clone(), t)
}

// ---------------------------------------------------------------------------
// conflint cross-validation base (E7)
// ---------------------------------------------------------------------------

/// The E7 cross-validation network: two two-router ASes (IS-IS + iBGP
/// inside each, eBGP r2 <-> r3 between them), conflint-clean by
/// construction. The seeded-misconfig injector
/// (`mfv_config::inject_misconfig`) perturbs these configs one family at a
/// time; every family has at least one viable injection site here.
pub fn conflint_base_configs() -> Vec<DeviceConfig> {
    let as1 = AsNum(65101);
    let as2 = AsNum(65102);
    let lo = |i: usize| Ipv4Addr::new(3, 3, 3, i as u8);

    let r1 = RouterSpec::new("r1", as1, lo(1))
        .iface(
            IfaceSpec::new("Ethernet1", "100.66.0.0/31".parse().unwrap())
                .with_isis()
                .described("to r2"),
        )
        .ibgp(lo(2))
        .network("3.3.3.1/32".parse().unwrap());
    let r2 = RouterSpec::new("r2", as1, lo(2))
        .iface(
            IfaceSpec::new("Ethernet1", "100.66.0.1/31".parse().unwrap())
                .with_isis()
                .described("to r1"),
        )
        .iface(
            IfaceSpec::new("Ethernet2", "100.66.1.0/31".parse().unwrap())
                .described("to r3 (AS65102)"),
        )
        .ibgp(lo(1))
        .ebgp(host("100.66.1.1/31"), as2)
        .network("3.3.3.2/32".parse().unwrap());
    let r3 = RouterSpec::new("r3", as2, lo(3))
        .iface(
            IfaceSpec::new("Ethernet1", "100.66.0.2/31".parse().unwrap())
                .with_isis()
                .described("to r4"),
        )
        .iface(
            IfaceSpec::new("Ethernet2", "100.66.1.1/31".parse().unwrap())
                .described("to r2 (AS65101)"),
        )
        .ibgp(lo(4))
        .ebgp(host("100.66.1.0/31"), as1)
        .network("3.3.3.3/32".parse().unwrap());
    let r4 = RouterSpec::new("r4", as2, lo(4))
        .iface(
            IfaceSpec::new("Ethernet1", "100.66.0.3/31".parse().unwrap())
                .with_isis()
                .described("to r3"),
        )
        .ibgp(lo(3))
        .network("3.3.3.4/32".parse().unwrap());

    vec![r1.build(), r2.build(), r3.build(), r4.build()]
}

/// Wires [`conflint_base_configs`] — verbatim or after injection — into a
/// topology. The cabling is fixed; only the configs vary across E7 runs.
pub fn conflint_base_topology(name: &str, configs: &[DeviceConfig]) -> Topology {
    let mut t = Topology::new(name);
    for cfg in configs {
        t.add_node(NodeSpec::from_config(cfg.hostname.clone(), cfg));
    }
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    t.add_link(("r3", "Ethernet1"), ("r4", "Ethernet1"));
    t.add_link(("r2", "Ethernet2"), ("r3", "Ethernet2"));
    t
}

/// The unperturbed E7 network as a snapshot (conflint-clean).
pub fn conflint_base() -> Snapshot {
    let configs = conflint_base_configs();
    Snapshot::new(
        "conflint-base".to_string(),
        conflint_base_topology("conflint-base", &configs),
    )
}

// ---------------------------------------------------------------------------
// Fig. 3: the three-node line with the model-confusing ordering (E3)
// ---------------------------------------------------------------------------

/// The Fig. 3 experiment: a 3-node line (r1 — r2 — r3) running IS-IS only,
/// where r1's interface stanza puts `ip address` *before* `no switchport`
/// (perfectly valid on the device; silently mis-parsed by the model).
pub fn three_node_line_fig3() -> Snapshot {
    // r1's config reproduces the paper's Fig. 3 snippet verbatim (plus a
    // hostname line so the snapshot is self-describing).
    let r1 = "\
hostname r1
router isis default
   net 49.0001.1010.1040.1030.00
   address-family ipv4 unicast
!
interface Loopback0
   ip address 2.2.2.1/32
   isis enable default
   isis passive-interface default
!
interface Ethernet2
   ip address 100.64.0.1/31
   no switchport
   isis enable default
!
";
    let r2 = "\
hostname r2
router isis default
   net 49.0001.1010.1040.1031.00
   address-family ipv4 unicast
!
interface Loopback0
   ip address 2.2.2.2/32
   isis enable default
   isis passive-interface default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.0/31
   isis enable default
!
interface Ethernet2
   no switchport
   ip address 100.64.0.2/31
   isis enable default
!
";
    let r3 = "\
hostname r3
router isis default
   net 49.0001.1010.1040.1032.00
   address-family ipv4 unicast
!
interface Loopback0
   ip address 2.2.2.3/32
   isis enable default
   isis passive-interface default
!
interface Ethernet1
   no switchport
   ip address 100.64.0.3/31
   isis enable default
!
";
    let mut t = Topology::new("three-node-line-fig3");
    for (name, text) in [("r1", r1), ("r2", r2), ("r3", r3)] {
        t.add_node(NodeSpec {
            name: name.into(),
            vendor: Vendor::Ceos,
            config_text: text.to_string(),
        });
    }
    t.add_link(("r1", "Ethernet2"), ("r2", "Ethernet1"));
    t.add_link(("r2", "Ethernet2"), ("r3", "Ethernet1"));
    Snapshot::new("three-node-line-fig3", t)
}

// ---------------------------------------------------------------------------
// Scale topologies (E4, E5)
// ---------------------------------------------------------------------------

/// A line of `n` IS-IS routers (scale bring-up workload).
pub fn isis_line(n: usize) -> Snapshot {
    assert!(n >= 2);
    let mut plan =
        Wiring::new((1..=n).map(|i| RouterSpec::new(format!("r{i}"), AsNum(65000), loopback(i))));
    // Each router's "right" port to the next one's "left" port.
    for i in 0..n - 1 {
        plan.wire_on(i, 1, i + 1, 0);
    }
    plan.snapshot(format!("isis-line-{n}"))
}

/// A `w`×`h` IS-IS grid (denser flooding/SPF workload).
pub fn isis_grid(w: usize, h: usize) -> Snapshot {
    assert!(w >= 1 && h >= 1 && w * h >= 2);
    let specs = (1..=w * h).map(|i| RouterSpec::new(format!("r{i}"), AsNum(65000), loopback(i)));
    let mut plan = Wiring::new(specs);
    for y in 0..h {
        for x in 0..w {
            let me = y * w + x;
            if x + 1 < w {
                plan.wire(me, me + 1);
            }
            if y + 1 < h {
                plan.wire(me, me + w);
            }
        }
    }
    plan.snapshot(format!("isis-grid-{w}x{h}"))
}

/// A production-like WAN: a ring of `n` routers with chord links, IS-IS
/// everywhere, an iBGP full mesh with next-hop-self, production-complexity
/// configs, optionally alternating vendors, and optional external BGP route
/// feeds (the E5 workload).
pub fn production_wan(
    n: usize,
    chords: usize,
    multi_vendor: bool,
    routes_per_feed: usize,
) -> Snapshot {
    assert!(n >= 3);
    let asn = AsNum(65000);
    let specs = (1..=n).map(|i| {
        let vendor = if multi_vendor && i % 3 == 0 {
            Vendor::Vjunos
        } else {
            Vendor::Ceos
        };
        let mut s = RouterSpec::new(format!("r{i}"), asn, loopback(i)).vendor(vendor);
        // iBGP full mesh.
        s.ibgp = (1..=n).filter(|&j| j != i).map(loopback).collect();
        s = s.network(mfv_types::Prefix::host(loopback(i)));
        if vendor == Vendor::Ceos {
            s = s.production();
        }
        s
    });
    let mut plan = Wiring::new(specs);
    for i in 0..n {
        plan.wire(i, (i + 1) % n);
    }
    // Deterministic chords spread around the ring.
    for c in 0..chords {
        let i = (c * 7) % n;
        let j = (i + n / 2 + c) % n;
        if i != j && (i + 1) % n != j && (j + 1) % n != i {
            plan.wire(i, j);
        }
    }

    // External feeds on r1 and r(n/2): stub interfaces + eBGP neighbors.
    let mut feeds = Vec::new();
    if routes_per_feed > 0 {
        for (feed_no, node_idx) in [0usize, n / 2].into_iter().enumerate() {
            let peer_as = AsNum(64900 + feed_no as u32);
            let subnet_base = (100u32 << 24) | (127 << 16) | ((feed_no as u32) << 8);
            let peer_side = Ipv4Addr::from(subnet_base + 1);
            let port = plan.free[node_idx];
            plan.port(node_idx, port, Ipv4Addr::from(subnet_base), false);
            plan.specs[node_idx].ebgp.push((peer_side, peer_as));
            feeds.push(ExternalPeerSpec {
                addr: peer_side,
                asn: peer_as,
                attach_to: format!("r{}", node_idx + 1).into(),
                route_count: routes_per_feed,
                base_octet: Some(20 + (feed_no as u8) * 8),
            });
        }
    }
    let mut snapshot = plan.snapshot(format!("production-wan-{n}"));
    snapshot.topology.external_peers = feeds;
    snapshot
}

// ---------------------------------------------------------------------------
// Cross-vendor interplay topology (A3)
// ---------------------------------------------------------------------------

/// A four-node multi-vendor chain for the interplay-crash study:
/// `victim (ceos) — transit (ceos) — transit2 (ceos) — emitter (vjunos)`.
/// The bug profiles (who emits the unusual attribute, whose parser dies) are
/// injected via [`crate::backend::EmulationBackend::profiles`].
pub fn interplay_chain() -> Snapshot {
    let lo = |i: usize| Ipv4Addr::new(2, 2, 2, i as u8);
    let names = ["victim", "transit", "transit2", "emitter"];
    let specs = names.iter().enumerate().map(|(i, name)| {
        let mut s = RouterSpec::new(*name, AsNum(65000), lo(i + 1));
        if i == 3 {
            s = s.vendor(Vendor::Vjunos);
        }
        s.ibgp = (1..=4).filter(|&j| j != i + 1).map(lo).collect();
        s.network(mfv_types::Prefix::host(lo(i + 1)))
    });
    let mut plan = Wiring::new(specs);
    for i in 0..3 {
        plan.wire(i, i + 1);
    }
    plan.snapshot("interplay-chain".into())
}

// ---------------------------------------------------------------------------
// Route-reflector cluster and Clos fabric (extension scenarios)
// ---------------------------------------------------------------------------

/// A route-reflector cluster: one RR in the middle, `clients` spokes. Each
/// client originates its loopback; clients never peer with each other —
/// reflection is the only way their routes can spread, exercising the iBGP
/// reflection rules end to end.
pub fn rr_cluster(clients: usize) -> Snapshot {
    assert!(clients >= 2);
    let (asn, rr_lo) = (AsNum(65000), loopback(1));
    let mut rr = RouterSpec::new("rr", asn, rr_lo).network(mfv_types::Prefix::host(rr_lo));
    rr.ibgp_rr_clients = (2..clients + 2).map(loopback).collect();
    let spokes = (2..clients + 2).map(|i| {
        RouterSpec::new(format!("c{}", i - 1), asn, loopback(i))
            .ibgp(rr_lo)
            .network(mfv_types::Prefix::host(loopback(i)))
    });
    let mut plan = Wiring::new(std::iter::once(rr).chain(spokes));
    for c in 1..=clients {
        plan.wire(0, c);
    }
    plan.snapshot(format!("rr-cluster-{clients}"))
}

/// A 2-tier Clos fabric: `spines` spine routers, `leaves` leaf routers,
/// full bipartite IS-IS links with equal metrics and `maximum-paths` wide
/// enough for full ECMP — the multipath-consistency workload.
pub fn clos(spines: usize, leaves: usize) -> Snapshot {
    assert!(spines >= 1 && leaves >= 2);
    let asn = AsNum(65000);
    let spine = |s: usize| RouterSpec::new(format!("s{s}"), asn, loopback(s));
    let leaf = |l: usize| RouterSpec::new(format!("l{l}"), asn, loopback(99 + l));
    let mut plan = Wiring::new((1..=spines).map(spine).chain((1..=leaves).map(leaf)));
    for s in 0..spines {
        for l in 0..leaves {
            plan.wire(s, spines + l);
        }
    }
    plan.snapshot(format!("clos-{spines}x{leaves}"))
}

/// The 1,000-router scale scenario (the paper's §5 deployment target):
/// `regions` regional networks of `per_region` routers each. Inside a
/// region: an IS-IS line, a route reflector at `x00` with every other
/// router as its client (iBGP over loopbacks), and one customer prefix
/// (`198.18.<region>.0/24`) originated at the reflector. Between regions:
/// an eBGP ring — each region's last router (`x49`-style exit border)
/// peers with the next region's reflector over a dedicated non-IGP /31,
/// one private AS per region, and the exit border exports its region's
/// loopbacks by redistributing IS-IS into BGP through a prefix-list-policed
/// route-map. Every prefix therefore crosses reflection, redistribution,
/// policy, and eBGP propagation on its way around the ring.
///
/// The export carries a planted misconfiguration, kept because the
/// `wan1000_converge` digest pins this topology: the exit border's own
/// loopback is *connected* there, not IS-IS, so `redistribute isis` can
/// never export it and no router outside the region has a route to it.
/// `regional_wan_verdict_is_the_planted_redistribution_gap`
/// (`tests/pipeline.rs`) pins that verdict; the other addresses that fail
/// all-pairs reachability (IS-IS /31s behind the `LOOPBACKS` filter, ring
/// /31s outside the IGP) are unreachable by design.
///
/// `regional_wan(20, 50)` is the `cluster1000` bench topology: 1,000
/// routers, 1,000 links, ~1,000 globally-propagated prefixes.
pub fn regional_wan(regions: usize, per_region: usize) -> Snapshot {
    assert!(regions >= 2, "the eBGP ring needs at least two regions");
    assert!(per_region >= 3, "a region needs entry, middle, and exit");
    assert!(regions <= 200 && per_region <= 256, "address plan bounds");
    let region_as = |r: usize| AsNum(64512 + r as u32);
    let lo = |r: usize, i: usize| loopback(r * per_region + i + 1);
    let last = per_region - 1;
    let specs = (0..regions * per_region).map(|k| {
        let (r, i) = (k / per_region, k % per_region);
        let mut spec = RouterSpec::new(format!("r{r:02}x{i:02}"), region_as(r), lo(r, i));
        if i == 0 {
            // Route reflector + regional customer prefix + ring entry.
            spec.ibgp_rr_clients = (1..per_region).map(|c| lo(r, c)).collect();
            let prev = (r + regions - 1) % regions;
            spec = spec
                .network(format!("198.18.{r}.0/24").parse().unwrap())
                .ebgp(format!("172.16.{prev}.0").parse().unwrap(), region_as(prev));
        } else {
            spec = spec.ibgp(lo(r, 0));
        }
        if i == last {
            // Exit border: eBGP to the next region's reflector, and the
            // region's loopbacks exported via policed redistribution.
            spec = spec
                .ebgp(
                    format!("172.16.{r}.1").parse().unwrap(),
                    region_as((r + 1) % regions),
                )
                .redistribute_isis_policed("EXPORT-LOOPBACKS")
                .route_map(
                    "EXPORT-LOOPBACKS",
                    mfv_config::RouteMap {
                        entries: vec![mfv_config::RouteMapEntry {
                            seq: 10,
                            action: mfv_config::PolicyAction::Permit,
                            matches: vec![mfv_config::MatchClause::PrefixList("LOOPBACKS".into())],
                            sets: Vec::new(),
                        }],
                    },
                )
                .prefix_list(
                    "LOOPBACKS",
                    mfv_config::PrefixList {
                        entries: vec![mfv_config::PrefixListEntry {
                            seq: 10,
                            action: mfv_config::PolicyAction::Permit,
                            prefix: "10.255.0.0/16".parse().unwrap(),
                            ge: None,
                            le: Some(32),
                        }],
                    },
                );
        }
        spec
    });
    let mut plan = Wiring::new(specs);
    for r in 0..regions {
        let (entry, exit) = (r * per_region, r * per_region + last);
        // IS-IS line: Ethernet1 toward the lower neighbour, Ethernet2
        // toward the higher one.
        for k in entry..exit {
            plan.wire_on(k, 1, k + 1, 0);
        }
        // The customer LAN and the ring /31s, after the line's ports.
        let prev = (r + regions - 1) % regions;
        let entry_ifaces = &mut plan.specs[entry].ifaces;
        let customer = format!("198.18.{r}.1/24").parse().unwrap();
        entry_ifaces.push(IfaceSpec::new("Ethernet9", customer));
        let ring_in = format!("172.16.{prev}.1/31").parse().unwrap();
        entry_ifaces.push(IfaceSpec::new("Ethernet8", ring_in));
        let ring_out = format!("172.16.{r}.0/31").parse().unwrap();
        let exit_ifaces = &mut plan.specs[exit].ifaces;
        exit_ifaces.push(IfaceSpec::new("Ethernet8", ring_out));
        let next_entry = (exit + 1) % (regions * per_region);
        plan.cable(exit, "Ethernet8", next_entry, "Ethernet8");
    }
    plan.snapshot(format!("regional-wan-{regions}x{per_region}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_types::NodeId;

    #[test]
    fn six_node_topology_is_wellformed() {
        let s = six_node();
        assert_eq!(s.topology.nodes.len(), 6);
        assert_eq!(s.topology.links.len(), 5);
        assert_eq!(s.topology.validate(), Ok(()));
        // All configs parse in their vendor dialect.
        for n in &s.topology.nodes {
            let parsed = n.parse_config().unwrap();
            assert!(
                parsed.warnings.is_empty(),
                "{}: {:?}",
                n.name,
                parsed.warnings
            );
        }
    }

    #[test]
    fn six_node_config_lengths_match_paper_band() {
        // Paper: "the number of lines in each configuration ranges from
        // 62-82".
        let s = six_node();
        for n in &s.topology.nodes {
            let lines = n
                .config_text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count();
            assert!((55..=95).contains(&lines), "{} has {lines} lines", n.name);
        }
    }

    #[test]
    fn six_node_broken_differs_only_in_r2_shutdown() {
        let a = six_node();
        let b = six_node_broken();
        for (na, nb) in a.topology.nodes.iter().zip(b.topology.nodes.iter()) {
            if na.name == NodeId::from("r2") {
                assert_ne!(na.config_text, nb.config_text);
                assert!(nb.config_text.contains("shutdown"));
            } else {
                assert_eq!(na.config_text, nb.config_text, "{}", na.name);
            }
        }
    }

    #[test]
    fn fig3_keeps_paper_statement_order() {
        let s = three_node_line_fig3();
        let r1 = &s.topology.node(&"r1".into()).unwrap().config_text;
        let addr_pos = r1.find("ip address 100.64.0.1/31").unwrap();
        let swp_pos = r1.find("no switchport").unwrap();
        assert!(addr_pos < swp_pos, "Fig. 3 ordering must be preserved");
        assert_eq!(s.topology.validate(), Ok(()));
    }

    #[test]
    fn isis_line_and_grid_validate() {
        for n in [2, 5, 10] {
            let s = isis_line(n);
            assert_eq!(s.topology.nodes.len(), n);
            assert_eq!(s.topology.links.len(), n - 1);
            assert_eq!(s.topology.validate(), Ok(()));
        }
        let g = isis_grid(3, 3);
        assert_eq!(g.topology.nodes.len(), 9);
        assert_eq!(g.topology.links.len(), 12);
        assert_eq!(g.topology.validate(), Ok(()));
    }

    #[test]
    fn production_wan_validates_and_mixes_vendors() {
        let s = production_wan(9, 2, true, 100);
        assert_eq!(s.topology.nodes.len(), 9);
        assert_eq!(s.topology.validate(), Ok(()));
        let vendors: std::collections::BTreeSet<_> =
            s.topology.nodes.iter().map(|n| n.vendor).collect();
        assert_eq!(vendors.len(), 2, "multi-vendor");
        assert_eq!(s.topology.external_peers.len(), 2);
        // Every config parses in its own dialect.
        for n in &s.topology.nodes {
            n.parse_config()
                .unwrap_or_else(|e| panic!("{}: {e}", n.name));
        }
    }

    #[test]
    fn interplay_chain_validates() {
        let s = interplay_chain();
        assert_eq!(s.topology.nodes.len(), 4);
        assert_eq!(s.topology.validate(), Ok(()));
        assert_eq!(
            s.topology.node(&"emitter".into()).unwrap().vendor,
            Vendor::Vjunos
        );
    }

    #[test]
    fn p2p_allocator_is_disjoint() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..1000 {
            let (a, b) = p2p(k);
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
    }

    #[test]
    fn rr_cluster_validates() {
        let s = rr_cluster(4);
        assert_eq!(s.topology.nodes.len(), 5);
        assert_eq!(s.topology.links.len(), 4);
        assert_eq!(s.topology.validate(), Ok(()));
        // The hub's config carries route-reflector-client statements.
        let rr = s.topology.node(&"rr".into()).unwrap();
        assert!(
            rr.config_text.contains("route-reflector-client"),
            "{}",
            rr.config_text
        );
    }

    #[test]
    fn clos_validates_and_is_bipartite() {
        let s = clos(2, 4);
        assert_eq!(s.topology.nodes.len(), 6);
        assert_eq!(s.topology.links.len(), 8);
        assert_eq!(s.topology.validate(), Ok(()));
    }

    /// Every generated scenario's topology file, at every size a test, the
    /// benchmark or an `experiments` default builds, as an FNV-1a of its
    /// JSON: configs, interface order, node order and link order.
    #[test]
    fn generated_topologies_are_pinned() {
        let fnv1a = |text: String| {
            let bytes = text.bytes();
            bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let pins: [(Snapshot, u64); 19] = [
            (isis_line(4), 0x7a427ff8cca6cc5d),
            (isis_line(5), 0x62a8522f23cc3963),
            (isis_grid(3, 2), 0x4ba675c78f1b2ab6),
            (isis_grid(3, 3), 0x799440639e05a7d8),
            (isis_grid(4, 3), 0x14cccfdb6373cd32),
            (isis_grid(6, 5), 0x7e08420652be8d68),
            (isis_grid(7, 6), 0x4ccff3b020e5f248),
            (isis_grid(10, 6), 0x7ba4f36d70265bce),
            (production_wan(9, 2, true, 40), 0xf911fa8098a97253),
            (production_wan(9, 2, true, 50), 0xe8769ac095951d95),
            (production_wan(12, 3, true, 20), 0xa8ed3ca6ce7e218b),
            (production_wan(30, 3, true, 1_000), 0xfc0da0e39f438882),
            (interplay_chain(), 0x31c5daf59afe3140),
            (rr_cluster(4), 0xade788aa294dd963),
            (clos(2, 4), 0x44dbfe686a0db3c1),
            (clos(3, 4), 0x046c7e110060e95b),
            (regional_wan(3, 4), 0x093146a0ae5dcca6),
            (regional_wan(5, 20), 0x86ed37f6d42074d6),
            (regional_wan(20, 50), 0xdeafe8af258d63a5),
        ];
        let found: Vec<String> = pins
            .iter()
            .map(|(s, _)| format!("{} {:016x}", s.name, fnv1a(s.topology.to_json())))
            .collect();
        let want: Vec<String> = pins
            .iter()
            .map(|(s, pin)| format!("{} {pin:016x}", s.name))
            .collect();
        assert_eq!(found, want);
    }

    #[test]
    fn regional_wan_validates_and_converges_at_small_scale() {
        use mfv_emulator::{Cluster, Emulation, EmulationConfig};

        let s = regional_wan(3, 4);
        assert_eq!(s.topology.nodes.len(), 12);
        // Per region: 3 IS-IS line links; plus one ring link per region.
        assert_eq!(s.topology.links.len(), 12);
        assert_eq!(s.topology.validate(), Ok(()));

        let mut emu = Emulation::new(
            s.topology,
            Cluster::of_size(2),
            EmulationConfig {
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let report = emu.run_until_converged();
        assert!(report.converged, "{report:?}");
        // Cross-region: a mid-region client reaches another region's
        // customer prefix (via reflection → redistribution → the eBGP
        // ring) and a foreign loopback (via the policed IS-IS export).
        let r = emu.router(&"r00x01".into()).unwrap();
        assert!(
            r.fib().lookup("198.18.2.9".parse().unwrap()).is_some(),
            "customer prefix of region 2 must be reachable from region 0"
        );
        assert!(
            // loopback(r * per_region + i + 1) at r = 1, per_region = 4, i = 2.
            r.fib().lookup(super::loopback(4 + 2 + 1)).is_some(),
            "region 1 loopbacks must be exported around the ring"
        );
    }
}
