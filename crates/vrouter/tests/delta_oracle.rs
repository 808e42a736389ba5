//! From-scratch oracle for the router's delta pipeline.
//!
//! A poll patches the RIB, the BGP selection and the FIB for the prefixes
//! its inputs changed. This test drives a small two-AS network (IS-IS +
//! iBGP mesh in one, an eBGP edge in the other, a doubly recursive static,
//! a prefix both the core's IS-IS and the edge's eBGP carry) through random
//! link flaps, config pushes, crashes, restarts and session shutdowns, and
//! after *every* poll of every router rebuilds each table from the route
//! sources and demands equality:
//!
//! - `rib()`'s connected, static and IS-IS routes equal those of a RIB
//!   rebuilt from connected/static routes, a fresh SPF and the whole BGP
//!   selection as eBGP / iBGP routes — the router's RIB holds no BGP route;
//! - `fib()` — the router's RIB joined with the selection it reads in place
//!   — equals that rebuilt RIB's `to_fib()`;
//! - `take_changed_prefixes()` is exactly the symmetric difference of the
//!   FIB before and after, and `fib_version` moved iff it is non-empty;
//! - `bgp_engine().selected()` equals a decision over every prefix;
//! - what every BGP session remembers of its peer's reachability is what
//!   the IGP view says now, and no session is out of Idle without a route to
//!   its peer: the sessions are where an engine that asked the view on
//!   every poll would have them. One operation cuts an eBGP peer off and
//!   restores it, and demands the session down and up again.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use mfv_config::{DeviceConfig, IfaceSpec, RouterSpec, StaticRoute};
use mfv_routing::rib::IGP_PROTOS;
use mfv_routing::{FibEntry, NextHopResolver, Rib, SessionState};
use mfv_types::{AsNum, IfaceId, Prefix, RouteProtocol, SimTime};
use mfv_vrouter::{RouterEvent, VendorProfile, VirtualRouter};
use proptest::prelude::*;

/// The last core router's IS-IS stub and the edge's customer subnet at once.
const CONTESTED: &str = "198.19.0.0/24";

fn lo(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(2, 2, 2, i as u8 + 1)
}

fn subnet(third: u8, host: u8) -> mfv_types::IfaceAddr {
    format!("100.64.{third}.{host}/31").parse().unwrap()
}

struct Link {
    a: (usize, IfaceId),
    b: (usize, IfaceId),
    up: bool,
}

struct Net {
    routers: Vec<VirtualRouter>,
    links: Vec<Link>,
    now: SimTime,
}

/// `n - 1` core routers in AS 65000 (IS-IS chain, closed into a ring from
/// three up, iBGP full mesh) and one edge router in AS 65001 dual-homed
/// over plain eBGP links to the first and the last of them — so the core
/// hears the edge's prefixes from two iBGP peers and picks by IGP cost,
/// which a flap moves without resetting any session. The edge also
/// announces [`CONTESTED`], which the last core router carries in IS-IS:
/// at r0 eBGP (20) beats IS-IS (115), inside the core IS-IS beats iBGP
/// (200), and where the subnet is connected it beats both.
fn build(n: usize) -> Net {
    let core = n - 1;
    let border = core - 1;
    let mut ifaces: Vec<Vec<IfaceSpec>> = vec![Vec::new(); n];
    let mut links = Vec::new();
    let mut isis_link = |a: usize, b: usize, third: u8| {
        let (ia, ib) = (format!("Ethernet{}", b + 1), format!("Ethernet{}", a + 1));
        ifaces[a].push(IfaceSpec::new(ia.clone(), subnet(third, 0)).with_isis());
        ifaces[b].push(IfaceSpec::new(ib.clone(), subnet(third, 1)).with_isis());
        links.push(Link {
            a: (a, ia.into()),
            b: (b, ib.into()),
            up: true,
        });
    };
    for i in 0..border {
        isis_link(i, i + 1, i as u8);
    }
    if core >= 3 {
        isis_link(border, 0, 100);
    }
    // A customer subnet behind r0 (redistributed rather than named), the
    // edge's customer subnet, and the two eBGP links.
    let plain = |name: &str, addr: &str| IfaceSpec::new(name, addr.parse().unwrap());
    ifaces[0].push(plain("Ethernet9", "203.0.113.1/24"));
    ifaces[core].push(plain("Ethernet9", "198.18.0.1/24"));
    ifaces[border].push(plain("Ethernet6", "198.19.0.2/24").with_isis());
    ifaces[core].push(plain("Ethernet6", "198.19.0.1/24"));
    for (k, (home, port)) in [(border, "Ethernet8"), (0, "Ethernet7")]
        .into_iter()
        .enumerate()
    {
        ifaces[home].push(plain(port, &format!("172.16.{k}.0/31")));
        ifaces[core].push(plain(port, &format!("172.16.{k}.1/31")));
        links.push(Link {
            a: (home, port.into()),
            b: (core, port.into()),
            up: true,
        });
    }

    let routers = (0..n)
        .map(|i| {
            let asn = AsNum(if i < core { 65000 } else { 65001 });
            let mut spec = RouterSpec::new(format!("r{i}"), asn, lo(i))
                .network(format!("2.2.2.{}/32", i + 1).parse().unwrap());
            for iface in ifaces[i].drain(..) {
                spec = spec.iface(iface);
            }
            for j in (0..core).filter(|j| i < core && *j != i) {
                spec = spec.ibgp(lo(j));
            }
            if i == 0 {
                spec = spec
                    .redistribute_connected()
                    .ebgp(Ipv4Addr::new(172, 16, 1, 1), AsNum(65001));
            }
            if i == border {
                spec = spec.ebgp(Ipv4Addr::new(172, 16, 0, 1), AsNum(65001));
            }
            if i == core {
                spec = spec
                    .ebgp(Ipv4Addr::new(172, 16, 0, 0), AsNum(65000))
                    .ebgp(Ipv4Addr::new(172, 16, 1, 0), AsNum(65000))
                    .network("198.18.0.0/24".parse().unwrap())
                    .network(CONTESTED.parse().unwrap());
            }
            let mut cfg: DeviceConfig = spec.build();
            if i == 0 {
                cfg.static_routes = recursive_statics();
            }
            VirtualRouter::new(format!("r{i}").into(), VendorProfile::ceos(), cfg)
        })
        .collect();
    Net {
        routers,
        links,
        now: SimTime::ZERO,
    }
}

/// r0's statics: one via r1's loopback (resolved through IS-IS), one via
/// an address inside the first (resolved through it, then through IS-IS).
fn recursive_statics() -> Vec<StaticRoute> {
    vec![
        StaticRoute {
            prefix: "198.51.100.0/24".parse().unwrap(),
            next_hop: lo(1),
            distance: None,
        },
        StaticRoute {
            prefix: "192.0.2.0/24".parse().unwrap(),
            next_hop: Ipv4Addr::new(198, 51, 100, 1),
            distance: Some(250),
        },
    ]
}

fn table(r: &VirtualRouter) -> BTreeMap<Prefix, FibEntry> {
    r.fib()
        .entries()
        .map(|e| (e.prefix, e.to_entry()))
        .collect()
}

fn routes(rib: &Rib, proto: RouteProtocol) -> Vec<mfv_routing::RibRoute> {
    rib.protocol_routes(proto).map(|(_, r)| r.clone()).collect()
}

/// Everything the oracle demands of `r` right after a poll.
fn check(
    r: &mut VirtualRouter,
    before: &BTreeMap<Prefix, FibEntry>,
    version_before: u64,
) -> Result<(), TestCaseError> {
    let after = table(r);
    let reference = r.reference_rib();
    for proto in IGP_PROTOS {
        prop_assert_eq!(
            routes(r.rib(), proto),
            routes(&reference, proto),
            "{} RIB routes of {}",
            proto,
            r.name
        );
    }
    prop_assert!(
        r.fib().same_as(&reference.to_fib()),
        "FIB of {} is not its RIB resolved from scratch:\n{:?}\nvs\n{:?}",
        r.name,
        after,
        reference.to_fib().entries().collect::<Vec<_>>()
    );
    let moved: BTreeSet<Prefix> = before
        .keys()
        .chain(after.keys())
        .filter(|p| before.get(p) != after.get(p))
        .copied()
        .collect();
    prop_assert_eq!(
        r.take_changed_prefixes(),
        moved.clone(),
        "churn of {}",
        r.name
    );
    prop_assert_eq!(r.fib_version() != version_before, !moved.is_empty());
    if let Some(bgp) = r.bgp_engine() {
        prop_assert_eq!(
            bgp.selected(),
            &bgp.decide_all(r.rib()),
            "BGP selection of {}",
            r.name
        );
        prop_assert_eq!(
            bgp.stale_liveness(r.rib()),
            Vec::<Ipv4Addr>::new(),
            "{}",
            r.name
        );
        for s in bgp.summaries() {
            prop_assert!(
                s.state == SessionState::Idle || r.rib().igp_metric(s.peer).is_some(),
                "{}: session to {} is {:?} without a route to it",
                r.name,
                s.peer,
                s.state
            );
        }
    }
    Ok(())
}

impl Net {
    /// Polls every router once (checking each), then delivers what they
    /// sent: IS-IS frames across up links, BGP segments to the address's
    /// owner.
    fn round(&mut self) -> Result<(), TestCaseError> {
        self.now = SimTime(self.now.0 + 500);
        let mut frames: Vec<(usize, IfaceId, bytes::Bytes)> = Vec::new();
        let mut segments = Vec::new();
        for i in 0..self.routers.len() {
            let before = table(&self.routers[i]);
            let version = self.routers[i].fib_version();
            let mut events = Vec::new();
            self.routers[i].poll(self.now, &|| 0, &mut events);
            check(&mut self.routers[i], &before, version)?;
            for ev in events {
                match ev {
                    RouterEvent::IsisFrame { port, payload } => {
                        let iface = self.routers[i].ports().nth(port).unwrap().clone();
                        let far = self.links.iter().filter(|l| l.up).find_map(|l| {
                            if l.a == (i, iface.clone()) {
                                Some(l.b.clone())
                            } else if l.b == (i, iface.clone()) {
                                Some(l.a.clone())
                            } else {
                                None
                            }
                        });
                        if let Some((j, jface)) = far {
                            frames.push((j, jface, payload));
                        }
                    }
                    RouterEvent::BgpSegment { src, dst, payload } => {
                        segments.push((src, dst, payload));
                    }
                    RouterEvent::Crashed { .. } => {}
                }
            }
        }
        for (j, iface, payload) in frames {
            let port = self.routers[j].port(&iface).unwrap();
            self.routers[j].push_isis(self.now, port, payload);
        }
        for (src, dst, payload) in segments {
            if let Some(owner) = self
                .routers
                .iter_mut()
                .find(|r| r.addresses().contains(&dst))
            {
                owner.push_bgp(self.now, src, dst, payload);
            }
        }
        Ok(())
    }

    /// Both ends see loss / return of light.
    fn set_link(&mut self, at: usize, up: bool) {
        let l = &mut self.links[at];
        l.up = up;
        let (a, b) = (l.a.clone(), l.b.clone());
        self.routers[a.0].set_link(&a.1, up);
        self.routers[b.0].set_link(&b.1, up);
    }

    /// Cuts the eBGP link between r0 and the edge (the last link) for
    /// `rounds` rounds, then restores it: each end must have dropped the
    /// session with its route to the peer, and a session that was up before
    /// the cut must be up again once the route is back.
    fn cut_off_and_restore(&mut self, rounds: u32) -> Result<(), TestCaseError> {
        let (at, edge) = (self.links.len() - 1, self.routers.len() - 1);
        let ends = [
            (0, Ipv4Addr::new(172, 16, 1, 1)),
            (edge, Ipv4Addr::new(172, 16, 1, 0)),
        ];
        let states = |net: &Net| -> Vec<SessionState> {
            let engines = ends
                .iter()
                .filter_map(|(i, peer)| Some((net.routers[*i].bgp_engine()?, peer)));
            engines
                .filter_map(|(bgp, peer)| bgp.session_state(*peer))
                .collect()
        };
        let before = states(self);
        self.set_link(at, false);
        for _ in 0..rounds {
            self.round()?;
        }
        prop_assert!(states(self).iter().all(|s| *s == SessionState::Idle));
        self.set_link(at, true);
        for _ in 0..16 {
            self.round()?;
        }
        if before == [SessionState::Established; 2] {
            prop_assert_eq!(states(self), before, "the session did not come back");
        }
        Ok(())
    }

    fn apply(&mut self, kind: u8, pick: u8) {
        let i = pick as usize % self.routers.len();
        match kind {
            // Flap a link.
            0 | 1 => {
                let at = pick as usize % self.links.len();
                self.set_link(at, !self.links[at].up);
            }
            2 => self.routers[i].inject_crash("oracle: routing process killed"),
            3 => {
                for r in self.routers.iter_mut().filter(|r| !r.is_running()) {
                    r.restart(self.now);
                }
            }
            // Config push: r0 gains / loses its statics, anyone else gains /
            // loses its first `network` statement.
            4 => {
                let mut cfg = self.routers[i].config().clone();
                if i == 0 {
                    cfg.static_routes = match cfg.static_routes.is_empty() {
                        true => recursive_statics(),
                        false => Vec::new(),
                    };
                } else if let Some(bgp) = &mut cfg.bgp {
                    let own: Prefix = format!("2.2.2.{}/32", i + 1).parse().unwrap();
                    match bgp.networks.iter().position(|p| *p == own) {
                        Some(at) => {
                            bgp.networks.remove(at);
                        }
                        None => bgp.networks.push(own),
                    }
                }
                self.routers[i].apply_config(cfg);
            }
            _ => {
                let peer = self.routers[i]
                    .config()
                    .bgp
                    .as_ref()
                    .and_then(|b| b.neighbors.first().map(|n| n.peer));
                if let Some(peer) = peer {
                    self.routers[i].shutdown_bgp_session(peer, self.now);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_poll_leaves_tables_equal_to_a_rebuild_from_the_sources(
        n in 3usize..=6,
        ops in proptest::collection::vec((0u8..7, any::<u8>(), 1u32..24), 8..20),
    ) {
        let mut net = build(n);
        // Boot: adjacencies, sessions and the first routes.
        for _ in 0..24 {
            net.round()?;
        }
        let r0 = table(&net.routers[0]);
        prop_assert!(
            r0.contains_key(&"192.0.2.0/24".parse().unwrap())
                && r0.contains_key(&"198.18.0.0/24".parse().unwrap()),
            "r0 must have resolved the recursive static and learned the edge: {:?}",
            r0.keys().collect::<Vec<_>>()
        );
        for (kind, pick, rounds) in ops {
            if kind == 6 {
                net.cut_off_and_restore(rounds)?;
                continue;
            }
            net.apply(kind, pick);
            for _ in 0..rounds {
                net.round()?;
            }
        }
    }
}

/// Which protocol each router's FIB entry for [`CONTESTED`] came from.
fn contested(net: &Net) -> Vec<Option<RouteProtocol>> {
    let prefix: Prefix = CONTESTED.parse().unwrap();
    let entries = net.routers.iter().map(|r| r.fib().get(&prefix));
    entries.map(|e| e.map(|e| e.proto)).collect()
}

#[test]
fn a_prefix_bgp_and_the_igp_both_carry_goes_to_the_lower_admin_distance() {
    use RouteProtocol::{Connected, EbgpLearned, Isis};
    let mut net = build(5);
    for _ in 0..24 {
        net.round().expect("boot");
    }
    // r0 hears the edge over eBGP and r3's stub over IS-IS; r1 and r2 hear
    // the edge over iBGP and the stub over IS-IS; r3 and the edge own it.
    let settled = [EbgpLearned, Isis, Isis, Connected, Connected].map(Some);
    assert_eq!(contested(&net), settled);
    // r0's eBGP session goes with its link, and IS-IS takes the prefix over
    // from the iBGP route that is left; back comes eBGP with the session.
    let at = net.links.len() - 1;
    net.set_link(at, false);
    for _ in 0..8 {
        net.round().expect("cut");
    }
    assert_eq!(contested(&net)[0], Some(Isis));
    net.set_link(at, true);
    for _ in 0..16 {
        net.round().expect("restore");
    }
    assert_eq!(contested(&net), settled);
}
