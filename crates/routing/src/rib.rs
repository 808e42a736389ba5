//! Routing Information Base and Forwarding Information Base.
//!
//! Every protocol engine contributes candidate [`RibRoute`]s; the RIB picks
//! per-prefix winners by administrative distance then metric, and the FIB is
//! computed from the winners with recursive next-hop resolution through the
//! IGP view (a BGP route whose next hop is a loopback resolves through the
//! connected / static / IS-IS route covering that loopback). `Rib::resolve`
//! is the one place a forwarding action is worked out and [`Fib::patch`] the
//! one place a winner is chosen and installed; [`Rib::to_fib`] patches every
//! prefix, routers patch the prefixes a change can have touched. A router's
//! RIB holds no BGP routes: [`Fib::patch`] reads BGP's selection in place.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mfv_types::{AdminDistance, IfaceId, InternSet, Prefix, PrefixTrie, RouteProtocol};

use crate::bgp::{NextHopResolver, SelectedRef};

/// How a route reaches its destination.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum NextHop {
    /// Destination is on a directly connected subnet of this interface.
    Connected(IfaceId),
    /// Forward via a gateway address (resolved recursively through the RIB).
    Via(Ipv4Addr),
    /// Forward via a gateway out a known interface (IGP routes: the SPF
    /// already knows the egress interface).
    ViaIface(Ipv4Addr, IfaceId),
    /// Deliberate discard (null route).
    Discard,
}

/// A candidate route offered to the RIB by some protocol.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RibRoute {
    pub prefix: Prefix,
    pub proto: RouteProtocol,
    pub admin_distance: AdminDistance,
    /// Intra-protocol metric (IGP cost, BGP MED is *not* this — BGP performs
    /// its own selection and submits only winners).
    pub metric: u32,
    /// Routes of one RIB with equal sets share an allocation; `==` and
    /// `Hash` are the slice's.
    pub next_hops: Arc<[NextHop]>,
}

impl RibRoute {
    pub fn new(prefix: Prefix, proto: RouteProtocol, metric: u32, nh: NextHop) -> RibRoute {
        RibRoute {
            prefix,
            proto,
            admin_distance: AdminDistance::default_for(proto),
            metric,
            next_hops: Arc::new([nh]),
        }
    }
}

/// One resolved forwarding action.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct FibNextHop {
    /// Egress interface.
    pub iface: IfaceId,
    /// Gateway to forward to; `None` when the destination is directly
    /// attached on `iface`.
    pub via: Option<Ipv4Addr>,
}

/// A resolved FIB entry.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FibEntry {
    pub prefix: Prefix,
    pub proto: RouteProtocol,
    /// One or more (ECMP) next hops, sorted for determinism. Entries of one
    /// table with equal sets share an allocation; `==` and `Hash` are the
    /// slice's.
    pub next_hops: Arc<[FibNextHop]>,
}

/// The protocols whose winners form the IGP view: every `Via` gateway and
/// every BGP next hop resolves through these and nothing else.
pub const IGP_PROTOS: [RouteProtocol; 3] = [
    RouteProtocol::Connected,
    RouteProtocol::Static,
    RouteProtocol::Isis,
];

/// The IGP view's entry for one prefix: which IGP protocol wins there and
/// at what metric. Kept this small because every router holds a trie of
/// them; the winner's next hops are read from its protocol's route map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct IgpWinner {
    metric: u32,
    proto: RouteProtocol,
}

/// The full RIB: candidate routes, stored per protocol so that a protocol
/// engine can swap its contribution in O(its own size) rather than O(table)
/// — essential when a small IGP coexists with a million-route BGP table —
/// plus the IGP view (winners among [`IGP_PROTOS`]), patched per prefix as
/// IGP routes come and go.
#[derive(Clone, Debug, Default)]
pub struct Rib {
    per_proto: BTreeMap<RouteProtocol, BTreeMap<Prefix, RibRoute>>,
    igp: PrefixTrie<IgpWinner>,
    /// The RIB's distinct next-hop sets, stored once each: a copy of the
    /// RIB copies no route's.
    next_hop_sets: InternSet<Arc<[NextHop]>>,
}

fn preference(r: &RibRoute) -> (AdminDistance, u32, RouteProtocol) {
    (r.admin_distance, r.metric, r.proto)
}

impl Rib {
    pub fn new() -> Rib {
        Rib::default()
    }

    /// Replaces all routes contributed by `proto` with `routes` and returns
    /// the prefixes whose `proto` route was added, removed or altered, in
    /// prefix order.
    pub fn set_protocol_routes(
        &mut self,
        proto: RouteProtocol,
        routes: Vec<RibRoute>,
    ) -> Vec<Prefix> {
        let new: BTreeMap<Prefix, RibRoute> = routes
            .into_iter()
            .inspect(|r| debug_assert_eq!(r.proto, proto))
            .map(|mut r| {
                r.next_hops = self.next_hop_sets.intern(r.next_hops);
                (r.prefix, r)
            })
            .collect();
        let old = self.per_proto.remove(&proto).unwrap_or_default();
        let mut changed: Vec<Prefix> = old
            .iter()
            .filter(|(p, r)| new.get(p) != Some(r))
            .map(|(p, _)| *p)
            .chain(new.keys().filter(|p| !old.contains_key(p)).copied())
            .collect();
        changed.sort_unstable();
        if !new.is_empty() {
            self.per_proto.insert(proto, new);
        }
        if IGP_PROTOS.contains(&proto) {
            for p in &changed {
                self.refresh_igp(*p);
            }
        }
        changed
    }

    /// Installs (`Some`) or withdraws (`None`) `proto`'s route for one
    /// prefix; returns whether anything changed.
    pub fn set_route(
        &mut self,
        proto: RouteProtocol,
        prefix: Prefix,
        route: Option<RibRoute>,
    ) -> bool {
        let changed = match route {
            Some(mut r) => {
                debug_assert_eq!((r.proto, r.prefix), (proto, prefix));
                r.next_hops = self.next_hop_sets.intern(r.next_hops);
                let map = self.per_proto.entry(proto).or_default();
                if map.get(&prefix) == Some(&r) {
                    false
                } else {
                    map.insert(prefix, r);
                    true
                }
            }
            None => match self.per_proto.get_mut(&proto) {
                Some(map) => {
                    let removed = map.remove(&prefix).is_some();
                    if map.is_empty() {
                        self.per_proto.remove(&proto);
                    }
                    removed
                }
                None => false,
            },
        };
        if changed && IGP_PROTOS.contains(&proto) {
            self.refresh_igp(prefix);
        }
        changed
    }

    /// Re-picks the IGP view's winner at `prefix` from the current routes.
    fn refresh_igp(&mut self, prefix: Prefix) {
        let winner = IGP_PROTOS
            .iter()
            .filter_map(|proto| self.route(*proto, &prefix))
            .min_by_key(|r| preference(r))
            .map(|r| IgpWinner {
                metric: r.metric,
                proto: r.proto,
            });
        match winner {
            Some(w) => {
                self.igp.insert(prefix, w);
            }
            None => {
                self.igp.remove(&prefix);
            }
        }
    }

    /// `proto`'s route for exactly `prefix`.
    pub fn route(&self, proto: RouteProtocol, prefix: &Prefix) -> Option<&RibRoute> {
        self.per_proto.get(&proto)?.get(prefix)
    }

    /// The IGP view's winner for exactly `prefix`: the best of the
    /// connected / static / IS-IS routes there, whatever BGP offers.
    pub fn igp_winner(&self, prefix: &Prefix) -> Option<&RibRoute> {
        self.route(self.igp.get(prefix)?.proto, prefix)
    }

    /// The per-prefix winner: lowest admin distance, then lowest metric,
    /// then protocol enum order as a deterministic tiebreak.
    pub fn best(&self, prefix: &Prefix) -> Option<&RibRoute> {
        self.per_proto
            .values()
            .filter_map(|m| m.get(prefix))
            .min_by_key(|r| preference(r))
    }

    /// Every prefix with at least one candidate, in prefix order.
    fn universe(&self) -> BTreeSet<&Prefix> {
        self.per_proto.values().flat_map(|m| m.keys()).collect()
    }

    /// Iterates (prefix, winner) pairs, in prefix order. The all-prefixes
    /// scan is inherent to a full-table walk; incremental paths avoid
    /// calling this.
    pub fn winners(&self) -> impl Iterator<Item = (&Prefix, &RibRoute)> {
        self.universe()
            .into_iter()
            .filter_map(|p| Some((p, self.best(p)?)))
    }

    /// Iterates (prefix, route) pairs contributed by one protocol.
    pub fn protocol_routes(
        &self,
        proto: RouteProtocol,
    ) -> impl Iterator<Item = (&Prefix, &RibRoute)> {
        self.per_proto
            .get(&proto)
            .into_iter()
            .flat_map(|m| m.iter())
    }

    /// Total number of prefixes with at least one candidate.
    pub fn len(&self) -> usize {
        self.universe().len()
    }

    pub fn is_empty(&self) -> bool {
        self.per_proto.is_empty()
    }

    /// The forwarding action a winner's next hops `hops` stand for, made
    /// concrete (none: a deliberate discard). `Via`
    /// gateways resolve recursively (up to a depth bound) through the IGP
    /// view only — the same view the BGP decision process judges next-hop
    /// reachability by, so a route BGP selected is a route the FIB can
    /// install, and a BGP-learned route never carries another route's
    /// traffic. A winner whose next hops do not resolve yields `None`: a
    /// route to an unreachable gateway must not be installed.
    ///
    /// Every gateway address looked up on the way is appended to
    /// `gateways`: the answer stays valid until the IGP view changes at a
    /// prefix containing one of them (or the prefix's winner changes).
    fn resolve(&self, hops: &[NextHop], gateways: &mut Vec<Ipv4Addr>) -> Option<Vec<FibNextHop>> {
        let mut next_hops = Vec::with_capacity(hops.len());
        let mut discard = false;
        for nh in hops {
            match nh {
                NextHop::Connected(iface) => next_hops.push(FibNextHop {
                    iface: iface.clone(),
                    via: None,
                }),
                NextHop::ViaIface(gw, iface) => next_hops.push(FibNextHop {
                    iface: iface.clone(),
                    via: Some(*gw),
                }),
                NextHop::Via(gw) => self.resolve_via(*gw, 0, gateways, &mut next_hops),
                NextHop::Discard => discard = true,
            }
        }
        next_hops.sort();
        next_hops.dedup();
        (discard || !next_hops.is_empty()).then_some(next_hops)
    }

    /// Recursively resolves a gateway address to concrete (iface, via)
    /// pairs through the IGP view.
    fn resolve_via(
        &self,
        gw: Ipv4Addr,
        depth: usize,
        gateways: &mut Vec<Ipv4Addr>,
        out: &mut Vec<FibNextHop>,
    ) {
        // Recursion bound: real implementations bound recursive resolution;
        // 8 levels is far beyond any sane design.
        if depth > 8 {
            return;
        }
        gateways.push(gw);
        let Some((covering, winner)) = self.igp.lookup(gw) else {
            return;
        };
        // A default route cannot resolve a BGP next hop (standard behaviour:
        // next-hop resolution ignores the default route).
        if covering.is_default() && depth == 0 {
            return;
        }
        let Some(route) = self.route(winner.proto, &covering) else {
            return;
        };
        for nh in route.next_hops.iter() {
            match nh {
                // Gateway is on a connected subnet: forward directly to it.
                NextHop::Connected(iface) => out.push(FibNextHop {
                    iface: iface.clone(),
                    via: Some(gw),
                }),
                NextHop::ViaIface(via, iface) => out.push(FibNextHop {
                    iface: iface.clone(),
                    via: Some(*via),
                }),
                NextHop::Via(next_gw) => self.resolve_via(*next_gw, depth + 1, gateways, out),
                NextHop::Discard => {}
            }
        }
    }

    /// Resolves the whole RIB into a FIB from scratch ([`Fib::patch`] on
    /// every prefix, with no selection beside it): the reference the
    /// routers' per-prefix FIB patching is held to.
    pub fn to_fib(&self) -> Fib {
        let mut fib = Fib::new();
        let (mut memo, mut gateways) = (GatewayMemo::default(), Vec::new());
        for prefix in self.universe() {
            fib.patch(self, None, prefix, &mut memo, &mut gateways);
        }
        fib.finish(memo).for_each(drop);
        fib
    }
}

/// The IGP cost to a BGP next hop is the IGP view's metric at its longest
/// match (the default route does not count).
impl NextHopResolver for Rib {
    fn igp_metric(&self, ip: Ipv4Addr) -> Option<u32> {
        let (covering, winner) = self.igp.lookup(ip)?;
        (!covering.is_default()).then_some(winner.metric)
    }
}

/// What one batch of [`Fib::patch`] calls has resolved so far, per gateway:
/// the addresses looked up on the way and the resolved set — the id of the
/// table's group for it, or `None` for a gateway that does not resolve. A
/// route that is `Via` that gateway alone, and a BGP selection via it,
/// resolve to this, so a thousand BGP routes through twenty gateways cost
/// twenty resolutions. Nothing invalidates an entry: a memo serves one
/// [`Fib`] and one batch — a router poll's stale set, a [`Rib::to_fib`] —
/// inside which the IGP view cannot move, and [`Fib::finish`] ends it.
#[derive(Default)]
pub struct GatewayMemo {
    via: BTreeMap<Ipv4Addr, ViaGateway>,
}

/// (addresses looked up, resolved set) for one gateway.
type ViaGateway = (Vec<Ipv4Addr>, ViaSet);

/// A resolved next-hop set as the table's group id, `None`: nothing resolved.
type ViaSet = Option<u32>;

impl GatewayMemo {
    /// Gateways resolved (each once) since the memo was made.
    pub fn resolutions(&self) -> usize {
        self.via.len()
    }
}

/// A table's distinct next-hop sets, by id: each set and the number of
/// entries naming it (`None`: a free id). A group left without a user keeps
/// its id — the batch's memo may still name it — until `sweep` ends the
/// batch. Linear scans: a table has a handful of groups. The FIB's groups
/// are resolved sets; a BGP engine's, its selection's ECMP next hops.
#[derive(Clone, Debug)]
pub(crate) struct Groups<T>(Vec<Group<T>>);

type Group<T> = Option<(Arc<[T]>, u32)>;

impl<T> Default for Groups<T> {
    fn default() -> Self {
        Groups(Vec::new())
    }
}

/// A FIB entry as the table holds it: (next-hop group id, protocol).
type Route = (u32, RouteProtocol);

const HELD: &str = "an entry or the batch's memo names a held group";

impl<T: PartialEq> Groups<T> {
    /// The id of the group holding `set`, made (without a user) if none does.
    pub(crate) fn intern(&mut self, set: impl Borrow<[T]> + Into<Arc<[T]>>) -> u32 {
        let (slots, wanted): (_, &[T]) = (&mut self.0, set.borrow());
        let holds = |slot: &Group<T>| matches!(slot, Some((held, _)) if **held == *wanted);
        if let Some(id) = slots.iter().position(holds) {
            return id as u32;
        }
        let free = slots.iter().position(Option::is_none);
        let id = free.unwrap_or_else(|| {
            slots.push(None);
            slots.len() - 1
        });
        slots[id] = Some((set.into(), 0));
        id as u32
    }

    pub(crate) fn set(&self, id: u32) -> &Arc<[T]> {
        &self.0[id as usize].as_ref().expect(HELD).0
    }

    /// `by` entries more name `id` (one more or one less).
    pub(crate) fn count(&mut self, id: u32, by: i32) {
        let users = &mut self.0[id as usize].as_mut().expect(HELD).1;
        *users = users.checked_add_signed(by).expect("a user per entry");
    }

    /// Frees the groups without a user: the batch that could name them is over.
    pub(crate) fn sweep(&mut self) {
        for slot in &mut self.0 {
            if matches!(slot, Some((_, 0))) {
                *slot = None;
            }
        }
    }
}

/// One FIB entry as [`Fib`] hands it out: its next-hop set is the table's
/// stored copy, shared with every entry of the same set.
#[derive(Clone, Copy, Debug)]
pub struct FibRef<'a> {
    pub prefix: Prefix,
    pub proto: RouteProtocol,
    pub next_hops: &'a Arc<[FibNextHop]>,
    /// The set's id in its table: equal ids, equal sets; two tables' ids
    /// mean nothing to each other.
    pub group: u32,
}

impl FibRef<'_> {
    pub fn to_entry(&self) -> FibEntry {
        FibEntry {
            prefix: self.prefix,
            proto: self.proto,
            next_hops: Arc::clone(self.next_hops),
        }
    }
}

/// By content: the group id is the table's, not the entry's.
impl PartialEq for FibRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.prefix, self.proto, self.next_hops) == (other.prefix, other.proto, other.next_hops)
    }
}

impl Eq for FibRef<'_> {}

/// The FIB: longest-prefix-match forwarding state. An entry is eight bytes,
/// its next-hop group's id and its protocol; a thousand BGP prefixes leave
/// a router through a handful of groups, each stored once.
#[derive(Clone, Debug, Default)]
pub struct Fib {
    /// Per prefix, its next-hop group's id and its protocol.
    trie: PrefixTrie<Route>,
    groups: Groups<FibNextHop>,
}

impl Fib {
    pub fn new() -> Fib {
        Fib::default()
    }

    /// Installs `entry`, its next-hop set swapped for the table's group of
    /// the same set.
    pub fn insert(&mut self, entry: FibEntry) {
        let (group, proto) = (self.groups.intern(entry.next_hops), entry.proto);
        self.install(entry.prefix, Some((group, proto)));
        self.groups.sweep();
    }

    /// Puts `route` at `prefix` (`None`: takes the entry out), counting
    /// the groups' users; returns whether the entry changed.
    fn install(&mut self, prefix: Prefix, route: Option<Route>) -> bool {
        let old = match route {
            Some(route) => self.trie.insert(prefix, route),
            None => self.trie.remove(&prefix),
        };
        for (route, by) in [(route, 1), (old, -1)] {
            if let Some(route) = route {
                self.groups.count(route.0, by);
            }
        }
        old != route
    }

    /// Brings the entry at `prefix` in line with `rib` and, when given,
    /// BGP's `selection` there — a learned selection is an eBGP / iBGP
    /// candidate at metric MED, and the winner is the lowest (admin
    /// distance, metric, protocol) — and returns whether it changed. A
    /// selection, and a RIB winner that is one `Via` gateway, takes the
    /// batch's answer for each gateway from `memo`; any other winner is
    /// resolved afresh and swapped for the table's group of the same set.
    /// `gateways` receives what a RIB winner's resolution looked up
    /// (`Rib::resolve`). Either way the group id is compared with the
    /// entry's in the one walk that finds or makes the entry: a table holds
    /// each set under one id. [`finish`](Self::finish) ends the batch.
    pub fn patch(
        &mut self,
        rib: &Rib,
        selection: Option<SelectedRef<'_>>,
        prefix: &Prefix,
        memo: &mut GatewayMemo,
        gateways: &mut Vec<Ipv4Addr>,
    ) -> bool {
        let route = rib.best(prefix);
        let learned = selection.and_then(|s| {
            let (proto, metric) = (s.protocol()?, s.attrs.med.unwrap_or(0));
            let preferred = (AdminDistance::default_for(proto), metric, proto);
            let wins = route.is_none_or(|r| preferred < preference(r));
            wins.then_some((proto, s))
        });
        let resolved = match (learned, route) {
            (Some((proto, s)), _) => Some((proto, self.via_each(rib, s.next_hops, memo))),
            (None, Some(route)) => {
                let group = if let [NextHop::Via(gw)] = route.next_hops[..] {
                    let (looked_up, group) = self.via(rib, gw, memo);
                    gateways.extend_from_slice(looked_up);
                    *group
                } else {
                    let resolved = rib.resolve(&route.next_hops, gateways);
                    resolved.map(|set| self.groups.intern(set))
                };
                Some((route.proto, group))
            }
            (None, None) => None,
        };
        let route = match resolved {
            Some((proto, Some(group))) => Some((group, proto)),
            _ => None,
        };
        self.install(*prefix, route)
    }

    /// Ends the batch `memo` served, freeing the groups left without a user.
    /// Returns each gateway it resolved with the addresses that looked up:
    /// valid until the IGP view moves at one of them.
    pub fn finish(&mut self, memo: GatewayMemo) -> impl Iterator<Item = (Ipv4Addr, Vec<Ipv4Addr>)> {
        self.groups.sweep();
        let via = memo.via.into_iter();
        via.map(|(gateway, (looked_up, _))| (gateway, looked_up))
    }

    /// The batch's answer for `gw`, worked out on its first use.
    fn via<'m>(&mut self, rib: &Rib, gw: Ipv4Addr, memo: &'m mut GatewayMemo) -> &'m ViaGateway {
        memo.via.entry(gw).or_insert_with(|| {
            let mut looked_up = Vec::new();
            let resolved = rib.resolve(&[NextHop::Via(gw)], &mut looked_up);
            (looked_up, resolved.map(|set| self.groups.intern(set)))
        })
    }

    /// The batch's answer for a selection's gateways: one gateway's as the
    /// memo holds it, several gateways' merged into one group.
    fn via_each(&mut self, rib: &Rib, gws: &[Ipv4Addr], memo: &mut GatewayMemo) -> ViaSet {
        if let [gw] = gws {
            return self.via(rib, *gw, memo).1;
        }
        let mut merged = Vec::new();
        for gw in gws {
            if let Some(group) = self.via(rib, *gw, memo).1 {
                merged.extend_from_slice(self.groups.set(group));
            }
        }
        merged.sort();
        merged.dedup();
        (!merged.is_empty()).then(|| self.groups.intern(merged))
    }

    fn view(&self, prefix: Prefix, &(group, proto): &Route) -> FibRef<'_> {
        let next_hops = self.groups.set(group);
        FibRef {
            prefix,
            proto,
            next_hops,
            group,
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<FibRef<'_>> {
        let (prefix, route) = self.trie.lookup(dst)?;
        Some(self.view(prefix, route))
    }

    /// Exact-prefix lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<FibRef<'_>> {
        Some(self.view(*prefix, self.trie.get(prefix)?))
    }

    pub fn len(&self) -> usize {
        self.trie.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trie.len() == 0
    }

    /// All entries in prefix order. Lazy: callers iterating tables at
    /// production scale (AFT extraction, class computation) pay no
    /// per-snapshot `Vec<&_>` allocation.
    pub fn entries(&self) -> impl Iterator<Item = FibRef<'_>> {
        self.trie.iter().map(|(p, route)| self.view(p, route))
    }

    /// A bound on [`FibRef::group`]: ids are below it.
    pub fn group_ids(&self) -> usize {
        self.groups.0.len()
    }

    /// Structural equality: two FIBs are equal when they hold identical
    /// entries, group ids aside.
    pub fn same_as(&self, other: &Fib) -> bool {
        self.len() == other.len() && self.entries().eq(other.entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp::SelectedRoute;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn connected(prefix: &str, iface: &str) -> RibRoute {
        RibRoute::new(
            p(prefix),
            RouteProtocol::Connected,
            0,
            NextHop::Connected(iface.into()),
        )
    }

    #[test]
    fn admin_distance_selects_winner() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute::new(
                p("10.0.0.0/8"),
                RouteProtocol::Isis,
                20,
                NextHop::ViaIface(ip("1.1.1.2"), "eth0".into()),
            )],
        );
        rib.set_protocol_routes(
            RouteProtocol::Static,
            vec![RibRoute::new(
                p("10.0.0.0/8"),
                RouteProtocol::Static,
                0,
                NextHop::Discard,
            )],
        );
        assert_eq!(
            rib.best(&p("10.0.0.0/8")).unwrap().proto,
            RouteProtocol::Static
        );
    }

    #[test]
    fn metric_breaks_ties_within_distance() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![
                RibRoute::new(
                    p("10.0.0.0/8"),
                    RouteProtocol::Isis,
                    30,
                    NextHop::ViaIface(ip("1.1.1.2"), "eth0".into()),
                ),
                RibRoute::new(
                    p("10.0.0.0/8"),
                    RouteProtocol::Isis,
                    10,
                    NextHop::ViaIface(ip("1.1.2.2"), "eth1".into()),
                ),
            ],
        );
        let best = rib.best(&p("10.0.0.0/8")).unwrap();
        assert_eq!(best.metric, 10);
    }

    #[test]
    fn set_protocol_routes_replaces_previous() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute::new(
                p("10.0.0.0/8"),
                RouteProtocol::Isis,
                10,
                NextHop::Discard,
            )],
        );
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute::new(
                p("20.0.0.0/8"),
                RouteProtocol::Isis,
                10,
                NextHop::Discard,
            )],
        );
        assert!(rib.best(&p("10.0.0.0/8")).is_none());
        assert!(rib.best(&p("20.0.0.0/8")).is_some());
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn fib_resolves_connected_and_iface_routes() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Connected,
            vec![connected("100.64.0.0/31", "eth0")],
        );
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute::new(
                p("2.2.2.2/32"),
                RouteProtocol::Isis,
                10,
                NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
            )],
        );
        let fib = rib.to_fib();
        assert_eq!(fib.len(), 2);
        let e = fib.lookup(ip("2.2.2.2")).unwrap();
        assert_eq!(
            e.next_hops[0],
            FibNextHop {
                iface: "eth0".into(),
                via: Some(ip("100.64.0.1"))
            }
        );
        let c = fib.lookup(ip("100.64.0.1")).unwrap();
        assert_eq!(
            c.next_hops[0],
            FibNextHop {
                iface: "eth0".into(),
                via: None
            }
        );
    }

    #[test]
    fn fib_recursive_resolution_of_bgp_next_hop() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Connected,
            vec![connected("100.64.0.0/31", "eth0")],
        );
        // IGP knows the remote loopback.
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute::new(
                p("2.2.2.5/32"),
                RouteProtocol::Isis,
                10,
                NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
            )],
        );
        // BGP route via the loopback (iBGP next-hop-self).
        rib.set_protocol_routes(
            RouteProtocol::IbgpLearned,
            vec![RibRoute::new(
                p("203.0.113.0/24"),
                RouteProtocol::IbgpLearned,
                0,
                NextHop::Via(ip("2.2.2.5")),
            )],
        );
        let fib = rib.to_fib();
        let e = fib.lookup(ip("203.0.113.7")).unwrap();
        assert_eq!(e.proto, RouteProtocol::IbgpLearned);
        assert_eq!(
            *e.next_hops,
            [FibNextHop {
                iface: "eth0".into(),
                via: Some(ip("100.64.0.1"))
            }]
            .into()
        );
    }

    /// The one FIB rule, on the case where the two former builders
    /// disagreed: a BGP next hop covered by a /24 IGP route and by a more
    /// specific BGP-learned /32. Gateways resolve through the IGP view
    /// only, so the /32 (which would pull the traffic out of eth1) is not
    /// consulted.
    #[test]
    fn via_next_hops_resolve_through_igp_routes_only() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Connected,
            vec![
                connected("100.64.0.0/31", "eth0"),
                connected("100.64.1.0/31", "eth1"),
            ],
        );
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute::new(
                p("10.0.0.0/24"),
                RouteProtocol::Isis,
                10,
                NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
            )],
        );
        rib.set_protocol_routes(
            RouteProtocol::EbgpLearned,
            vec![RibRoute::new(
                p("10.0.0.5/32"),
                RouteProtocol::EbgpLearned,
                0,
                NextHop::Via(ip("100.64.1.1")),
            )],
        );
        rib.set_protocol_routes(
            RouteProtocol::IbgpLearned,
            vec![RibRoute::new(
                p("203.0.113.0/24"),
                RouteProtocol::IbgpLearned,
                0,
                NextHop::Via(ip("10.0.0.5")),
            )],
        );
        let fib = rib.to_fib();
        assert_eq!(
            *fib.get(&p("203.0.113.0/24")).unwrap().next_hops,
            [FibNextHop {
                iface: "eth0".into(),
                via: Some(ip("100.64.0.1"))
            }]
            .into()
        );
        // The /32 itself is installed (its own gateway is connected) and
        // the IGP metric BGP sees for the next hop is the /24's.
        assert_eq!(
            fib.get(&p("10.0.0.5/32")).unwrap().proto,
            RouteProtocol::EbgpLearned
        );
        assert_eq!(rib.igp_metric(ip("10.0.0.5")), Some(10));
        let mut gateways = Vec::new();
        rib.resolve(
            &rib.best(&p("203.0.113.0/24")).unwrap().next_hops,
            &mut gateways,
        );
        assert_eq!(gateways, vec![ip("10.0.0.5")]);
    }

    /// A selection read in place wins and resolves exactly as the same
    /// route held in the RIB: by admin distance against the IGP's route,
    /// its ECMP gateways' sets merged, its lookups left in the memo.
    #[test]
    fn a_selection_beside_the_rib_patches_as_its_rib_route_would() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Connected,
            vec![
                connected("100.64.0.0/31", "eth0"),
                connected("100.64.1.0/31", "eth1"),
            ],
        );
        let isis = RibRoute::new(
            p("203.0.113.0/24"),
            RouteProtocol::Isis,
            10,
            NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
        );
        rib.set_protocol_routes(RouteProtocol::Isis, vec![isis]);
        let prefix = p("203.0.113.0/24");
        let gateways = [ip("100.64.0.1"), ip("100.64.1.1")];
        for (ebgp, proto) in [
            (true, RouteProtocol::EbgpLearned),
            (false, RouteProtocol::IbgpLearned),
        ] {
            let selected = SelectedRoute {
                attrs: Arc::new(crate::policy::BgpAttrs::originated(gateways[0])),
                learned_from: Some(gateways[0]),
                ebgp,
                next_hops: gateways.into(),
            };
            let (mut fib, mut memo, mut looked_up) = (Fib::new(), GatewayMemo::default(), vec![]);
            let selection = Some(selected.view());
            assert!(fib.patch(&rib, selection, &prefix, &mut memo, &mut looked_up));

            let mut reference = rib.clone();
            let vias = gateways.map(NextHop::Via).to_vec();
            let route = RibRoute {
                next_hops: vias.into(),
                ..RibRoute::new(prefix, proto, 0, NextHop::Discard)
            };
            reference.set_protocol_routes(proto, vec![route]);
            assert_eq!(fib.get(&prefix), reference.to_fib().get(&prefix));
            let winner = fib.get(&prefix).unwrap();
            assert_eq!(
                winner.proto == proto,
                ebgp,
                "eBGP 20 < IS-IS 115 < iBGP 200"
            );
            assert_eq!(winner.next_hops.len(), if ebgp { 2 } else { 1 });
            assert!(looked_up.is_empty());
            assert_eq!(memo.resolutions(), if ebgp { 2 } else { 0 });
        }
    }

    #[test]
    fn route_changes_are_reported_and_patch_the_igp_view() {
        let mut rib = Rib::new();
        let lo = |metric| {
            RibRoute::new(
                p("2.2.2.2/32"),
                RouteProtocol::Isis,
                metric,
                NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
            )
        };
        let far = RibRoute::new(
            p("2.2.2.3/32"),
            RouteProtocol::Isis,
            20,
            NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
        );
        assert_eq!(
            rib.set_protocol_routes(RouteProtocol::Isis, vec![lo(10), far.clone()]),
            vec![p("2.2.2.2/32"), p("2.2.2.3/32")]
        );
        // A swap reports only what differs: one metric moved, one route
        // stayed, one appeared.
        let third = RibRoute::new(p("2.2.2.4/32"), RouteProtocol::Isis, 30, NextHop::Discard);
        assert_eq!(
            rib.set_protocol_routes(RouteProtocol::Isis, vec![lo(15), far, third]),
            vec![p("2.2.2.2/32"), p("2.2.2.4/32")]
        );
        assert_eq!(rib.igp_metric(ip("2.2.2.2")), Some(15));
        // Per-prefix edits: a no-op, a withdrawal, and a better protocol
        // taking the prefix over in the IGP view.
        assert!(!rib.set_route(RouteProtocol::Isis, p("2.2.2.2/32"), Some(lo(15))));
        assert!(rib.set_route(RouteProtocol::Isis, p("2.2.2.4/32"), None));
        assert!(!rib.set_route(RouteProtocol::Isis, p("2.2.2.4/32"), None));
        assert_eq!(rib.igp_metric(ip("2.2.2.4")), None);
        let st = RibRoute::new(p("2.2.2.2/32"), RouteProtocol::Static, 0, NextHop::Discard);
        assert!(rib.set_route(RouteProtocol::Static, p("2.2.2.2/32"), Some(st)));
        assert_eq!(rib.igp_metric(ip("2.2.2.2")), Some(0));
        assert_eq!(
            rib.igp_winner(&p("2.2.2.2/32")).unwrap().proto,
            RouteProtocol::Static
        );
        assert!(rib.set_route(RouteProtocol::Static, p("2.2.2.2/32"), None));
        assert_eq!(rib.igp_metric(ip("2.2.2.2")), Some(15));
    }

    #[test]
    fn unresolvable_next_hop_not_installed() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::EbgpLearned,
            vec![RibRoute::new(
                p("203.0.113.0/24"),
                RouteProtocol::EbgpLearned,
                0,
                NextHop::Via(ip("99.99.99.99")),
            )],
        );
        let fib = rib.to_fib();
        assert!(fib.lookup(ip("203.0.113.1")).is_none());
    }

    #[test]
    fn default_route_does_not_resolve_next_hops() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Connected,
            vec![connected("100.64.0.0/31", "eth0")],
        );
        rib.set_protocol_routes(
            RouteProtocol::Static,
            vec![RibRoute::new(
                p("0.0.0.0/0"),
                RouteProtocol::Static,
                0,
                NextHop::ViaIface(ip("100.64.0.1"), "eth0".into()),
            )],
        );
        rib.set_protocol_routes(
            RouteProtocol::EbgpLearned,
            vec![RibRoute::new(
                p("203.0.113.0/24"),
                RouteProtocol::EbgpLearned,
                0,
                NextHop::Via(ip("8.8.8.8")), // only covered by 0/0
            )],
        );
        let fib = rib.to_fib();
        // The /24 must not be installed (its next hop only resolves via the
        // default route); packets to it fall through to the default.
        assert!(fib.get(&p("203.0.113.0/24")).is_none());
        assert_eq!(
            fib.lookup(ip("203.0.113.1")).unwrap().prefix,
            p("0.0.0.0/0")
        );
        // The default route itself is still installed.
        assert!(fib.lookup(ip("8.8.8.8")).is_some());
    }

    #[test]
    fn discard_route_installs_empty_next_hops() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Static,
            vec![RibRoute::new(
                p("192.0.2.0/24"),
                RouteProtocol::Static,
                0,
                NextHop::Discard,
            )],
        );
        let fib = rib.to_fib();
        let e = fib.lookup(ip("192.0.2.1")).unwrap();
        assert!(e.next_hops.is_empty());
    }

    #[test]
    fn ecmp_next_hops_are_sorted_and_deduped() {
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Isis,
            vec![RibRoute {
                prefix: p("10.0.0.0/8"),
                proto: RouteProtocol::Isis,
                admin_distance: AdminDistance::default_for(RouteProtocol::Isis),
                metric: 10,
                next_hops: vec![
                    NextHop::ViaIface(ip("1.0.0.2"), "eth1".into()),
                    NextHop::ViaIface(ip("1.0.0.1"), "eth0".into()),
                    NextHop::ViaIface(ip("1.0.0.2"), "eth1".into()),
                ]
                .into(),
            }],
        );
        let fib = rib.to_fib();
        let e = fib.lookup(ip("10.1.1.1")).unwrap();
        assert_eq!(e.next_hops.len(), 2);
        assert!(e.next_hops[0] < e.next_hops[1]);
    }

    #[test]
    fn resolution_loop_terminates() {
        // Two static routes resolving through each other must not hang.
        let mut rib = Rib::new();
        rib.set_protocol_routes(
            RouteProtocol::Static,
            vec![
                RibRoute::new(
                    p("1.0.0.0/8"),
                    RouteProtocol::Static,
                    0,
                    NextHop::Via(ip("2.0.0.1")),
                ),
                RibRoute::new(
                    p("2.0.0.0/8"),
                    RouteProtocol::Static,
                    0,
                    NextHop::Via(ip("1.0.0.1")),
                ),
            ],
        );
        let fib = rib.to_fib();
        assert!(fib.lookup(ip("1.2.3.4")).is_none());
        assert!(fib.lookup(ip("2.3.4.5")).is_none());
    }

    /// The eight prefixes the model test edits, nested for longest matches.
    const PREFIXES: [&str; 8] = [
        "10.0.0.0/8",
        "10.0.0.0/16",
        "10.0.0.0/24",
        "10.0.1.0/24",
        "10.0.1.0/25",
        "10.0.1.1/32",
        "10.0.2.0/24",
        "10.0.3.0/24",
    ];

    /// The next hop out of port `i` to its /31 peer, as IS-IS resolves it.
    fn out_of(i: u8) -> FibNextHop {
        FibNextHop {
            iface: format!("eth{i}").as_str().into(),
            via: Some(Ipv4Addr::new(100, 64, i, 1)),
        }
    }

    /// The ports a three-bit mask picks, as IS-IS next hops.
    fn ports(mask: u8) -> Vec<NextHop> {
        let picked = (0..3).filter(|i| mask & 1 << i != 0);
        picked
            .map(|i| {
                NextHop::ViaIface(
                    Ipv4Addr::new(100, 64, i, 1),
                    format!("eth{i}").as_str().into(),
                )
            })
            .collect()
    }

    /// Loopback `j`: a BGP gateway IS-IS reaches.
    fn loopback(j: u8) -> Ipv4Addr {
        Ipv4Addr::new(2, 2, 2, j)
    }

    /// `rib` joined with `selections` as the RIB routes they stand for,
    /// resolved from scratch.
    fn reference(rib: &Rib, selections: &BTreeMap<Prefix, SelectedRoute>) -> Fib {
        let mut reference = rib.clone();
        for proto in [RouteProtocol::EbgpLearned, RouteProtocol::IbgpLearned] {
            let routes = selections
                .iter()
                .filter(|(_, s)| s.view().protocol() == Some(proto));
            let routes = routes.map(|(prefix, s)| RibRoute {
                next_hops: s.next_hops.iter().map(|gw| NextHop::Via(*gw)).collect(),
                ..RibRoute::new(*prefix, proto, 0, NextHop::Discard)
            });
            reference.set_protocol_routes(proto, routes.collect());
        }
        reference.to_fib()
    }

    // Inserts, batches of patches (routes, BGP selections, removals)
    // and IGP moves between the batches, against a map of what the
    // table should hold: every entry, lookup and exact match agrees;
    // a table filled in another order is `same_as`; and outside a
    // batch the group table holds exactly the distinct sets in use.
    proptest::proptest! {
        #[test]
        fn fib_groups_follow_a_map_model(
            ops in proptest::collection::vec(
                (
                    0u8..6,
                    0u8..8,
                    0u8..8,
                    proptest::collection::vec((0u8..8, 0u8..5, 0u8..8), 1..7),
                ),
                1..24,
            ),
            probes in proptest::collection::vec(0u32..1024, 8),
        ) {
            let pool: [Vec<FibNextHop>; 5] = [
                vec![out_of(0)],
                vec![out_of(1)],
                vec![out_of(0), out_of(1)],
                vec![],
                vec![out_of(2)],
            ];
            let mut rib = Rib::new();
            let connected = (0..3).map(|i| connected(&format!("100.64.{i}.0/31"), &format!("eth{i}")));
            rib.set_protocol_routes(RouteProtocol::Connected, connected.collect());
            let (mut fib, mut model) = (Fib::new(), BTreeMap::<Prefix, FibEntry>::new());
            let mut selections = BTreeMap::<Prefix, SelectedRoute>::new();
            for (kind, a, b, changes) in ops {
                match kind {
                    // An IGP move: loopback `a` through the ports `b` picks.
                    0 => {
                        let lo = Prefix::from_bits(u32::from(loopback(a % 2)), 32);
                        let hops = ports(b % 8);
                        let route = (!hops.is_empty()).then(|| RibRoute {
                            next_hops: hops.into(),
                            ..RibRoute::new(lo, RouteProtocol::Isis, 10, NextHop::Discard)
                        });
                        rib.set_route(RouteProtocol::Isis, lo, route);
                    }
                    1 => {
                        let entry = FibEntry {
                            prefix: p(PREFIXES[a as usize]),
                            proto: [RouteProtocol::Static, RouteProtocol::Isis][b as usize % 2],
                            next_hops: pool[b as usize % pool.len()].clone().into(),
                        };
                        fib.insert(entry.clone());
                        model.insert(entry.prefix, entry);
                    }
                    _ => {
                        let mut batch = BTreeSet::new();
                        for (k, change, x) in changes {
                            let prefix = p(PREFIXES[k as usize]);
                            batch.insert(prefix);
                            let route = |hops: Vec<NextHop>| RibRoute {
                                next_hops: hops.into(),
                                ..RibRoute::new(prefix, RouteProtocol::Isis, 20, NextHop::Discard)
                            };
                            match change {
                                0 => {
                                    rib.set_route(RouteProtocol::Isis, prefix, None);
                                    selections.remove(&prefix);
                                }
                                1 => {
                                    let via = route(vec![NextHop::Via(loopback(x % 2))]);
                                    rib.set_route(RouteProtocol::Isis, prefix, Some(via));
                                }
                                2 => {
                                    let out = route(ports(x % 7 + 1));
                                    rib.set_route(RouteProtocol::Isis, prefix, Some(out));
                                }
                                3 => {
                                    let gateways: Vec<Ipv4Addr> = match x % 3 {
                                        0 => vec![loopback(0)],
                                        1 => vec![loopback(1)],
                                        _ => vec![loopback(0), loopback(1)],
                                    };
                                    let selected = SelectedRoute {
                                        attrs: Arc::new(crate::policy::BgpAttrs::originated(gateways[0])),
                                        learned_from: Some(gateways[0]),
                                        ebgp: x < 6,
                                        next_hops: gateways.into(),
                                    };
                                    selections.insert(prefix, selected);
                                }
                                _ => {
                                    selections.remove(&prefix);
                                }
                            }
                        }
                        let (mut memo, mut looked_up) = (GatewayMemo::default(), Vec::new());
                        for prefix in &batch {
                            let selection = selections.get(prefix).map(SelectedRoute::view);
                            fib.patch(&rib, selection, prefix, &mut memo, &mut looked_up);
                        }
                        fib.finish(memo).for_each(drop);
                        let reference = reference(&rib, &selections);
                        for prefix in &batch {
                            match reference.get(prefix) {
                                Some(e) => model.insert(*prefix, e.to_entry()),
                                None => model.remove(prefix),
                            };
                        }
                    }
                }

                let entries: Vec<FibEntry> = fib.entries().map(|e| e.to_entry()).collect();
                proptest::prop_assert_eq!(&entries, &model.values().cloned().collect::<Vec<_>>());
                for (prefix, want) in &model {
                    let got = fib.get(prefix).map(|e| e.to_entry());
                    proptest::prop_assert_eq!(got.as_ref(), Some(want));
                }
                for probe in &probes {
                    let ip = Ipv4Addr::from(0x0a00_0000 | probe << 2 & 0x3ff | probe & 3);
                    let want = model.values().filter(|e| e.prefix.contains(ip)).max_by_key(|e| e.prefix.len());
                    let got = fib.lookup(ip).map(|e| e.to_entry());
                    proptest::prop_assert_eq!(got.as_ref(), want, "{}", ip);
                }
                let mut other = Fib::new();
                for e in model.values().rev() {
                    other.insert(e.clone());
                }
                proptest::prop_assert!(fib.same_as(&other) && other.same_as(&fib));
                let in_use: BTreeSet<&[FibNextHop]> = model.values().map(|e| &*e.next_hops).collect();
                let held = fib.groups.0.iter().flatten().map(|(set, _)| &**set);
                proptest::prop_assert_eq!(held.collect::<BTreeSet<_>>(), in_use);
            }
        }
    }
}
