//! The BGP-4 protocol engine: session FSM, Adj-RIB-In/Out, decision process,
//! and update generation.
//!
//! The engine is a poll-based state machine (smoltcp idiom): the owner feeds
//! it decoded messages via [`BgpEngine::push_msg`] and advances it with
//! [`BgpEngine::poll`], which returns messages to transmit. No I/O or clock
//! access happens inside.
//!
//! Vendor-specific behaviours (the reason the paper insists on running *real
//! implementations*) enter through [`DecisionQuirks`]: the same engine code
//! parameterised differently reproduces, e.g., the "new software version
//! introduced an incorrect route metric selection in iBGP" bug from §2.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

use mfv_config::{BgpConfig, PrefixList, RouteMap};
use mfv_types::{AsNum, InternSet, Origin, Prefix, RouteProtocol, RouterId, SimDuration, SimTime};
use mfv_wire::bgp::{BgpMsg, NotificationMsg, OpenMsg, PathAttr, UpdateMsg};

use crate::policy::{eval_route_map, BgpAttrs, PolicyResult};
use crate::rib::{keyed_inside, NextHop, RibRoute};

/// Resolves protocol next hops against the IGP/connected routing state.
/// Implemented by the router shell over its current RIB.
///
/// Contract: between two calls of [`BgpEngine::next_hops_moved`] the answer
/// for an address does not change, and a call changes it only for addresses
/// inside a prefix it names. The engine therefore asks once per address —
/// per session for transport liveness, per next hop and batch for decisions
/// — and keeps the answer until a move covers the address.
pub trait NextHopResolver {
    /// The IGP cost to reach `ip`, or `None` if unreachable. Resolution via
    /// the default route does not count (standard BGP behaviour).
    fn igp_metric(&self, ip: Ipv4Addr) -> Option<u32>;
}

/// A resolver over a fixed table; convenient for tests and injection stubs.
#[derive(Default, Clone, Debug)]
pub struct TableResolver(pub BTreeMap<Ipv4Addr, u32>);

impl NextHopResolver for TableResolver {
    fn igp_metric(&self, ip: Ipv4Addr) -> Option<u32> {
        self.0.get(&ip).copied()
    }
}

/// Transport liveness: whether the IGP view has a route to `peer`.
fn reaches(resolver: &dyn NextHopResolver, peer: Ipv4Addr) -> bool {
    resolver.igp_metric(peer).is_some()
}

/// Vendor-behaviour knobs for the decision process.
#[derive(Clone, Copy, Debug, Default)]
pub struct DecisionQuirks {
    /// BUG REPRODUCTION: prefer the *higher* IGP metric when comparing iBGP
    /// paths (§2: "a new software version ... introduced an incorrect route
    /// metric selection in iBGP").
    pub ibgp_igp_metric_inverted: bool,
}

/// Per-session configuration resolved from the device config.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    pub peer: Ipv4Addr,
    pub remote_as: AsNum,
    /// Our address on this session (interface address for eBGP, update
    /// source loopback for iBGP). Used as the advertised next hop.
    pub local_addr: Ipv4Addr,
    pub next_hop_self: bool,
    pub send_community: bool,
    pub route_map_in: Option<String>,
    pub route_map_out: Option<String>,
    pub rr_client: bool,
    pub shutdown: bool,
}

impl SessionConfig {
    fn is_ebgp(&self, local_as: AsNum) -> bool {
        self.remote_as != local_as
    }

    fn export_key(&self, local_as: AsNum) -> ExportKey {
        ExportKey {
            ebgp: self.is_ebgp(local_as),
            rr_client: self.rr_client,
            next_hop_self: self.next_hop_self,
            send_community: self.send_community,
            route_map_out: self.route_map_out.clone(),
            local_addr: self.local_addr,
        }
    }
}

/// BGP finite-state-machine states (condensed: Connect/Active are folded
/// into Idle since transport is message delivery, not TCP).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionState {
    Idle,
    OpenSent,
    OpenConfirm,
    Established,
}

/// A received route in the Adj-RIB-In (post import policy).
#[derive(Clone, Debug)]
struct RibInEntry {
    attrs: Arc<BgpAttrs>,
    /// Global arrival sequence for the oldest-path tiebreak.
    arrival: u64,
}

#[derive(Clone)]
struct Session {
    cfg: SessionConfig,
    state: SessionState,
    /// Hold time negotiated (min of ours and peer's).
    hold_time: SimDuration,
    last_rx: SimTime,
    last_keepalive_tx: SimTime,
    /// When Idle: next time we may retry the OPEN.
    retry_at: SimTime,
    rib_in: BTreeMap<Prefix, RibInEntry>,
    /// `(next hop, prefix)` for every Adj-RIB-In entry: which prefixes'
    /// decisions an IGP change at some address can move.
    by_next_hop: BTreeSet<(Ipv4Addr, Prefix)>,
    /// Index of the session's [`ExportGroup`], which holds its Adj-RIB-Out.
    group: usize,
    /// Whether the IGP view reaches the peer (transport liveness); `None`
    /// until asked, and again once an IGP move covers the peer's address.
    reachable: Option<bool>,
    /// FSM state changes since the engine was built — the per-session churn
    /// signal the observability layer aggregates.
    transitions: u64,
    /// A valid OPEN from this peer has been processed at least once since
    /// the engine was built. Gates the lossy-transport shortcut below: a
    /// bare KEEPALIVE may stand in for a *lost* OPEN, but it must never
    /// stand in for one we rejected (e.g. bad peer AS) — otherwise a
    /// misconfigured session could establish without ever being validated.
    open_seen: bool,
    /// A KEEPALIVE arrived in OpenSent before any OPEN was validated
    /// (reordered delivery). Latched until the peer's OPEN shows up: if it
    /// validates, the handshake completes immediately; if it is rejected,
    /// the latch dies with the reset.
    early_keepalive: bool,
}

impl Session {
    fn new(cfg: SessionConfig, group: usize) -> Session {
        Session {
            cfg,
            group,
            reachable: None,
            state: SessionState::Idle,
            hold_time: SimDuration::from_secs(90),
            last_rx: SimTime::ZERO,
            last_keepalive_tx: SimTime::ZERO,
            retry_at: SimTime::ZERO,
            rib_in: BTreeMap::new(),
            by_next_hop: BTreeSet::new(),
            transitions: 0,
            open_seen: false,
            early_keepalive: false,
        }
    }

    /// Moves the FSM, counting only real state changes.
    fn set_state(&mut self, new: SessionState) {
        if self.state != new {
            self.transitions += 1;
        }
        self.state = new;
    }

    /// Back to Idle; returns the prefixes whose routes from this peer were
    /// just lost (their decisions must be re-run).
    fn reset(&mut self, now: SimTime, retry_after: SimDuration) -> Vec<Prefix> {
        self.set_state(SessionState::Idle);
        self.early_keepalive = false;
        self.retry_at = now + retry_after;
        self.flush()
    }

    /// Empties the Adj-RIB-In; returns the prefixes that had a route in.
    /// (The Adj-RIB-Out is the group's: a session that is not in sync sees
    /// none of it, and gets the whole table when it next establishes.)
    fn flush(&mut self) -> Vec<Prefix> {
        self.by_next_hop.clear();
        std::mem::take(&mut self.rib_in).into_keys().collect()
    }

    fn learn(&mut self, prefix: Prefix, entry: RibInEntry) {
        let next_hop = entry.attrs.next_hop;
        if let Some(old) = self.rib_in.insert(prefix, entry) {
            self.by_next_hop.remove(&(old.attrs.next_hop, prefix));
        }
        self.by_next_hop.insert((next_hop, prefix));
    }

    fn forget(&mut self, prefix: &Prefix) {
        if let Some(old) = self.rib_in.remove(prefix) {
            self.by_next_hop.remove(&(old.attrs.next_hop, *prefix));
        }
    }
}

/// Everything about a session that shapes what it is sent, the peer's own
/// address aside. Sessions equal in it form one export group (BIRD's and
/// FRR's update groups): they want the same advertisement for a route,
/// except that the peer a route was learned from gets none.
#[derive(Clone, PartialEq, Eq, Debug)]
struct ExportKey {
    ebgp: bool,
    rr_client: bool,
    next_hop_self: bool,
    send_community: bool,
    route_map_out: Option<String>,
    local_addr: Ipv4Addr,
}

/// What a group advertises for one prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Advert {
    attrs: Arc<BgpAttrs>,
    /// The peer the route came from: the one member that is sent nothing.
    learned_from: Option<Ipv4Addr>,
}

impl Advert {
    /// The attributes `viewer` is sent, if any (`None` views as a member
    /// no route was learned from).
    fn seen_by(entry: Option<&Advert>, viewer: Option<Ipv4Addr>) -> Option<&Arc<BgpAttrs>> {
        entry
            .filter(|e| viewer.is_none() || e.learned_from != viewer)
            .map(|e| &e.attrs)
    }
}

/// One Adj-RIB-Out for all sessions with the same [`ExportKey`]. Current —
/// the export of the whole selection — while a member is in sync; a member
/// sees the entries not learned from itself.
#[derive(Clone)]
struct ExportGroup {
    key: ExportKey,
    table: BTreeMap<Prefix, Advert>,
}

/// A group entry that moved in one poll.
struct Change {
    prefix: Prefix,
    old: Option<Advert>,
    new: Option<Advert>,
}

/// Exact work counts of an engine, handed to its owner by
/// [`BgpEngine::take_work`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct BgpWork {
    /// Per-prefix decisions run.
    pub prefix_decisions: u64,
    /// Times a session asked the resolver whether its peer is reachable.
    pub liveness_lookups: u64,
    /// Prefixes whose advertisement was worked out, summed over export
    /// groups: a poll's scope for every group with a member in sync, the
    /// whole selection for a group whose first member establishes.
    pub export_computations: u64,
}

impl std::ops::AddAssign for BgpWork {
    fn add_assign(&mut self, other: BgpWork) {
        self.prefix_decisions += other.prefix_decisions;
        self.liveness_lookups += other.liveness_lookups;
        self.export_computations += other.export_computations;
    }
}

/// One candidate path considered by the decision process.
#[derive(Clone)]
struct Candidate {
    attrs: Arc<BgpAttrs>,
    from: Option<Ipv4Addr>,
    ebgp: bool,
    igp_metric: u32,
    arrival: u64,
    peer_router_id: u32,
}

/// A route selected by the decision process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectedRoute {
    pub prefix: Prefix,
    /// A handle to the engine's stored copy; compares by value.
    pub attrs: Arc<BgpAttrs>,
    /// Peer the best path was learned from; `None` for local originations.
    pub learned_from: Option<Ipv4Addr>,
    /// Whether the winning path is eBGP-learned.
    pub ebgp: bool,
    /// All ECMP protocol next hops (best path's first): a handle to the
    /// engine's stored copy of the set; compares by value.
    pub next_hops: Arc<[Ipv4Addr]>,
}

impl SelectedRoute {
    /// The protocol the RIB and the FIB know a learned selection by; `None`
    /// for a local origination, which offers them nothing (the route it
    /// stands for is already there).
    pub fn protocol(&self) -> Option<RouteProtocol> {
        self.learned_from?;
        Some(match self.ebgp {
            true => RouteProtocol::EbgpLearned,
            false => RouteProtocol::IbgpLearned,
        })
    }
}

/// A selection as a RIB route: what [`Fib::patch`](crate::rib::Fib::patch)
/// reads straight off the selection, for a RIB built from scratch.
fn as_rib_route(s: &SelectedRoute) -> Option<RibRoute> {
    let proto = s.protocol()?;
    Some(RibRoute {
        prefix: s.prefix,
        proto,
        admin_distance: mfv_types::AdminDistance::default_for(proto),
        metric: s.attrs.med.unwrap_or(0),
        next_hops: s.next_hops.iter().map(|nh| NextHop::Via(*nh)).collect(),
    })
}

/// Summary of one neighbor, for `show bgp summary` and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborSummary {
    pub peer: Ipv4Addr,
    pub remote_as: AsNum,
    pub state: SessionState,
    pub prefixes_received: usize,
    pub prefixes_sent: usize,
}

/// The BGP protocol engine for one router.
#[derive(Clone)]
pub struct BgpEngine {
    local_as: AsNum,
    router_id: RouterId,
    hold_time: SimDuration,
    keepalive: SimDuration,
    retry: SimDuration,
    max_paths: u8,
    quirks: DecisionQuirks,
    sessions: BTreeMap<Ipv4Addr, Session>,
    /// The Adj-RIB-Outs, one per distinct export policy among the sessions.
    groups: Vec<ExportGroup>,
    /// Every distinct attribute set this engine holds, stored once: the
    /// Adj-RIBs, the originations and the selection hold handles into it.
    attr_sets: InternSet<Arc<BgpAttrs>>,
    /// The selection's distinct ECMP next-hop sets, stored once.
    next_hop_sets: InternSet<Arc<[Ipv4Addr]>>,
    /// Locally-originated prefixes (network statements / redistribution),
    /// with the attrs they are originated with.
    originated: BTreeMap<Prefix, Arc<BgpAttrs>>,
    route_maps: BTreeMap<String, RouteMap>,
    prefix_lists: BTreeMap<String, PrefixList>,
    out: VecDeque<(Ipv4Addr, BgpMsg)>,
    arrival_counter: u64,
    /// Result of the last decision run.
    selected: BTreeMap<Prefix, SelectedRoute>,
    /// Prefixes whose candidates (or a candidate's IGP cost) changed since
    /// the last decision run — the only ones it looks at, which keeps a
    /// million-route table from being rescanned on every poll.
    dirty: BTreeSet<Prefix>,
    /// Prefixes whose selection changed, accumulated for the owner (RIB
    /// and FIB patching).
    selection_delta: BTreeSet<Prefix>,
    work: BgpWork,
    /// Peers whose sessions (re-)established: they need the full table
    /// advertised, without forcing a global recomputation.
    full_advert_peers: BTreeSet<Ipv4Addr>,
}

impl BgpEngine {
    /// Builds an engine from parsed config. `session_local_addrs` maps each
    /// neighbor to our source address for that session (the router shell
    /// resolves update-source interfaces).
    pub fn new(
        cfg: &BgpConfig,
        router_id: RouterId,
        session_local_addrs: &BTreeMap<Ipv4Addr, Ipv4Addr>,
        route_maps: BTreeMap<String, RouteMap>,
        prefix_lists: BTreeMap<String, PrefixList>,
        quirks: DecisionQuirks,
    ) -> BgpEngine {
        let mut sessions = BTreeMap::new();
        let mut groups: Vec<ExportGroup> = Vec::new();
        for n in &cfg.neighbors {
            let local_addr = session_local_addrs
                .get(&n.peer)
                .copied()
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let scfg = SessionConfig {
                peer: n.peer,
                remote_as: n.remote_as,
                local_addr,
                next_hop_self: n.next_hop_self,
                send_community: n.send_community,
                route_map_in: n.route_map_in.clone(),
                route_map_out: n.route_map_out.clone(),
                rr_client: n.rr_client,
                shutdown: n.shutdown,
            };
            let key = scfg.export_key(cfg.asn);
            let group = groups.iter().position(|g| g.key == key).unwrap_or_else(|| {
                let table = BTreeMap::new();
                groups.push(ExportGroup { key, table });
                groups.len() - 1
            });
            sessions.insert(n.peer, Session::new(scfg, group));
        }
        BgpEngine {
            local_as: cfg.asn,
            router_id,
            hold_time: SimDuration::from_secs(90),
            keepalive: SimDuration::from_secs(30),
            retry: SimDuration::from_secs(2),
            max_paths: cfg.max_paths.max(1),
            quirks,
            sessions,
            groups,
            attr_sets: InternSet::default(),
            next_hop_sets: InternSet::default(),
            originated: BTreeMap::new(),
            route_maps,
            prefix_lists,
            out: VecDeque::new(),
            arrival_counter: 0,
            selected: BTreeMap::new(),
            dirty: BTreeSet::new(),
            selection_delta: BTreeSet::new(),
            work: BgpWork::default(),
            full_advert_peers: BTreeSet::new(),
        }
    }

    pub fn local_as(&self) -> AsNum {
        self.local_as
    }

    /// Replaces the set of locally-originated prefixes. `next_hop_unspec`
    /// originations advertise our session address as next hop.
    pub fn set_originated(&mut self, prefixes: impl IntoIterator<Item = Prefix>) {
        let attrs = self
            .attr_sets
            .intern(BgpAttrs::originated(Ipv4Addr::UNSPECIFIED));
        let new: BTreeMap<Prefix, Arc<BgpAttrs>> = prefixes
            .into_iter()
            .map(|p| (p, Arc::clone(&attrs)))
            .collect();
        for p in self.originated.keys().chain(new.keys()) {
            if self.originated.contains_key(p) != new.contains_key(p) {
                self.dirty.insert(*p);
            }
        }
        self.originated = new;
    }

    /// Tells the engine the IGP view changed at `prefixes`: what
    /// [`NextHopResolver::igp_metric`] answers can differ only for
    /// addresses inside one of them, so exactly the prefixes with a
    /// received route whose next hop lies there are decided again, and
    /// exactly the sessions whose peer lies there ask again whether it is
    /// reachable.
    pub fn next_hops_moved<'a>(&mut self, prefixes: impl IntoIterator<Item = &'a Prefix>) {
        for moved in prefixes {
            for session in self.sessions.values() {
                self.dirty.extend(keyed_inside(&session.by_next_hop, moved));
            }
            let inside = Ipv4Addr::from(moved.first())..=Ipv4Addr::from(moved.last());
            for (_, session) in self.sessions.range_mut(inside) {
                session.reachable = None;
            }
        }
    }

    /// Administratively removes a session (used by failure injection).
    pub fn shutdown_session(&mut self, peer: Ipv4Addr, now: SimTime) {
        if let Some(s) = self.sessions.get_mut(&peer) {
            s.cfg.shutdown = true;
            if s.state != SessionState::Idle {
                self.out.push_back((
                    peer,
                    BgpMsg::Notification(NotificationMsg {
                        code: 6, // Cease
                        subcode: 2,
                        data: bytes::Bytes::new(),
                    }),
                ));
            }
            self.dirty
                .extend(s.reset(now, SimDuration::from_secs(u64::MAX / 2_000)));
        }
    }

    /// Feeds a received message into the engine.
    pub fn push_msg(&mut self, now: SimTime, from: Ipv4Addr, msg: BgpMsg) {
        let Some(session) = self.sessions.get_mut(&from) else {
            // Message from an unconfigured peer: ignore (real routers would
            // not even have a TCP listener match).
            return;
        };
        if session.cfg.shutdown {
            return;
        }
        session.last_rx = now;
        match msg {
            BgpMsg::Open(open) => {
                if open.asn != session.cfg.remote_as {
                    // OPEN from wrong AS: notify and reset.
                    self.out.push_back((
                        from,
                        BgpMsg::Notification(NotificationMsg {
                            code: 2,    // OPEN message error
                            subcode: 2, // bad peer AS
                            data: bytes::Bytes::new(),
                        }),
                    ));
                    self.dirty
                        .extend(session.reset(now, SimDuration::from_secs(5)));
                    return;
                }
                session.open_seen = true;
                session.hold_time =
                    SimDuration::from_secs(u64::from(open.hold_time_secs.min(90)).max(3));
                match session.state {
                    SessionState::Idle => {
                        // Passive open: respond with our OPEN + KEEPALIVE.
                        let our_open = OpenMsg::new(
                            self.local_as,
                            (self.hold_time.as_millis() / 1000) as u16,
                            self.router_id.0,
                        );
                        self.out.push_back((from, BgpMsg::Open(our_open)));
                        self.out.push_back((from, BgpMsg::Keepalive));
                        session.set_state(SessionState::OpenConfirm);
                    }
                    SessionState::OpenSent => {
                        // Collision or lossy boot: our own OPEN may never
                        // have reached the peer (dropped pre-transport), so
                        // resend it with the confirm. A duplicate is
                        // absorbed harmlessly in OpenConfirm on their side.
                        let our_open = OpenMsg::new(
                            self.local_as,
                            (self.hold_time.as_millis() / 1000) as u16,
                            self.router_id.0,
                        );
                        self.out.push_back((from, BgpMsg::Open(our_open)));
                        self.out.push_back((from, BgpMsg::Keepalive));
                        if session.early_keepalive {
                            // The peer's confirm overtook its OPEN; now that
                            // the OPEN validated, both halves are in hand.
                            session.early_keepalive = false;
                            session.set_state(SessionState::Established);
                            self.full_advert_peers.insert(from);
                        } else {
                            session.set_state(SessionState::OpenConfirm);
                        }
                    }
                    SessionState::OpenConfirm => {
                        // Duplicate OPEN mid-handshake (our earlier reply may
                        // have been lost in flight): re-confirm so the peer
                        // can make progress instead of deadlocking.
                        self.out.push_back((from, BgpMsg::Keepalive));
                    }
                    SessionState::Established => {
                        // A fresh OPEN on an established session means the
                        // peer restarted: drop the old session state and
                        // re-handshake so the full table is re-sent.
                        self.dirty.extend(session.flush());
                        self.full_advert_peers.insert(from);
                        let our_open = OpenMsg::new(
                            self.local_as,
                            (self.hold_time.as_millis() / 1000) as u16,
                            self.router_id.0,
                        );
                        self.out.push_back((from, BgpMsg::Open(our_open)));
                        self.out.push_back((from, BgpMsg::Keepalive));
                        session.set_state(SessionState::OpenConfirm);
                    }
                }
            }
            BgpMsg::Keepalive => {
                match session.state {
                    SessionState::OpenConfirm => {
                        session.set_state(SessionState::Established);
                        self.full_advert_peers.insert(from);
                    }
                    SessionState::OpenSent => {
                        // A KEEPALIVE implies the peer has processed our
                        // OPEN even though its own OPEN reply was lost;
                        // confirm and come up (lossy-transport robustness).
                        // Only once we have validated an OPEN from this
                        // peer, though — a crossing KEEPALIVE must not let
                        // a rejected session (bad peer AS) sneak up.
                        if session.open_seen {
                            self.out.push_back((from, BgpMsg::Keepalive));
                            session.set_state(SessionState::Established);
                            self.full_advert_peers.insert(from);
                        } else {
                            // No OPEN validated yet: hold the confirm until
                            // one arrives (delivery may have reordered the
                            // peer's OPEN behind its KEEPALIVE).
                            session.early_keepalive = true;
                        }
                    }
                    _ => {}
                }
            }
            BgpMsg::Update(update) => {
                if session.state != SessionState::Established {
                    return;
                }
                self.apply_update(now, from, update);
            }
            BgpMsg::Notification(_) => {
                self.dirty
                    .extend(session.reset(now, SimDuration::from_secs(5)));
            }
        }
    }

    fn apply_update(&mut self, _now: SimTime, from: Ipv4Addr, update: UpdateMsg) {
        let session = self.sessions.get_mut(&from).expect("session exists");
        for p in &update.withdrawn {
            session.forget(p);
            self.dirty.insert(*p);
        }
        if update.nlri.is_empty() {
            return;
        }
        let ebgp = session.cfg.is_ebgp(self.local_as);
        let as_path = update.as_path().cloned().unwrap_or_default();
        // eBGP loop prevention: our AS in the path means discard.
        if ebgp && as_path.contains(self.local_as) {
            // A looped replacement of a route this peer offered earlier
            // withdraws it (RFC 4271), so the decision must run again.
            for p in &update.nlri {
                session.forget(p);
                self.dirty.insert(*p);
            }
            return;
        }
        let Some(next_hop) = update.next_hop() else {
            return; // NLRI without NEXT_HOP is invalid; drop.
        };
        let foreign_attrs: Vec<(u8, u8, bytes::Bytes)> = update
            .attrs
            .iter()
            .filter_map(|a| match a {
                PathAttr::Unknown {
                    flags,
                    type_code,
                    value,
                } => Some((*flags, *type_code, value.clone())),
                _ => None,
            })
            .collect();
        // One stored copy for the whole UPDATE: every NLRI the import policy
        // leaves alone gets this handle, and a policy result is looked up
        // before it is kept.
        let base = self.attr_sets.intern(BgpAttrs {
            origin: update.origin().unwrap_or(Origin::Incomplete),
            as_path,
            next_hop,
            med: update.med(),
            local_pref: update.local_pref(),
            communities: update.communities(),
            foreign_attrs,
        });
        let rm_in = session.cfg.route_map_in.clone();
        let arrival_base = self.arrival_counter;
        let mut accepted = 0;
        for (i, prefix) in update.nlri.iter().enumerate() {
            // NLRI prefixes that policy rejects are implicitly withdrawn:
            // the denied replacement takes the peer's earlier route with it
            // (RFC 4271), so they are decision-relevant too.
            self.dirty.insert(*prefix);
            let permitted = match &rm_in {
                Some(name) => match self.route_maps.get(name) {
                    Some(rm) => match eval_route_map(rm, &self.prefix_lists, prefix, &base) {
                        PolicyResult::Permit(a) => Some(self.attr_sets.intern(a)),
                        PolicyResult::Deny => None,
                    },
                    // Referencing a missing route-map denies everything
                    // (matching EOS behaviour).
                    None => None,
                },
                None => Some(Arc::clone(&base)),
            };
            let Some(attrs) = permitted else {
                session.forget(prefix);
                continue;
            };
            let arrival = arrival_base + accepted;
            session.learn(*prefix, RibInEntry { attrs, arrival });
            accepted += 1;
            self.arrival_counter = arrival_base + i as u64 + 1;
        }
    }

    /// Advances timers, runs the decision process, and generates updates.
    /// Returns messages to deliver.
    pub fn poll(
        &mut self,
        now: SimTime,
        resolver: &dyn NextHopResolver,
    ) -> Vec<(Ipv4Addr, BgpMsg)> {
        // 1. Session liveness: hold timer + transport reachability.
        let Self {
            sessions,
            dirty,
            out,
            work,
            ..
        } = self;
        let (retry, keepalive) = (self.retry, self.keepalive);
        for (peer, s) in sessions.iter_mut() {
            if s.cfg.shutdown {
                continue;
            }
            // Transport liveness: losing the route to the peer tears the
            // TCP session down. Without this, updates enqueued while the
            // peer is unreachable would be silently lost although the
            // Adj-RIB-Out believes them delivered.
            let peer_reachable = *s.reachable.get_or_insert_with(|| {
                work.liveness_lookups += 1;
                reaches(resolver, *peer)
            });
            debug_assert_eq!(
                peer_reachable,
                reaches(resolver, *peer),
                "the IGP view moved at {peer} unannounced"
            );
            if s.state != SessionState::Idle {
                let hold_expired = now.since(s.last_rx) > s.hold_time;
                if hold_expired || !peer_reachable {
                    dirty.extend(s.reset(now, retry));
                    continue;
                }
                if s.state == SessionState::Established
                    && now.since(s.last_keepalive_tx) >= keepalive
                {
                    s.last_keepalive_tx = now;
                    out.push_back((*peer, BgpMsg::Keepalive));
                }
            } else if now >= s.retry_at {
                if peer_reachable {
                    // Active open.
                    let our_open = OpenMsg::new(
                        self.local_as,
                        (self.hold_time.as_millis() / 1000) as u16,
                        self.router_id.0,
                    );
                    s.set_state(SessionState::OpenSent);
                    s.last_rx = now; // arm hold timer from the attempt
                    s.retry_at = now + retry;
                    out.push_back((*peer, BgpMsg::Open(our_open)));
                } else {
                    // No transport to the peer yet: re-arm the retry timer
                    // so the wakeup schedule stays coarse.
                    s.retry_at = now + retry;
                }
            }
            // OpenSent/OpenConfirm retry: if stuck past retry interval, fall
            // back to Idle so we re-OPEN (covers lost messages).
            if matches!(s.state, SessionState::OpenSent | SessionState::OpenConfirm)
                && now.since(s.last_rx) > retry.saturating_mul(5)
            {
                dirty.extend(s.reset(now, retry));
            }
        }

        // 2 + 3. Decision process and update generation, scoped to the
        // prefixes whose inputs changed.
        let scope = std::mem::take(&mut self.dirty);
        let full_advert = std::mem::take(&mut self.full_advert_peers);
        if !scope.is_empty() || !full_advert.is_empty() {
            self.run_decision(resolver, &scope);
            self.generate_updates(&scope, &full_advert);
        }

        self.out.drain(..).collect()
    }

    /// The earliest time at which a timer needs servicing.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        let mut next = now + self.keepalive;
        for s in self.sessions.values() {
            if s.cfg.shutdown {
                continue;
            }
            let candidate = match s.state {
                SessionState::Idle => {
                    // An overdue retry must fire at the very next poll.
                    if s.retry_at > now {
                        s.retry_at
                    } else {
                        SimTime(now.0 + 1)
                    }
                }
                SessionState::Established => s.last_keepalive_tx + self.keepalive,
                _ => s.last_rx + self.retry.saturating_mul(5),
            };
            let candidate = candidate.max(SimTime(now.0 + 1));
            if candidate < next {
                next = candidate;
            }
        }
        next
    }

    /// Total FSM state changes across all sessions since the engine was
    /// built (session churn, for the observability layer).
    pub fn session_transitions(&self) -> u64 {
        self.sessions.values().map(|s| s.transitions).sum()
    }

    /// The currently selected BGP routes, as RIB candidates: the reference
    /// a router's FIB, which reads the selection itself, is held to.
    pub fn rib_routes(&self) -> Vec<RibRoute> {
        self.selected.values().filter_map(as_rib_route).collect()
    }

    /// The prefixes with a received route whose next hop is `next_hop`:
    /// every prefix whose selection can go through it, and more.
    pub fn prefixes_via(&self, next_hop: Ipv4Addr) -> impl Iterator<Item = Prefix> + '_ {
        let host = Prefix::host(next_hop);
        let sessions = self.sessions.values();
        sessions.flat_map(move |s| keyed_inside(&s.by_next_hop, &host))
    }

    /// Introspection: the full selection (including local originations).
    pub fn selected(&self) -> &BTreeMap<Prefix, SelectedRoute> {
        &self.selected
    }

    /// Introspection for heap accounting (`experiments -- heap`): copies of
    /// the Adj-RIB-Ins, each with its next-hop index, and of the Adj-RIB-Outs.
    pub fn adj_rib_copies(&self) -> (impl Sized, impl Sized) {
        let (sessions, groups) = (self.sessions.values(), self.groups.iter());
        let ins = sessions.map(|s| (s.rib_in.clone(), s.by_next_hop.clone()));
        let outs = groups.map(|g| g.table.clone());
        (ins.collect::<Vec<_>>(), outs.collect::<Vec<_>>())
    }

    /// Introspection: how many distinct attribute sets the engine stores
    /// (ones no table holds any more included, until the next sweep).
    pub fn attr_sets(&self) -> usize {
        self.attr_sets.stored()
    }

    /// Introspection: how many Adj-RIB-Outs the engine keeps — one per
    /// distinct export policy among its sessions, however many sessions.
    pub fn export_groups(&self) -> usize {
        self.groups.len()
    }

    /// The peers whose remembered reachability is not what `resolver` says
    /// now — none, as long as every IGP move was announced through
    /// [`next_hops_moved`](Self::next_hops_moved). The reference the
    /// per-move liveness is held to: an engine that asked on every poll
    /// would act on the fresh answers.
    pub fn stale_liveness(&self, resolver: &dyn NextHopResolver) -> Vec<Ipv4Addr> {
        let known = self
            .sessions
            .iter()
            .filter_map(|(p, s)| Some((*p, s.reachable?)));
        known
            .filter(|(peer, reachable)| *reachable != reaches(resolver, *peer))
            .map(|(peer, _)| peer)
            .collect()
    }

    /// Introspection: per-neighbor summaries. `prefixes_sent` counts the
    /// entries of the group's Adj-RIB-Out the peer sees, and is 0 for a
    /// session that is not in sync with it.
    pub fn summaries(&self) -> Vec<NeighborSummary> {
        self.sessions
            .iter()
            .map(|(peer, s)| {
                let in_sync =
                    s.state == SessionState::Established && !self.full_advert_peers.contains(peer);
                let table = self.groups[s.group].table.values();
                let seen = table.filter(|a| a.learned_from != Some(*peer));
                NeighborSummary {
                    peer: *peer,
                    remote_as: s.cfg.remote_as,
                    state: s.state,
                    prefixes_received: s.rib_in.len(),
                    prefixes_sent: if in_sync { seen.count() } else { 0 },
                }
            })
            .collect()
    }

    pub fn session_state(&self, peer: Ipv4Addr) -> Option<SessionState> {
        self.sessions.get(&peer).map(|s| s.state)
    }

    /// The candidate paths for a prefix. `igp_costs` holds what the resolver
    /// answered for each next hop earlier in the same batch of decisions:
    /// the IGP view cannot move inside one, so each next hop is asked once.
    fn gather_candidates(
        &self,
        prefix: &Prefix,
        resolver: &dyn NextHopResolver,
        igp_costs: &mut BTreeMap<Ipv4Addr, Option<u32>>,
    ) -> Vec<Candidate> {
        let mut cands = Vec::new();
        if let Some(attrs) = self.originated.get(prefix) {
            cands.push(Candidate {
                attrs: Arc::clone(attrs),
                from: None,
                ebgp: false,
                igp_metric: 0,
                arrival: 0,
                peer_router_id: 0,
            });
        }
        for (peer, session) in &self.sessions {
            if session.state != SessionState::Established {
                continue;
            }
            let Some(entry) = session.rib_in.get(prefix) else {
                continue;
            };
            // Next hop must resolve through the IGP (not default).
            let next_hop = entry.attrs.next_hop;
            let cost = igp_costs
                .entry(next_hop)
                .or_insert_with(|| resolver.igp_metric(next_hop));
            let Some(igp_metric) = *cost else {
                continue;
            };
            cands.push(Candidate {
                attrs: Arc::clone(&entry.attrs),
                from: Some(*peer),
                ebgp: session.cfg.is_ebgp(self.local_as),
                igp_metric,
                arrival: entry.arrival,
                peer_router_id: u32::from(*peer),
            });
        }
        cands
    }

    /// RFC 4271 §9.1.2.2 best-path selection over one prefix's candidates,
    /// with the engine's vendor quirks applied; the next-hop set is a handle
    /// into `next_hop_sets`.
    fn select_best(
        &self,
        prefix: Prefix,
        mut cands: Vec<Candidate>,
        next_hop_sets: &mut InternSet<Arc<[Ipv4Addr]>>,
    ) -> Option<SelectedRoute> {
        if cands.is_empty() {
            return None;
        }
        let quirks = self.quirks;
        // Deterministic initial order.
        cands.sort_by_key(|c| (c.from, c.arrival));
        let best_idx = cands
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                // 1. Highest local-pref (default 100).
                let lp_a = a.attrs.local_pref.unwrap_or(100);
                let lp_b = b.attrs.local_pref.unwrap_or(100);
                lp_b.cmp(&lp_a)
                    // 2. Locally-originated first.
                    .then_with(|| a.from.is_some().cmp(&b.from.is_some()))
                    // 3. Shortest AS path.
                    .then_with(|| {
                        a.attrs
                            .as_path
                            .route_len()
                            .cmp(&b.attrs.as_path.route_len())
                    })
                    // 4. Lowest origin.
                    .then_with(|| a.attrs.origin.cmp(&b.attrs.origin))
                    // 5. Lowest MED among routes from the same first AS.
                    .then_with(|| {
                        if a.attrs.as_path.first_as() == b.attrs.as_path.first_as() {
                            a.attrs.med.unwrap_or(0).cmp(&b.attrs.med.unwrap_or(0))
                        } else {
                            std::cmp::Ordering::Equal
                        }
                    })
                    // 6. eBGP over iBGP.
                    .then_with(|| b.ebgp.cmp(&a.ebgp))
                    // 7. Lowest IGP metric to next hop (or the vendor's
                    //    inverted comparison for iBGP when buggy).
                    .then_with(|| {
                        if quirks.ibgp_igp_metric_inverted && !a.ebgp && !b.ebgp {
                            b.igp_metric.cmp(&a.igp_metric)
                        } else {
                            a.igp_metric.cmp(&b.igp_metric)
                        }
                    })
                    // 8. Oldest path (arrival order): both vendors break
                    //    ties this way, the source of the non-determinism
                    //    explored in ablation A1.
                    .then_with(|| a.arrival.cmp(&b.arrival))
                    // 9. Lowest peer router id / address.
                    .then_with(|| a.peer_router_id.cmp(&b.peer_router_id))
            })
            .map(|(i, _)| i)?;
        let best = cands[best_idx].clone();

        // ECMP: additional paths equal through step 7.
        let max_paths = self.max_paths as usize;
        let next_hops = if max_paths > 1 {
            let mut next_hops = vec![best.attrs.next_hop];
            for (i, c) in cands.iter().enumerate() {
                if i == best_idx || next_hops.len() >= max_paths {
                    continue;
                }
                let same_first_as = c.attrs.as_path.first_as() == best.attrs.as_path.first_as();
                let equal = c.attrs.local_pref.unwrap_or(100)
                    == best.attrs.local_pref.unwrap_or(100)
                    && c.from.is_some() == best.from.is_some()
                    && c.attrs.as_path.route_len() == best.attrs.as_path.route_len()
                    && c.attrs.origin == best.attrs.origin
                    && (!same_first_as || c.attrs.med.unwrap_or(0) == best.attrs.med.unwrap_or(0))
                    && c.ebgp == best.ebgp
                    && c.igp_metric == best.igp_metric;
                if equal && !next_hops.contains(&c.attrs.next_hop) {
                    next_hops.push(c.attrs.next_hop);
                }
            }
            next_hop_sets.intern(next_hops)
        } else {
            next_hop_sets.intern(&[best.attrs.next_hop][..])
        };

        Some(SelectedRoute {
            prefix,
            attrs: best.attrs,
            learned_from: best.from,
            ebgp: best.ebgp,
            next_hops,
        })
    }

    /// Recomputes the decision for the `scope` prefixes.
    fn run_decision(&mut self, resolver: &dyn NextHopResolver, scope: &BTreeSet<Prefix>) {
        self.work.prefix_decisions += scope.len() as u64;
        let mut igp_costs = BTreeMap::new();
        let mut next_hop_sets = std::mem::take(&mut self.next_hop_sets);
        for prefix in scope {
            let cands = self.gather_candidates(prefix, resolver, &mut igp_costs);
            let changed = match self.select_best(*prefix, cands, &mut next_hop_sets) {
                Some(route) if self.selected.get(prefix) == Some(&route) => false,
                Some(route) => {
                    self.selected.insert(*prefix, route);
                    true
                }
                None => self.selected.remove(prefix).is_some(),
            };
            if changed {
                self.selection_delta.insert(*prefix);
            }
        }
        self.next_hop_sets = next_hop_sets;
    }

    /// The decision over every prefix with any candidate, from scratch:
    /// the reference [`selected`](Self::selected) — maintained per dirty
    /// prefix — is held to.
    pub fn decide_all(&self, resolver: &dyn NextHopResolver) -> BTreeMap<Prefix, SelectedRoute> {
        let mut all: BTreeSet<Prefix> = self.originated.keys().copied().collect();
        for session in self.sessions.values() {
            all.extend(session.rib_in.keys().copied());
        }
        let (mut igp_costs, mut next_hop_sets) = (BTreeMap::new(), InternSet::default());
        all.into_iter()
            .filter_map(|p| {
                let cands = self.gather_candidates(&p, resolver, &mut igp_costs);
                let route = self.select_best(p, cands, &mut next_hop_sets)?;
                Some((p, route))
            })
            .collect()
    }

    /// Hands the prefixes whose selection changed since the last call to
    /// the owner.
    pub fn take_selection_delta(&mut self) -> BTreeSet<Prefix> {
        std::mem::take(&mut self.selection_delta)
    }

    /// Hands the work done since the last call to the owner (it is behind
    /// the `bgp.*` counters of the obs dump).
    pub fn take_work(&mut self) -> BgpWork {
        std::mem::take(&mut self.work)
    }

    /// Whether the next poll has decisions to run or a table to send: the
    /// part of a poll worth timing.
    pub fn has_pending_work(&self) -> bool {
        !self.dirty.is_empty() || !self.full_advert_peers.is_empty()
    }

    /// What the sessions of the group keyed `key` advertise for `route`
    /// (all but the peer it was learned from), or `None` when export rules
    /// or policy suppress it.
    fn export(
        route: &SelectedRoute,
        key: &ExportKey,
        from_client: bool,
        local_as: AsNum,
        route_maps: &BTreeMap<String, RouteMap>,
        prefix_lists: &BTreeMap<String, PrefixList>,
    ) -> Option<BgpAttrs> {
        // iBGP split horizon: iBGP-learned routes go to iBGP peers only when
        // reflection applies.
        if !key.ebgp && route.learned_from.is_some() && !route.ebgp {
            let to_client = key.rr_client;
            if !from_client && !to_client {
                return None;
            }
        }

        let mut attrs = BgpAttrs::clone(&route.attrs);
        if key.ebgp {
            attrs.as_path = attrs.as_path.prepend(local_as);
            attrs.local_pref = None;
            attrs.med = None;
            attrs.next_hop = key.local_addr;
        } else {
            attrs.local_pref = Some(attrs.local_pref.unwrap_or(100));
            // `next-hop-self` rewrites eBGP-learned routes advertised into
            // iBGP (the vendor default); *reflected* iBGP routes keep the
            // originator's next hop, so a route reflector never inserts
            // itself into the forwarding path of its clients.
            if route.learned_from.is_none() || (key.next_hop_self && route.ebgp) {
                attrs.next_hop = key.local_addr;
            }
        }
        if attrs.next_hop == Ipv4Addr::UNSPECIFIED {
            attrs.next_hop = key.local_addr;
        }
        if !key.send_community {
            attrs.communities.clear();
        }

        match &key.route_map_out {
            Some(name) => match route_maps.get(name) {
                Some(rm) => match eval_route_map(rm, prefix_lists, &route.prefix, &attrs) {
                    PolicyResult::Permit(a) => Some(a),
                    PolicyResult::Deny => None,
                },
                // Referencing a missing route-map denies everything.
                None => None,
            },
            None => Some(attrs),
        }
    }

    /// Brings every Adj-RIB-Out in use in line with the selection — one
    /// export per group and `scope` prefix, diffed against the group's
    /// table — and queues UPDATE messages, sessions in address order: a
    /// member in sync gets what moved, one in `full_advert` (newly
    /// established) the whole table, each minus the routes learned from it.
    fn generate_updates(&mut self, scope: &BTreeSet<Prefix>, full_advert: &BTreeSet<Ipv4Addr>) {
        let Self {
            sessions,
            groups,
            selected,
            attr_sets,
            route_maps,
            prefix_lists,
            out,
            work,
            ..
        } = self;
        let local_as = self.local_as;
        let mut in_sync = vec![false; groups.len()];
        let mut joining = vec![false; groups.len()];
        for (peer, s) in sessions.iter() {
            if s.state == SessionState::Established {
                match full_advert.contains(peer) {
                    true => joining[s.group] = true,
                    false => in_sync[s.group] = true,
                }
            }
        }
        let mut advert = |key: &ExportKey, route: &SelectedRoute, old: Option<&Advert>| {
            let learned_from = route.learned_from;
            // RR-client provenance, read off the session the route came in on.
            let from_client = learned_from
                .and_then(|p| sessions.get(&p))
                .is_some_and(|s| s.cfg.rr_client);
            let attrs = Self::export(route, key, from_client, local_as, route_maps, prefix_lists)?;
            let attrs = match old {
                Some(old) if *old.attrs == attrs => Arc::clone(&old.attrs),
                _ => attr_sets.intern(attrs),
            };
            Some(Advert {
                attrs,
                learned_from,
            })
        };

        // Per group: the entries that moved, and the members one of them
        // was or is learned from (the others are sent the same messages).
        let mut moved: Vec<(Vec<Change>, BTreeSet<Ipv4Addr>)> = Vec::new();
        for (g, group) in groups.iter_mut().enumerate() {
            let mut changes = Vec::new();
            let mut excepted = BTreeSet::new();
            if !in_sync[g] {
                // Nobody holds the table to date: it is rebuilt whole for a
                // joining member, and empty otherwise.
                group.table.clear();
                if joining[g] {
                    work.export_computations += selected.len() as u64;
                    for (prefix, route) in selected.iter() {
                        if let Some(new) = advert(&group.key, route, None) {
                            group.table.insert(*prefix, new);
                        }
                    }
                }
            } else {
                work.export_computations += scope.len() as u64;
                for prefix in scope {
                    let old = group.table.get(prefix);
                    let new = selected
                        .get(prefix)
                        .and_then(|route| advert(&group.key, route, old));
                    if old == new.as_ref() {
                        continue;
                    }
                    let old = match &new {
                        Some(new) => group.table.insert(*prefix, new.clone()),
                        None => group.table.remove(prefix),
                    };
                    excepted.extend(
                        [&old, &new]
                            .into_iter()
                            .flatten()
                            .flat_map(|a| a.learned_from),
                    );
                    changes.push(Change {
                        prefix: *prefix,
                        old,
                        new,
                    });
                }
            }
            moved.push((changes, excepted));
        }

        let mut shared: Vec<Option<Vec<BgpMsg>>> = vec![None; groups.len()];
        for (peer, s) in sessions.iter() {
            if s.state != SessionState::Established {
                continue;
            }
            let (changes, excepted) = &moved[s.group];
            let msgs = if full_advert.contains(peer) {
                let table = groups[s.group].table.iter();
                let seen = table.filter_map(|(prefix, advert)| {
                    Some((*prefix, Advert::seen_by(Some(advert), Some(*peer))?.clone()))
                });
                pack_updates(Vec::new(), seen.collect())
            } else if changes.is_empty() {
                continue;
            } else if excepted.contains(peer) {
                member_updates(changes, Some(*peer))
            } else {
                shared[s.group]
                    .get_or_insert_with(|| member_updates(changes, None))
                    .clone()
            };
            out.extend(msgs.into_iter().map(|msg| (*peer, msg)));
        }
    }
}

/// The UPDATEs that take `viewer` from the old entries of `changes` to the
/// new ones, as it sees them.
fn member_updates(changes: &[Change], viewer: Option<Ipv4Addr>) -> Vec<BgpMsg> {
    let mut withdrawals: Vec<Prefix> = Vec::new();
    let mut announcements: Vec<(Prefix, Arc<BgpAttrs>)> = Vec::new();
    for change in changes {
        let want = Advert::seen_by(change.new.as_ref(), viewer);
        match (want, Advert::seen_by(change.old.as_ref(), viewer)) {
            (None, Some(_)) => withdrawals.push(change.prefix),
            (Some(attrs), prev) if prev != Some(attrs) => {
                announcements.push((change.prefix, Arc::clone(attrs)));
            }
            _ => {}
        }
    }
    pack_updates(withdrawals, announcements)
}

/// One peer's UPDATE messages: withdrawals first, then announcements.
fn pack_updates(
    withdrawals: Vec<Prefix>,
    announcements: Vec<(Prefix, Arc<BgpAttrs>)>,
) -> Vec<BgpMsg> {
    let mut msgs: Vec<BgpMsg> = withdrawals
        .chunks(2000)
        .map(|chunk| BgpMsg::Update(UpdateMsg::withdraw(chunk.to_vec())))
        .collect();
    // RFC 4271 packing: prefixes sharing identical attributes ride
    // in one UPDATE. Essential at production-route scale — a
    // million-route feed is a few thousand messages, not a million.
    let mut grouped: BTreeMap<Arc<BgpAttrs>, Vec<Prefix>> = BTreeMap::new();
    for (prefix, attrs) in announcements {
        grouped.entry(attrs).or_default().push(prefix);
    }
    for (attrs, prefixes) in grouped {
        let mut wire_attrs = vec![
            PathAttr::Origin(attrs.origin),
            PathAttr::AsPath(attrs.as_path.clone()),
            PathAttr::NextHop(attrs.next_hop),
        ];
        if let Some(med) = attrs.med {
            wire_attrs.push(PathAttr::Med(med));
        }
        if let Some(lp) = attrs.local_pref {
            wire_attrs.push(PathAttr::LocalPref(lp));
        }
        if !attrs.communities.is_empty() {
            wire_attrs.push(PathAttr::Communities(attrs.communities.clone()));
        }
        for (flags, type_code, value) in &attrs.foreign_attrs {
            // Unknown transitive attributes propagate with the
            // partial bit set; non-transitive ones are dropped.
            if flags & mfv_wire::bgp::FLAG_TRANSITIVE != 0 {
                wire_attrs.push(PathAttr::Unknown {
                    flags: flags | mfv_wire::bgp::FLAG_PARTIAL,
                    type_code: *type_code,
                    value: value.clone(),
                });
            }
        }
        // Cap NLRI per message so the 2-byte frame length holds.
        for chunk in prefixes.chunks(2000) {
            msgs.push(BgpMsg::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: wire_attrs.clone(),
                nlri: chunk.to_vec(),
            }));
        }
    }
    msgs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::BgpNeighborConfig;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Builds a two-router eBGP pair and drives both engines until quiet.
    struct Pair {
        a: BgpEngine,
        b: BgpEngine,
        now: SimTime,
        resolver: TableResolver,
    }

    impl Pair {
        fn new_ebgp() -> Pair {
            let mut cfg_a = BgpConfig::new(AsNum(65001));
            cfg_a
                .neighbors
                .push(BgpNeighborConfig::new(ip("10.0.0.2"), AsNum(65002)));
            let mut cfg_b = BgpConfig::new(AsNum(65002));
            cfg_b
                .neighbors
                .push(BgpNeighborConfig::new(ip("10.0.0.1"), AsNum(65001)));

            let mut locals_a = BTreeMap::new();
            locals_a.insert(ip("10.0.0.2"), ip("10.0.0.1"));
            let mut locals_b = BTreeMap::new();
            locals_b.insert(ip("10.0.0.1"), ip("10.0.0.2"));

            let a = BgpEngine::new(
                &cfg_a,
                RouterId(ip("1.1.1.1")),
                &locals_a,
                BTreeMap::new(),
                BTreeMap::new(),
                DecisionQuirks::default(),
            );
            let b = BgpEngine::new(
                &cfg_b,
                RouterId(ip("2.2.2.2")),
                &locals_b,
                BTreeMap::new(),
                BTreeMap::new(),
                DecisionQuirks::default(),
            );
            let mut resolver = TableResolver::default();
            resolver.0.insert(ip("10.0.0.1"), 0);
            resolver.0.insert(ip("10.0.0.2"), 0);
            Pair {
                a,
                b,
                now: SimTime::ZERO,
                resolver,
            }
        }

        /// Runs both engines, shuttling messages, until no more traffic.
        fn settle(&mut self) {
            for _ in 0..50 {
                self.now += SimDuration::from_millis(100);
                let out_a = self.a.poll(self.now, &self.resolver);
                let out_b = self.b.poll(self.now, &self.resolver);
                if out_a.is_empty() && out_b.is_empty() {
                    break;
                }
                for (_peer, msg) in out_a {
                    self.b.push_msg(self.now, ip("10.0.0.1"), msg);
                }
                for (_peer, msg) in out_b {
                    self.a.push_msg(self.now, ip("10.0.0.2"), msg);
                }
            }
        }
    }

    #[test]
    fn ebgp_session_establishes() {
        let mut pair = Pair::new_ebgp();
        pair.settle();
        assert_eq!(
            pair.a.session_state(ip("10.0.0.2")),
            Some(SessionState::Established)
        );
        assert_eq!(
            pair.b.session_state(ip("10.0.0.1")),
            Some(SessionState::Established)
        );
    }

    #[test]
    fn originated_route_propagates_with_as_path() {
        let mut pair = Pair::new_ebgp();
        pair.a.set_originated([pfx("203.0.113.0/24")]);
        pair.settle();
        let routes = pair.b.rib_routes();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].prefix, pfx("203.0.113.0/24"));
        assert_eq!(routes[0].proto, RouteProtocol::EbgpLearned);
        assert_eq!(routes[0].next_hops, vec![NextHop::Via(ip("10.0.0.1"))]);
        let sel = pair.b.selected().get(&pfx("203.0.113.0/24")).unwrap();
        assert_eq!(
            sel.attrs.as_path,
            mfv_types::AsPath::sequence([AsNum(65001)])
        );
    }

    #[test]
    fn withdrawal_propagates() {
        let mut pair = Pair::new_ebgp();
        pair.a.set_originated([pfx("203.0.113.0/24")]);
        pair.settle();
        assert_eq!(pair.b.rib_routes().len(), 1);
        pair.a.set_originated([]);
        pair.settle();
        assert!(pair.b.rib_routes().is_empty());
    }

    #[test]
    fn session_shutdown_flushes_routes() {
        let mut pair = Pair::new_ebgp();
        pair.a.set_originated([pfx("203.0.113.0/24")]);
        pair.settle();
        pair.a.shutdown_session(ip("10.0.0.2"), pair.now);
        pair.settle();
        assert!(
            pair.b.rib_routes().is_empty(),
            "notification must flush peer routes"
        );
        assert_eq!(
            pair.b.session_state(ip("10.0.0.1")),
            Some(SessionState::Idle)
        );
    }

    #[test]
    fn hold_timer_expiry_resets_session() {
        let mut pair = Pair::new_ebgp();
        pair.settle();
        assert_eq!(
            pair.a.session_state(ip("10.0.0.2")),
            Some(SessionState::Established)
        );
        // Stop delivering B's messages; advance past hold time.
        pair.now += SimDuration::from_secs(200);
        let _ = pair.a.poll(pair.now, &pair.resolver.clone());
        assert_eq!(
            pair.a.session_state(ip("10.0.0.2")),
            Some(SessionState::Idle)
        );
    }

    #[test]
    fn wrong_as_in_open_is_rejected() {
        let mut pair = Pair::new_ebgp();
        // B pretends to be AS 65999.
        pair.a.push_msg(
            pair.now,
            ip("10.0.0.2"),
            BgpMsg::Open(OpenMsg::new(AsNum(65999), 90, ip("9.9.9.9"))),
        );
        let out = pair.a.poll(pair.now, &pair.resolver.clone());
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, BgpMsg::Notification(n) if n.code == 2)));
        assert_eq!(
            pair.a.session_state(ip("10.0.0.2")),
            Some(SessionState::Idle)
        );
    }

    #[test]
    fn unresolvable_next_hop_excluded_from_decision() {
        let mut pair = Pair::new_ebgp();
        pair.a.set_originated([pfx("203.0.113.0/24")]);
        pair.settle();
        assert_eq!(pair.b.rib_routes().len(), 1);
        // Remove the resolver entry for A's address; B should drop the route.
        pair.resolver.0.remove(&ip("10.0.0.1"));
        pair.b.next_hops_moved([&Prefix::host(ip("10.0.0.1"))]);
        pair.settle();
        assert!(pair.b.rib_routes().is_empty());
    }

    #[test]
    fn local_pref_beats_shorter_as_path() {
        // Single engine with two eBGP peers offering the same prefix.
        let mut cfg = BgpConfig::new(AsNum(65000));
        cfg.neighbors
            .push(BgpNeighborConfig::new(ip("10.0.0.1"), AsNum(65001)));
        cfg.neighbors
            .push(BgpNeighborConfig::new(ip("10.0.1.1"), AsNum(65002)));
        let mut locals = BTreeMap::new();
        locals.insert(ip("10.0.0.1"), ip("10.0.0.0"));
        locals.insert(ip("10.0.1.1"), ip("10.0.1.0"));
        // Import policy on peer 2 sets local-pref 200.
        let mut rms = BTreeMap::new();
        rms.insert(
            "LP200".to_string(),
            RouteMap {
                entries: vec![mfv_config::RouteMapEntry {
                    seq: 10,
                    action: mfv_config::PolicyAction::Permit,
                    matches: vec![],
                    sets: vec![mfv_config::SetClause::LocalPref(200)],
                }],
            },
        );
        cfg.neighbors[1].route_map_in = Some("LP200".to_string());
        let mut engine = BgpEngine::new(
            &cfg,
            RouterId(ip("3.3.3.3")),
            &locals,
            rms,
            BTreeMap::new(),
            DecisionQuirks::default(),
        );
        let mut resolver = TableResolver::default();
        resolver.0.insert(ip("10.0.0.1"), 1);
        resolver.0.insert(ip("10.0.1.1"), 1);

        let now = SimTime(1000);
        // Establish both sessions by hand.
        for peer in [ip("10.0.0.1"), ip("10.0.1.1")] {
            let _ = engine.poll(now, &resolver);
            engine.push_msg(
                now,
                peer,
                BgpMsg::Open(OpenMsg::new(
                    if peer == ip("10.0.0.1") {
                        AsNum(65001)
                    } else {
                        AsNum(65002)
                    },
                    90,
                    peer,
                )),
            );
            engine.push_msg(now, peer, BgpMsg::Keepalive);
        }
        assert_eq!(
            engine.session_state(ip("10.0.0.1")),
            Some(SessionState::Established)
        );

        // Peer 1 offers a SHORT path; peer 2 a LONG path but higher LP.
        let update = |asns: Vec<u32>, nh: &str| {
            BgpMsg::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: vec![
                    PathAttr::Origin(Origin::Igp),
                    PathAttr::AsPath(mfv_types::AsPath::sequence(asns.into_iter().map(AsNum))),
                    PathAttr::NextHop(ip(nh)),
                ],
                nlri: vec![pfx("203.0.113.0/24")],
            })
        };
        engine.push_msg(now, ip("10.0.0.1"), update(vec![65001], "10.0.0.1"));
        engine.push_msg(
            now,
            ip("10.0.1.1"),
            update(vec![65002, 65009, 65010], "10.0.1.1"),
        );
        let _ = engine.poll(now, &resolver);
        let sel = engine.selected().get(&pfx("203.0.113.0/24")).unwrap();
        assert_eq!(sel.learned_from, Some(ip("10.0.1.1")), "LP 200 must win");
        assert_eq!(sel.attrs.local_pref, Some(200));
    }

    #[test]
    fn ebgp_loop_prevention_discards_own_as() {
        let mut pair = Pair::new_ebgp();
        pair.settle();
        // B sends A a route already carrying A's AS.
        pair.a.push_msg(
            pair.now,
            ip("10.0.0.2"),
            BgpMsg::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: vec![
                    PathAttr::Origin(Origin::Igp),
                    PathAttr::AsPath(mfv_types::AsPath::sequence([AsNum(65002), AsNum(65001)])),
                    PathAttr::NextHop(ip("10.0.0.2")),
                ],
                nlri: vec![pfx("198.51.100.0/24")],
            }),
        );
        let _ = pair.a.poll(pair.now, &pair.resolver.clone());
        assert!(pair.a.rib_routes().is_empty());
    }

    #[test]
    fn ibgp_metric_bug_flips_selection() {
        // One engine, two iBGP peers offering the same prefix with different
        // IGP metrics to their next hops.
        let build = |quirks: DecisionQuirks| {
            let mut cfg = BgpConfig::new(AsNum(65000));
            cfg.neighbors
                .push(BgpNeighborConfig::new(ip("2.2.2.1"), AsNum(65000)));
            cfg.neighbors
                .push(BgpNeighborConfig::new(ip("2.2.2.2"), AsNum(65000)));
            let mut locals = BTreeMap::new();
            locals.insert(ip("2.2.2.1"), ip("2.2.2.9"));
            locals.insert(ip("2.2.2.2"), ip("2.2.2.9"));
            let mut engine = BgpEngine::new(
                &cfg,
                RouterId(ip("2.2.2.9")),
                &locals,
                BTreeMap::new(),
                BTreeMap::new(),
                quirks,
            );
            let mut resolver = TableResolver::default();
            resolver.0.insert(ip("2.2.2.1"), 10); // near
            resolver.0.insert(ip("2.2.2.2"), 100); // far
            let now = SimTime(1000);
            for peer in [ip("2.2.2.1"), ip("2.2.2.2")] {
                let _ = engine.poll(now, &resolver);
                engine.push_msg(
                    now,
                    peer,
                    BgpMsg::Open(OpenMsg::new(AsNum(65000), 90, peer)),
                );
                engine.push_msg(now, peer, BgpMsg::Keepalive);
            }
            for peer in [ip("2.2.2.1"), ip("2.2.2.2")] {
                engine.push_msg(
                    now,
                    peer,
                    BgpMsg::Update(UpdateMsg {
                        withdrawn: vec![],
                        attrs: vec![
                            PathAttr::Origin(Origin::Igp),
                            PathAttr::AsPath(mfv_types::AsPath::sequence([AsNum(65099)])),
                            PathAttr::NextHop(peer),
                            PathAttr::LocalPref(100),
                        ],
                        nlri: vec![pfx("203.0.113.0/24")],
                    }),
                );
            }
            let _ = engine.poll(now, &resolver);
            engine
                .selected()
                .get(&pfx("203.0.113.0/24"))
                .unwrap()
                .clone()
        };

        let correct = build(DecisionQuirks::default());
        assert_eq!(
            correct.learned_from,
            Some(ip("2.2.2.1")),
            "nearest exit wins"
        );

        let buggy = build(DecisionQuirks {
            ibgp_igp_metric_inverted: true,
        });
        assert_eq!(
            buggy.learned_from,
            Some(ip("2.2.2.2")),
            "the vendor bug selects the farther exit"
        );
    }

    /// Multipath admits only paths the decision could not tell from the best
    /// one: a path from the same neighbouring AS that lost on MED (step 5)
    /// stays out, one that tied on it joins.
    #[test]
    fn ecmp_excludes_a_path_that_lost_on_med() {
        let peers = [ip("10.0.0.1"), ip("10.0.1.1"), ip("10.0.2.1")];
        let mut cfg = BgpConfig::new(AsNum(65000));
        cfg.max_paths = 4;
        let (mut locals, mut resolver) = (BTreeMap::new(), TableResolver::default());
        for peer in peers {
            cfg.neighbors
                .push(BgpNeighborConfig::new(peer, AsNum(65001)));
            locals.insert(peer, ip("9.9.9.9"));
            resolver.0.insert(peer, 0);
        }
        let mut engine = BgpEngine::new(
            &cfg,
            RouterId(ip("9.9.9.9")),
            &locals,
            BTreeMap::new(),
            BTreeMap::new(),
            DecisionQuirks::default(),
        );
        let now = SimTime(1000);
        let _ = engine.poll(now, &resolver);
        for (peer, med) in peers.into_iter().zip([10, 20, 10]) {
            engine.push_msg(
                now,
                peer,
                BgpMsg::Open(OpenMsg::new(AsNum(65001), 90, peer)),
            );
            engine.push_msg(now, peer, BgpMsg::Keepalive);
            let update = UpdateMsg {
                withdrawn: vec![],
                attrs: vec![
                    PathAttr::Origin(Origin::Igp),
                    PathAttr::AsPath(mfv_types::AsPath::sequence([AsNum(65001)])),
                    PathAttr::NextHop(peer),
                    PathAttr::Med(med),
                ],
                nlri: vec![pfx("203.0.113.0/24")],
            };
            engine.push_msg(now, peer, BgpMsg::Update(update));
        }
        let _ = engine.poll(now, &resolver);
        let sel = &engine.selected()[&pfx("203.0.113.0/24")];
        assert_eq!(sel.attrs.med, Some(10));
        assert_eq!(*sel.next_hops, [peers[0], peers[2]]);
        assert_eq!(engine.decide_all(&resolver), *engine.selected());
    }

    #[test]
    fn neighbor_summaries_report_counts() {
        let mut pair = Pair::new_ebgp();
        pair.a
            .set_originated([pfx("203.0.113.0/24"), pfx("198.51.100.0/24")]);
        pair.settle();
        let sums = pair.a.summaries();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].state, SessionState::Established);
        assert_eq!(sums[0].prefixes_sent, 2);
        let sums_b = pair.b.summaries();
        assert_eq!(sums_b[0].prefixes_received, 2);
    }

    #[test]
    fn foreign_transitive_attr_propagates_with_partial_bit() {
        // A 3-router chain: X --ebgp-- A --ebgp-- (observe A's output).
        let mut pair = Pair::new_ebgp();
        pair.settle();
        // Inject into A (from B) a route carrying an unknown transitive attr.
        pair.a.push_msg(
            pair.now,
            ip("10.0.0.2"),
            BgpMsg::Update(UpdateMsg {
                withdrawn: vec![],
                attrs: vec![
                    PathAttr::Origin(Origin::Igp),
                    PathAttr::AsPath(mfv_types::AsPath::sequence([AsNum(65002)])),
                    PathAttr::NextHop(ip("10.0.0.2")),
                    PathAttr::Unknown {
                        flags: mfv_wire::bgp::FLAG_OPTIONAL | mfv_wire::bgp::FLAG_TRANSITIVE,
                        type_code: 213,
                        value: bytes::Bytes::from_static(&[1, 2, 3]),
                    },
                ],
                nlri: vec![pfx("198.51.100.0/24")],
            }),
        );
        let _ = pair.a.poll(pair.now, &pair.resolver.clone());
        let sel = pair.a.selected().get(&pfx("198.51.100.0/24")).unwrap();
        assert_eq!(sel.attrs.foreign_attrs.len(), 1);
        assert_eq!(sel.attrs.foreign_attrs[0].1, 213);
    }

    /// An UPDATE for `nlri` with the given AS path and next hop, carrying
    /// LOCAL_PREF 100 as an iBGP speaker's does.
    fn announce(path: &[u32], next_hop: Ipv4Addr, nlri: Vec<Prefix>) -> BgpMsg {
        BgpMsg::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: vec![
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(mfv_types::AsPath::sequence(path.iter().copied().map(AsNum))),
                PathAttr::NextHop(next_hop),
                PathAttr::LocalPref(100),
            ],
            nlri,
        })
    }

    #[test]
    fn as_loop_replacement_withdraws_the_earlier_route() {
        let mut pair = Pair::new_ebgp();
        pair.settle();
        let a = ip("10.0.0.1");
        let p = pfx("198.51.100.0/24");
        pair.b.push_msg(pair.now, a, announce(&[65001], a, vec![p]));
        let _ = pair.b.poll(pair.now, &pair.resolver);
        assert_eq!(pair.b.rib_routes().len(), 1);
        // The replacement carries B's own AS: B discards it, and with it
        // goes the only route A ever offered for the prefix.
        pair.b
            .push_msg(pair.now, a, announce(&[65001, 65002], a, vec![p]));
        let _ = pair.b.poll(pair.now, &pair.resolver);
        assert!(pair.b.rib_routes().is_empty());
        assert!(pair.b.selected().is_empty());
    }

    #[test]
    fn import_policy_denial_withdraws_the_earlier_route() {
        // Peer 10.0.0.1 is imported through SHORT (AS paths of at most two
        // ASes); peer 10.0.1.1 through a route-map that does not exist.
        let (a, b) = (ip("10.0.0.1"), ip("10.0.1.1"));
        let mut cfg = BgpConfig::new(AsNum(65000));
        let mut locals = BTreeMap::new();
        let mut resolver = TableResolver::default();
        for (peer, asn, map) in [(a, 65001, "SHORT"), (b, 65002, "MISSING")] {
            let mut n = BgpNeighborConfig::new(peer, AsNum(asn));
            n.route_map_in = Some(map.to_string());
            cfg.neighbors.push(n);
            locals.insert(peer, ip("10.0.0.0"));
            resolver.0.insert(peer, 1);
        }
        let short = RouteMap {
            entries: vec![mfv_config::RouteMapEntry {
                seq: 10,
                action: mfv_config::PolicyAction::Permit,
                matches: vec![mfv_config::MatchClause::MaxAsPathLen(2)],
                sets: vec![],
            }],
        };
        let mut engine = BgpEngine::new(
            &cfg,
            RouterId(ip("3.3.3.3")),
            &locals,
            BTreeMap::from([("SHORT".to_string(), short)]),
            BTreeMap::new(),
            DecisionQuirks::default(),
        );
        let now = SimTime(1000);
        for (peer, asn) in [(a, 65001), (b, 65002)] {
            let _ = engine.poll(now, &resolver);
            engine.push_msg(now, peer, BgpMsg::Open(OpenMsg::new(AsNum(asn), 90, peer)));
            engine.push_msg(now, peer, BgpMsg::Keepalive);
            assert_eq!(engine.session_state(peer), Some(SessionState::Established));
        }
        let p = pfx("198.51.100.0/24");
        engine.push_msg(now, a, announce(&[65001], a, vec![p]));
        let _ = engine.poll(now, &resolver);
        assert_eq!(engine.selected()[&p].learned_from, Some(a));

        // The replacement's path is too long for SHORT: denied, and the
        // route it replaces goes with it.
        engine.push_msg(now, a, announce(&[65001, 65009, 65010], a, vec![p]));
        let _ = engine.poll(now, &resolver);
        assert!(engine.selected().is_empty());
        assert_eq!(engine.decide_all(&resolver), *engine.selected());

        // A permitted re-offer comes back; nothing passes a missing map.
        engine.push_msg(now, a, announce(&[65001], a, vec![p]));
        engine.push_msg(now, b, announce(&[65002], b, vec![p]));
        let _ = engine.poll(now, &resolver);
        assert_eq!(engine.selected()[&p].learned_from, Some(a));
        assert_eq!(engine.decide_all(&resolver), *engine.selected());
    }

    /// An AS 65000 engine at `me` with an iBGP session to each of `peers`
    /// (route-reflector clients if `rr_client`), and a resolver that
    /// reaches each of them at cost 10.
    fn ibgp_engine(me: &str, peers: &[Ipv4Addr], rr_client: bool) -> (BgpEngine, TableResolver) {
        let mut cfg = BgpConfig::new(AsNum(65000));
        let mut locals = BTreeMap::new();
        let mut resolver = TableResolver::default();
        for peer in peers {
            let mut n = BgpNeighborConfig::new(*peer, AsNum(65000));
            n.rr_client = rr_client;
            cfg.neighbors.push(n);
            locals.insert(*peer, ip(me));
            resolver.0.insert(*peer, 10);
        }
        let engine = BgpEngine::new(
            &cfg,
            RouterId(ip(me)),
            &locals,
            BTreeMap::new(),
            BTreeMap::new(),
            DecisionQuirks::default(),
        );
        (engine, resolver)
    }

    /// Brings the Idle session to `peer` up by hand, once its retry is due.
    fn establish(engine: &mut BgpEngine, now: SimTime, peer: Ipv4Addr, r: &TableResolver) {
        let _ = engine.poll(now, r);
        engine.push_msg(
            now,
            peer,
            BgpMsg::Open(OpenMsg::new(AsNum(65000), 90, peer)),
        );
        engine.push_msg(now, peer, BgpMsg::Keepalive);
        assert_eq!(engine.session_state(peer), Some(SessionState::Established));
    }

    /// Every attribute handle an engine's tables hold.
    fn held_handles(engine: &BgpEngine) -> Vec<&Arc<BgpAttrs>> {
        let sessions = engine.sessions.values();
        let groups = engine.groups.iter();
        sessions
            .flat_map(|s| s.rib_in.values().map(|e| &e.attrs))
            .chain(groups.flat_map(|g| g.table.values().map(|a| &a.attrs)))
            .chain(engine.selected.values().map(|r| &r.attrs))
            .chain(engine.originated.values())
            .collect()
    }

    /// The distinct values among `handles`, each of which must be a single
    /// allocation however many tables hold it.
    fn distinct_and_shared(handles: &[&Arc<BgpAttrs>]) -> usize {
        let mut by_value: BTreeMap<&BgpAttrs, &Arc<BgpAttrs>> = BTreeMap::new();
        for &h in handles {
            let first = by_value.entry(&**h).or_insert(h);
            assert!(Arc::ptr_eq(first, h), "two copies of {h:?}");
        }
        by_value.len()
    }

    /// The i-th client's k-th block of 50 prefixes.
    fn block(client: usize, k: usize) -> Vec<Prefix> {
        (0..50)
            .map(|j| pfx(&format!("100.{client}.{}.0/24", k * 50 + j)))
            .collect()
    }

    #[test]
    fn equal_attribute_sets_are_stored_once_and_the_store_stays_bounded() {
        // A reflector with five clients; each client announces 250
        // prefixes under five attribute sets of its own.
        let clients: Vec<Ipv4Addr> = (1..=5).map(|i| Ipv4Addr::new(1, 1, 1, i)).collect();
        let (mut rr, resolver) = ibgp_engine("9.9.9.9", &clients, true);
        let mut now = SimTime(1000);
        for c in &clients {
            establish(&mut rr, now, *c, &resolver);
        }
        for (i, c) in clients.iter().enumerate() {
            for k in 0..5 {
                let path = [65100 + i as u32, 65200 + k as u32];
                rr.push_msg(now, *c, announce(&path, *c, block(i, k)));
            }
        }
        let out = rr.poll(now, &resolver);
        assert_eq!(rr.selected().len(), 1250);
        let handles = held_handles(&rr);
        // 1,250 received + 1,250 selected + 1,250 reflected: the five
        // clients share one Adj-RIB-Out, of which each sees 1,000 entries.
        assert_eq!(handles.len(), 3750);
        assert_eq!(rr.groups.len(), 1);
        assert!(rr.summaries().iter().all(|s| s.prefixes_sent == 1000));
        assert_eq!(distinct_and_shared(&handles), 25);
        assert_eq!(rr.attr_sets(), 25);

        // What the reflector sent client 1 is that client's whole table:
        // 1,000 routes, twenty sets.
        let (mut client, client_resolver) = {
            let (engine, mut r) = ibgp_engine("1.1.1.1", &[ip("9.9.9.9")], false);
            r.0.extend(clients.iter().map(|c| (*c, 10)));
            (engine, r)
        };
        establish(&mut client, now, ip("9.9.9.9"), &client_resolver);
        for (peer, msg) in out {
            if peer == clients[0] && matches!(msg, BgpMsg::Update(_)) {
                client.push_msg(now, ip("9.9.9.9"), msg);
            }
        }
        let _ = client.poll(now, &client_resolver);
        assert_eq!(client.selected().len(), 1000);
        assert_eq!(distinct_and_shared(&held_handles(&client)), 20);
        assert_eq!(client.attr_sets(), 20);

        // Client 5 flaps 200 times, coming back each time with attribute
        // values never seen before. The dead ones must not pile up.
        let flapper = clients[4];
        for flap in 0..200u32 {
            rr.push_msg(
                now,
                flapper,
                BgpMsg::Notification(NotificationMsg {
                    code: 6,
                    subcode: 4,
                    data: bytes::Bytes::new(),
                }),
            );
            now += SimDuration::from_secs(6);
            for c in &clients[..4] {
                rr.push_msg(now, *c, BgpMsg::Keepalive);
            }
            establish(&mut rr, now, flapper, &resolver);
            for k in 0..5 {
                let path = [70_000 + flap, 65200 + k as u32];
                rr.push_msg(now, flapper, announce(&path, flapper, block(4, k)));
            }
            let _ = rr.poll(now, &resolver);
        }
        assert_eq!(rr.selected().len(), 1250);
        let live = distinct_and_shared(&held_handles(&rr));
        assert_eq!(live, 25);
        assert!(
            rr.attr_sets() <= 2 * live + 64,
            "{} sets stored for {live} live",
            rr.attr_sets()
        );
    }

    /// The per-peer Adj-RIB-Outs the export groups replaced, kept as the
    /// reference they are held to: after a poll, every Established session
    /// is diffed — every prefix, not a scope — against what the reference
    /// has sent it.
    #[derive(Default)]
    struct PerPeerReference {
        rib_out: BTreeMap<Ipv4Addr, BTreeMap<Prefix, Arc<BgpAttrs>>>,
        transitions: BTreeMap<Ipv4Addr, u64>,
    }

    impl PerPeerReference {
        /// The UPDATEs the poll `engine` just ran must have queued.
        fn updates(&mut self, engine: &BgpEngine) -> Vec<(Ipv4Addr, BgpMsg)> {
            let mut out = Vec::new();
            for (peer, s) in &engine.sessions {
                let rib_out = self.rib_out.entry(*peer).or_default();
                // Every way out of Established flushes; the other states
                // have nothing to flush.
                if self.transitions.insert(*peer, s.transitions) != Some(s.transitions) {
                    rib_out.clear();
                }
                if s.state != SessionState::Established {
                    continue;
                }
                let key = s.cfg.export_key(engine.local_as);
                let universe: BTreeSet<Prefix> = engine.selected.keys().copied().collect();
                let universe: BTreeSet<Prefix> = &universe | &rib_out.keys().copied().collect();
                let mut withdrawals = Vec::new();
                let mut announcements = Vec::new();
                for prefix in universe {
                    let route = engine.selected.get(&prefix);
                    // Never advertise back to the peer we learned it from.
                    let want = route
                        .filter(|r| r.learned_from != Some(*peer))
                        .and_then(|r| {
                            let from = r.learned_from.and_then(|p| engine.sessions.get(&p));
                            let from_client = from.is_some_and(|s| s.cfg.rr_client);
                            let (maps, lists) = (&engine.route_maps, &engine.prefix_lists);
                            BgpEngine::export(r, &key, from_client, engine.local_as, maps, lists)
                        });
                    match (want, rib_out.get(&prefix)) {
                        (None, Some(_)) => withdrawals.push(prefix),
                        (Some(attrs), prev) if prev.map(|p| &**p) != Some(&attrs) => {
                            announcements.push((prefix, Arc::new(attrs)));
                        }
                        _ => {}
                    }
                }
                for prefix in &withdrawals {
                    rib_out.remove(prefix);
                }
                for (prefix, attrs) in &announcements {
                    rib_out.insert(*prefix, Arc::clone(attrs));
                }
                let msgs = pack_updates(withdrawals, announcements);
                out.extend(msgs.into_iter().map(|msg| (*peer, msg)));
            }
            out
        }
    }

    /// A hub in AS 65000 whose `kinds.len()` peers are route-reflector
    /// clients (0), plain iBGP peers (1) or eBGP peers (2), with or without
    /// an export route-map that denies 100.1.0.0/16 and sets MED 77.
    fn hub(kinds: &[(u8, bool)]) -> (BgpEngine, TableResolver, Vec<(Ipv4Addr, AsNum)>) {
        let mut cfg = BgpConfig::new(AsNum(65000));
        let (mut locals, mut resolver) = (BTreeMap::new(), TableResolver::default());
        let mut peers = Vec::new();
        for (i, (kind, policed)) in kinds.iter().enumerate() {
            let peer = Ipv4Addr::new(1, 1, 1, i as u8 + 1);
            let asn = AsNum(if *kind == 2 { 65100 + i as u32 } else { 65000 });
            let mut n = BgpNeighborConfig::new(peer, asn);
            n.rr_client = *kind == 0;
            n.route_map_out = policed.then(|| "OUT".to_string());
            cfg.neighbors.push(n);
            locals.insert(peer, ip("9.9.9.9"));
            resolver.0.insert(peer, 10);
            peers.push((peer, asn));
        }
        let entry = |seq, action, matches, sets| mfv_config::RouteMapEntry {
            seq,
            action,
            matches,
            sets,
        };
        let (permit, deny) = (
            mfv_config::PolicyAction::Permit,
            mfv_config::PolicyAction::Deny,
        );
        let denied = mfv_config::MatchClause::PrefixList("DENIED".to_string());
        let out = RouteMap {
            entries: vec![
                entry(10, deny, vec![denied], vec![]),
                entry(20, permit, vec![], vec![mfv_config::SetClause::Med(77)]),
            ],
        };
        let denied = PrefixList {
            entries: vec![mfv_config::PrefixListEntry {
                seq: 10,
                action: permit,
                prefix: pfx("100.1.0.0/16"),
                ge: None,
                le: Some(24),
            }],
        };
        let engine = BgpEngine::new(
            &cfg,
            RouterId(ip("9.9.9.9")),
            &locals,
            BTreeMap::from([("OUT".to_string(), out)]),
            BTreeMap::from([("DENIED".to_string(), denied)]),
            DecisionQuirks::default(),
        );
        (engine, resolver, peers)
    }

    // Random session sets under route churn, resets and re-establishments
    // between polls, and IGP moves that cut peers off: the export groups
    // queue what per-peer Adj-RIB-Outs would have, message for message, and
    // report the same `prefixes_sent`.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn export_groups_send_what_per_peer_adj_rib_outs_would(
            kinds in proptest::collection::vec((0u8..3, proptest::prelude::any::<bool>()), 3..8),
            ops in proptest::collection::vec(
                (0u8..8, proptest::prelude::any::<u8>(), 0u8..3, proptest::prelude::any::<bool>()),
                20..60,
            ),
        ) {
            let (mut engine, mut resolver, peers) = hub(&kinds);
            let mut reference = PerPeerReference::default();
            let mut now = SimTime(1000);
            let _ = engine.poll(now, &resolver);
            let establish = |engine: &mut BgpEngine, now, (peer, asn): (Ipv4Addr, AsNum)| {
                engine.push_msg(now, peer, BgpMsg::Open(OpenMsg::new(asn, 90, peer)));
                engine.push_msg(now, peer, BgpMsg::Keepalive);
            };
            for peer in &peers {
                establish(&mut engine, now, *peer);
            }
            let shared: Vec<Prefix> = (0..4).map(|j| pfx(&format!("200.0.{j}.0/24"))).collect();
            let mut originating = false;
            for (kind, pick, k, poll) in ops {
                let at = pick as usize % peers.len();
                let (peer, asn) = peers[at];
                let own: Vec<Prefix> =
                    (0..4).map(|j| pfx(&format!("100.{at}.{}.0/24", k * 4 + j))).collect();
                // Length 0 is one path for every peer: exported over eBGP
                // it reads the same whoever it was learned from, so a best
                // path moving between two members changes only who is sent
                // nothing.
                let path = |len: u8| -> Vec<u32> {
                    let first = if asn == AsNum(65000) { 65300 + at as u32 } else { asn.0 };
                    let own = (1..=u32::from(len)).map(|hop| first + 1000 * hop);
                    std::iter::once(64999).chain(own).collect()
                };
                match kind {
                    0 => engine.push_msg(now, peer, announce(&path(1), peer, own)),
                    1 => engine.push_msg(now, peer, announce(&path(k), peer, shared.clone())),
                    2 => engine.push_msg(now, peer, BgpMsg::Update(UpdateMsg::withdraw(own))),
                    3 => {
                        let msg = BgpMsg::Update(UpdateMsg::withdraw(shared.clone()));
                        engine.push_msg(now, peer, msg);
                    }
                    4 => {
                        let cease = NotificationMsg { code: 6, subcode: 4, data: bytes::Bytes::new() };
                        engine.push_msg(now, peer, BgpMsg::Notification(cease));
                    }
                    5 => establish(&mut engine, now, (peer, asn)),
                    6 => {
                        originating = !originating;
                        engine.set_originated(originating.then(|| pfx("10.9.0.0/24")));
                    }
                    _ => {
                        if resolver.0.remove(&peer).is_none() {
                            resolver.0.insert(peer, 10);
                        }
                        engine.next_hops_moved([&Prefix::host(peer)]);
                    }
                }
                if !poll {
                    continue;
                }
                now += SimDuration::from_millis(100);
                let mut sent = engine.poll(now, &resolver);
                sent.retain(|(_, msg)| matches!(msg, BgpMsg::Update(_)));
                proptest::prop_assert_eq!(sent, reference.updates(&engine));
                for summary in engine.summaries() {
                    let established = summary.state == SessionState::Established;
                    let expected = if established { reference.rib_out[&summary.peer].len() } else { 0 };
                    proptest::prop_assert_eq!(summary.prefixes_sent, expected, "{}", summary.peer);
                }
            }
        }
    }
}
