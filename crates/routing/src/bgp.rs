//! The BGP-4 protocol engine: session FSM, one prefix-keyed table of the
//! received paths and the selection, the decision process, and update
//! generation.
//!
//! The engine is a poll-based state machine (smoltcp idiom): the owner feeds
//! it decoded messages via [`BgpEngine::push_msg`] and advances it with
//! [`BgpEngine::poll`], which hands out the frames to transmit, each encoded
//! once where it is built: an export group's shared UPDATEs are one
//! encoding for every member in sync. No I/O or clock access happens inside.
//!
//! Vendor-specific behaviours (the reason the paper insists on running *real
//! implementations*) enter through [`Quirks`]: the same engine code
//! parameterised differently reproduces, e.g., the "new software version
//! introduced an incorrect route metric selection in iBGP" bug from §2.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::num::NonZeroU32;
use std::sync::{Arc, LazyLock};

use bytes::Bytes;

use mfv_config::{BgpConfig, PrefixList, RouteMap};
use mfv_types::{
    AsNum, InternSet, Origin, Prefix, PrefixTrie, RouteProtocol, RouterId, SimDuration, SimTime,
};
use mfv_wire::bgp::{BgpMsg, NotificationMsg, OpenMsg, PathAttr, UpdateMsg};

use crate::policy::{eval_route_map, BgpAttrs, PolicyResult};
use crate::rib::{Groups, NextHop, RibRoute};

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

/// Transport liveness: whether the IGP view has a route to `peer`.
fn reaches(resolver: &dyn NextHopResolver, peer: Ipv4Addr) -> bool {
    resolver.igp_metric(peer).is_some()
}

/// Vendor-behaviour knobs of the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quirks {
    /// BUG REPRODUCTION: prefer the *higher* IGP metric when comparing iBGP
    /// paths (§2: "a new software version ... introduced an incorrect route
    /// metric selection in iBGP").
    pub ibgp_igp_metric_inverted: bool,
    /// BUG REPRODUCTION: every UPDATE with NLRI carries an unusual (but
    /// RFC-valid) optional-transitive attribute of this type, unless it
    /// already carries one (§2's interplay bug, the sending half).
    pub emit_unusual_attr: Option<u8>,
}

/// The one KEEPALIVE frame (a bare header), shared by every session. An
/// OPEN, a KEEPALIVE and a NOTIFICATION without data are a few bytes and
/// always encode; only an UPDATE can overflow a length field.
static KEEPALIVE: LazyLock<Bytes> =
    LazyLock::new(|| BgpMsg::Keepalive.encode().unwrap_or_default());

/// What every origination is selected with, stored once for every engine
/// (an unspecified next hop: the export advertises the session's address).
static ORIGINATION_ATTRS: LazyLock<Arc<BgpAttrs>> =
    LazyLock::new(|| Arc::new(BgpAttrs::originated(Ipv4Addr::UNSPECIFIED)));

/// The arrival that names a prefix's origination; learned paths count from
/// one, so a selection's winner is named by arrival alone.
const ORIGINATION: u32 = 0;

/// Per-session configuration resolved from the device config.
#[derive(Clone, Debug)]
pub struct SessionConfig {
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
    fn export_key(&self, ebgp: bool) -> ExportKey {
        ExportKey {
            ebgp,
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

/// What moves a [`Session`]: a message from the peer (an OPEN with its AS
/// and hold time in seconds), or a timer tick that says whether the peer is
/// reachable (transport liveness).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    Open(AsNum, u16),
    Keepalive,
    Notification,
    Update,
    Tick { reachable: bool },
}

impl Event {
    /// The event a received message is.
    pub fn of(msg: &BgpMsg) -> Event {
        match msg {
            BgpMsg::Open(open) => Event::Open(open.asn, open.hold_time_secs),
            BgpMsg::Keepalive => Event::Keepalive,
            BgpMsg::Notification(_) => Event::Notification,
            BgpMsg::Update(_) => Event::Update,
        }
    }
}

/// What one transition asks of the session's owner: the frames to send the
/// peer, in field order, and what to do with its table.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Step {
    /// A NOTIFICATION, `(code, subcode)`.
    pub notification: Option<(u8, u8)>,
    pub open: bool,
    pub keepalive: bool,
    /// The session left Established: drop every path the peer sent.
    pub flush: bool,
    /// The peer opened a new session: send it the whole table.
    pub table: bool,
    /// The UPDATE arrived on an Established session: apply it.
    pub update: bool,
}

impl Step {
    /// The frames to send, encoded, where `open` is the owner's OPEN.
    pub fn frames(self, open: &Bytes) -> impl Iterator<Item = Bytes> + '_ {
        let notification = self.notification.map(|(code, sub)| notification(code, sub));
        let open = self.open.then(|| open.clone());
        let keepalive = self.keepalive.then(|| KEEPALIVE.clone());
        notification.into_iter().chain(open).chain(keepalive)
    }
}

/// One BGP session's finite-state machine (RFC 4271 §8), moved only by
/// [`step`](Session::step): a router's engine runs one per neighbor and an
/// external feed runs one, each applying the [`Step`]s to its own table.
/// Where it departs from RFC 4271 §8.2.2, DESIGN.md names the row.
#[derive(Clone, Debug)]
pub struct Session {
    /// The AS the peer's OPEN must carry.
    remote_as: AsNum,
    state: SessionState,
    /// Hold time negotiated (min of ours and peer's).
    hold_time: SimDuration,
    last_rx: SimTime,
    last_keepalive_tx: SimTime,
    /// When Idle: next time we may retry the OPEN.
    retry_at: SimTime,
    /// State changes since the session was built (churn, for obs).
    transitions: u64,
    /// An OPEN from the peer has validated since the session was built: a
    /// bare KEEPALIVE may stand in for a *lost* OPEN, never for a rejected
    /// one (e.g. bad peer AS), or a misconfigured session could come up.
    open_seen: bool,
    /// A KEEPALIVE that overtook the peer's OPEN in OpenSent, held until
    /// the OPEN validates (the handshake completes) or a reset drops it.
    early_keepalive: bool,
}

impl Session {
    /// An Established session sends a KEEPALIVE this often.
    const KEEPALIVE: SimDuration = SimDuration::from_secs(30);
    /// A session that dropped on its own retries after this; a handshake
    /// that hears nothing for five of them falls back to Idle.
    const RETRY: SimDuration = SimDuration::from_secs(2);
    /// A session reset by a NOTIFICATION, sent or received, retries after this.
    const NOTIFIED_RETRY: SimDuration = SimDuration::from_secs(5);

    /// An Idle session with a peer in `remote_as`, ready to open.
    pub fn new(remote_as: AsNum) -> Session {
        Session {
            remote_as,
            state: SessionState::Idle,
            hold_time: SimDuration::from_secs(90),
            last_rx: SimTime::ZERO,
            last_keepalive_tx: SimTime::ZERO,
            retry_at: SimTime::ZERO,
            transitions: 0,
            open_seen: false,
            early_keepalive: false,
        }
    }

    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Moves the FSM, counting only real state changes.
    fn set_state(&mut self, new: SessionState) {
        if self.state != new {
            self.transitions += 1;
        }
        self.state = new;
    }

    /// Back to Idle, to open again no sooner than `retry_after` from `now`.
    pub fn reset(&mut self, now: SimTime, retry_after: SimDuration) {
        self.set_state(SessionState::Idle);
        self.early_keepalive = false;
        self.retry_at = now + retry_after;
    }

    /// The one transition function: `event` at `now` moves the state and
    /// timers, and the returned step says what the owner must do.
    pub fn step(&mut self, now: SimTime, event: Event) -> Step {
        use SessionState::*;
        let (was, mut step) = (self.state, Step::default());
        match (self.state, event) {
            (_, Event::Tick { reachable }) => self.tick(now, reachable, &mut step),
            (_, Event::Open(asn, _)) if asn != self.remote_as => {
                // OPEN message error, bad peer AS.
                step.notification = Some((2, 2));
                self.reset(now, Self::NOTIFIED_RETRY);
            }
            (state, Event::Open(_, hold)) => {
                self.open_seen = true;
                self.hold_time = SimDuration::from_secs(u64::from(hold.min(90)).max(3));
                // All but a duplicate OPEN get ours: a passive open from
                // Idle; in OpenSent a collision or a lossy boot, where ours
                // may never have arrived; on Established a restarted peer,
                // which gets the whole table.
                (step.open, step.keepalive) = (state != OpenConfirm, true);
                step.table = state == Established;
                if state == OpenSent && std::mem::take(&mut self.early_keepalive) {
                    step.table = true;
                    self.set_state(Established);
                } else if state != OpenConfirm {
                    self.set_state(OpenConfirm);
                }
            }
            (OpenConfirm, Event::Keepalive) => {
                step.table = true;
                self.set_state(Established);
            }
            // A KEEPALIVE says the peer took our OPEN though its own was
            // lost; until one has validated, it may be overtaking it.
            (OpenSent, Event::Keepalive) if self.open_seen => {
                (step.keepalive, step.table) = (true, true);
                self.set_state(Established);
            }
            (OpenSent, Event::Keepalive) => self.early_keepalive = true,
            (_, Event::Keepalive) => {}
            (state, Event::Update) => step.update = state == Established,
            (_, Event::Notification) => self.reset(now, Self::NOTIFIED_RETRY),
        }
        if !matches!(event, Event::Tick { .. }) {
            self.last_rx = now;
        }
        step.flush = was == Established && self.state != Established;
        step
    }

    /// Liveness and timers: the hold timer and transport reachability, the
    /// keepalive, the retry of an Idle session and a stuck handshake.
    fn tick(&mut self, now: SimTime, reachable: bool, step: &mut Step) {
        use SessionState::*;
        if self.state != Idle {
            // Losing the route to the peer tears the TCP session down, or
            // updates queued meanwhile would be lost though the Adj-RIB-Out
            // believes them delivered.
            if now.since(self.last_rx) > self.hold_time || !reachable {
                return self.reset(now, Self::RETRY);
            }
            if self.state == Established && now.since(self.last_keepalive_tx) >= Self::KEEPALIVE {
                self.last_keepalive_tx = now;
                step.keepalive = true;
            }
        } else if now >= self.retry_at {
            // Active open, or with no transport to the peer yet, a re-armed
            // retry timer so the wakeup schedule stays coarse.
            self.retry_at = now + Self::RETRY;
            if reachable {
                self.set_state(OpenSent);
                self.last_rx = now; // arm hold timer from the attempt
                step.open = true;
            }
        }
        // A handshake stuck past five retry intervals falls back to Idle so
        // we re-OPEN (covers lost messages).
        if matches!(self.state, OpenSent | OpenConfirm)
            && now.since(self.last_rx) > Self::RETRY.saturating_mul(5)
        {
            self.reset(now, Self::RETRY);
        }
    }

    /// The earliest instant after `now` at which a tick has work.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        let at = match self.state {
            SessionState::Idle => self.retry_at,
            SessionState::Established => self.last_keepalive_tx + Self::KEEPALIVE,
            _ => self.last_rx + Self::RETRY.saturating_mul(5),
        };
        at.max(SimTime(now.0 + 1))
    }
}

/// A received route (post import policy), as the table holds it.
#[derive(Clone, Debug)]
struct Path {
    attrs: Arc<BgpAttrs>,
    /// The engine's arrival number, unique among its paths: the oldest-path
    /// tiebreak, and the name a selection gives its winner.
    arrival: u32,
    /// The peer it came from.
    from: Ipv4Addr,
}

/// A prefix's received paths, one per session, in peer order: the common
/// single path inline, several in a `Vec`.
#[derive(Clone, Debug, Default)]
enum Paths {
    #[default]
    None,
    One(Path),
    Many(Vec<Path>),
}

impl Paths {
    fn as_slice(&self) -> &[Path] {
        match self {
            Paths::None => &[],
            Paths::One(path) => std::slice::from_ref(path),
            Paths::Many(paths) => paths,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Path] {
        match self {
            Paths::None => &mut [],
            Paths::One(path) => std::slice::from_mut(path),
            Paths::Many(paths) => paths,
        }
    }

    /// Puts `path` in `peer`'s place, or takes `peer`'s path out (`None`);
    /// returns the path that was there.
    fn set(&mut self, peer: Ipv4Addr, path: Option<Path>) -> Option<Path> {
        let mut many = match std::mem::take(self) {
            Paths::One(one) if one.from == peer => {
                *self = path.map_or(Paths::None, Paths::One);
                return Some(one);
            }
            Paths::None => {
                *self = path.map_or(Paths::None, Paths::One);
                return None;
            }
            Paths::One(one) if path.is_none() => {
                *self = Paths::One(one);
                return None;
            }
            Paths::One(one) => vec![one],
            Paths::Many(many) => many,
        };
        let old = match (many.binary_search_by_key(&peer, |p| p.from), path) {
            (Ok(i), Some(path)) => Some(std::mem::replace(&mut many[i], path)),
            (Ok(i), None) => Some(many.remove(i)),
            (Err(i), Some(path)) => {
                many.insert(i, path);
                None
            }
            (Err(_), None) => None,
        };
        *self = match <[Path; 1]>::try_from(many) {
            Ok([one]) => Paths::One(one),
            Err(many) => Paths::Many(many),
        };
        old
    }
}

/// One prefix in the engine's table: its received paths and what the last
/// decision selected among them and the origination.
#[derive(Clone, Debug, Default)]
struct Slot {
    paths: Paths,
    selected: Option<Winner>,
}

// A slot per prefix on every router a route reaches: the paths inline (one)
// or boxed (several), and the selection named, not copied.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

/// What the last decision selected at a prefix: the winning path by its
/// arrival ([`ORIGINATION`] for the origination), and the ECMP next-hop
/// set by its id in the table's `hop_sets`, packed with the eBGP bit into
/// one non-zero word (`id << 1 | ebgp`, plus one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Winner {
    arrival: u32,
    hops: NonZeroU32,
}

impl Winner {
    fn new(arrival: u32, hops: u32, ebgp: bool) -> Winner {
        let hops = NonZeroU32::MIN.saturating_add(hops << 1 | u32::from(ebgp));
        Winner { arrival, hops }
    }

    fn hops(self) -> u32 {
        (self.hops.get() - 1) >> 1
    }

    fn ebgp(self) -> bool {
        (self.hops.get() - 1) & 1 == 1
    }
}

thread_local! {
    /// [`Table::displaced`] buffers across decision runs: how many are in
    /// use, the widest, and no more spares than in use (a table between
    /// runs holds none); a new one starts as wide as the widest.
    static SPARES: RefCell<(usize, usize, Vec<Displaced>)> =
        const { RefCell::new((0, 0, Vec::new())) };
}

/// Displaced winners by prefix, in prefix order.
type Displaced = Vec<(Prefix, Path)>;

/// The engine's one table: a slot per prefix with a path or a selection,
/// in an arena trie (a `BTreeMap` filled in the runs an UPDATE brings is
/// half empty), and how many paths go through each next hop. An IGP move,
/// or a gateway, reads the table only when a path goes through a next hop
/// inside it: moves seldom do (none of the 1,000-router run's 99,060), and
/// a `next hop → prefixes` index would pay on every insert.
#[derive(Clone, Default)]
struct Table {
    slots: PrefixTrie<Slot>,
    next_hops: BTreeMap<Ipv4Addr, u32>,
    /// The selection's distinct ECMP next-hop sets, by id, each counting
    /// the slots that name it.
    hop_sets: Groups<Ipv4Addr>,
    /// Per prefix, the winner its peer replaced or withdrew since the last
    /// decision: the selection names it until the decision, which runs on
    /// every prefix here, names another.
    displaced: Displaced,
}

impl Table {
    /// Puts `path` in `peer`'s place at `prefix`, or takes the path there
    /// out (`None`), keeping the next-hop counts in step and the peer's
    /// count in `paths`.
    fn set(&mut self, prefix: Prefix, peer: Ipv4Addr, path: Option<Path>, paths: &mut u32) {
        let next_hop = path.as_ref().map(|p| p.attrs.next_hop);
        let slot = match next_hop {
            Some(_) => self.slots.get_or_insert_with(prefix, Slot::default).0,
            None => match self.slots.get_mut(&prefix) {
                Some(slot) => slot,
                None => return,
            },
        };
        let old = slot.paths.set(peer, path);
        let named = |old: &Path| slot.selected.is_some_and(|w| w.arrival == old.arrival);
        let old = match old {
            Some(old) if named(&old) => {
                let hop = old.attrs.next_hop;
                self.displace(prefix, old);
                Some(hop)
            }
            old => old.map(|old| old.attrs.next_hop),
        };
        *paths = (*paths + u32::from(next_hop.is_some())) - u32::from(old.is_some());
        if old == next_hop {
            return;
        }
        if let Some(hop) = next_hop {
            *self.next_hops.entry(hop).or_default() += 1;
        }
        if let Some(Entry::Occupied(mut paths)) = old.map(|hop| self.next_hops.entry(hop)) {
            *paths.get_mut() -= 1;
            if *paths.get() == 0 {
                paths.remove();
            }
        }
    }

    /// Keeps `winner`, which its peer replaced or withdrew at `prefix`,
    /// until the decision (a winner goes once: the selection names no later
    /// path), in a buffer taken from the thread's spares.
    fn displace(&mut self, prefix: Prefix, winner: Path) {
        if self.displaced.capacity() == 0 {
            self.displaced = SPARES.with_borrow_mut(|(lent, widest, spares)| {
                *lent += 1;
                spares.pop().unwrap_or_else(|| Vec::with_capacity(*widest))
            });
        }
        let at = self.displaced.partition_point(|(p, _)| *p < prefix);
        debug_assert!(self.displaced.get(at).is_none_or(|(p, _)| *p != prefix));
        self.displaced.insert(at, (prefix, winner));
    }

    /// After a decision: the displaced winners go, and their buffer back
    /// to the thread's spares unless they are as many as the buffers in use.
    fn decided(&mut self) {
        let mut spare = std::mem::take(&mut self.displaced);
        if spare.capacity() > 0 {
            spare.clear();
            SPARES.with_borrow_mut(|(lent, widest, spares)| {
                *lent = lent.saturating_sub(1);
                *widest = (*widest).max(spare.capacity());
                if spares.len() < *lent {
                    spares.push(spare);
                }
            });
        }
    }

    /// The prefixes with a path through a next hop inside `moved`: the only
    /// ones a change of the IGP view at `moved` can concern, since a
    /// longest match moves only for addresses the changed prefix contains.
    fn via_inside(&self, moved: &Prefix) -> impl Iterator<Item = Prefix> + '_ {
        let inside = Ipv4Addr::from(moved.first())..=Ipv4Addr::from(moved.last());
        let (any, moved) = (self.next_hops.range(inside).next().is_some(), *moved);
        let slots = any.then(|| self.slots.iter()).into_iter().flatten();
        let through = move |s: &Slot| {
            s.paths
                .as_slice()
                .iter()
                .any(|p| moved.contains(p.attrs.next_hop))
        };
        slots
            .filter(move |(_, s)| through(s))
            .map(|(prefix, _)| prefix)
    }

    /// Takes out every path from `peer`, the `paths` it holds; returns
    /// their prefixes. (The Adj-RIB-Out is the group's: a session that is
    /// not in sync sees none of it, and gets the whole table when it next
    /// establishes.)
    fn flush(&mut self, peer: Ipv4Addr, paths: &mut u32) -> Vec<Prefix> {
        if *paths == 0 {
            return Vec::new();
        }
        let slots = self.slots.iter();
        let from_peer = slots.filter(|(_, s)| s.paths.as_slice().iter().any(|p| p.from == peer));
        let flushed: Vec<Prefix> = from_peer.map(|(prefix, _)| prefix).collect();
        for prefix in &flushed {
            self.set(*prefix, peer, None, paths);
        }
        flushed
    }

    /// Numbers the paths 1, 2, … in their arrival order, the selection's
    /// names with them, and returns the next free number: what the engine
    /// does instead of wrapping its counter, so the oldest-path tiebreak
    /// orders the same paths the same way.
    fn renumber(&mut self) -> u32 {
        let held = self.slots.iter().flat_map(|(_, s)| s.paths.as_slice());
        let held = held.chain(self.displaced.iter().map(|(_, path)| path));
        let mut order: Vec<u32> = held.map(|p| p.arrival).collect();
        order.sort_unstable();
        let number = |i: usize| u32::try_from(i + 1).unwrap_or(u32::MAX);
        // The origination's name is no path's: it stays.
        let renumbered = |arrival: u32| order.binary_search(&arrival).map_or(arrival, number);
        for prefix in self.slots.prefixes() {
            let Some(slot) = self.slots.get_mut(&prefix) else {
                continue;
            };
            for path in slot.paths.as_mut_slice() {
                path.arrival = renumbered(path.arrival);
            }
            if let Some(won) = &mut slot.selected {
                won.arrival = renumbered(won.arrival);
            }
        }
        for (_, path) in &mut self.displaced {
            path.arrival = renumbered(path.arrival);
        }
        number(order.len())
    }
}

/// A configured neighbor: its config, its session and its export group.
#[derive(Clone)]
struct Neighbor {
    cfg: SessionConfig,
    session: Session,
    /// Index of the neighbor's [`ExportGroup`], which holds its Adj-RIB-Out.
    group: usize,
    /// Whether the IGP view reaches the peer (transport liveness); `None`
    /// until asked, and again once an IGP move covers the peer's address.
    reachable: Option<bool>,
    /// How many prefixes the engine's table holds a path from the peer for.
    paths: u32,
}

impl Neighbor {
    fn is_ebgp(&self, local_as: AsNum) -> bool {
        self.session.remote_as != local_as
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
    /// UPDATEs that overflowed a wire length field, dropped unsent.
    pub encode_errors: u64,
}

impl std::ops::AddAssign for BgpWork {
    fn add_assign(&mut self, other: BgpWork) {
        self.prefix_decisions += other.prefix_decisions;
        self.liveness_lookups += other.liveness_lookups;
        self.export_computations += other.export_computations;
        self.encode_errors += other.encode_errors;
    }
}

/// One candidate path considered by the decision process: the origination
/// or a path of the slot, borrowed.
#[derive(Clone, Copy)]
struct Candidate<'a> {
    attrs: &'a Arc<BgpAttrs>,
    from: Option<Ipv4Addr>,
    ebgp: bool,
    igp_metric: u32,
    arrival: u32,
}

impl Candidate<'_> {
    /// Whether `current`, the selection `won` names, is this candidate with
    /// `next_hops`: the same path, or the one its peer re-sent it as.
    fn is(&self, won: Winner, current: SelectedRef<'_>, next_hops: &[Ipv4Addr]) -> bool {
        let attrs: &BgpAttrs = self.attrs;
        let resent = || {
            current.learned_from == self.from
                && (std::ptr::eq(current.attrs, attrs) || *current.attrs == *attrs)
        };
        (won.arrival == self.arrival || resent())
            && current.ebgp == self.ebgp
            && current.next_hops == next_hops
    }

    fn selected(&self, next_hops: &[Ipv4Addr]) -> SelectedRoute {
        SelectedRoute {
            attrs: Arc::clone(self.attrs),
            learned_from: self.from,
            ebgp: self.ebgp,
            next_hops: next_hops.into(),
        }
    }
}

/// A route selected by the decision process, owned: the form
/// [`BgpEngine::decide_all`], the reference, answers in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectedRoute {
    pub attrs: Arc<BgpAttrs>,
    /// Peer the best path was learned from; `None` for local originations.
    pub learned_from: Option<Ipv4Addr>,
    /// Whether the winning path is eBGP-learned.
    pub ebgp: bool,
    /// All ECMP protocol next hops (best path's first).
    pub next_hops: Arc<[Ipv4Addr]>,
}

impl SelectedRoute {
    pub fn view(&self) -> SelectedRef<'_> {
        SelectedRef {
            attrs: &self.attrs,
            learned_from: self.learned_from,
            ebgp: self.ebgp,
            next_hops: &self.next_hops,
        }
    }
}

/// A selected route as [`Selection`] hands it out, borrowed from the
/// engine: the winning path's stored attributes and peer, and the
/// selection's stored next-hop set. Compares by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelectedRef<'a> {
    pub attrs: &'a BgpAttrs,
    /// Peer the best path was learned from; `None` for local originations.
    pub learned_from: Option<Ipv4Addr>,
    /// Whether the winning path is eBGP-learned.
    pub ebgp: bool,
    /// All ECMP protocol next hops (best path's first).
    pub next_hops: &'a [Ipv4Addr],
}

impl SelectedRef<'_> {
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

/// The selection as the table holds it: per prefix, the route the last
/// decision chose, read out of the prefix's slot.
#[derive(Clone, Copy)]
pub struct Selection<'a>(&'a Table);

impl<'a> Selection<'a> {
    pub fn get(self, prefix: &Prefix) -> Option<SelectedRef<'a>> {
        self.read(prefix, self.0.slots.get(prefix)?)
    }

    /// Every selected route, in prefix order.
    pub fn iter(self) -> impl Iterator<Item = (Prefix, SelectedRef<'a>)> {
        let slots = self.0.slots.iter();
        slots.filter_map(move |(p, s)| Some((p, self.read(&p, s)?)))
    }

    /// `slot`'s selection (the table's at `prefix`): the path it names is
    /// among the slot's, or displaced since the last decision.
    fn read(self, prefix: &Prefix, slot: &'a Slot) -> Option<SelectedRef<'a>> {
        let won = slot.selected?;
        let (attrs, learned_from) = match won.arrival {
            ORIGINATION => (&**ORIGINATION_ATTRS, None),
            arrival => {
                let named = |p: &&'a Path| p.arrival == arrival;
                let path = slot.paths.as_slice().iter().find(named);
                let displaced = self.0.displaced.binary_search_by_key(prefix, |(p, _)| *p);
                let displaced = displaced.ok().map(|at| &self.0.displaced[at].1);
                let path = path.or_else(|| displaced.filter(named))?;
                (&*path.attrs, Some(path.from))
            }
        };
        Some(SelectedRef {
            attrs,
            learned_from,
            ebgp: won.ebgp(),
            next_hops: self.0.hop_sets.set(won.hops()),
        })
    }
}

/// A selection equals a map of the same routes: the form
/// [`BgpEngine::decide_all`] answers in.
impl PartialEq<&BTreeMap<Prefix, SelectedRoute>> for Selection<'_> {
    fn eq(&self, other: &&BTreeMap<Prefix, SelectedRoute>) -> bool {
        self.iter().eq(other.iter().map(|(p, s)| (*p, s.view())))
    }
}

impl std::fmt::Debug for Selection<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A selection as a RIB route: what [`Fib::patch`](crate::rib::Fib::patch)
/// reads straight off the selection, for a RIB built from scratch.
fn as_rib_route(prefix: Prefix, s: SelectedRef<'_>) -> Option<RibRoute> {
    let proto = s.protocol()?;
    Some(RibRoute {
        prefix,
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
    max_paths: u8,
    quirks: Quirks,
    neighbors: BTreeMap<Ipv4Addr, Neighbor>,
    /// Every prefix's received paths and selection.
    table: Table,
    /// The Adj-RIB-Outs, one per distinct export policy among the sessions.
    groups: Vec<ExportGroup>,
    /// Every distinct attribute set this engine holds, stored once: the
    /// table and the Adj-RIB-Outs hold handles into it.
    attr_sets: InternSet<Arc<BgpAttrs>>,
    /// Locally-originated prefixes (network statements / redistribution),
    /// each originated with [`ORIGINATION_ATTRS`].
    originated: BTreeSet<Prefix>,
    route_maps: BTreeMap<String, RouteMap>,
    prefix_lists: BTreeMap<String, PrefixList>,
    /// Our OPEN, encoded once: every session is sent the same one.
    open: Bytes,
    /// Frames to transmit, each encoded where it was queued.
    out: Vec<(Ipv4Addr, Bytes)>,
    /// The next path's arrival number.
    arrival_counter: u32,
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
        quirks: Quirks,
    ) -> BgpEngine {
        let mut neighbors = BTreeMap::new();
        let mut groups: Vec<ExportGroup> = Vec::new();
        for n in &cfg.neighbors {
            let local_addr = session_local_addrs
                .get(&n.peer)
                .copied()
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let scfg = SessionConfig {
                local_addr,
                next_hop_self: n.next_hop_self,
                send_community: n.send_community,
                route_map_in: n.route_map_in.clone(),
                route_map_out: n.route_map_out.clone(),
                rr_client: n.rr_client,
                shutdown: n.shutdown,
            };
            let key = scfg.export_key(n.remote_as != cfg.asn);
            let group = groups.iter().position(|g| g.key == key).unwrap_or_else(|| {
                let table = BTreeMap::new();
                groups.push(ExportGroup { key, table });
                groups.len() - 1
            });
            let (session, reachable, paths) = (Session::new(n.remote_as), None, 0);
            let neighbor = Neighbor {
                cfg: scfg,
                session,
                group,
                reachable,
                paths,
            };
            neighbors.insert(n.peer, neighbor);
        }
        // We offer a 90 s hold time.
        let open = BgpMsg::Open(OpenMsg::new(cfg.asn, 90, router_id.0)).encode();
        BgpEngine {
            local_as: cfg.asn,
            max_paths: cfg.max_paths.max(1),
            quirks,
            neighbors,
            table: Table::default(),
            groups,
            attr_sets: InternSet::default(),
            originated: BTreeSet::new(),
            route_maps,
            prefix_lists,
            open: open.unwrap_or_default(),
            out: Vec::new(),
            arrival_counter: ORIGINATION + 1,
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
        let new: BTreeSet<Prefix> = prefixes.into_iter().collect();
        self.dirty
            .extend(self.originated.symmetric_difference(&new));
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
            self.dirty.extend(self.table.via_inside(moved));
            let inside = Ipv4Addr::from(moved.first())..=Ipv4Addr::from(moved.last());
            for (_, n) in self.neighbors.range_mut(inside) {
                n.reachable = None;
            }
        }
    }

    /// Administratively removes a session (used by failure injection).
    pub fn shutdown_session(&mut self, peer: Ipv4Addr, now: SimTime) {
        if let Some(n) = self.neighbors.get_mut(&peer) {
            n.cfg.shutdown = true;
            if n.session.state() != SessionState::Idle {
                // Cease, administrative shutdown.
                self.out.push((peer, notification(6, 2)));
            }
            n.session
                .reset(now, SimDuration::from_secs(u64::MAX / 2_000));
            self.dirty.extend(self.table.flush(peer, &mut n.paths));
        }
    }

    /// Feeds a received message into the engine. A message from an
    /// unconfigured peer (real routers would not even have a TCP listener
    /// match) or on a shut session is ignored.
    pub fn push_msg(&mut self, now: SimTime, from: Ipv4Addr, msg: BgpMsg) {
        let mut neighbors = std::mem::take(&mut self.neighbors);
        if let Some(n) = neighbors.get_mut(&from).filter(|n| !n.cfg.shutdown) {
            let step = n.session.step(now, Event::of(&msg));
            self.apply(from, n, step);
            if let (true, BgpMsg::Update(update)) = (step.update, msg) {
                self.apply_update(from, n, update);
            }
        }
        self.neighbors = neighbors;
    }

    /// Carries out what a transition of `peer`'s session asks. The caller
    /// holds the neighbors out of the engine meanwhile: a step reads and
    /// writes one neighbor and the engine's other tables.
    fn apply(&mut self, peer: Ipv4Addr, n: &mut Neighbor, step: Step) {
        if step == Step::default() {
            return; // most ticks
        }
        self.out
            .extend(step.frames(&self.open).map(|frame| (peer, frame)));
        if step.flush {
            self.dirty.extend(self.table.flush(peer, &mut n.paths));
        }
        if step.table {
            self.full_advert_peers.insert(peer);
        }
    }

    fn apply_update(&mut self, from: Ipv4Addr, n: &mut Neighbor, update: UpdateMsg) {
        for p in &update.withdrawn {
            self.table.set(*p, from, None, &mut n.paths);
            self.dirty.insert(*p);
        }
        if update.nlri.is_empty() {
            return;
        }
        let ebgp = n.is_ebgp(self.local_as);
        let as_path = update.as_path().cloned().unwrap_or_default();
        // eBGP loop prevention: our AS in the path means discard.
        if ebgp && as_path.contains(self.local_as) {
            // A looped replacement of a route this peer offered earlier
            // withdraws it (RFC 4271), so the decision must run again.
            for p in &update.nlri {
                self.table.set(*p, from, None, &mut n.paths);
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
        let rm_in = n.cfg.route_map_in.clone();
        // Arrival numbers never wrap: one that would pass `u32::MAX`
        // renumbers the table first.
        let nlri = u32::try_from(update.nlri.len()).unwrap_or(u32::MAX);
        if self.arrival_counter.checked_add(nlri).is_none() {
            self.arrival_counter = self.table.renumber();
        }
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
                self.table.set(*prefix, from, None, &mut n.paths);
                continue;
            };
            let arrival = arrival_base + accepted;
            let path = Path {
                attrs,
                arrival,
                from,
            };
            self.table.set(*prefix, from, Some(path), &mut n.paths);
            accepted += 1;
            self.arrival_counter = arrival_base + i as u32 + 1;
        }
    }

    /// Advances timers, runs the decision process, and generates updates.
    /// Returns the frames to deliver, by peer.
    pub fn poll(&mut self, now: SimTime, resolver: &dyn NextHopResolver) -> Vec<(Ipv4Addr, Bytes)> {
        // 1. Session liveness: hold timer + transport reachability.
        let mut neighbors = std::mem::take(&mut self.neighbors);
        for (peer, n) in neighbors.iter_mut().filter(|(_, n)| !n.cfg.shutdown) {
            let work = &mut self.work;
            let reachable = *n.reachable.get_or_insert_with(|| {
                work.liveness_lookups += 1;
                reaches(resolver, *peer)
            });
            debug_assert_eq!(
                reachable,
                reaches(resolver, *peer),
                "the IGP view moved at {peer} unannounced"
            );
            let step = n.session.step(now, Event::Tick { reachable });
            self.apply(*peer, n, step);
        }
        self.neighbors = neighbors;

        // 2 + 3. Decision process and update generation, scoped to the
        // prefixes whose inputs changed.
        let scope = std::mem::take(&mut self.dirty);
        let full_advert = std::mem::take(&mut self.full_advert_peers);
        if !scope.is_empty() || !full_advert.is_empty() {
            self.run_decision(resolver, &scope);
            self.generate_updates(&scope, &full_advert);
        }

        std::mem::take(&mut self.out)
    }

    /// The earliest time at which a timer needs servicing.
    pub fn next_wakeup(&self, now: SimTime) -> SimTime {
        let live = self.neighbors.values().filter(|n| !n.cfg.shutdown);
        let wakeups = live.map(|n| n.session.next_wakeup(now));
        wakeups.fold(now + Session::KEEPALIVE, SimTime::min)
    }

    /// Total FSM state changes across all sessions since the engine was
    /// built (session churn, for the observability layer).
    pub fn session_transitions(&self) -> u64 {
        self.neighbors.values().map(|n| n.session.transitions).sum()
    }

    /// The currently selected BGP routes, as RIB candidates: the reference
    /// a router's FIB, which reads the selection itself, is held to.
    pub fn rib_routes(&self) -> Vec<RibRoute> {
        let selection = self.selected().iter();
        selection.filter_map(|(p, s)| as_rib_route(p, s)).collect()
    }

    /// The prefixes with a received route whose next hop is `next_hop`:
    /// every prefix whose selection can go through it, and more.
    pub fn prefixes_via(&self, next_hop: Ipv4Addr) -> impl Iterator<Item = Prefix> + '_ {
        self.table.via_inside(&Prefix::host(next_hop))
    }

    /// The full selection (including local originations), read in place.
    pub fn selected(&self) -> Selection<'_> {
        Selection(&self.table)
    }

    /// Introspection for heap accounting (`experiments -- heap`): copies of
    /// the table's slots, of its next-hop counts, and of the Adj-RIB-Outs.
    pub fn table_copies(&self) -> (impl Sized, impl Sized, impl Sized) {
        let outs = self.groups.iter().map(|g| g.table.clone());
        let table = &self.table;
        (
            table.slots.clone(),
            table.next_hops.clone(),
            outs.collect::<Vec<_>>(),
        )
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
            .neighbors
            .iter()
            .filter_map(|(p, n)| Some((*p, n.reachable?)));
        known
            .filter(|(peer, reachable)| *reachable != reaches(resolver, *peer))
            .map(|(peer, _)| peer)
            .collect()
    }

    /// Introspection: per-neighbor summaries. `prefixes_sent` counts the
    /// entries of the group's Adj-RIB-Out the peer sees, and is 0 for a
    /// session that is not in sync with it.
    pub fn summaries(&self) -> impl Iterator<Item = NeighborSummary> + '_ {
        self.neighbors.iter().map(|(peer, n)| {
            let state = n.session.state();
            let in_sync =
                state == SessionState::Established && !self.full_advert_peers.contains(peer);
            let table = self.groups[n.group].table.values();
            let seen = table.filter(|a| a.learned_from != Some(*peer));
            NeighborSummary {
                peer: *peer,
                remote_as: n.session.remote_as,
                state,
                prefixes_received: n.paths as usize,
                prefixes_sent: if in_sync { seen.count() } else { 0 },
            }
        })
    }

    pub fn session_state(&self, peer: Ipv4Addr) -> Option<SessionState> {
        self.neighbors.get(&peer).map(|n| n.session.state())
    }

    /// RFC 4271 §9.1.2.2 best-path selection over one prefix's candidates
    /// — its origination, then its slot's paths in peer order — with the
    /// engine's vendor quirks applied; `next_hops` receives the winner's
    /// next hop and its ECMP peers'. `igp_costs` holds what the resolver
    /// answered for each next hop earlier in the same batch of decisions:
    /// the IGP view cannot move inside one, so each next hop is asked once.
    fn best<'a>(
        &'a self,
        prefix: &Prefix,
        slot: Option<&'a Slot>,
        resolver: &dyn NextHopResolver,
        igp_costs: &mut BTreeMap<Ipv4Addr, Option<u32>>,
        next_hops: &mut Vec<Ipv4Addr>,
    ) -> Option<Candidate<'a>> {
        let paths = slot.map_or(&[][..], |s| s.paths.as_slice());
        for path in paths {
            // Next hop must resolve through the IGP (not default).
            let next_hop = path.attrs.next_hop;
            igp_costs
                .entry(next_hop)
                .or_insert_with(|| resolver.igp_metric(next_hop));
        }
        let origination = self.originated.contains(prefix).then(|| Candidate {
            attrs: &ORIGINATION_ATTRS,
            from: None,
            ebgp: false,
            igp_metric: 0,
            arrival: ORIGINATION,
        });
        let learned = paths.iter().filter_map(|path| {
            let n = self.neighbors.get(&path.from)?;
            (n.session.state() == SessionState::Established).then_some(())?;
            Some(Candidate {
                attrs: &path.attrs,
                from: Some(path.from),
                ebgp: n.is_ebgp(self.local_as),
                igp_metric: igp_costs[&path.attrs.next_hop]?,
                arrival: path.arrival,
            })
        });
        let cands = origination.into_iter().chain(learned);
        let quirks = self.quirks;
        let (best_idx, best) = cands.clone().enumerate().min_by(|(_, a), (_, b)| {
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
                .then_with(|| a.from.map(u32::from).cmp(&b.from.map(u32::from)))
        })?;

        // ECMP: additional paths equal through step 7.
        next_hops.clear();
        next_hops.push(best.attrs.next_hop);
        let max_paths = self.max_paths as usize;
        for (_, c) in cands.enumerate().filter(|(i, _)| *i != best_idx) {
            if next_hops.len() >= max_paths {
                break;
            }
            let same_first_as = c.attrs.as_path.first_as() == best.attrs.as_path.first_as();
            let equal = c.attrs.local_pref.unwrap_or(100) == best.attrs.local_pref.unwrap_or(100)
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
        Some(best)
    }

    /// Recomputes the decision for the `scope` prefixes, in their slots: a
    /// winner equal to the slot's selection only renames it (a path its
    /// peer re-sent), and a slot left with neither paths nor a selection
    /// goes. The selection's winners are named by arrival, never by their
    /// place in the slot, which an insert in peer order shifts.
    fn run_decision(&mut self, resolver: &dyn NextHopResolver, scope: &BTreeSet<Prefix>) {
        self.work.prefix_decisions += scope.len() as u64;
        let (mut igp_costs, mut next_hops) = (BTreeMap::new(), Vec::new());
        for prefix in scope {
            let slot = self.table.slots.get(prefix);
            let best = self.best(prefix, slot, resolver, &mut igp_costs, &mut next_hops);
            let pathless = slot.is_some_and(|s| s.paths.as_slice().is_empty());
            let won = slot.and_then(|s| s.selected);
            let current = slot.and_then(|s| self.selected().read(prefix, s));
            let changed = match (won.zip(current), best) {
                (Some((won, current)), Some(best)) => !best.is(won, current, &next_hops),
                (current, best) => current.is_some() || best.is_some(),
            };
            let best = best.map(|b| (b.arrival, b.ebgp));
            let hop_sets = &mut self.table.hop_sets;
            if let Some(won) = won.filter(|_| changed) {
                hop_sets.count(won.hops(), -1);
            }
            let new = best.map(|(arrival, ebgp)| {
                let hops = match won.filter(|_| !changed) {
                    Some(won) => won.hops(),
                    None => {
                        let id = hop_sets.intern(&next_hops[..]);
                        hop_sets.count(id, 1);
                        id
                    }
                };
                Winner::new(arrival, hops, ebgp)
            });
            if pathless && new.is_none() {
                self.table.slots.remove(prefix);
            } else if new != won {
                let (slot, _) = self.table.slots.get_or_insert_with(*prefix, Slot::default);
                slot.selected = new;
            }
            if changed {
                self.selection_delta.insert(*prefix);
            }
        }
        self.table.hop_sets.sweep();
        debug_assert!(self.table.displaced.iter().all(|(p, _)| scope.contains(p)));
        self.table.decided();
    }

    /// The decision over every prefix with any candidate, from scratch:
    /// the reference [`selected`](Self::selected) — maintained per dirty
    /// prefix — is held to.
    pub fn decide_all(&self, resolver: &dyn NextHopResolver) -> BTreeMap<Prefix, SelectedRoute> {
        let slots = self.table.slots.iter().map(|(p, _)| p);
        let all: BTreeSet<Prefix> = self.originated.iter().copied().chain(slots).collect();
        let (mut igp_costs, mut next_hops) = (BTreeMap::new(), Vec::new());
        all.into_iter()
            .filter_map(|p| {
                let slot = self.table.slots.get(&p);
                let best = self.best(&p, slot, resolver, &mut igp_costs, &mut next_hops)?;
                Some((p, best.selected(&next_hops)))
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

    /// What the sessions of the group keyed `key` advertise for `route` to
    /// `prefix` (all but the peer it was learned from), or `None` when
    /// export rules or policy suppress it.
    fn export(
        prefix: &Prefix,
        route: SelectedRef<'_>,
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

        let mut attrs = route.attrs.clone();
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
                Some(rm) => match eval_route_map(rm, prefix_lists, prefix, &attrs) {
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
            neighbors,
            groups,
            table,
            attr_sets,
            route_maps,
            prefix_lists,
            out,
            work,
            ..
        } = self;
        let (local_as, emit) = (self.local_as, self.quirks.emit_unusual_attr);
        let mut in_sync = vec![false; groups.len()];
        let mut joining = vec![false; groups.len()];
        for (peer, n) in neighbors.iter() {
            if n.session.state() == SessionState::Established {
                match full_advert.contains(peer) {
                    true => joining[n.group] = true,
                    false => in_sync[n.group] = true,
                }
            }
        }
        let selected = Selection(table);
        let mut advert =
            |key: &ExportKey, prefix: &Prefix, route: SelectedRef<'_>, old: Option<&Advert>| {
                let learned_from = route.learned_from;
                // RR-client provenance, read off the session the route came in on.
                let from_client = learned_from
                    .and_then(|p| neighbors.get(&p))
                    .is_some_and(|n| n.cfg.rr_client);
                let (maps, lists) = (&*route_maps, &*prefix_lists);
                let attrs = Self::export(prefix, route, key, from_client, local_as, maps, lists)?;
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
                    for (prefix, route) in selected.iter() {
                        work.export_computations += 1;
                        if let Some(new) = advert(&group.key, &prefix, route, None) {
                            group.table.insert(prefix, new);
                        }
                    }
                }
            } else {
                work.export_computations += scope.len() as u64;
                for prefix in scope {
                    let old = group.table.get(prefix);
                    let new = selected
                        .get(prefix)
                        .and_then(|route| advert(&group.key, prefix, route, old));
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

        // The members in sync and not excepted share one encoding.
        let mut shared: Vec<Option<Vec<Bytes>>> = vec![None; groups.len()];
        for (peer, n) in neighbors.iter() {
            if n.session.state() != SessionState::Established {
                continue;
            }
            let (changes, excepted) = &moved[n.group];
            let own;
            let frames = if full_advert.contains(peer) {
                let table = groups[n.group].table.iter();
                let seen = table.filter_map(|(prefix, advert)| {
                    Some((*prefix, Advert::seen_by(Some(advert), Some(*peer))?.clone()))
                });
                own = pack_updates(Vec::new(), seen.collect(), emit, work);
                &own
            } else if changes.is_empty() {
                continue;
            } else if excepted.contains(peer) {
                own = member_updates(changes, Some(*peer), emit, work);
                &own
            } else {
                shared[n.group].get_or_insert_with(|| member_updates(changes, None, emit, work))
            };
            out.extend(frames.iter().map(|frame| (*peer, frame.clone())));
        }
    }

    /// The Cease (administrative reset) for every session that is up, by
    /// peer: what a config replace sends before it drops the engine, with
    /// whatever else the engine had queued.
    pub fn ceases(&self) -> Vec<(Ipv4Addr, Bytes)> {
        let up = self
            .neighbors
            .iter()
            .filter(|(_, n)| n.session.state() != SessionState::Idle);
        up.map(|(peer, _)| (*peer, notification(6, 4))).collect()
    }
}

/// A NOTIFICATION without data, encoded.
fn notification(code: u8, subcode: u8) -> Bytes {
    let data = Bytes::new();
    let msg = BgpMsg::Notification(NotificationMsg {
        code,
        subcode,
        data,
    });
    msg.encode().unwrap_or_default()
}

/// The UPDATEs that take `viewer` from the old entries of `changes` to the
/// new ones, as it sees them.
fn member_updates(
    changes: &[Change],
    viewer: Option<Ipv4Addr>,
    emit: Option<u8>,
    work: &mut BgpWork,
) -> Vec<Bytes> {
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
    pack_updates(withdrawals, announcements, emit, work)
}

/// One peer's UPDATE frames: withdrawals first, then announcements, each
/// announcement with the `emit` attribute of [`Quirks::emit_unusual_attr`].
fn pack_updates(
    withdrawals: Vec<Prefix>,
    announcements: Vec<(Prefix, Arc<BgpAttrs>)>,
    emit: Option<u8>,
    work: &mut BgpWork,
) -> Vec<Bytes> {
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
        if let Some(tag) = emit {
            let tagged = wire_attrs
                .iter()
                .any(|a| matches!(a, PathAttr::Unknown { type_code, .. } if *type_code == tag));
            if !tagged {
                wire_attrs.push(PathAttr::Unknown {
                    flags: mfv_wire::bgp::FLAG_OPTIONAL | mfv_wire::bgp::FLAG_TRANSITIVE,
                    type_code: tag,
                    value: Bytes::from_static(&[0x00]),
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
    // One that overflows a wire length field is dropped, and counted,
    // rather than truncated into a frame the peer would misparse.
    let frames = msgs.iter().map(BgpMsg::encode);
    frames
        .filter_map(|frame| frame.map_err(|_| work.encode_errors += 1).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::BgpNeighborConfig;

    /// A resolver over a fixed table.
    #[derive(Default, Clone, Debug)]
    struct TableResolver(BTreeMap<Ipv4Addr, u32>);

    impl NextHopResolver for TableResolver {
        fn igp_metric(&self, ip: Ipv4Addr) -> Option<u32> {
            self.0.get(&ip).copied()
        }
    }

    /// The frames of a poll, decoded.
    fn decoded(out: Vec<(Ipv4Addr, Bytes)>) -> Vec<(Ipv4Addr, BgpMsg)> {
        let decode =
            |(peer, mut frame): (Ipv4Addr, Bytes)| (peer, BgpMsg::decode(&mut frame).unwrap());
        out.into_iter().map(decode).collect()
    }

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
                Quirks::default(),
            );
            let b = BgpEngine::new(
                &cfg_b,
                RouterId(ip("2.2.2.2")),
                &locals_b,
                BTreeMap::new(),
                BTreeMap::new(),
                Quirks::default(),
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
                let out_a = decoded(self.a.poll(self.now, &self.resolver));
                let out_b = decoded(self.b.poll(self.now, &self.resolver));
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
        assert_eq!(*routes[0].next_hops, [NextHop::Via(ip("10.0.0.1"))]);
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
        let out = decoded(pair.a.poll(pair.now, &pair.resolver.clone()));
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
            Quirks::default(),
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
        let build = |quirks: Quirks| {
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
            let selected = engine.selected().get(&pfx("203.0.113.0/24"));
            selected.unwrap().learned_from
        };

        let correct = build(Quirks::default());
        assert_eq!(correct, Some(ip("2.2.2.1")), "nearest exit wins");

        let buggy = build(Quirks {
            ibgp_igp_metric_inverted: true,
            ..Quirks::default()
        });
        assert_eq!(
            buggy,
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
            Quirks::default(),
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
        let sel = engine.selected().get(&pfx("203.0.113.0/24")).unwrap();
        assert_eq!(sel.attrs.med, Some(10));
        assert_eq!(*sel.next_hops, [peers[0], peers[2]]);
        assert_eq!(engine.selected(), &engine.decide_all(&resolver));
    }

    #[test]
    fn neighbor_summaries_report_counts() {
        let mut pair = Pair::new_ebgp();
        pair.a
            .set_originated([pfx("203.0.113.0/24"), pfx("198.51.100.0/24")]);
        pair.settle();
        let sums: Vec<_> = pair.a.summaries().collect();
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].state, SessionState::Established);
        assert_eq!(sums[0].prefixes_sent, 2);
        let sums_b: Vec<_> = pair.b.summaries().collect();
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
        assert!(pair.b.selected().iter().next().is_none());
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
            Quirks::default(),
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
        assert_eq!(engine.selected().get(&p).unwrap().learned_from, Some(a));

        // The replacement's path is too long for SHORT: denied, and the
        // route it replaces goes with it.
        engine.push_msg(now, a, announce(&[65001, 65009, 65010], a, vec![p]));
        let _ = engine.poll(now, &resolver);
        assert!(engine.selected().iter().next().is_none());
        assert_eq!(engine.selected(), &engine.decide_all(&resolver));

        // A permitted re-offer comes back; nothing passes a missing map.
        engine.push_msg(now, a, announce(&[65001], a, vec![p]));
        engine.push_msg(now, b, announce(&[65002], b, vec![p]));
        let _ = engine.poll(now, &resolver);
        assert_eq!(engine.selected().get(&p).unwrap().learned_from, Some(a));
        assert_eq!(engine.selected(), &engine.decide_all(&resolver));
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
            Quirks::default(),
        );
        (engine, resolver)
    }

    #[test]
    fn a_group_in_sync_shares_one_encoding_of_each_update() {
        // A reflector whose vendor tags what it sends with attribute 213,
        // and five clients in sync. Clients 1 and 2 announce routes, the
        // second of client 1's already carrying a foreign 213.
        let clients: Vec<Ipv4Addr> = (1..=5).map(|i| Ipv4Addr::new(1, 1, 1, i)).collect();
        let (mut rr, resolver) = ibgp_engine("9.9.9.9", &clients, true);
        rr.quirks.emit_unusual_attr = Some(213);
        let now = SimTime(1000);
        for c in &clients {
            establish(&mut rr, now, *c, &resolver);
        }
        assert!(rr
            .poll(now, &resolver)
            .iter()
            .all(|(_, f)| f[18] != mfv_wire::bgp::TYPE_UPDATE));
        let foreign = PathAttr::Unknown {
            flags: mfv_wire::bgp::FLAG_OPTIONAL | mfv_wire::bgp::FLAG_TRANSITIVE,
            type_code: 213,
            value: bytes::Bytes::from_static(&[1, 2, 3]),
        };
        let BgpMsg::Update(mut tagged) = announce(&[65100], clients[0], vec![pfx("10.2.0.0/24")])
        else {
            unreachable!()
        };
        tagged.attrs.push(foreign);
        rr.push_msg(
            now,
            clients[0],
            announce(&[65100], clients[0], vec![pfx("10.1.0.0/24")]),
        );
        rr.push_msg(now, clients[0], BgpMsg::Update(tagged));
        rr.push_msg(
            now,
            clients[1],
            announce(&[65200], clients[1], vec![pfx("10.3.0.0/24")]),
        );
        let out = rr.poll(now, &resolver);
        let sent = |peer: Ipv4Addr| -> Vec<Bytes> {
            let to_peer = out.iter().filter(|(p, _)| *p == peer);
            to_peer.map(|(_, frame)| frame.clone()).collect()
        };
        let nlri = |frames: &[Bytes]| -> BTreeSet<Prefix> {
            let msgs = decoded(frames.iter().map(|f| (ip("0.0.0.0"), f.clone())).collect());
            let updates = msgs.into_iter().filter_map(|(_, m)| match m {
                BgpMsg::Update(u) => Some(u.nlri),
                _ => None,
            });
            updates.flatten().collect()
        };

        // Clients 3 to 5 are sent one encoding of each UPDATE.
        let shared = sent(clients[2]);
        assert_eq!(nlri(&shared).len(), 3);
        for c in &clients[3..] {
            let same: Vec<*const u8> = sent(*c).iter().map(|f| f.as_ptr()).collect();
            assert_eq!(same, shared.iter().map(|f| f.as_ptr()).collect::<Vec<_>>());
        }
        // A member a route came from is sent its own encoding, without it.
        for (c, others) in [
            (clients[0], vec!["10.3.0.0/24"]),
            (clients[1], vec!["10.1.0.0/24", "10.2.0.0/24"]),
        ] {
            let own = sent(c);
            assert!(own
                .iter()
                .all(|f| shared.iter().all(|s| s.as_ptr() != f.as_ptr())));
            assert_eq!(nlri(&own), others.into_iter().map(pfx).collect());
        }
        // Every UPDATE with NLRI carries attribute 213 exactly once: the
        // quirk's, or the propagated foreign one it leaves alone.
        for (_, msg) in decoded(out.clone()) {
            let BgpMsg::Update(u) = msg else { continue };
            let tags: Vec<&PathAttr> = u.attrs.iter().filter(|a| a.type_code() == 213).collect();
            assert_eq!(tags.len(), usize::from(!u.nlri.is_empty()), "{u:?}");
            if let [PathAttr::Unknown { value, .. }] = tags[..] {
                let foreign = u.nlri.contains(&pfx("10.2.0.0/24"));
                assert_eq!(&value[..], if foreign { &[1, 2, 3][..] } else { &[0][..] });
            }
        }
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

    /// Two engines see the same UPDATEs, one with its arrival counter
    /// started just short of `u32::MAX`: the UPDATE that would pass it
    /// renumbers the table first, a winner its peer just replaced
    /// included, and from then on the oldest-path tiebreak, which picks a
    /// higher peer over a lower one here, picks as on the engine that never
    /// came near the limit.
    #[test]
    fn an_arrival_past_u32_max_renumbers_the_table_in_order() {
        let peers: Vec<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(1, 1, 1, i)).collect();
        let (mut fresh, resolver) = ibgp_engine("9.9.9.9", &peers, false);
        let now = SimTime(1000);
        for peer in &peers {
            establish(&mut fresh, now, *peer, &resolver);
        }
        let mut late = fresh.clone();
        // The first round's nine arrivals and the next UPDATE's three fit.
        let start = u32::MAX - 13;
        late.arrival_counter = start;
        let prefixes: Vec<Prefix> = (0..3).map(|j| pfx(&format!("100.0.{j}.0/24"))).collect();
        // (peer, announce or withdraw), one poll per round; every path ties
        // through step 7, so the oldest wins.
        let rounds: [&[(usize, bool)]; 6] = [
            &[(0, true), (1, true), (2, true)],
            // Peer 0 replaces the winner, peer 1 passes the limit.
            &[(0, true), (1, true), (2, true)],
            &[(2, true), (1, true)],
            // Peer 2's path is older than peer 1's.
            &[(0, false)],
            &[(0, true)],
            &[(2, false), (2, true)],
        ];
        for round in rounds {
            for &(i, announces) in round {
                let (peer, nlri) = (peers[i], prefixes.clone());
                let msg = match announces {
                    true => announce(&[65100 + i as u32, 64999], peer, nlri),
                    false => BgpMsg::Update(UpdateMsg::withdraw(nlri)),
                };
                fresh.push_msg(now, peer, msg.clone());
                late.push_msg(now, peer, msg);
            }
            let _ = (fresh.poll(now, &resolver), late.poll(now, &resolver));
            let decided = late.decide_all(&resolver);
            assert_eq!(late.selected(), &decided);
            assert_eq!(decided, fresh.decide_all(&resolver));
            assert_eq!(late.take_selection_delta(), fresh.take_selection_delta());
        }
        let winner = late.selected().get(&prefixes[0]).map(|s| s.learned_from);
        assert_eq!(winner, Some(Some(peers[1])));
        assert!(late.arrival_counter < start, "the counter was renumbered");
    }

    /// Every attribute handle an engine's tables hold.
    fn held_handles(engine: &BgpEngine) -> Vec<&Arc<BgpAttrs>> {
        let slots = engine.table.slots.iter();
        let groups = engine.groups.iter();
        slots
            .flat_map(|(_, s)| s.paths.as_slice().iter().map(|p| &p.attrs))
            .chain(groups.flat_map(|g| g.table.values().map(|a| &a.attrs)))
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
        let out = decoded(rr.poll(now, &resolver));
        assert_eq!(rr.selected().iter().count(), 1250);
        let handles = held_handles(&rr);
        // 1,250 received + 1,250 reflected (a selection names its winner
        // and holds no handle): the five clients share one Adj-RIB-Out, of
        // which each sees 1,000 entries.
        assert_eq!(handles.len(), 2500);
        assert_eq!(rr.groups.len(), 1);
        assert!(rr.summaries().all(|s| s.prefixes_sent == 1000));
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
        assert_eq!(client.selected().iter().count(), 1000);
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
        assert_eq!(rr.selected().iter().count(), 1250);
        let live = distinct_and_shared(&held_handles(&rr));
        assert_eq!(live, 25);
        assert!(
            rr.attr_sets() <= 2 * live + 64,
            "{} sets stored for {live} live",
            rr.attr_sets()
        );
    }

    /// Where a conformance row starts: a session state, with OpenSent split
    /// by what the machine remembers there.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Start {
        Idle,
        OpenSent,
        /// OpenSent again, an OPEN from the peer having validated before.
        OpenSentValidated,
        /// OpenSent with a KEEPALIVE latched.
        OpenSentLatched,
        OpenConfirm,
        Established,
    }

    /// A conformance row's event: a message, or a tick at which one timer
    /// (or none) is due, or the peer is unreachable.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Ev {
        Open,
        BadOpen,
        Keepalive,
        Notification,
        Update,
        Quiet,
        RetryDue,
        HoldExpires,
        KeepaliveDue,
        Unreachable,
    }

    const PEER_AS: AsNum = AsNum(65002);

    impl Start {
        const ALL: [Start; 6] = [
            Start::Idle,
            Start::OpenSent,
            Start::OpenSentValidated,
            Start::OpenSentLatched,
            Start::OpenConfirm,
            Start::Established,
        ];

        fn state(self) -> SessionState {
            match self {
                Start::Idle => SessionState::Idle,
                Start::OpenConfirm => SessionState::OpenConfirm,
                Start::Established => SessionState::Established,
                _ => SessionState::OpenSent,
            }
        }

        /// A session here at `now`, every timer just restarted.
        fn session(self, now: SimTime) -> Session {
            Session {
                state: self.state(),
                open_seen: !matches!(self, Start::Idle | Start::OpenSent | Start::OpenSentLatched),
                early_keepalive: self == Start::OpenSentLatched,
                last_rx: now,
                last_keepalive_tx: now,
                retry_at: now + SimDuration::from_secs(1),
                ..Session::new(PEER_AS)
            }
        }
    }

    impl Ev {
        const ALL: [Ev; 10] = [
            Ev::Open,
            Ev::BadOpen,
            Ev::Keepalive,
            Ev::Notification,
            Ev::Update,
            Ev::Quiet,
            Ev::RetryDue,
            Ev::HoldExpires,
            Ev::KeepaliveDue,
            Ev::Unreachable,
        ];

        /// Delivers the event to `s` at `now`.
        fn fire(self, s: &mut Session, now: SimTime) -> Step {
            let open = |asn| Event::Open(asn, 90);
            let tick = Event::Tick { reachable: true };
            match self {
                Ev::Open => s.step(now, open(PEER_AS)),
                Ev::BadOpen => s.step(now, open(AsNum(65999))),
                Ev::Keepalive => s.step(now, Event::Keepalive),
                Ev::Notification => s.step(now, Event::Notification),
                Ev::Update => s.step(now, Event::Update),
                Ev::Quiet => s.step(now, tick),
                Ev::RetryDue => {
                    s.retry_at = now;
                    s.step(now, tick)
                }
                Ev::HoldExpires => {
                    s.last_rx = SimTime::ZERO;
                    s.step(now, tick)
                }
                Ev::KeepaliveDue => {
                    s.last_keepalive_tx = SimTime::ZERO;
                    s.step(now, tick)
                }
                Ev::Unreachable => s.step(now, Event::Tick { reachable: false }),
            }
        }
    }

    /// A row's outcome: the state, and what the step does, in words
    /// (`open`, `keepalive`, `flush`, `table`, `update`, `notify<code>/<sub>`).
    fn outcome(state: SessionState, does: &str) -> (SessionState, Step) {
        let mut step = Step::default();
        for word in does.split_whitespace() {
            match word {
                "open" => step.open = true,
                "keepalive" => step.keepalive = true,
                "flush" => step.flush = true,
                "table" => step.table = true,
                "update" => step.update = true,
                notify => {
                    let code = notify
                        .strip_prefix("notify")
                        .unwrap()
                        .split_once('/')
                        .unwrap();
                    step.notification = Some((code.0.parse().unwrap(), code.1.parse().unwrap()));
                }
            }
        }
        (state, step)
    }

    /// RFC 4271 §8.2.2's row for `start` and `ev`, a message arriving on the
    /// connection the state implies; `None` where the RFC moves to Connect
    /// or Active. Any way down from Established flushes the peer's routes,
    /// and coming up sends the whole table (§9.1).
    fn rfc(start: Start, ev: Ev) -> Option<(SessionState, Step)> {
        use SessionState::*;
        let state = start.state();
        let flush = if state == Established { "flush" } else { "" };
        let down = |notify: &str| outcome(Idle, &format!("{notify} {flush}"));
        Some(match (state, ev) {
            (Idle, Ev::RetryDue) | (OpenSent, Ev::Unreachable) => return None,
            (Idle, _) => outcome(Idle, ""),
            (_, Ev::BadOpen) => down("notify2/2"),
            (_, Ev::Notification | Ev::Unreachable) => down(""),
            (_, Ev::HoldExpires) => down("notify4/0"),
            (OpenSent, Ev::Open) => outcome(OpenConfirm, "keepalive"),
            // Collision resolution closes one of the two connections.
            (OpenConfirm, Ev::Open) => down("notify6/7"),
            (OpenConfirm, Ev::Keepalive) => outcome(Established, "table"),
            (Established, Ev::Keepalive) => outcome(Established, ""),
            (Established, Ev::Update) => outcome(Established, "update"),
            // Any other message is a finite-state-machine error.
            (_, Ev::Open | Ev::Keepalive | Ev::Update) => down("notify5/0"),
            (OpenConfirm | Established, Ev::KeepaliveDue) => outcome(state, "keepalive"),
            (_, Ev::Quiet | Ev::RetryDue | Ev::KeepaliveDue) => outcome(state, ""),
        })
    }

    /// A deviation's row: where it starts, the event, and what the machine
    /// does there, as [`outcome`] reads it.
    type Row = (Start, Ev, SessionState, &'static str);

    /// The machine's departures from [`rfc`], by the name DESIGN.md lists
    /// them under, each with its rows.
    const DEVIATIONS: &[(&str, &[Row])] = {
        use SessionState::*;
        const OPEN_SENT: [Start; 3] = [
            Start::OpenSent,
            Start::OpenSentValidated,
            Start::OpenSentLatched,
        ];
        &[
            (
                "Connect and Active folded into Idle",
                &[
                    (Start::Idle, Ev::RetryDue, OpenSent, "open"),
                    (Start::Idle, Ev::Open, OpenConfirm, "open keepalive"),
                    (Start::Idle, Ev::BadOpen, Idle, "notify2/2"),
                    (OPEN_SENT[0], Ev::Unreachable, Idle, ""),
                    (OPEN_SENT[1], Ev::Unreachable, Idle, ""),
                    (OPEN_SENT[2], Ev::Unreachable, Idle, ""),
                ],
            ),
            (
                "lossy KEEPALIVE in OpenSent",
                &[(
                    Start::OpenSentValidated,
                    Ev::Keepalive,
                    Established,
                    "keepalive table",
                )],
            ),
            (
                "early KEEPALIVE latched",
                &[
                    (Start::OpenSent, Ev::Keepalive, OpenSent, ""),
                    (Start::OpenSentLatched, Ev::Keepalive, OpenSent, ""),
                    (
                        Start::OpenSentLatched,
                        Ev::Open,
                        Established,
                        "open keepalive table",
                    ),
                ],
            ),
            (
                "OPEN resent in OpenSent",
                &[
                    (Start::OpenSent, Ev::Open, OpenConfirm, "open keepalive"),
                    (
                        Start::OpenSentValidated,
                        Ev::Open,
                        OpenConfirm,
                        "open keepalive",
                    ),
                ],
            ),
            (
                "duplicate OPEN in OpenConfirm",
                &[(Start::OpenConfirm, Ev::Open, OpenConfirm, "keepalive")],
            ),
            (
                "OPEN on Established is a restart",
                &[(
                    Start::Established,
                    Ev::Open,
                    OpenConfirm,
                    "open keepalive flush table",
                )],
            ),
            (
                "UPDATE before Established ignored",
                &[
                    (OPEN_SENT[0], Ev::Update, OpenSent, ""),
                    (OPEN_SENT[1], Ev::Update, OpenSent, ""),
                    (OPEN_SENT[2], Ev::Update, OpenSent, ""),
                    (Start::OpenConfirm, Ev::Update, OpenConfirm, ""),
                ],
            ),
            (
                "silent expiry",
                &[
                    (OPEN_SENT[0], Ev::HoldExpires, Idle, ""),
                    (OPEN_SENT[1], Ev::HoldExpires, Idle, ""),
                    (OPEN_SENT[2], Ev::HoldExpires, Idle, ""),
                    (Start::OpenConfirm, Ev::HoldExpires, Idle, ""),
                    (Start::Established, Ev::HoldExpires, Idle, "flush"),
                ],
            ),
            (
                "no KEEPALIVE before Established",
                &[(Start::OpenConfirm, Ev::KeepaliveDue, OpenConfirm, "")],
            ),
        ]
    };

    #[test]
    fn the_session_machine_is_rfc_4271_but_for_named_deviations() {
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
        let design = design.expect("DESIGN.md");
        let now = SimTime(1_000_000);
        for start in Start::ALL {
            for ev in Ev::ALL {
                let mut session = start.session(now);
                let step = ev.fire(&mut session, now);
                let got = (session.state(), step);
                let named = DEVIATIONS.iter().find_map(|(name, rows)| {
                    let row = rows.iter().find(|r| (r.0, r.1) == (start, ev))?;
                    Some((*name, outcome(row.2, row.3)))
                });
                let reference = rfc(start, ev);
                match named {
                    Some((name, deviation)) => {
                        assert_eq!(got, deviation, "{start:?} × {ev:?}: {name}");
                        assert_ne!(
                            reference,
                            Some(deviation),
                            "{name} is the RFC at {start:?} × {ev:?}"
                        );
                        assert!(design.contains(name), "DESIGN.md does not name {name:?}");
                    }
                    None => assert_eq!(Some(got), reference, "{start:?} × {ev:?}"),
                }
            }
        }
    }

    // Random update, withdraw, flush and reset sequences: each summary's
    // `prefixes_received`, a count kept where paths go in and out of the
    // table, is what a walk of the table finds. The selection, kept per
    // dirty prefix and naming its winners, is the decision from scratch
    // after every poll, and the poll's selection delta names every prefix
    // whose decision moved: one kind of operation has a lower peer offer a
    // prefix a higher peer's path wins, so the winner moves up in its slot.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn a_summary_counts_the_paths_a_table_walk_finds(
            kinds in proptest::collection::vec((0u8..3, proptest::prelude::any::<bool>()), 2..6),
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u8>(), 0u8..3), 20..60),
        ) {
            let (mut engine, mut resolver, peers) = hub(&kinds);
            let mut now = SimTime(1000);
            let mut decided = BTreeMap::new();
            let open = |engine: &mut BgpEngine, now, (peer, asn): (Ipv4Addr, AsNum)| {
                engine.push_msg(now, peer, BgpMsg::Open(OpenMsg::new(asn, 90, peer)));
                engine.push_msg(now, peer, BgpMsg::Keepalive);
            };
            for peer in &peers {
                open(&mut engine, now, *peer);
            }
            for (kind, pick, k) in ops {
                let (peer, asn) = peers[usize::from(pick) % peers.len()];
                // Every peer draws from one pool, so slots hold several paths.
                let pool: Vec<Prefix> =
                    (0..4).map(|j| pfx(&format!("100.0.{}.0/24", k * 4 + j))).collect();
                let first = if asn == AsNum(65000) { 65300 } else { asn.0 };
                match kind {
                    0 => engine.push_msg(now, peer, announce(&[first, 64999], peer, pool)),
                    // Over eBGP our own AS in the path withdraws the route.
                    1 => engine.push_msg(now, peer, announce(&[first, 65000], peer, pool)),
                    2 => engine.push_msg(now, peer, BgpMsg::Update(UpdateMsg::withdraw(pool))),
                    3 => {
                        let cease = NotificationMsg { code: 6, subcode: 4, data: bytes::Bytes::new() };
                        engine.push_msg(now, peer, BgpMsg::Notification(cease));
                    }
                    4 => open(&mut engine, now, (peer, asn)),
                    5 if k > 0 => {
                        if resolver.0.remove(&peer).is_none() {
                            resolver.0.insert(peer, 10);
                        }
                        engine.next_hops_moved([&Prefix::host(peer)]);
                    }
                    // The lowest peer offers a prefix a higher one wins,
                    // through the winner's next hop: shorter (k = 0, so it
                    // wins and takes the old winner's place in the slot) or
                    // as long as the winner's path.
                    7 => {
                        let (lowest, asn) = peers[0];
                        let selected = engine.selected();
                        let won = pool.iter().find_map(|p| {
                            let s = selected.get(p)?;
                            let higher = s.learned_from.is_some_and(|w| w > lowest);
                            higher.then_some((*p, s.attrs.next_hop))
                        });
                        if let Some((prefix, next_hop)) = won {
                            let first = if asn == AsNum(65000) { 65300 } else { asn.0 };
                            let path: &[u32] = if k == 0 { &[first] } else { &[first, 64999] };
                            engine.push_msg(now, lowest, announce(path, next_hop, vec![prefix]));
                        }
                    }
                    _ => engine.shutdown_session(peer, now),
                }
                now += SimDuration::from_millis(100);
                let _ = engine.poll(now, &resolver);
                let previous = std::mem::replace(&mut decided, engine.decide_all(&resolver));
                proptest::prop_assert_eq!(engine.selected(), &decided);
                let delta = engine.take_selection_delta();
                for prefix in decided.keys().chain(previous.keys()) {
                    if decided.get(prefix) != previous.get(prefix) {
                        proptest::prop_assert!(delta.contains(prefix), "{} moved unreported", prefix);
                    }
                }
                for summary in engine.summaries() {
                    let slots = engine.table.slots.iter().map(|(_, slot)| slot.paths.as_slice());
                    let walk = slots.filter(|paths| paths.iter().any(|p| p.from == summary.peer));
                    proptest::prop_assert_eq!(summary.prefixes_received, walk.count());
                }
            }
        }
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
        fn updates(&mut self, engine: &BgpEngine) -> Vec<(Ipv4Addr, Bytes)> {
            let mut out = Vec::new();
            for (peer, n) in &engine.neighbors {
                let rib_out = self.rib_out.entry(*peer).or_default();
                // Every way out of Established flushes; the other states
                // have nothing to flush.
                let transitions = n.session.transitions;
                if self.transitions.insert(*peer, transitions) != Some(transitions) {
                    rib_out.clear();
                }
                if n.session.state() != SessionState::Established {
                    continue;
                }
                let key = n.cfg.export_key(n.is_ebgp(engine.local_as));
                let universe: BTreeSet<Prefix> = engine.selected().iter().map(|(p, _)| p).collect();
                let universe: BTreeSet<Prefix> = &universe | &rib_out.keys().copied().collect();
                let mut withdrawals = Vec::new();
                let mut announcements = Vec::new();
                for prefix in universe {
                    let route = engine.selected().get(&prefix);
                    // Never advertise back to the peer we learned it from.
                    let want = route
                        .filter(|r| r.learned_from != Some(*peer))
                        .and_then(|r| {
                            let from = r.learned_from.and_then(|p| engine.neighbors.get(&p));
                            let from_client = from.is_some_and(|n| n.cfg.rr_client);
                            let (maps, lists) = (&engine.route_maps, &engine.prefix_lists);
                            BgpEngine::export(
                                &prefix,
                                r,
                                &key,
                                from_client,
                                engine.local_as,
                                maps,
                                lists,
                            )
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
                let frames =
                    pack_updates(withdrawals, announcements, None, &mut BgpWork::default());
                out.extend(frames.into_iter().map(|frame| (*peer, frame)));
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
            Quirks::default(),
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
                sent.retain(|(_, frame)| frame[18] == mfv_wire::bgp::TYPE_UPDATE);
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
