//! The sharded conservative-lookahead runtime's two tables.
//!
//! A [`Shard`] is one partition's schedule: its clock, event heap,
//! demand-driven wake set, per-sender FIFO clocks and outbox. Everything
//! per entity and per run — routers and external peers, their RNG streams,
//! sequence counters and wake slots, link state, churn, the journal and
//! every counter — is one table for the whole emulation, the [`Fleet`],
//! which each shard's window borrows; its streams and wake slots, like the
//! placement and address tables of the read-only [`Net`], are indexed by
//! one key, the [`Entity`]. Shards are a schedule, not a unit of execution:
//! the coordinator runs them one after another on its own thread.
//!
//! # Determinism contract
//!
//! Same `(topology, seed, plan)` must produce a byte-identical dataplane at
//! **any shard layout**, and the same layout byte-identical obs dumps at
//! any width of the fan-out the run is part of. Three design rules enforce
//! it:
//!
//! 1. **Content-based event keys.** Events order by
//!    `(time, origin, origin_seq)` where `origin` identifies the entity
//!    that scheduled the event (0 = the coordinator, then each entity's
//!    key plus one) and `origin_seq` is that entity's monotone counter.
//!    Keys are unique and assigned by simulation content, never by
//!    execution order, so a heap merge of cross-shard arrivals is a
//!    deterministic merge-sort no matter which shard ran first.
//! 2. **Per-entity RNG streams.** Jitter and impairment draws come from a
//!    `ChaCha8Rng` derived from `(seed, entity)` — not from a shared
//!    engine RNG whose draw order would depend on scheduling.
//! 3. **Nothing in a window depends on which shard ran first.** A shard
//!    reads [`Net`], writes its own schedule and the fleet entries of the
//!    entities placed on it, and adds to run-wide totals; the churn fold
//!    keeps records in instant order and the journal is ordered by instant
//!    at export. Cross-shard messages go to a per-shard outbox that the
//!    coordinator drains when the window ends.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::net::Ipv4Addr;

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mfv_obs::{Hist, Journal, WallTimer};
use mfv_types::{IfaceId, Interner, NodeRef, Prefix, SimDuration, SimTime};
use mfv_vrouter::{RouterEvent, VendorProfile, VirtualRouter};

use crate::chaos::ImpairSpec;

/// Most prefixes the churn watchdog tracks: the lowest ones in address
/// order, so memory stays bounded at production-feed scale and what is kept
/// does not depend on arrival order.
pub(crate) const CHURN_PREFIX_CAP: usize = 4096;
/// Change instants retained per prefix: the latest ones.
pub(crate) const CHURN_HISTORY: usize = 8;
use crate::inject::ExternalPeer;

/// Event origin rank. The coordinator's rank sorts before every entity, so
/// boot/chaos events at an instant run before same-instant deliveries —
/// matching the old single-heap engine where they were scheduled first.
pub(crate) const GLOBAL_ORIGIN: u32 = 0;

/// Deterministic content-based event key: `(time, origin, origin_seq)`.
/// Unique per event (each origin increments its own counter), which makes
/// every heap order — including merged cross-shard arrivals — total.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct EvKey {
    pub time: SimTime,
    pub origin: u32,
    pub oseq: u64,
}

#[derive(Clone, Debug)]
pub(crate) enum EventKind {
    PodReady(NodeRef),
    /// A frame crossing link `link` to its end `end`.
    DeliverIsis {
        link: u32,
        end: u32,
        payload: Bytes,
    },
    /// A BGP segment to the entity that owns `dst`.
    DeliverBgp {
        to: Entity,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    },
    RestartRouter(NodeRef),
    /// Pre-resolved link slot; one per endpoint shard, each poking its own
    /// endpoint routers.
    ChaosLink {
        slot: usize,
        up: bool,
    },
    ChaosKillRouter(NodeRef),
}

#[derive(Clone)]
pub(crate) struct Ev {
    pub key: EvKey,
    pub kind: EventKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// What happened to a link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LinkChange {
    /// Carrier came up or went away: both ports follow, and a port without
    /// carrier withdraws its connected subnet.
    Carrier(bool),
    /// The wire was taken out of the topology; both ports stay up. The
    /// state a boot of the topology without the link converges to.
    WireRemoved,
}

impl LinkChange {
    /// Whether frames cross the link afterwards.
    pub fn carries(self) -> bool {
        self == LinkChange::Carrier(true)
    }
}

/// An emulated entity's key, one flat space for every per-entity table:
/// nodes are `0..N` in `NodeRef` order, external feeds `N..N+E`. Each
/// entity draws from its own ChaCha8 stream and keys its events under
/// origin `key + 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Entity(pub u32);

impl Entity {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn origin(self) -> u32 {
        self.0 + 1
    }
}

impl From<NodeRef> for Entity {
    fn from(node: NodeRef) -> Entity {
        Entity(node.0)
    }
}

/// A link: its two ends and the port each is cabled to, resolved once.
#[derive(Clone, Debug)]
pub(crate) struct LinkInfo {
    pub ends: [(NodeRef, IfaceId); 2],
    /// The port (`VirtualRouter::ports`) each end is cabled to, if its node
    /// has one for the interface.
    pub ports: [Option<usize>; 2],
    pub latency_ms: u64,
}

/// One chaos message-impairment window.
#[derive(Clone)]
pub(crate) struct ImpairWindow {
    pub from: SimTime,
    pub until: SimTime,
    pub spec: ImpairSpec,
}

/// One wall-clock reading sequence cut into consecutive laps: each reading
/// closes a lap and opens the next, so timing every work item of a run
/// costs one clock read per item.
pub(crate) struct Laps {
    timer: WallTimer,
    last_ns: u64,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            timer: WallTimer::start(),
            last_ns: 0,
        }
    }

    /// Nanoseconds since the previous reading.
    pub fn lap(&mut self) -> u64 {
        let now_ns = self.now_ns();
        let lap = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        lap
    }

    /// A reading that closes no lap: the stopwatch routers time their poll
    /// sections on.
    pub fn now_ns(&self) -> u64 {
        self.timer.elapsed_nanos()
    }
}

/// Wall nanoseconds of the window loop by what they went to: the shards
/// fill in the work-item classes, the coordinator `plan` and `settle`.
/// Exported into the quarantined wall section; nothing in the emulation
/// reads them.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct LoopWall {
    pub deliver_isis: u64,
    pub deliver_bgp: u64,
    /// Router and external-peer polls.
    pub poll: u64,
    /// Every other work item: pod boots, restarts, chaos replicas,
    /// deliveries to external peers.
    pub other: u64,
    pub plan: u64,
    pub settle: u64,
}

/// Plain-field execution counters, one per event kind plus the impairment
/// and poll tallies — bumped on the hot path, flushed at `export_obs`.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct EventTally {
    pub pod_ready: u64,
    pub deliver_isis: u64,
    pub deliver_bgp: u64,
    pub deliver_external: u64,
    pub restart_router: u64,
    pub chaos_link: u64,
    pub chaos_kill: u64,
    pub chaos_fail_machine: u64,
    pub router_polls: u64,
    pub ext_polls: u64,
    pub impair_dropped: u64,
    pub impair_duplicated: u64,
}

/// Immutable-during-a-window shared state: the interned id space, parsed
/// configs, link tables, address ownership, impairment windows, and the
/// node→shard map. Mutated only by the coordinator between runs (config
/// push, late chaos scheduling).
#[derive(Clone)]
pub(crate) struct Net {
    pub interner: Interner,
    /// Per-node vendor profile (overrides pre-applied), by `NodeRef` index.
    pub profiles: Vec<VendorProfile>,
    /// Per-node configs parsed once at `Emulation::new`.
    pub parsed_configs: Vec<mfv_config::Parsed>,
    /// Links by slot. Latencies are clamped to ≥ 1 ms — the conservative
    /// lookahead bound requires a strictly positive cross-shard delay.
    pub links: Vec<LinkInfo>,
    /// Per node, by port: the link end cabled there, as (slot, end).
    pub ports: Vec<Vec<Option<(usize, usize)>>>,
    /// addr → owning entity, for BGP segment delivery. Built statically
    /// from parsed configs (interface addresses are config-derived), so
    /// delivery routing never depends on boot order.
    pub ip_owner: BTreeMap<Ipv4Addr, Entity>,
    /// Entity → shard id, filled at boot when the partition is cut: a feed
    /// is placed on its attach node's shard.
    pub shard: Vec<usize>,
    pub seed: u64,
    pub auto_restart: bool,
    /// Active message-impairment windows with per-link / per-pair indexes.
    pub impairments: Vec<ImpairWindow>,
    pub link_impair: Vec<Vec<usize>>,
    pub pair_impair: BTreeMap<(NodeRef, NodeRef), Vec<usize>>,
}

impl Net {
    /// The node `e` is; `None` for an external feed.
    pub fn node(&self, e: Entity) -> Option<NodeRef> {
        (e.index() < self.interner.node_count()).then_some(NodeRef(e.0))
    }

    /// External feed `idx`'s key.
    pub fn feed_key(&self, idx: usize) -> Entity {
        Entity((self.interner.node_count() + idx) as u32)
    }

    /// The shards holding link `slot`'s endpoints, each once.
    pub fn link_shards(&self, slot: usize) -> Vec<usize> {
        let ends = self.links.get(slot).map_or(&[][..], |link| &link.ends);
        let mut sids: Vec<usize> = (ends.iter())
            .filter_map(|(n, _)| self.shard.get(n.index()).copied())
            .collect();
        sids.dedup();
        sids
    }

    /// Cables each link end to the port `port_of` names for its node and
    /// interface; an end it names none for stays as it was. Ports never
    /// move, so re-cabling after a config push only adds.
    pub fn cable(&mut self, port_of: impl Fn(NodeRef, &IfaceId) -> Option<usize>) {
        for (slot, link) in self.links.iter_mut().enumerate() {
            for (end, (node, iface)) in link.ends.iter().enumerate() {
                let (Some(port), Some(row)) =
                    (port_of(*node, iface), self.ports.get_mut(node.index()))
                else {
                    continue;
                };
                link.ports[end] = Some(port);
                if row.len() <= port {
                    row.resize(port + 1, None);
                }
                row[port] = Some((slot, end));
            }
        }
    }
}

/// SplitMix64-style stream derivation: one independent seed per
/// `(run seed, entity tag)` pair.
pub(crate) fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything per entity and per run, one table for the whole emulation:
/// routers are indexed by `NodeRef`, feeds by their index, streams and
/// wake slots by [`Entity`], sequence counters by event origin. A shard's
/// window writes the entries of the entities placed on it; the coordinator
/// reads the totals at barriers.
#[derive(Clone, Default)]
pub(crate) struct Fleet {
    pub routers: Vec<Option<VirtualRouter>>,
    pub externals: Vec<Option<ExternalPeer>>,
    /// Whether the external feeds are plugged in.
    pub feeds_active: bool,
    /// Feeds drained so far, and the instant the latest one finished.
    pub feeds_done: usize,
    pub last_feed_done: SimTime,
    /// Link up/down by slot: what frames cross and what `up_links` reports.
    pub link_up: Vec<bool>,
    rng: Vec<ChaCha8Rng>,
    /// Each origin's event counter (coordinator, then each entity).
    oseq: Vec<u64>,
    /// Each entity's pending wake, mirrored in its shard's wake set.
    next_wake: Vec<Option<SimTime>>,
    /// Dataplane-change records held until the coordinator announces the
    /// steady-state instant (`churn_from`); records before it never count.
    churn_buf: Vec<(SimTime, BTreeSet<Prefix>)>,
    churn_from: Option<SimTime>,
    /// The oscillation watchdog's evidence: per prefix, its latest change
    /// instants in order, both axes capped.
    pub churn: BTreeMap<Prefix, VecDeque<SimTime>>,
    pub tally: EventTally,
    pub loop_wall: LoopWall,
    /// Written in processing order; `export_obs` orders it by instant.
    pub journal: Journal,
    pub wake_depth: Hist,
    pub last_activity: SimTime,
    pub pending_restarts: usize,
    /// Chaos events injected into a shard and not yet handled there: a
    /// fault applied at the barrier but not yet felt by its routers.
    pub chaos_in_flight: u64,
    pub messages_delivered: u64,
    pub crashes: u64,
    /// Work items processed (shard items and coordinator timeline actions)
    /// and events pushed onto a heap.
    pub events_processed: u64,
    pub events_scheduled: u64,
}

impl Fleet {
    /// Empty slots for every node and external peer, every link up.
    pub fn new(net: &Net, externals: usize, links: usize) -> Fleet {
        let nodes = net.interner.node_count() as u64;
        // Node `n`'s stream is tagged `0x1000_0000 + n`, feed `i`'s
        // `0x2000_0000 + i`.
        let tags = (0..nodes).map(|n| 0x1000_0000 + n);
        let tags = tags.chain((0..externals as u64).map(|i| 0x2000_0000 + i));
        let stream = |tag: u64| ChaCha8Rng::seed_from_u64(stream_seed(net.seed, tag));
        let entities = nodes as usize + externals;
        Fleet {
            routers: (0..nodes).map(|_| None).collect(),
            externals: (0..externals).map(|_| None).collect(),
            link_up: vec![true; links],
            rng: tags.map(stream).collect(),
            oseq: vec![0; 1 + entities],
            next_wake: vec![None; entities],
            ..Fleet::default()
        }
    }

    /// The next key of events scheduled by `origin`.
    pub fn next_key(&mut self, origin: u32, time: SimTime) -> EvKey {
        let oseq = &mut self.oseq[origin as usize];
        *oseq += 1;
        EvKey {
            time,
            origin,
            oseq: *oseq,
        }
    }

    /// The router of `node`, if it has an instance.
    fn router(&mut self, node: NodeRef) -> Option<&mut VirtualRouter> {
        self.routers.get_mut(node.index())?.as_mut()
    }

    /// Runs `f` on feed `e` at `at` and counts a feed it drained, or one it
    /// left not drained any more: a new session replays the table, and a
    /// dropped one owes it.
    fn with_feed<T>(
        &mut self,
        e: Entity,
        at: SimTime,
        f: impl FnOnce(&mut ExternalPeer) -> T,
    ) -> Option<T> {
        let idx = e.index().checked_sub(self.routers.len())?;
        let peer = self.externals.get_mut(idx)?.as_mut()?;
        let was_done = peer.done();
        let out = f(peer);
        match (was_done, peer.done()) {
            (false, true) => {
                self.feeds_done += 1;
                self.last_feed_done = self.last_feed_done.max(at);
            }
            (true, false) => self.feeds_done -= 1,
            _ => {}
        }
        Some(out)
    }

    /// Counts what changed in a router's FIB at `at` toward oscillation, or
    /// holds it until the steady-state instant is known.
    fn note_churn(&mut self, at: SimTime, prefixes: BTreeSet<Prefix>) {
        let Some(from) = self.churn_from else {
            self.churn_buf.push((at, prefixes));
            return;
        };
        if at < from {
            return;
        }
        for p in prefixes {
            if !self.churn.contains_key(&p) && self.churn.len() >= CHURN_PREFIX_CAP {
                match self.churn.last_key_value() {
                    Some((&last, _)) if p < last => self.churn.pop_last(),
                    _ => continue,
                };
            }
            let q = self.churn.entry(p).or_default();
            q.insert(q.partition_point(|t| *t <= at), at);
            if q.len() > CHURN_HISTORY {
                q.pop_front();
            }
        }
    }

    /// Called at each barrier; a no-op once the steady-state instant is
    /// known. Until then (`None`: boot or feed flooding incomplete) held
    /// change records are pre-convergence noise and dropped; from the
    /// barrier that knows it on, records at or after `steady` count and
    /// earlier ones never do.
    pub fn gate_churn(&mut self, steady: Option<SimTime>) {
        if self.churn_from.is_some() {
            return;
        }
        let held = std::mem::take(&mut self.churn_buf);
        if steady.is_some() {
            self.churn_from = steady;
            for (at, prefixes) in held {
                self.note_churn(at, prefixes);
            }
        }
    }

    /// Applies an impairment's drop/duplicate draws from the *sender's*
    /// RNG stream; returns how many copies to deliver (0 = dropped).
    fn impaired_copies(&mut self, from: Entity, spec: Option<ImpairSpec>) -> u32 {
        let Some(spec) = spec else { return 1 };
        let Some(rng) = self.rng.get_mut(from.index()) else {
            return 1;
        };
        if spec.drop_pct > 0 && rng.gen_range(0..100u32) < spec.drop_pct as u32 {
            self.tally.impair_dropped += 1;
            return 0;
        }
        if spec.duplicate_pct > 0 && rng.gen_range(0..100u32) < spec.duplicate_pct as u32 {
            self.tally.impair_duplicated += 1;
            return 2;
        }
        1
    }

    /// A send's jitter in ms, drawn from the sender's stream.
    fn jitter(&mut self, from: Entity) -> u64 {
        let rng = self.rng.get_mut(from.index());
        rng.map_or(0, |rng| rng.gen_range(0..3))
    }
}

/// One partition's schedule: its clock, a private event heap, the wake set
/// of the entities placed on it, per-flow FIFO clocks, and the outbox of
/// cross-shard sends.
#[derive(Clone, Default)]
pub(crate) struct Shard {
    pub id: usize,
    now: SimTime,
    events: BinaryHeap<Reverse<Ev>>,
    /// Pending wakes by instant, then key: at one instant routers before
    /// feeds.
    wake: BTreeSet<(SimTime, Entity)>,
    /// FIFO clocks: jitter may delay but never reorder messages between the
    /// same endpoints. Flows are keyed by sender, so each flow's clock
    /// lives in exactly one shard.
    bgp_flow_clock: BTreeMap<(Ipv4Addr, Ipv4Addr), SimTime>,
    /// Keyed by (link slot, sending end).
    isis_link_clock: BTreeMap<(usize, usize), SimTime>,
    /// One router poll's output, kept across polls for its capacity.
    polled: Vec<RouterEvent>,
    /// Cross-shard sends since the last barrier: `(dest shard, event)`.
    pub outbox: Vec<(usize, Ev)>,
}

impl Shard {
    pub fn new(id: usize) -> Shard {
        Shard {
            id,
            ..Shard::default()
        }
    }

    /// The shard's local clock (last processed instant or barrier edge).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Earliest pending work across the heap and the wake set.
    pub fn next_due(&self) -> Option<SimTime> {
        let heap_t = self.events.peek().map(|Reverse(ev)| ev.key.time);
        let wake_t = self.wake.first().map(|&(t, _)| t);
        heap_t.into_iter().chain(wake_t).min()
    }

    /// Coordinator-side insertion (cross-shard arrivals, boot events,
    /// chaos). The scheduling counter is *not* bumped here — the sender
    /// already counted the event when it created it.
    pub fn inject(&mut self, ev: Ev) {
        self.events.push(Reverse(ev));
    }

    /// Schedules an event created by a local entity and counts it. Local
    /// destinations go straight onto the heap; remote ones ride the outbox
    /// until the coordinator drains it at the barrier.
    fn send(&mut self, fleet: &mut Fleet, dest_shard: usize, ev: Ev) {
        fleet.events_scheduled += 1;
        if dest_shard == self.id {
            self.events.push(Reverse(ev));
        } else {
            self.outbox.push((dest_shard, ev));
        }
    }

    /// Requests a wake of entity `e` at `at`, or keeps an earlier pending
    /// one.
    pub fn schedule_poll(&mut self, fleet: &mut Fleet, e: impl Into<Entity>, at: SimTime) {
        let (e, at) = (e.into(), at.max(self.now));
        let Some(slot) = fleet.next_wake.get_mut(e.index()) else {
            return;
        };
        match *slot {
            Some(t) if t <= at => return,
            Some(t) => {
                self.wake.remove(&(t, e));
            }
            None => {}
        }
        *slot = Some(at);
        self.wake.insert((at, e));
    }

    /// Tells this shard's endpoint routers of link `slot` about a change
    /// (the caller has written the fleet's link state).
    pub fn apply_link(&mut self, net: &Net, fleet: &mut Fleet, slot: usize, change: LinkChange) {
        let Some(link) = net.links.get(slot) else {
            return;
        };
        let now = self.now;
        for &(node, ref iface) in &link.ends {
            if net.shard.get(node.index()) != Some(&self.id) {
                continue;
            }
            if let Some(router) = fleet.router(node) {
                match change {
                    LinkChange::Carrier(up) => router.set_link(iface, up),
                    LinkChange::WireRemoved => router.remove_wire(iface),
                }
                self.schedule_poll(fleet, node, SimTime(now.0 + 1));
            }
        }
        fleet.last_activity = fleet.last_activity.max(now);
    }

    /// The active impairment window covering link `slot` right now, if any.
    fn impairment_for(&self, net: &Net, slot: usize) -> Option<ImpairSpec> {
        let now = self.now;
        net.link_impair
            .get(slot)?
            .iter()
            .filter_map(|&i| net.impairments.get(i))
            .find(|w| now >= w.from && now < w.until)
            .map(|w| w.spec)
    }

    /// Impairment for BGP traffic between two directly-linked nodes.
    fn bgp_impairment_for(&self, net: &Net, a: NodeRef, b: NodeRef) -> Option<ImpairSpec> {
        let now = self.now;
        let key = if a <= b { (a, b) } else { (b, a) };
        net.pair_impair
            .get(&key)?
            .iter()
            .filter_map(|&i| net.impairments.get(i))
            .find(|w| now >= w.from && now < w.until)
            .map(|w| w.spec)
    }

    /// Handles one router's output events.
    fn dispatch_router_events(
        &mut self,
        net: &Net,
        fleet: &mut Fleet,
        node: NodeRef,
        events: &mut Vec<RouterEvent>,
    ) {
        let from = Entity::from(node);
        for ev in events.drain(..) {
            match ev {
                RouterEvent::IsisFrame { port, payload } => {
                    let row = net.ports.get(node.index());
                    let Some((slot, end)) = row.and_then(|row| row.get(port)).copied().flatten()
                    else {
                        continue;
                    };
                    let (Some(link), Some(true)) = (net.links.get(slot), fleet.link_up.get(slot))
                    else {
                        continue;
                    };
                    let peer = link.ends[1 - end].0;
                    let impair = self.impairment_for(net, slot);
                    let copies = fleet.impaired_copies(from, impair);
                    let extra = impair.map(|s| s.extra_delay_ms).unwrap_or(0);
                    for _ in 0..copies {
                        let jitter = fleet.jitter(from);
                        let mut at =
                            self.now + SimDuration::from_millis(link.latency_ms + jitter + extra);
                        let clock = self.isis_link_clock.entry((slot, end));
                        let clock = clock.or_insert(SimTime::ZERO);
                        at = at.max(SimTime(clock.0 + 1));
                        *clock = at;
                        let ev_key = fleet.next_key(from.origin(), at);
                        let dest = net.shard[peer.index()];
                        let kind = EventKind::DeliverIsis {
                            link: slot as u32,
                            end: 1 - end as u32,
                            payload: payload.clone(),
                        };
                        self.send(fleet, dest, Ev { key: ev_key, kind });
                    }
                }
                RouterEvent::BgpSegment { src, dst, payload } => {
                    self.send_bgp(net, fleet, from, src, dst, payload);
                }
                RouterEvent::Crashed { reason } => {
                    fleet.crashes += 1;
                    fleet.last_activity = fleet.last_activity.max(self.now);
                    let detail = match net.interner.node(node) {
                        Some(name) => format!("{name}: {reason}"),
                        None => reason,
                    };
                    fleet.journal.push(self.now, "engine.crash", detail);
                    if net.auto_restart {
                        let delay = fleet
                            .routers
                            .get(node.index())
                            .and_then(|s| s.as_ref())
                            .map(|r| r.profile().restart_delay)
                            .unwrap_or(SimDuration::from_secs(60));
                        fleet.pending_restarts += 1;
                        let key = fleet.next_key(from.origin(), self.now + delay);
                        let kind = EventKind::RestartRouter(node);
                        self.send(fleet, self.id, Ev { key, kind });
                    }
                }
            }
        }
    }

    /// The one way a BGP segment leaves the shard: to the owner of `dst`,
    /// impaired only node to node, each copy jittered on the sender's
    /// stream and kept behind the `(src, dst)` flow's earlier segments.
    fn send_bgp(
        &mut self,
        net: &Net,
        fleet: &mut Fleet,
        from: Entity,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    ) {
        let Some(&to) = net.ip_owner.get(&dst) else {
            return; // addressed to nobody we know
        };
        let impair = match (net.node(from), net.node(to)) {
            (Some(node), Some(peer)) => self.bgp_impairment_for(net, node, peer),
            _ => None,
        };
        let copies = fleet.impaired_copies(from, impair);
        let extra = impair.map_or(0, |s| s.extra_delay_ms);
        for _ in 0..copies {
            let jitter = fleet.jitter(from);
            let mut at = self.now + SimDuration::from_millis(2 + jitter + extra);
            let clock = self
                .bgp_flow_clock
                .entry((src, dst))
                .or_insert(SimTime::ZERO);
            at = at.max(SimTime(clock.0 + 1));
            *clock = at;
            let key = fleet.next_key(from.origin(), at);
            let payload = payload.clone();
            let kind = EventKind::DeliverBgp {
                to,
                src,
                dst,
                payload,
            };
            self.send(fleet, net.shard[to.index()], Ev { key, kind });
        }
    }

    fn poll_router(&mut self, net: &Net, fleet: &mut Fleet, node: NodeRef, laps: &Laps) {
        let now = self.now;
        fleet.tally.router_polls += 1;
        let Some(router) = fleet.router(node) else {
            return;
        };
        let v_before = router.fib_version();
        let mut events = std::mem::take(&mut self.polled);
        router.poll(now, &|| laps.now_ns(), &mut events);
        let v_after = router.fib_version();
        let wakeup = router.next_wakeup(now);
        let changed = router.take_changed_prefixes();
        if v_after != v_before {
            fleet.last_activity = fleet.last_activity.max(now);
        }
        self.dispatch_router_events(net, fleet, node, &mut events);
        self.polled = events;
        if let Some(at) = wakeup {
            self.schedule_poll(fleet, node, at);
        }
        if !changed.is_empty() {
            fleet.note_churn(now, changed);
        }
    }

    fn poll_external(&mut self, net: &Net, fleet: &mut Fleet, feed: Entity) {
        if !fleet.feeds_active {
            return;
        }
        let now = self.now;
        fleet.tally.ext_polls += 1;
        let polled = fleet.with_feed(feed, now, |peer| {
            (peer.poll(now), peer.next_wakeup(now), peer.addr)
        });
        let Some((frames, wakeup, src)) = polled else {
            return;
        };
        // A feed's destination is its router's address, so it reaches a
        // router or nobody.
        for (dst, payload) in frames {
            self.send_bgp(net, fleet, feed, src, dst, payload);
        }
        self.schedule_poll(fleet, feed, wakeup);
    }

    fn handle(&mut self, net: &Net, fleet: &mut Fleet, kind: EventKind) {
        let now = self.now;
        match kind {
            EventKind::PodReady(node) => {
                fleet.tally.pod_ready += 1;
                let Some(name) = net.interner.node(node).cloned() else {
                    return;
                };
                let Some(parsed) = net.parsed_configs.get(node.index()).cloned() else {
                    return;
                };
                let Some(profile) = net.profiles.get(node.index()).cloned() else {
                    return;
                };
                fleet
                    .journal
                    .push(now, "engine.pod_ready", name.to_string());
                let router = VirtualRouter::new(name, profile, parsed.config);
                if let Some(slot) = fleet.routers.get_mut(node.index()) {
                    *slot = Some(router);
                }
                fleet.last_activity = fleet.last_activity.max(now);
                self.schedule_poll(fleet, node, now);
            }
            EventKind::DeliverIsis { link, end, payload } => {
                fleet.tally.deliver_isis += 1;
                let (Some(info), Some(true)) = (
                    net.links.get(link as usize),
                    fleet.link_up.get(link as usize),
                ) else {
                    return;
                };
                let (node, port) = (info.ends[end as usize].0, info.ports[end as usize]);
                if let Some(router) = fleet.router(node) {
                    // A node with no port for the interface drops the frame.
                    if let Some(port) = port {
                        router.push_isis(now, port, payload);
                    }
                    fleet.messages_delivered += 1;
                    self.schedule_poll(fleet, node, SimTime(now.0 + 1));
                }
            }
            EventKind::DeliverBgp {
                to,
                src,
                dst,
                payload,
            } => {
                // Whether `to` took the segment in, and whether a feed
                // read a message from it.
                let taken = match net.node(to) {
                    Some(node) => {
                        fleet.tally.deliver_bgp += 1;
                        fleet.router(node).map(|router| {
                            router.push_bgp(now, src, dst, payload);
                            true
                        })
                    }
                    // An inactive feed is an unplugged device: segments vanish.
                    None => {
                        fleet.tally.deliver_external += 1;
                        let push = |peer: &mut ExternalPeer| peer.push_bgp(now, payload);
                        (fleet.feeds_active)
                            .then(|| fleet.with_feed(to, now, push))
                            .flatten()
                    }
                };
                if let Some(message) = taken {
                    fleet.messages_delivered += u64::from(message);
                    self.schedule_poll(fleet, to, SimTime(now.0 + 1));
                }
            }
            EventKind::RestartRouter(node) => {
                fleet.tally.restart_router += 1;
                fleet.pending_restarts = fleet.pending_restarts.saturating_sub(1);
                if let Some(router) = fleet.router(node) {
                    if !router.is_running() {
                        router.restart(now);
                        fleet.last_activity = fleet.last_activity.max(now);
                        self.schedule_poll(fleet, node, SimTime(now.0 + 1));
                        if let Some(name) = net.interner.node(node) {
                            fleet.journal.push(now, "engine.restart", name.to_string());
                        }
                    }
                }
            }
            EventKind::ChaosLink { slot, up } => {
                // Tally + journal live with the coordinator's timeline (one
                // entry per flap, not one per endpoint shard).
                fleet.chaos_in_flight -= 1;
                if let Some(s) = fleet.link_up.get_mut(slot) {
                    *s = up;
                }
                self.apply_link(net, fleet, slot, LinkChange::Carrier(up));
            }
            EventKind::ChaosKillRouter(node) => {
                fleet.chaos_in_flight -= 1;
                fleet.tally.chaos_kill += 1;
                if let Some(name) = net.interner.node(node) {
                    fleet
                        .journal
                        .push(now, "chaos.kill_routing", name.to_string());
                }
                if let Some(router) = fleet.router(node) {
                    router.inject_crash("chaos: routing process killed");
                    fleet.last_activity = fleet.last_activity.max(now);
                    self.schedule_poll(fleet, node, SimTime(now.0 + 1));
                }
            }
        }
    }

    /// Processes every work item with instant `< end` in deterministic
    /// order: earliest instant first; at equal instants the heap wins
    /// (content-keyed order), then wakes by key: routers, then feeds. Each
    /// item's lap of `laps` is charged to its class in the fleet's
    /// `loop_wall`.
    pub fn run_window(&mut self, net: &Net, fleet: &mut Fleet, end: SimTime, laps: &mut Laps) {
        loop {
            let heap_t = self.events.peek().map(|Reverse(ev)| ev.key.time);
            let wake_t = self.wake.first().map(|&(t, _)| t);
            let Some(t) = heap_t.into_iter().chain(wake_t).min() else {
                return;
            };
            if t >= end {
                return;
            }
            self.now = t;
            let mut spent: fn(&mut LoopWall) -> &mut u64 = |w| &mut w.poll;
            if heap_t == Some(t) {
                if let Some(Reverse(ev)) = self.events.pop() {
                    spent = match ev.kind {
                        EventKind::DeliverIsis { .. } => |w| &mut w.deliver_isis,
                        EventKind::DeliverBgp { to, .. } if net.node(to).is_some() => {
                            |w| &mut w.deliver_bgp
                        }
                        _ => |w| &mut w.other,
                    };
                    self.handle(net, fleet, ev.kind);
                }
            } else if let Some((_, e)) = self.wake.pop_first() {
                fleet.next_wake[e.index()] = None;
                match net.node(e) {
                    Some(node) => self.poll_router(net, fleet, node, laps),
                    None => self.poll_external(net, fleet, e),
                }
            }
            *spent(&mut fleet.loop_wall) += laps.lap();
            fleet.events_processed += 1;
            fleet.wake_depth.record(self.wake.len() as u64);
        }
    }

    /// Advances the shard's local clock to at least `t` without processing
    /// anything (used by the coordinator so wall-clock-relative scheduling
    /// after a barrier can't rewind behind the window edge).
    pub fn advance_clock(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Evicts a node (machine failure): drops the router and any pending
    /// wake.
    pub fn evict_node(&mut self, fleet: &mut Fleet, node: NodeRef, now: SimTime) {
        if let Some(slot) = fleet.routers.get_mut(node.index()) {
            *slot = None;
        }
        if let Some(t) = fleet.next_wake.get_mut(node.index()).and_then(|s| s.take()) {
            self.wake.remove(&(t, node.into()));
        }
        fleet.last_activity = fleet.last_activity.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The churn fold keeps, per prefix, the latest `CHURN_HISTORY` change
    /// instants in order and, of the prefixes, the lowest
    /// `CHURN_PREFIX_CAP` — whatever order the shards' windows hand it the
    /// records in, and never a record from before the steady instant.
    #[test]
    fn churn_fold_is_order_independent() {
        let cap = CHURN_PREFIX_CAP as u32;
        let prefix = |i: u32| Prefix::from_bits(0x0a00_0000 + (i << 8), 24);
        let mut records: Vec<(SimTime, BTreeSet<Prefix>)> = (0..cap + 40)
            .map(|i| {
                let at = SimTime(u64::from(i * 7 % 13) * 100 + 105);
                (at, BTreeSet::from([prefix(i % (cap + 20)), prefix(7)]))
            })
            .collect();
        // Below every other prefix, and before the steady instant.
        let early = Prefix::from_bits(0x0900_0000, 24);
        records.insert(cap as usize / 2, (SimTime(50), BTreeSet::from([early])));
        let fold = |order: Vec<&(SimTime, BTreeSet<Prefix>)>| {
            let mut fleet = Fleet::default();
            fleet.gate_churn(Some(SimTime(100)));
            for (at, prefixes) in order {
                fleet.note_churn(*at, prefixes.clone());
            }
            fleet.churn
        };
        let forward = fold(records.iter().collect());
        assert_eq!(forward, fold(records.iter().rev().collect()));
        assert_eq!(forward.len(), CHURN_PREFIX_CAP);
        assert_eq!(forward.keys().next_back(), Some(&prefix(cap - 1)));
        let seven: Vec<SimTime> = forward[&prefix(7)].iter().copied().collect();
        assert_eq!(seven.len(), CHURN_HISTORY);
        assert!(seven.windows(2).all(|w| w[0] <= w[1]), "{seven:?}");
        assert!(!forward.contains_key(&early));
    }
}
