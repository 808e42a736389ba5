//! Per-shard engine state for the sharded conservative-lookahead runtime.
//!
//! A [`Shard`] owns everything a time window touches in one partition of
//! the topology: its slice of the virtual routers and external peers, its
//! own event heap and demand-driven wake sets, per-flow FIFO clocks, and
//! per-entity RNG streams. Everything shared and read-only during a window
//! lives in [`Net`]. Shards are a data layout, not a unit of execution: the
//! coordinator runs them one after another on its own thread.
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
//!    that scheduled the event (0 = the coordinator, then nodes in interned
//!    name order, then external peers) and `origin_seq` is that entity's
//!    monotone counter. Keys are unique and assigned by simulation content,
//!    never by execution order, so a heap merge of cross-shard arrivals is
//!    a deterministic merge-sort no matter which shard ran first.
//! 2. **Per-entity RNG streams.** Jitter and impairment draws come from a
//!    `ChaCha8Rng` derived from `(seed, entity)` — not from a shared
//!    engine RNG whose draw order would depend on scheduling.
//! 3. **No shared mutable state inside a window.** A shard reads [`Net`]
//!    and writes only itself; cross-shard messages go to a per-shard
//!    outbox that the coordinator drains when the window ends.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::net::Ipv4Addr;

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use mfv_obs::{Hist, Journal, WallTimer};
use mfv_types::{IfaceRef, Interner, NodeRef, Prefix, SimDuration, SimTime};
use mfv_vrouter::{RouterEvent, VendorProfile, VirtualRouter};

use crate::chaos::ImpairSpec;

/// Most prefixes tracked per shard by the churn watchdog; arrivals past the
/// cap are ignored (deterministically) to bound memory at production-feed
/// scale. The post-mortem merge applies the same cap globally, in prefix
/// order, so the merged view is independent of shard layout and count.
pub(crate) const CHURN_PREFIX_CAP: usize = 4096;
/// Change records retained per prefix (per shard, and again after merge).
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
    DeliverIsis {
        node: NodeRef,
        iface: IfaceRef,
        payload: Bytes,
    },
    DeliverBgp {
        node: NodeRef,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    },
    DeliverToExternal {
        idx: usize,
        payload: Bytes,
    },
    RestartRouter(NodeRef),
    /// Pre-resolved link slot; replicated to both endpoint shards. The
    /// coordinator keeps the canonical link timeline for `dataplane()`.
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

/// Who owns a BGP endpoint address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Owner {
    Node(NodeRef),
    External(usize),
}

/// One directed end of a link: everything delivery needs, resolved once.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EndInfo {
    pub peer: NodeRef,
    pub peer_iface: IfaceRef,
    pub latency_ms: u64,
    pub link_slot: usize,
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
/// Summed at `export_obs` into the quarantined wall section; nothing in
/// the emulation reads them.
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
/// and poll tallies — bumped on the hot path, summed across shards at
/// `export_obs`.
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
    pub encode_errors: u64,
}

impl EventTally {
    pub fn absorb(&mut self, o: &EventTally) {
        self.pod_ready += o.pod_ready;
        self.deliver_isis += o.deliver_isis;
        self.deliver_bgp += o.deliver_bgp;
        self.deliver_external += o.deliver_external;
        self.restart_router += o.restart_router;
        self.chaos_link += o.chaos_link;
        self.chaos_kill += o.chaos_kill;
        self.chaos_fail_machine += o.chaos_fail_machine;
        self.router_polls += o.router_polls;
        self.ext_polls += o.ext_polls;
        self.impair_dropped += o.impair_dropped;
        self.impair_duplicated += o.impair_duplicated;
        self.encode_errors += o.encode_errors;
    }
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
    /// Directed link ends, pre-resolved. Latencies are clamped to ≥ 1 ms —
    /// the conservative lookahead bound requires a strictly positive
    /// cross-shard delay.
    pub ends: BTreeMap<(NodeRef, IfaceRef), EndInfo>,
    /// Link endpoints by slot (for link up/down router notification).
    pub link_ends: Vec<((NodeRef, IfaceRef), (NodeRef, IfaceRef))>,
    /// addr → owning entity, for BGP segment delivery. Built statically
    /// from parsed configs (interface addresses are config-derived), so
    /// delivery routing never depends on boot order.
    pub ip_owner: BTreeMap<Ipv4Addr, Owner>,
    /// Node → shard id (filled at boot when the partition is cut).
    pub node_shard: Vec<usize>,
    /// External peer → shard id (the attach node's shard).
    pub ext_shard: Vec<usize>,
    pub seed: u64,
    pub auto_restart: bool,
    /// Active message-impairment windows with per-link / per-pair indexes.
    pub impairments: Vec<ImpairWindow>,
    pub link_impair: Vec<Vec<usize>>,
    pub pair_impair: BTreeMap<(NodeRef, NodeRef), Vec<usize>>,
}

impl Net {
    pub fn node_origin(&self, n: NodeRef) -> u32 {
        1 + n.index() as u32
    }

    pub fn ext_origin(&self, idx: usize) -> u32 {
        1 + self.interner.node_count() as u32 + idx as u32
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

fn node_stream(seed: u64, n: NodeRef) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(stream_seed(seed, 0x1000_0000 + n.index() as u64))
}

fn ext_stream(seed: u64, idx: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(stream_seed(seed, 0x2000_0000 + idx as u64))
}

/// One partition of the topology: a private event heap, wake sets, the
/// routers and external peers placed here, link-state replicas, per-flow
/// FIFO clocks, and per-entity RNG/sequence streams. Entity-indexed
/// vectors are full-size (indexed by global `NodeRef`/peer index) with
/// `None`/zero holes for non-members — O(nodes) pointers per shard.
#[derive(Clone)]
pub(crate) struct Shard {
    pub id: usize,
    now: SimTime,
    events: BinaryHeap<Reverse<Ev>>,
    wake: BTreeSet<(SimTime, NodeRef)>,
    next_poll: Vec<Option<SimTime>>,
    ext_wake: BTreeSet<(SimTime, usize)>,
    ext_next: Vec<Option<SimTime>>,
    pub routers: Vec<Option<VirtualRouter>>,
    pub ready_at: Vec<Option<SimTime>>,
    pub ready_count: usize,
    pub externals: Vec<Option<ExternalPeer>>,
    /// When each local external feed finished draining (exact transition
    /// instants; the coordinator folds these into `feeds_done_at`).
    ext_done: Vec<Option<SimTime>>,
    /// Done-transitions observed since the last barrier.
    ext_done_new: Vec<(usize, SimTime)>,
    pub feeds_active: bool,
    /// Local replica of link up/down state (full link set; only links with
    /// a local endpoint ever matter here).
    link_up: Vec<bool>,
    node_rng: Vec<Option<ChaCha8Rng>>,
    ext_rng: Vec<Option<ChaCha8Rng>>,
    node_oseq: Vec<u64>,
    ext_oseq: Vec<u64>,
    /// FIFO clocks: jitter may delay but never reorder messages between the
    /// same endpoints. Flows are keyed by sender, so each flow's clock
    /// lives in exactly one shard.
    bgp_flow_clock: BTreeMap<(Ipv4Addr, Ipv4Addr), SimTime>,
    isis_link_clock: BTreeMap<(NodeRef, IfaceRef), SimTime>,
    /// Cross-shard sends since the last barrier: `(dest shard, event)`.
    pub outbox: Vec<(usize, Ev)>,
    /// Raw dataplane-change records since the last fold, tagged with the
    /// node that changed. Folded into the local `churn` tracker at each
    /// window end once the coordinator has announced the steady instant;
    /// discarded by the coordinator before that (pre-convergence noise).
    pub churn_buf: Vec<(SimTime, NodeRef, BTreeSet<Prefix>)>,
    /// Steady-state gate: records before this instant never count toward
    /// oscillation. Set exactly once, at the barrier where boot and feed
    /// completion become known.
    pub churn_from: Option<SimTime>,
    /// Shard-local bounded churn tracker: per-prefix `(instant, node)`
    /// change records, capped in both axes. Shards fold their own records
    /// inside their windows — the coordinator never touches a shared churn
    /// map per window; the per-shard maps are merged exactly once,
    /// order-independently, by the oscillation post-mortem.
    pub churn: BTreeMap<Prefix, VecDeque<(SimTime, u32)>>,
    pub tally: EventTally,
    pub loop_wall: LoopWall,
    pub journal: Journal,
    pub wake_depth: Hist,
    pub last_activity: SimTime,
    pub pending_restarts: usize,
    pub messages_delivered: u64,
    pub crashes: u64,
    pub events_processed: u64,
    pub events_scheduled: u64,
    /// Chaos replicas (link notifications, kills) this shard has handled —
    /// compared against the coordinator's injected count so convergence is
    /// never declared while a fault is still in flight.
    pub chaos_processed: u64,
}

impl Shard {
    /// `link_up` is a copy of the coordinator's canonical link state at
    /// build time (operator `set_link` calls may precede boot).
    pub fn new(id: usize, net: &Net, link_up: Vec<bool>) -> Shard {
        let n = net.interner.node_count();
        let e = net.ext_shard.len();
        let mut node_rng: Vec<Option<ChaCha8Rng>> = (0..n).map(|_| None).collect();
        for r in net.interner.node_refs() {
            if net.node_shard.get(r.index()) == Some(&id) {
                node_rng[r.index()] = Some(node_stream(net.seed, r));
            }
        }
        let mut ext_rng: Vec<Option<ChaCha8Rng>> = (0..e).map(|_| None).collect();
        for (idx, rng) in ext_rng.iter_mut().enumerate() {
            if net.ext_shard.get(idx) == Some(&id) {
                *rng = Some(ext_stream(net.seed, idx));
            }
        }
        Shard {
            id,
            now: SimTime::ZERO,
            events: BinaryHeap::new(),
            wake: BTreeSet::new(),
            next_poll: vec![None; n],
            ext_wake: BTreeSet::new(),
            ext_next: vec![None; e],
            routers: (0..n).map(|_| None).collect(),
            ready_at: vec![None; n],
            ready_count: 0,
            externals: (0..e).map(|_| None).collect(),
            ext_done: vec![None; e],
            ext_done_new: Vec::new(),
            feeds_active: false,
            link_up,
            node_rng,
            ext_rng,
            node_oseq: vec![0; n],
            ext_oseq: vec![0; e],
            bgp_flow_clock: BTreeMap::new(),
            isis_link_clock: BTreeMap::new(),
            outbox: Vec::new(),
            churn_buf: Vec::new(),
            churn_from: None,
            churn: BTreeMap::new(),
            tally: EventTally::default(),
            loop_wall: LoopWall::default(),
            journal: Journal::new(),
            wake_depth: Hist::new(),
            last_activity: SimTime::ZERO,
            pending_restarts: 0,
            messages_delivered: 0,
            crashes: 0,
            events_processed: 0,
            events_scheduled: 0,
            chaos_processed: 0,
        }
    }

    /// The shard's local clock (last processed instant or barrier edge).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Earliest pending work across the heap and both wake sets.
    pub fn next_due(&self) -> Option<SimTime> {
        let heap_t = self.events.peek().map(|Reverse(ev)| ev.key.time);
        let wake_t = self.wake.iter().next().map(|&(t, _)| t);
        let ext_t = self.ext_wake.iter().next().map(|&(t, _)| t);
        [heap_t, wake_t, ext_t].into_iter().flatten().min()
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
    fn send(&mut self, dest_shard: usize, ev: Ev) {
        self.events_scheduled += 1;
        if dest_shard == self.id {
            self.events.push(Reverse(ev));
        } else {
            self.outbox.push((dest_shard, ev));
        }
    }

    fn next_node_key(&mut self, net: &Net, node: NodeRef, time: SimTime) -> EvKey {
        let oseq = &mut self.node_oseq[node.index()];
        *oseq += 1;
        EvKey {
            time,
            origin: net.node_origin(node),
            oseq: *oseq,
        }
    }

    fn next_ext_key(&mut self, net: &Net, idx: usize, time: SimTime) -> EvKey {
        let oseq = &mut self.ext_oseq[idx];
        *oseq += 1;
        EvKey {
            time,
            origin: net.ext_origin(idx),
            oseq: *oseq,
        }
    }

    /// Requests a router wake at `at` (or keeps an earlier pending one).
    pub fn schedule_poll(&mut self, node: NodeRef, at: SimTime) {
        let at = at.max(self.now);
        match self.next_poll.get(node.index()).copied().flatten() {
            Some(t) if t <= at => return,
            Some(t) => {
                self.wake.remove(&(t, node));
            }
            None => {}
        }
        if let Some(slot) = self.next_poll.get_mut(node.index()) {
            *slot = Some(at);
            self.wake.insert((at, node));
        }
    }

    /// Drops any pending wake for `node` (eviction).
    pub fn clear_poll(&mut self, node: NodeRef) {
        if let Some(t) = self.next_poll.get_mut(node.index()).and_then(|s| s.take()) {
            self.wake.remove(&(t, node));
        }
    }

    /// Like `schedule_poll`, for external peers.
    pub fn schedule_ext_poll(&mut self, idx: usize, at: SimTime) {
        let at = at.max(self.now);
        match self.ext_next.get(idx).copied().flatten() {
            Some(t) if t <= at => return,
            Some(t) => {
                self.ext_wake.remove(&(t, idx));
            }
            None => {}
        }
        if let Some(slot) = self.ext_next.get_mut(idx) {
            *slot = Some(at);
            self.ext_wake.insert((at, idx));
        }
    }

    /// Installs an external peer at boot. Feeds that are born drained
    /// (zero-route peers) count as done immediately, mirroring the old
    /// engine's `injection_done()` semantics.
    pub fn install_external(&mut self, idx: usize, peer: ExternalPeer) {
        let done = peer.done();
        self.externals[idx] = Some(peer);
        if done {
            self.ext_done[idx] = Some(SimTime::ZERO);
            self.ext_done_new.push((idx, SimTime::ZERO));
        }
    }

    /// Activates local feeds and schedules their first poll.
    pub fn activate_feeds(&mut self, at: SimTime) {
        self.feeds_active = true;
        for idx in 0..self.externals.len() {
            if self.externals[idx].is_some() {
                self.schedule_ext_poll(idx, at);
            }
        }
    }

    pub fn take_ext_done_transitions(&mut self) -> Vec<(usize, SimTime)> {
        std::mem::take(&mut self.ext_done_new)
    }

    /// Applies a link state change locally: updates the replica and pokes
    /// any local endpoint routers. Journal/tally for chaos flaps live with
    /// the coordinator's canonical timeline (one entry per event, not one
    /// per replica).
    pub fn apply_link(&mut self, net: &Net, slot: usize, change: LinkChange) {
        if let Some(s) = self.link_up.get_mut(slot) {
            *s = change.carries();
        }
        let Some(&(a, b)) = net.link_ends.get(slot) else {
            return;
        };
        let now = self.now;
        for (node, iface) in [a, b] {
            let Some(iface_name) = net.interner.iface(iface) else {
                continue;
            };
            if let Some(router) = self.routers.get_mut(node.index()).and_then(|s| s.as_mut()) {
                match change {
                    LinkChange::Carrier(up) => router.set_link(iface_name, up),
                    LinkChange::WireRemoved => router.remove_wire(iface_name),
                }
                self.schedule_poll(node, SimTime(now.0 + 1));
            }
        }
        self.last_activity = self.last_activity.max(now);
    }

    fn link_is_up(&self, net: &Net, node: NodeRef, iface: IfaceRef) -> bool {
        net.ends
            .get(&(node, iface))
            .and_then(|e| self.link_up.get(e.link_slot))
            .copied()
            .unwrap_or(false)
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

    /// Applies an impairment's drop/duplicate draws from the *sender's*
    /// RNG stream; returns how many copies to deliver (0 = dropped).
    fn impaired_copies(&mut self, node: NodeRef, spec: Option<ImpairSpec>) -> u32 {
        let Some(spec) = spec else { return 1 };
        let Some(rng) = self.node_rng.get_mut(node.index()).and_then(|r| r.as_mut()) else {
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

    fn node_jitter(&mut self, node: NodeRef) -> u64 {
        self.node_rng
            .get_mut(node.index())
            .and_then(|r| r.as_mut())
            .map(|rng| rng.gen_range(0..3))
            .unwrap_or(0)
    }

    /// Handles one router's output events.
    fn dispatch_router_events(&mut self, net: &Net, node: NodeRef, events: Vec<RouterEvent>) {
        for ev in events {
            match ev {
                RouterEvent::IsisFrame { iface, payload } => {
                    let Some(iface_ref) = net.interner.resolve_iface(&iface) else {
                        continue;
                    };
                    let key = (node, iface_ref);
                    let Some(end) = net.ends.get(&key).copied() else {
                        continue;
                    };
                    if !self.link_up.get(end.link_slot).copied().unwrap_or(false) {
                        continue;
                    }
                    let impair = self.impairment_for(net, end.link_slot);
                    let copies = self.impaired_copies(node, impair);
                    let extra = impair.map(|s| s.extra_delay_ms).unwrap_or(0);
                    for _ in 0..copies {
                        let jitter = self.node_jitter(node);
                        let mut at =
                            self.now + SimDuration::from_millis(end.latency_ms + jitter + extra);
                        let clock = self.isis_link_clock.entry(key).or_insert(SimTime::ZERO);
                        at = at.max(SimTime(clock.0 + 1));
                        *clock = at;
                        let ev_key = self.next_node_key(net, node, at);
                        let dest = net.node_shard[end.peer.index()];
                        self.send(
                            dest,
                            Ev {
                                key: ev_key,
                                kind: EventKind::DeliverIsis {
                                    node: end.peer,
                                    iface: end.peer_iface,
                                    payload: payload.clone(),
                                },
                            },
                        );
                    }
                }
                RouterEvent::BgpSegment { src, dst, payload } => {
                    let Some(&owner) = net.ip_owner.get(&dst) else {
                        continue; // addressed to nobody we know
                    };
                    let impair = match owner {
                        Owner::Node(peer) => self.bgp_impairment_for(net, node, peer),
                        Owner::External(_) => None,
                    };
                    let copies = self.impaired_copies(node, impair);
                    let extra = impair.map(|s| s.extra_delay_ms).unwrap_or(0);
                    for _ in 0..copies {
                        let jitter = self.node_jitter(node);
                        let mut at = self.now + SimDuration::from_millis(2 + jitter + extra);
                        let clock = self
                            .bgp_flow_clock
                            .entry((src, dst))
                            .or_insert(SimTime::ZERO);
                        at = at.max(SimTime(clock.0 + 1));
                        *clock = at;
                        let ev_key = self.next_node_key(net, node, at);
                        match owner {
                            Owner::Node(peer) => {
                                let dest = net.node_shard[peer.index()];
                                self.send(
                                    dest,
                                    Ev {
                                        key: ev_key,
                                        kind: EventKind::DeliverBgp {
                                            node: peer,
                                            src,
                                            dst,
                                            payload: payload.clone(),
                                        },
                                    },
                                );
                            }
                            Owner::External(idx) => {
                                let dest = net.ext_shard[idx];
                                self.send(
                                    dest,
                                    Ev {
                                        key: ev_key,
                                        kind: EventKind::DeliverToExternal {
                                            idx,
                                            payload: payload.clone(),
                                        },
                                    },
                                );
                            }
                        }
                    }
                }
                RouterEvent::Crashed { reason } => {
                    self.crashes += 1;
                    self.last_activity = self.last_activity.max(self.now);
                    let detail = match net.interner.node(node) {
                        Some(name) => format!("{name}: {reason}"),
                        None => reason,
                    };
                    self.journal.push(self.now, "engine.crash", detail);
                    if net.auto_restart {
                        let delay = self
                            .routers
                            .get(node.index())
                            .and_then(|s| s.as_ref())
                            .map(|r| r.profile().restart_delay)
                            .unwrap_or(SimDuration::from_secs(60));
                        self.pending_restarts += 1;
                        let at = self.now + delay;
                        let key = self.next_node_key(net, node, at);
                        self.send(
                            self.id,
                            Ev {
                                key,
                                kind: EventKind::RestartRouter(node),
                            },
                        );
                    }
                }
            }
        }
    }

    fn poll_router(&mut self, net: &Net, node: NodeRef, laps: &Laps) {
        let now = self.now;
        self.tally.router_polls += 1;
        let Some(router) = self.routers.get_mut(node.index()).and_then(|s| s.as_mut()) else {
            return;
        };
        let v_before = router.fib_version();
        let events = router.poll_timed(now, &|| laps.now_ns());
        let v_after = router.fib_version();
        let wakeup = router.next_wakeup(now);
        let changed = router.take_changed_prefixes();
        if v_after != v_before {
            self.last_activity = self.last_activity.max(now);
        }
        self.dispatch_router_events(net, node, events);
        if let Some(at) = wakeup {
            self.schedule_poll(node, at);
        }
        if !changed.is_empty() {
            self.churn_buf.push((now, node, changed));
        }
    }

    fn poll_external(&mut self, net: &Net, idx: usize) {
        if !self.feeds_active {
            return;
        }
        let now = self.now;
        self.tally.ext_polls += 1;
        let Some(peer) = self.externals.get_mut(idx).and_then(|s| s.as_mut()) else {
            return;
        };
        let was_done = peer.done();
        let msgs = peer.poll(now);
        let wakeup = peer.next_wakeup(now);
        let src = peer.addr;
        let now_done = peer.done();
        if !was_done && now_done {
            self.ext_done[idx] = Some(now);
            self.ext_done_new.push((idx, now));
        }
        for (dst, msg) in msgs {
            // A message that exceeds a wire length field is dropped (and
            // counted) instead of truncated into a corrupt frame.
            let payload = match msg.encode() {
                Ok(p) => p,
                Err(_) => {
                    self.tally.encode_errors += 1;
                    continue;
                }
            };
            if let Some(&Owner::Node(node)) = net.ip_owner.get(&dst) {
                let jitter = self
                    .ext_rng
                    .get_mut(idx)
                    .and_then(|r| r.as_mut())
                    .map(|rng| rng.gen_range(0..3))
                    .unwrap_or(0);
                let mut at = now + SimDuration::from_millis(2 + jitter);
                let clock = self
                    .bgp_flow_clock
                    .entry((src, dst))
                    .or_insert(SimTime::ZERO);
                at = at.max(SimTime(clock.0 + 1));
                *clock = at;
                let key = self.next_ext_key(net, idx, at);
                let dest = net.node_shard[node.index()];
                self.send(
                    dest,
                    Ev {
                        key,
                        kind: EventKind::DeliverBgp {
                            node,
                            src,
                            dst,
                            payload,
                        },
                    },
                );
            }
        }
        self.schedule_ext_poll(idx, wakeup);
    }

    fn handle(&mut self, net: &Net, kind: EventKind) {
        match kind {
            EventKind::PodReady(node) => {
                self.tally.pod_ready += 1;
                let Some(name) = net.interner.node(node).cloned() else {
                    return;
                };
                let Some(parsed) = net.parsed_configs.get(node.index()).cloned() else {
                    return;
                };
                let Some(profile) = net.profiles.get(node.index()).cloned() else {
                    return;
                };
                self.journal
                    .push(self.now, "engine.pod_ready", name.to_string());
                let router = VirtualRouter::new(name, profile, parsed.config);
                if let Some(slot) = self.routers.get_mut(node.index()) {
                    *slot = Some(router);
                }
                if let Some(slot) = self.ready_at.get_mut(node.index()) {
                    if slot.replace(self.now).is_none() {
                        self.ready_count += 1;
                    }
                }
                self.last_activity = self.last_activity.max(self.now);
                self.schedule_poll(node, self.now);
            }
            EventKind::DeliverIsis {
                node,
                iface,
                payload,
            } => {
                self.tally.deliver_isis += 1;
                if !self.link_is_up(net, node, iface) {
                    return;
                }
                let now = self.now;
                let Some(iface_name) = net.interner.iface(iface) else {
                    return;
                };
                if let Some(router) = self.routers.get_mut(node.index()).and_then(|s| s.as_mut()) {
                    router.push_isis(now, iface_name, payload);
                    self.messages_delivered += 1;
                    self.schedule_poll(node, SimTime(now.0 + 1));
                }
            }
            EventKind::DeliverBgp {
                node,
                src,
                dst,
                payload,
            } => {
                self.tally.deliver_bgp += 1;
                let now = self.now;
                if let Some(router) = self.routers.get_mut(node.index()).and_then(|s| s.as_mut()) {
                    router.push_bgp(now, src, dst, payload);
                    self.messages_delivered += 1;
                    self.schedule_poll(node, SimTime(now.0 + 1));
                }
            }
            EventKind::DeliverToExternal { idx, payload } => {
                self.tally.deliver_external += 1;
                // An inactive feed is an unplugged device: segments vanish.
                if !self.feeds_active {
                    return;
                }
                let now = self.now;
                if let Some(peer) = self.externals.get_mut(idx).and_then(|s| s.as_mut()) {
                    let was_done = peer.done();
                    let mut buf = payload;
                    if let Ok(msg) = mfv_wire::bgp::BgpMsg::decode(&mut buf) {
                        peer.push_msg(now, msg);
                        self.messages_delivered += 1;
                    }
                    if !was_done && peer.done() {
                        self.ext_done[idx] = Some(now);
                        self.ext_done_new.push((idx, now));
                    }
                    self.schedule_ext_poll(idx, SimTime(now.0 + 1));
                }
            }
            EventKind::RestartRouter(node) => {
                self.tally.restart_router += 1;
                let now = self.now;
                self.pending_restarts = self.pending_restarts.saturating_sub(1);
                if let Some(router) = self.routers.get_mut(node.index()).and_then(|s| s.as_mut()) {
                    if !router.is_running() {
                        router.restart(now);
                        self.last_activity = self.last_activity.max(now);
                        self.schedule_poll(node, SimTime(now.0 + 1));
                        if let Some(name) = net.interner.node(node) {
                            self.journal.push(now, "engine.restart", name.to_string());
                        }
                    }
                }
            }
            EventKind::ChaosLink { slot, up } => {
                // Tally + journal live with the coordinator's canonical
                // timeline (one entry per flap, not one per shard replica).
                self.chaos_processed += 1;
                self.apply_link(net, slot, LinkChange::Carrier(up));
            }
            EventKind::ChaosKillRouter(node) => {
                self.chaos_processed += 1;
                self.tally.chaos_kill += 1;
                let now = self.now;
                if let Some(name) = net.interner.node(node) {
                    self.journal
                        .push(now, "chaos.kill_routing", name.to_string());
                }
                if let Some(router) = self.routers.get_mut(node.index()).and_then(|s| s.as_mut()) {
                    router.inject_crash("chaos: routing process killed");
                    self.last_activity = self.last_activity.max(now);
                    self.schedule_poll(node, SimTime(now.0 + 1));
                }
            }
        }
    }

    /// Processes every work item with instant `< end` in deterministic
    /// order: earliest instant first; at equal instants the heap wins
    /// (content-keyed order), then router wakes, then external wakes. Each
    /// item's lap of `laps` is charged to its class in `loop_wall`.
    pub fn run_window(&mut self, net: &Net, end: SimTime, laps: &mut Laps) {
        loop {
            let heap_t = self.events.peek().map(|Reverse(ev)| ev.key.time);
            let wake_t = self.wake.iter().next().map(|&(t, _)| t);
            let ext_t = self.ext_wake.iter().next().map(|&(t, _)| t);
            let Some(t) = [heap_t, wake_t, ext_t].into_iter().flatten().min() else {
                self.fold_churn();
                return;
            };
            if t >= end {
                self.fold_churn();
                return;
            }
            self.now = t;
            let mut spent: fn(&mut LoopWall) -> &mut u64 = |w| &mut w.poll;
            if heap_t == Some(t) {
                if let Some(Reverse(ev)) = self.events.pop() {
                    spent = match ev.kind {
                        EventKind::DeliverIsis { .. } => |w| &mut w.deliver_isis,
                        EventKind::DeliverBgp { .. } => |w| &mut w.deliver_bgp,
                        _ => |w| &mut w.other,
                    };
                    self.handle(net, ev.kind);
                }
            } else if wake_t == Some(t) {
                if let Some(&(wt, node)) = self.wake.iter().next() {
                    self.wake.remove(&(wt, node));
                    if let Some(slot) = self.next_poll.get_mut(node.index()) {
                        *slot = None;
                    }
                    self.poll_router(net, node, laps);
                }
            } else if let Some(&(wt, idx)) = self.ext_wake.iter().next() {
                self.ext_wake.remove(&(wt, idx));
                if let Some(slot) = self.ext_next.get_mut(idx) {
                    *slot = None;
                }
                self.poll_external(net, idx);
            }
            *spent(&mut self.loop_wall) += laps.lap();
            self.events_processed += 1;
            self.wake_depth
                .record((self.wake.len() + self.ext_wake.len()) as u64);
        }
    }

    /// Folds buffered raw change records into the bounded local `churn`
    /// tracker, inside the shard's own window — no coordinator-side merge
    /// per barrier. A no-op until the coordinator announces the
    /// steady-state gate (`churn_from`); records stamped before the gate
    /// never count toward oscillation. `churn_buf` is drained in processed
    /// order, which within one shard is the deterministic event order, so
    /// the fold is a pure function of shard content.
    pub fn fold_churn(&mut self) {
        let Some(from) = self.churn_from else {
            return;
        };
        for (at, node, prefixes) in self.churn_buf.drain(..) {
            if at < from {
                continue;
            }
            for p in prefixes {
                if !self.churn.contains_key(&p) && self.churn.len() >= CHURN_PREFIX_CAP {
                    continue;
                }
                let q = self.churn.entry(p).or_default();
                q.push_back((at, node.index() as u32));
                if q.len() > CHURN_HISTORY {
                    q.pop_front();
                }
            }
        }
    }

    /// Advances the shard's local clock to at least `t` without processing
    /// anything (used by the coordinator so wall-clock-relative scheduling
    /// after a barrier can't rewind behind the window edge).
    pub fn advance_clock(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Evicts a node (machine failure): drops the router, its ready mark,
    /// and any pending wake.
    pub fn evict_node(&mut self, node: NodeRef, now: SimTime) {
        if let Some(slot) = self.routers.get_mut(node.index()) {
            *slot = None;
        }
        if let Some(slot) = self.ready_at.get_mut(node.index()) {
            if slot.take().is_some() {
                self.ready_count = self.ready_count.saturating_sub(1);
            }
        }
        self.clear_poll(node);
        self.last_activity = self.last_activity.max(now);
    }
}
