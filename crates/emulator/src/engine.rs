//! The discrete-event emulation engine — the workspace's stand-in for KNE.
//!
//! Owns the virtual routers, the simulated cluster that boots them, the
//! links between them, and the external route-injection peers. Runs on
//! virtual time with seeded per-link jitter: a given `(topology, seed)` pair
//! replays identically, and different seeds reorder message arrivals — which
//! is exactly the non-determinism surface §6 of the paper discusses.
//!
//! # Sharded conservative-lookahead execution
//!
//! The topology is partitioned into [`Shard`]s (by default one per
//! simulated cluster machine — the paper's §5 deployment cut), each owning
//! its own event heap and wake sets. The coordinator advances the fleet in
//! conservative time windows: with `T_i` the earliest pending work in shard
//! `i` and `W` the minimum cross-shard link latency (capped by the 2 ms
//! BGP segment floor), shard `i` may safely process every event strictly
//! before `min_{j≠i}(T_j) + W`, because nothing another shard has yet to
//! do can produce an arrival earlier than that. Within a window shards are
//! independent of one another, and cross-shard messages ride per-shard
//! outboxes that the coordinator drains when the window ends.
//!
//! One emulation runs on one thread: [`drive`] plans a window, runs each
//! due shard in index order and settles. `W` can never exceed 2 ms, so a
//! 1,000-router run is ~236 k windows of ~3 events, 18 % of them with more
//! than one shard due — too little to share (`export_obs`, in the `export`
//! submodule, reports `engine.windows`; DESIGN.md § "The emulation
//! engine").
//! Parallelism lives one level up, across independent emulations
//! ([`crate::pool::run_indexed`]); a shard is only a schedule, and every
//! router, stream, journal and counter is one table, the [`Fleet`].
//!
//! Determinism does not depend on the layout: events carry content-derived
//! keys `(time, origin, origin_seq)` that are globally unique, so draining
//! outboxes in any order produces the same heap order; RNG streams are
//! per-entity, not per-shard; and everything cross-cutting (chaos
//! timeline, boot completion, feed activation, churn gating, convergence)
//! is applied by the coordinator at window boundaries cut to exact sim
//! instants. Same `(topology, seed, plan, shard layout)` ⇒ byte-identical
//! dataplanes, AFT dumps and obs exports, alone or inside a fan-out of any
//! width; the converged dataplane does not depend on the layout either.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use mfv_dataplane::Dataplane;
use mfv_obs::{SimPhases, WallSection, WallTimer};
use mfv_types::{LinkId, NodeId, NodeRef, Prefix, SimDuration, SimTime};
use mfv_vrouter::{VendorProfile, VirtualRouter};

use crate::chaos::{ChaosEvent, ChaosPlan, ConvergenceVerdict};
use crate::cluster::{Cluster, PodRequest, Unschedulable};
use crate::inject::{synthetic_prefixes, ExternalPeer};
use crate::shard::{
    stream_seed, Ev, EventKind, Fleet, ImpairWindow, Laps, LinkChange, Net, Owner, Shard,
    GLOBAL_ORIGIN,
};
use crate::topology::Topology;

mod export;

/// How the topology is partitioned into shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardMode {
    /// One shard per simulated cluster machine that hosts at least one pod
    /// — the placement the paper's §5 deployment would give each k8s node.
    /// A single-machine cluster therefore runs exactly like the classic
    /// single-heap engine.
    Auto,
    /// Exactly `n` shards of contiguous, equally-sized node ranges (in
    /// interned name order). The reference partition of
    /// `tests/shard_determinism.rs`, which cuts networks too small to
    /// overflow one machine so their runs still cross shard boundaries.
    Fixed(usize),
}

/// Emulation tuning knobs.
#[derive(Clone, Debug)]
pub struct EmulationConfig {
    /// Seed for boot jitter and link jitter.
    pub seed: u64,
    /// Dataplane quiescence window for convergence detection ("we detect
    /// convergence to be complete once we observe the dataplane to
    /// stabilize at all routers", §5).
    pub quiet_period: SimDuration,
    /// Hard stop for a run.
    pub max_sim_time: SimDuration,
    /// Restart crashed routing processes after their vendor restart delay.
    pub auto_restart_crashed: bool,
    /// Per-node vendor profile overrides (bug injection).
    pub profile_overrides: BTreeMap<NodeId, VendorProfile>,
    /// Start external route feeds only once every pod is Ready — the
    /// paper's E5 measurement applies configuration and injection to an
    /// already-booted replica.
    pub inject_after_boot: bool,
    /// Scheduled fault injection. The default (empty) plan is a fault-free
    /// run; see [`ChaosPlan`] for what can be scheduled. Events referencing
    /// unknown links/nodes/machines are inert.
    pub chaos: ChaosPlan,
    /// Width of the fan-out over independent emulations that share this
    /// configuration: how many seeds [`crate::run_seeds`] runs side by
    /// side (`0`, the default, means the host's parallelism). One emulation
    /// always runs on one thread; the width never affects results.
    pub threads: usize,
    /// Shard partitioning rule. The default reuses the cluster placement.
    pub shards: ShardMode,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            seed: 1,
            quiet_period: SimDuration::from_secs(12),
            max_sim_time: SimDuration::from_mins(60),
            auto_restart_crashed: true,
            profile_overrides: BTreeMap::new(),
            inject_after_boot: true,
            chaos: ChaosPlan::default(),
            threads: 0,
            shards: ShardMode::Auto,
        }
    }
}

/// Outcome of a convergence run.
///
/// `PartialEq` so determinism tests can compare whole reports: a replay of
/// the same `(topology, seed, plan)` must produce an identical one.
#[derive(Clone, PartialEq, Debug)]
pub struct RunReport {
    /// Whether the dataplane went quiet before `max_sim_time`.
    /// (Equivalent to `verdict.is_converged()`; kept for callers that only
    /// need the boolean.)
    pub converged: bool,
    /// The watchdog's full verdict: converged, oscillating (with the
    /// detected flap period and churning prefixes), or timed out.
    pub verdict: ConvergenceVerdict,
    /// When the last pod became Ready (emulation startup complete).
    pub boot_complete_at: Option<SimTime>,
    /// Time of the last dataplane change — the convergence instant.
    pub converged_at: SimTime,
    /// Control-plane messages delivered.
    pub messages_delivered: u64,
    /// Routing-process crashes observed.
    pub crashes: u64,
    /// Work items processed: heap events plus demand-driven wake polls.
    /// A link flap is handled once per endpoint shard, and a window end can
    /// let a shard poll a router twice at one instant (see `plan`), so the
    /// count depends on the shard layout — and on nothing else.
    pub events_processed: u64,
    /// Events pushed onto the priority queues. Under demand-driven polling
    /// wake requests never enter a heap, so this counts only real work
    /// (deliveries, boot completions, restarts, chaos) — the engine's
    /// scheduling-cost metric tracked by the bench rig.
    pub events_scheduled: u64,
    /// Pods that could not be scheduled.
    pub unschedulable: Vec<Unschedulable>,
    /// Sim-time span per run phase (`boot`/`flood`/`converge`). Derived
    /// from sim state only, so replays compare equal; wall-clock twins live
    /// in the engine's [`Obs`] export, never here.
    pub phases: SimPhases,
}

/// A link's id and interned endpoints (its state is the fleet's `link_up`).
#[derive(Clone)]
struct LinkRecord {
    id: LinkId,
    a: (NodeRef, mfv_types::IfaceRef),
    b: (NodeRef, mfv_types::IfaceRef),
}

/// A coordinator-timeline entry: chaos that must fire at an exact global
/// instant, applied at a window boundary cut to that instant.
#[derive(Clone)]
enum GlobalAction {
    Link { slot: Option<usize>, up: bool },
    Kill(Option<NodeRef>),
    FailMachine(String),
}

/// Changes a prefix needs within the recent window to count as oscillating.
const OSCILLATION_MIN_CHANGES: usize = 4;

/// Coordinator-owned mutable state: everything the barrier logic touches
/// that is not in the [`Fleet`], a [`Shard`]'s schedule or the read-only
/// [`Net`].
#[derive(Clone)]
struct Global {
    cfg: EmulationConfig,
    cluster: Cluster,
    /// Dedicated stream for boot/reschedule jitter, independent of shard
    /// message jitter so placement is a pure function of `(seed, topology)`.
    cluster_rng: ChaCha8Rng,
    node_total: usize,
    links: Vec<LinkRecord>,
    link_index: BTreeMap<LinkId, usize>,
    /// Chaos instants, keyed `(time, insertion order)` so same-instant
    /// entries apply in plan order.
    timeline: BTreeMap<(SimTime, u64), GlobalAction>,
    timeline_ord: u64,
    chaos_pending: usize,
    /// Scheduled-but-unfired PodReady `(instant, node)` pairs in firing
    /// order (the coordinator schedules every one itself, so boot
    /// completion is detected at exact sim instants regardless of shard
    /// layout). A node evicted by a machine failure keeps any
    /// already-scheduled future instant — the stale event still boots a
    /// fresh router, as it did on one heap.
    pending_ready: BTreeSet<(SimTime, NodeRef)>,
    /// Nodes whose PodReady has fired, less those evicted since.
    ready: BTreeSet<NodeRef>,
    now: SimTime,
    /// Latest processed event instant across all shards (the "how far did
    /// the run actually get" clock used by the oscillation post-mortem).
    t_max: SimTime,
    booted: bool,
    boot_complete_at: Option<SimTime>,
    feeds_done_at: Option<SimTime>,
    unschedulable: Vec<Unschedulable>,
    phases: SimPhases,
    wall: WallSection,
    /// Conservative lookahead `W` in ms: min cross-shard link latency,
    /// capped at the 2 ms BGP floor. Latencies are clamped ≥ 1 at build.
    lookahead_ms: u64,
    /// Windows run: a function of topology, seed, plan and layout.
    windows: u64,
}

/// Schedules a coordinator-originated event into shard `sid`.
fn inject(fleet: &mut Fleet, shards: &mut [Shard], sid: usize, at: SimTime, kind: EventKind) {
    fleet.events_scheduled += 1;
    let key = fleet.next_key(GLOBAL_ORIGIN, at);
    if let Some(shard) = shards.get_mut(sid) {
        shard.inject(Ev { key, kind });
    }
}

/// Plugs the external feeds in and schedules each one's first poll at `at`.
fn activate_feeds(net: &Net, fleet: &mut Fleet, shards: &mut [Shard], at: SimTime) {
    fleet.feeds_active = true;
    for idx in 0..fleet.externals.len() {
        let sid = net.ext_shard.get(idx).copied().unwrap_or(0);
        if let (Some(Some(_)), Some(shard)) = (fleet.externals.get(idx), shards.get_mut(sid)) {
            shard.schedule_ext_poll(fleet, idx, at);
        }
    }
}

/// The running emulation.
///
/// `Clone` forks it: the copy carries every router, heap, clock and RNG
/// stream and continues exactly as the original would, so a what-if
/// context starts from the converged state instead of a cold boot. The
/// topology and the [`Net`] tables are read-only once booted and stay
/// shared between forks; the few entry points that edit them after boot
/// (config push, late chaos) copy on write.
#[derive(Clone)]
pub struct Emulation {
    pub topology: Arc<Topology>,
    net: Arc<Net>,
    fleet: Fleet,
    shards: Vec<Shard>,
    glob: Global,
}

/// What the coordinator decided at a barrier.
enum Plan {
    /// Run one window: per-shard exclusive end instants.
    Run(Vec<SimTime>),
    /// Quiescent for a full quiet period before anything else is due.
    Converged(SimTime),
    /// No work within the deadline (and not provably converged).
    Done,
}

/// Wall-clock phase-split tracking for `run_until_converged`.
struct WallProgress {
    timer: WallTimer,
    mark: u64,
    boot_done: bool,
    flood_done: bool,
}

impl Emulation {
    /// Prepares an emulation: validates the topology, parses every config
    /// in its vendor dialect (reporting config errors up front, as the real
    /// bring-up would), and builds the interned id space and link tables.
    pub fn new(
        topology: Topology,
        cluster: Cluster,
        cfg: EmulationConfig,
    ) -> Result<Emulation, String> {
        topology.validate()?;
        let mut interner = mfv_types::Interner::new();
        // Sorted interning: NodeRef order == name order, which keeps
        // ref-ordered iteration identical to the old BTreeMap<NodeId> walk.
        let mut names: Vec<&NodeId> = topology.nodes.iter().map(|n| &n.name).collect();
        names.sort();
        for name in names {
            interner.intern_node(name);
        }
        let mut parsed_configs: Vec<Option<mfv_config::Parsed>> =
            (0..interner.node_count()).map(|_| None).collect();
        for node in &topology.nodes {
            let parsed = node
                .parse_config()
                .map_err(|e| format!("config for {}: {e}", node.name))?;
            if let Some(r) = interner.resolve_node(&node.name) {
                if let Some(slot) = parsed_configs.get_mut(r.index()) {
                    *slot = Some(parsed);
                }
            }
        }
        let parsed_configs: Vec<mfv_config::Parsed> = parsed_configs
            .into_iter()
            .map(|p| p.ok_or_else(|| "node config missing after parse".to_string()))
            .collect::<Result<_, _>>()?;
        let mut ends = BTreeMap::new();
        let mut links = Vec::with_capacity(topology.links.len());
        let mut link_index = BTreeMap::new();
        for l in &topology.links {
            let an = interner.intern_node(&l.a_node);
            let ai = interner.intern_iface(&l.a_iface);
            let bn = interner.intern_node(&l.b_node);
            let bi = interner.intern_iface(&l.b_iface);
            let slot = links.len();
            // Latency clamp ≥ 1 ms: a zero-latency link would let one
            // shard's output land in another shard's current instant,
            // collapsing the conservative lookahead to zero.
            let latency_ms = l.latency_ms.max(1);
            ends.insert(
                (an, ai),
                crate::shard::EndInfo {
                    peer: bn,
                    peer_iface: bi,
                    latency_ms,
                    link_slot: slot,
                },
            );
            ends.insert(
                (bn, bi),
                crate::shard::EndInfo {
                    peer: an,
                    peer_iface: ai,
                    latency_ms,
                    link_slot: slot,
                },
            );
            link_index.insert(l.id(), slot);
            links.push(LinkRecord {
                id: l.id(),
                a: (an, ai),
                b: (bn, bi),
            });
        }
        // Vendor profiles with overrides pre-applied, and the static BGP
        // endpoint-address table. Addresses come from parsed configs (what
        // `VirtualRouter::addresses` reports after boot), so ownership
        // never depends on boot order; segments to a not-yet-booted node
        // are dropped at delivery instead of at send.
        let mut profiles = Vec::with_capacity(interner.node_count());
        let mut ip_owner: BTreeMap<Ipv4Addr, Owner> = BTreeMap::new();
        for r in interner.node_refs() {
            let name = interner.node(r).cloned();
            let vendor = name
                .as_ref()
                .and_then(|n| topology.node(n))
                .map(|s| s.vendor);
            let profile = name
                .as_ref()
                .and_then(|n| cfg.profile_overrides.get(n).cloned())
                .or_else(|| vendor.map(VendorProfile::for_vendor))
                .unwrap_or_else(|| VendorProfile::for_vendor(mfv_config::Vendor::Ceos));
            profiles.push(profile);
            if let Some(parsed) = parsed_configs.get(r.index()) {
                for iface in parsed.config.interfaces.iter().filter(|i| i.is_l3()) {
                    if let Some(a) = iface.addr {
                        ip_owner.insert(a.addr, Owner::Node(r));
                    }
                }
            }
        }
        let node_total = topology.nodes.len();
        let seed = cfg.seed;
        let cluster_rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, 0x3000_0000));
        let net = Net {
            interner,
            profiles,
            parsed_configs,
            ends,
            link_ends: links.iter().map(|l| (l.a, l.b)).collect(),
            ip_owner,
            node_shard: Vec::new(),
            ext_shard: Vec::new(),
            seed,
            auto_restart: cfg.auto_restart_crashed,
            impairments: Vec::new(),
            link_impair: vec![Vec::new(); links.len()],
            pair_impair: BTreeMap::new(),
        };
        let fleet = Fleet::new(&net, topology.external_peers.len(), links.len());
        let glob = Global {
            cfg,
            cluster,
            cluster_rng,
            node_total,
            links,
            link_index,
            timeline: BTreeMap::new(),
            timeline_ord: 0,
            chaos_pending: 0,
            pending_ready: BTreeSet::new(),
            ready: BTreeSet::new(),
            now: SimTime::ZERO,
            t_max: SimTime::ZERO,
            booted: false,
            boot_complete_at: None,
            feeds_done_at: None,
            unschedulable: Vec::new(),
            phases: SimPhases::new(),
            wall: WallSection::new(),
            lookahead_ms: 2,
            windows: 0,
        };
        Ok(Emulation {
            topology: Arc::new(topology),
            net: Arc::new(net),
            fleet,
            shards: Vec::new(),
            glob,
        })
    }

    pub fn now(&self) -> SimTime {
        self.glob.now
    }

    fn shard_of(&self, node: NodeRef) -> Option<usize> {
        self.net.node_shard.get(node.index()).copied()
    }

    pub fn router(&self, node: &NodeId) -> Option<&VirtualRouter> {
        let r = self.net.interner.resolve_node(node)?;
        self.fleet.routers.get(r.index())?.as_ref()
    }

    /// Runs an operator CLI command on a node (SSH-to-the-emulated-router).
    pub fn cli(&self, node: &NodeId, command: &str) -> Option<String> {
        self.router(node)
            .map(|r| mfv_vrouter::cli::exec(r, command))
    }

    /// Submits all pods to the cluster, cuts the shard partition from the
    /// resulting placement, builds the shards, and wires external peers.
    /// Called implicitly by the run entry points.
    fn boot(&mut self) {
        if self.glob.booted {
            return;
        }
        self.glob.booted = true;
        let node_count = self.net.interner.node_count();
        // Schedule every pod; remember which machine each landed on.
        let mut machine_of: Vec<Option<String>> = vec![None; node_count];
        for i in 0..self.topology.nodes.len() {
            let name = self.topology.nodes[i].name.clone();
            let Some(node_ref) = self.net.interner.resolve_node(&name) else {
                continue;
            };
            let Some(profile) = self.net.profiles.get(node_ref.index()).cloned() else {
                continue;
            };
            let req = PodRequest {
                pod: name,
                cpu_millis: profile.cpu_millis,
                mem_mib: profile.mem_mib,
            };
            match self.glob.cluster.schedule(
                &req,
                self.glob.now,
                profile.boot_time,
                &mut self.glob.cluster_rng,
            ) {
                Ok(placement) => {
                    machine_of[node_ref.index()] = Some(placement.machine.clone());
                    self.glob
                        .pending_ready
                        .insert((placement.ready_at, node_ref));
                }
                Err(e) => {
                    self.glob.unschedulable.push(e);
                }
            }
        }
        // Cut the partition.
        let node_shard: Vec<usize> = match self.glob.cfg.shards {
            ShardMode::Fixed(n) => {
                let n = n.clamp(1, node_count.max(1));
                let per = node_count.div_ceil(n).max(1);
                (0..node_count).map(|i| (i / per).min(n - 1)).collect()
            }
            ShardMode::Auto => {
                let mut shard_of_machine: BTreeMap<String, usize> = BTreeMap::new();
                for (name, pods) in self.glob.cluster.packing() {
                    if pods > 0 {
                        let next = shard_of_machine.len();
                        shard_of_machine.entry(name).or_insert(next);
                    }
                }
                (0..node_count)
                    .map(|i| {
                        machine_of[i]
                            .as_ref()
                            .and_then(|m| shard_of_machine.get(m))
                            .copied()
                            .unwrap_or(0)
                    })
                    .collect()
            }
        };
        let shard_count = node_shard.iter().copied().max().map(|m| m + 1).unwrap_or(1);
        Arc::make_mut(&mut self.net).node_shard = node_shard;
        // Lookahead: min latency over links whose endpoints live in
        // different shards, capped by the 2 ms BGP segment floor (iBGP
        // sessions may connect any two routers regardless of links).
        let mut lookahead = 2u64;
        for rec in &self.glob.links {
            let sa = self.net.node_shard.get(rec.a.0.index()).copied();
            let sb = self.net.node_shard.get(rec.b.0.index()).copied();
            if sa != sb {
                if let Some(end) = self.net.ends.get(&rec.a) {
                    lookahead = lookahead.min(end.latency_ms);
                }
            }
        }
        self.glob.lookahead_ms = lookahead.max(1);
        let ext_shard = self
            .topology
            .external_peers
            .iter()
            .map(|spec| {
                self.net
                    .interner
                    .resolve_node(&spec.attach_to)
                    .and_then(|r| self.net.node_shard.get(r.index()))
                    .copied()
                    .unwrap_or(0)
            })
            .collect();
        Arc::make_mut(&mut self.net).ext_shard = ext_shard;
        self.shards = (0..shard_count).map(Shard::new).collect();
        // Inject boot events.
        for &(eta, node) in &self.glob.pending_ready {
            if let Some(sid) = self.shard_of(node) {
                let kind = EventKind::PodReady(node);
                inject(&mut self.fleet, &mut self.shards, sid, eta, kind);
            }
        }
        // External peers.
        for idx in 0..self.topology.external_peers.len() {
            let (addr, asn, attach_to, base_octet, route_count) = {
                let spec = &self.topology.external_peers[idx];
                (
                    spec.addr,
                    spec.asn,
                    spec.attach_to.clone(),
                    spec.base_octet,
                    spec.route_count,
                )
            };
            // The router-side address: the attach node's interface on the
            // peer's subnet. Resolved from the config parsed at `new()`.
            let router_addr = self
                .net
                .interner
                .resolve_node(&attach_to)
                .and_then(|r| self.net.parsed_configs.get(r.index()))
                .and_then(|parsed| {
                    parsed
                        .config
                        .interfaces
                        .iter()
                        .filter(|i| i.is_l3())
                        .filter_map(|i| i.addr)
                        .find(|a| a.subnet().contains(addr))
                        .map(|a| a.addr)
                })
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let base = base_octet.unwrap_or(20 + idx as u8);
            let routes = synthetic_prefixes(base, route_count);
            let peer = ExternalPeer::new(addr, asn, router_addr, routes);
            // Router addresses win collisions, as they did when routers
            // re-registered over external entries at boot.
            Arc::make_mut(&mut self.net)
                .ip_owner
                .entry(addr)
                .or_insert(Owner::External(idx));
            self.fleet.install_external(idx, peer);
        }
        if !self.glob.cfg.inject_after_boot {
            activate_feeds(&self.net, &mut self.fleet, &mut self.shards, SimTime(1_000));
        }
        // Chaos schedule: expand the plan into the coordinator timeline up
        // front so the whole fault timeline is part of the deterministic
        // window structure.
        let plan = self.glob.cfg.chaos.clone();
        expand_chaos(&mut self.glob, Arc::make_mut(&mut self.net), plan);
    }

    /// Injects a chaos schedule into a running emulation. Before boot the
    /// plan is folded into the configured one; after boot it expands into
    /// timeline entries immediately (instants already in the past fire at
    /// `now`). Used by the continuous-verification loop to start faulting
    /// only once the initial convergence is done.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) {
        if !self.glob.booted {
            self.glob
                .cfg
                .chaos
                .events
                .extend(plan.events.iter().cloned());
            return;
        }
        expand_chaos(&mut self.glob, Arc::make_mut(&mut self.net), plan.clone());
    }

    /// Advances virtual time to exactly `deadline`, processing every work
    /// item due on the way, with none of the convergence machinery: no
    /// quiet-period fast-forward, no watchdog, no phase bookkeeping. The
    /// continuous-verification tick loop drives the steady-state emulation
    /// with this — chaos events fire, routers reconverge, and the clock
    /// lands on `deadline` even when the network is idle (so telemetry
    /// stamps and backoff timers keep moving). Returns the number of work
    /// items processed during this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.boot();
        let before = self.events_processed();
        drive(
            &mut self.glob,
            &self.net,
            &mut self.fleet,
            &mut self.shards,
            deadline,
            false,
            None,
        );
        for shard in &mut self.shards {
            shard.advance_clock(deadline);
        }
        self.glob.now = self.glob.now.max(deadline);
        self.events_processed() - before
    }

    /// Work items processed since boot (what [`RunReport::events_processed`]
    /// reported at the end of the last run).
    pub fn events_processed(&self) -> u64 {
        self.fleet.events_processed
    }

    /// Runs the emulation until the dataplane is quiet (or the time cap),
    /// and renders the watchdog's [`ConvergenceVerdict`]: a quiet spell
    /// only counts once every scheduled fault has fired, and a run that
    /// exhausts its budget is post-mortemed for oscillation.
    pub fn run_until_converged(&mut self) -> RunReport {
        // Wall-clock phase splits. The sim-time twins are derived from
        // `boot_complete_at`/`feeds_done_at` below; only these wall marks
        // touch the real clock, and they land in the quarantined wall
        // section of the obs export.
        let mut wp = WallProgress {
            timer: WallTimer::start(),
            mark: 0,
            boot_done: self.glob.boot_complete_at.is_some(),
            flood_done: self.glob.feeds_done_at.is_some(),
        };
        self.boot();
        let deadline = SimTime(self.glob.cfg.max_sim_time.as_millis());
        let converged = drive(
            &mut self.glob,
            &self.net,
            &mut self.fleet,
            &mut self.shards,
            deadline,
            true,
            Some(&mut wp),
        );
        self.glob.now = self.glob.now.max(self.glob.t_max);
        self.glob.wall.add_phase(
            "converge",
            wp.timer.elapsed_micros().saturating_sub(wp.mark),
        );
        let last_activity = self.fleet.last_activity;
        let verdict = if converged {
            ConvergenceVerdict::Converged
        } else {
            oscillation_verdict(&self.glob, &self.fleet.churn)
        };
        // Sim-time spans mirror the wall splits, derived purely from sim
        // state so replays produce identical reports.
        if let Some(boot_at) = self.glob.boot_complete_at {
            self.glob.phases.record("boot", SimTime::ZERO, boot_at);
            let converge_from = match self.glob.feeds_done_at {
                Some(flood_at) => {
                    self.glob.phases.record("flood", boot_at, flood_at);
                    flood_at
                }
                None => boot_at,
            };
            self.glob
                .phases
                .record("converge", converge_from, last_activity.max(converge_from));
        }
        RunReport {
            converged,
            verdict,
            boot_complete_at: self.glob.boot_complete_at,
            converged_at: last_activity,
            messages_delivered: self.fleet.messages_delivered,
            crashes: self.fleet.crashes,
            events_processed: self.fleet.events_processed,
            events_scheduled: self.fleet.events_scheduled,
            unschedulable: self.glob.unschedulable.clone(),
            phases: self.glob.phases.clone(),
        }
    }

    /// Applies a configuration change to a running node (config push) and
    /// returns immediately; call `run_until_converged` to settle.
    pub fn push_config(&mut self, node: &NodeId, text: &str) -> Result<(), String> {
        let spec = Arc::make_mut(&mut self.topology)
            .nodes
            .iter_mut()
            .find(|n| &n.name == node)
            .ok_or_else(|| format!("unknown node {node}"))?;
        let vendor = spec.vendor;
        let parsed = mfv_config::parse(vendor, text).map_err(|e| e.to_string())?;
        spec.config_text = text.to_string();
        let Some(node_ref) = self.net.interner.resolve_node(node) else {
            return Ok(());
        };
        let now = self.glob.now;
        let Some(sid) = self.shard_of(node_ref) else {
            return Ok(());
        };
        let Some(shard) = self.shards.get_mut(sid) else {
            return Ok(());
        };
        shard.advance_clock(now);
        let fleet = &mut self.fleet;
        if let Some(router) = fleet
            .routers
            .get_mut(node_ref.index())
            .and_then(|s| s.as_mut())
        {
            router.apply_config(parsed.config);
            let net = Arc::make_mut(&mut self.net);
            for addr in router.addresses() {
                net.ip_owner.insert(*addr, Owner::Node(node_ref));
            }
            fleet.last_activity = fleet.last_activity.max(now);
            shard.schedule_poll(fleet, node_ref, SimTime(now.0 + 1));
        }
        Ok(())
    }

    /// Brings a link up or down (failure injection): carrier loss, so both
    /// ports withdraw their connected subnet. Unknown links are ignored.
    pub fn set_link(&mut self, link: &LinkId, up: bool) {
        self.change_link(link, LinkChange::Carrier(up));
    }

    /// Takes a link's wire out of the running network and leaves both ports
    /// configured and up: the warm twin of booting the topology without the
    /// link, which is what a what-if cut context asks about. Call
    /// [`run_until_converged`](Self::run_until_converged) to settle. Unknown
    /// links are ignored.
    pub fn remove_wire(&mut self, link: &LinkId) {
        self.change_link(link, LinkChange::WireRemoved);
    }

    fn change_link(&mut self, link: &LinkId, change: LinkChange) {
        let Some(&slot) = self.glob.link_index.get(link) else {
            return;
        };
        let now = self.glob.now;
        self.fleet.link_up[slot] = change.carries();
        for sid in self.net.link_shards(slot) {
            if let Some(shard) = self.shards.get_mut(sid) {
                shard.advance_clock(now);
                shard.apply_link(&self.net, &mut self.fleet, slot, change);
            }
        }
        self.fleet.last_activity = self.fleet.last_activity.max(now);
    }

    /// Extracts the current dataplane snapshot (the AFT dump step).
    /// `NodeRef` order is name order, so the walk matches the old
    /// string-keyed map's iteration byte for byte — at any shard layout.
    pub fn dataplane(&self) -> Dataplane {
        let mut dp = Dataplane::new();
        for (r, slot) in self.net.interner.node_refs().zip(&self.fleet.routers) {
            let Some(router) = slot else {
                continue;
            };
            let Some(name) = self.net.interner.node(r) else {
                continue;
            };
            dp.add_node(
                name.clone(),
                router.fib(),
                router.addresses().clone(),
                router.is_running(),
            );
        }
        for link in self.up_links() {
            dp.add_link(link.clone());
        }
        dp
    }

    /// The links that are up right now, in topology order.
    pub fn up_links(&self) -> impl Iterator<Item = &LinkId> {
        let links = self.glob.links.iter().zip(&self.fleet.link_up);
        links.filter(|(_, up)| **up).map(|(l, _)| &l.id)
    }

    /// The steady-state churn tracker: per prefix, the retained
    /// dataplane-change instants in order. The fold keeps them in instant
    /// order whatever order they arrive in, so this dump is a function of
    /// the run alone — determinism tests compare it alongside the verdict.
    pub fn churn_dump(&self) -> BTreeMap<Prefix, Vec<SimTime>> {
        let churn = self.fleet.churn.iter();
        churn
            .map(|(p, q)| (*p, q.iter().copied().collect()))
            .collect()
    }

    /// The number of shards the partition produced (0 before boot).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Expands a [`ChaosPlan`] into coordinator timeline entries and
/// impairment windows. Link/node targets resolve to slots/refs here, once.
fn expand_chaos(glob: &mut Global, net: &mut Net, plan: ChaosPlan) {
    let insert = |glob: &mut Global, at: SimTime, action: GlobalAction| {
        glob.timeline_ord += 1;
        let ord = glob.timeline_ord;
        glob.timeline.insert((at, ord), action);
    };
    for ev in plan.events {
        match ev {
            ChaosEvent::LinkFlap {
                link,
                at,
                down_for,
                repeats,
                every,
            } => {
                let slot = glob.link_index.get(&link).copied();
                for k in 0..repeats as u64 {
                    // `.max(now)` keeps late-scheduled plans legal: an
                    // instant already in the past fires immediately
                    // instead of rewinding the clock. At boot `now` is
                    // zero, so pre-run plans expand exactly as authored.
                    let down_at = (at + every.saturating_mul(k)).max(glob.now);
                    glob.chaos_pending += 2;
                    insert(glob, down_at, GlobalAction::Link { slot, up: false });
                    insert(
                        glob,
                        down_at + down_for,
                        GlobalAction::Link { slot, up: true },
                    );
                }
            }
            ChaosEvent::KillRouting { node, at } => {
                glob.chaos_pending += 1;
                let target = net.interner.resolve_node(&node);
                insert(glob, at.max(glob.now), GlobalAction::Kill(target));
            }
            ChaosEvent::FailMachine { machine, at } => {
                glob.chaos_pending += 1;
                insert(glob, at.max(glob.now), GlobalAction::FailMachine(machine));
            }
            ChaosEvent::Impair {
                link,
                from,
                until,
                spec,
            } => {
                let w = net.impairments.len();
                if let Some(&slot) = glob.link_index.get(&link) {
                    if let Some(v) = net.link_impair.get_mut(slot) {
                        v.push(w);
                    }
                }
                // BGP impairment matches by node pair even when the
                // LinkId's interfaces don't name a physical link.
                if let (Some(a), Some(b)) = (
                    net.interner.resolve_node(&link.a.0),
                    net.interner.resolve_node(&link.b.0),
                ) {
                    let key = if a <= b { (a, b) } else { (b, a) };
                    net.pair_impair.entry(key).or_default().push(w);
                }
                net.impairments.push(ImpairWindow { from, until, spec });
            }
        }
    }
}

/// The watchdog's post-mortem when the time budget expires: prefixes that
/// kept changing right up to the end mean the network is *oscillating*,
/// not converging slowly.
fn oscillation_verdict(
    glob: &Global,
    churn: &BTreeMap<Prefix, VecDeque<SimTime>>,
) -> ConvergenceVerdict {
    let window = glob.cfg.quiet_period.saturating_mul(4);
    let now = glob.now;
    let mut churning: Vec<(&Prefix, &VecDeque<SimTime>)> = churn
        .iter()
        .filter(|(_, q)| {
            q.len() >= OSCILLATION_MIN_CHANGES
                && q.back().map(|t| now.since(*t) <= window).unwrap_or(false)
        })
        .collect();
    if churning.is_empty() {
        return ConvergenceVerdict::TimedOut;
    }
    // Flap period: mean inter-change interval of the most-churning prefix
    // (ties broken by prefix order — deterministic).
    churning.sort_by_key(|(p, q)| (std::cmp::Reverse(q.len()), **p));
    let period = match churning.first() {
        Some((_, q)) => match (q.front(), q.back()) {
            (Some(first), Some(last)) => SimDuration::from_millis(
                last.since(*first).as_millis() / (q.len() as u64 - 1).max(1),
            ),
            _ => SimDuration::ZERO,
        },
        None => SimDuration::ZERO,
    };
    let mut prefixes: Vec<Prefix> = churning.iter().map(|(p, _)| **p).collect();
    prefixes.sort();
    prefixes.truncate(ConvergenceVerdict::MAX_REPORTED_PREFIXES);
    ConvergenceVerdict::Oscillating { period, prefixes }
}

/// Runs the window loop to `deadline` on the calling thread: plan a window,
/// run every shard that has work before its window end, settle. Returns
/// whether the run converged (always `false` when `converge` is off —
/// `run_until` has no watchdog).
fn drive(
    glob: &mut Global,
    net: &Net,
    fleet: &mut Fleet,
    shards: &mut [Shard],
    deadline: SimTime,
    converge: bool,
    mut wall: Option<&mut WallProgress>,
) -> bool {
    let mut laps = Laps::start();
    loop {
        let planned = plan(glob, net, fleet, shards, deadline, converge);
        fleet.loop_wall.plan += laps.lap();
        match planned {
            Plan::Run(ends) => {
                for (shard, &end) in shards.iter_mut().zip(&ends) {
                    shard.run_window(net, fleet, end, &mut laps);
                }
                glob.windows += 1;
                settle(glob, net, fleet, shards, &ends, deadline);
                fleet.loop_wall.settle += laps.lap();
                if let Some(wp) = wall.as_deref_mut() {
                    mark_wall(glob, wp);
                }
            }
            Plan::Converged(at) => {
                glob.now = glob.now.max(at);
                return true;
            }
            Plan::Done => return false,
        }
    }
}

/// One coordinator barrier: fire due timeline actions, decide convergence,
/// or plan the next window's per-shard end instants.
fn plan(
    glob: &mut Global,
    net: &Net,
    fleet: &mut Fleet,
    shards: &mut [Shard],
    deadline: SimTime,
    converge: bool,
) -> Plan {
    loop {
        let dues: Vec<Option<SimTime>> = shards.iter().map(Shard::next_due).collect();
        let last_act = fleet.last_activity;
        let shard_due = dues.iter().flatten().min().copied();
        let glob_due = glob.timeline.keys().next().map(|&(t, _)| t);
        let t = [shard_due, glob_due].into_iter().flatten().min();
        if converge {
            // The quiet rule is a pure function of processed content
            // (activity times, readiness, feed/chaos state) and the next
            // due instant — never of the window structure — so every
            // layout reaches the same verdict.
            let quiescent = glob.ready.len()
                == glob.node_total.saturating_sub(glob.unschedulable.len())
                && fleet.feeds_done == fleet.externals.len()
                && fleet.pending_restarts == 0
                && glob.chaos_pending == 0
                && fleet.chaos_in_flight == 0;
            let quiet_at = last_act + glob.cfg.quiet_period;
            if quiescent && quiet_at <= deadline && t.map(|t| quiet_at < t).unwrap_or(true) {
                return Plan::Converged(quiet_at);
            }
        }
        let Some(t) = t else {
            return Plan::Done;
        };
        if t > deadline {
            return Plan::Done;
        }
        if glob_due == Some(t) {
            // Fire every timeline action at exactly `t` (in plan order)
            // before any shard event at `t` — coordinator-origin events
            // sort first within the heaps, so replicas injected here still
            // precede same-instant traffic.
            for s in shards.iter_mut() {
                s.advance_clock(t);
            }
            while let Some((&(ti, ord), _)) = glob.timeline.iter().next() {
                if ti != t {
                    break;
                }
                if let Some(action) = glob.timeline.remove(&(ti, ord)) {
                    apply_global(glob, net, fleet, shards, t, action);
                }
            }
            glob.t_max = glob.t_max.max(t);
            continue; // injections/evictions changed the due picture
        }
        // Window ends. Shard i may run while every event it could receive
        // is still in the future: arrivals from shard j happen no earlier
        // than due_j + W. Known flaw, kept so the pinned work counts hold:
        // the bound ignores shard i's own sends coming back through another
        // shard, which can arrive from due_i + 2W on, so a shard may handle
        // them behind its clock and layouts differ in work items
        // (`tests/shard_determinism.rs::a_layout_moves_no_work_item`).
        let w = glob.lookahead_ms;
        let next_glob = glob_due.map(|g| g.0).unwrap_or(u64::MAX);
        let boot_cut = if glob.boot_complete_at.is_none() {
            glob.pending_ready
                .first()
                .map(|(eta, _)| eta.0.saturating_add(1))
                .unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        // In converge mode, stop at the earliest possible convergence
        // instant so a converged run doesn't burn sim-time to the cap.
        let quiet_cut = if converge {
            (last_act + glob.cfg.quiet_period).0.saturating_add(1)
        } else {
            u64::MAX
        };
        let hard = deadline
            .0
            .saturating_add(1)
            .min(next_glob)
            .min(boot_cut)
            .min(quiet_cut)
            .max(t.0.saturating_add(1)); // always admit the due instant
        let single = shards.len() == 1;
        let ends: Vec<SimTime> = (0..shards.len())
            .map(|i| {
                let others = dues
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .filter_map(|(_, d)| *d)
                    .min();
                let e = if single {
                    u64::MAX
                } else {
                    others.map(|o| o.0.saturating_add(w)).unwrap_or(u64::MAX)
                };
                SimTime(e.min(hard))
            })
            .collect();
        return Plan::Run(ends);
    }
}

/// Applies one timeline action at instant `t` (every shard clock is
/// already advanced to `t`).
fn apply_global(
    glob: &mut Global,
    net: &Net,
    fleet: &mut Fleet,
    shards: &mut [Shard],
    t: SimTime,
    action: GlobalAction,
) {
    fleet.events_processed += 1;
    match action {
        GlobalAction::Link { slot, up } => {
            fleet.tally.chaos_link += 1;
            glob.chaos_pending = glob.chaos_pending.saturating_sub(1);
            // Unknown links (slot None) are inert.
            let Some(slot) = slot else { return };
            let kind = if up {
                "chaos.link_up"
            } else {
                "chaos.link_down"
            };
            let detail = glob
                .links
                .get(slot)
                .map(|r| r.id.to_string())
                .unwrap_or_default();
            fleet.journal.push(t, kind, detail);
            // One event per endpoint shard: each sets the link's state and
            // pokes its own endpoint router(s).
            for sid in net.link_shards(slot) {
                fleet.chaos_in_flight += 1;
                inject(fleet, shards, sid, t, EventKind::ChaosLink { slot, up });
            }
        }
        GlobalAction::Kill(node) => {
            glob.chaos_pending = glob.chaos_pending.saturating_sub(1);
            let target = node.and_then(|n| Some((n, *net.node_shard.get(n.index())?)));
            match target {
                Some((node, sid)) => {
                    fleet.chaos_in_flight += 1;
                    inject(fleet, shards, sid, t, EventKind::ChaosKillRouter(node));
                }
                // Unknown node: inert, but still tallied as fired.
                None => fleet.tally.chaos_kill += 1,
            }
        }
        GlobalAction::FailMachine(name) => {
            fleet.tally.chaos_fail_machine += 1;
            glob.chaos_pending = glob.chaos_pending.saturating_sub(1);
            let evicted = glob.cluster.fail_machine(&name);
            fleet.journal.push(
                t,
                "chaos.fail_machine",
                format!("{name}: {} pods evicted", evicted.len()),
            );
            for req in evicted {
                // The pod (and its router) is gone; the scheduler
                // resubmits it onto surviving machines, and the usual
                // PodReady path boots a fresh instance — in the node's
                // original shard (the partition is a simulation artifact
                // cut once at boot).
                let Some(node) = net.interner.resolve_node(&req.pod) else {
                    continue;
                };
                let Some(&sid) = net.node_shard.get(node.index()) else {
                    continue;
                };
                if let Some(shard) = shards.get_mut(sid) {
                    shard.evict_node(fleet, node, t);
                }
                glob.ready.remove(&node);
                let Some(profile) = net.profiles.get(node.index()).cloned() else {
                    continue;
                };
                match glob
                    .cluster
                    .schedule(&req, t, profile.boot_time, &mut glob.cluster_rng)
                {
                    Ok(placement) => {
                        glob.pending_ready.insert((placement.ready_at, node));
                        let kind = EventKind::PodReady(node);
                        inject(fleet, shards, sid, placement.ready_at, kind);
                    }
                    Err(e) => {
                        glob.unschedulable.push(e);
                    }
                }
            }
        }
    }
}

/// Post-window barrier work: route cross-shard traffic, then read what the
/// window did (boot readiness, feed completion) into the coordinator's
/// content-determined global view.
fn settle(
    glob: &mut Global,
    net: &Net,
    fleet: &mut Fleet,
    shards: &mut [Shard],
    ends: &[SimTime],
    deadline: SimTime,
) {
    let mut inbox: Vec<(usize, Ev)> = Vec::new();
    for (s, &end) in shards.iter_mut().zip(ends) {
        glob.t_max = glob.t_max.max(s.now());
        inbox.append(&mut s.outbox);
        s.advance_clock(SimTime(end.0.min(deadline.0)));
    }
    // Cross-shard deliveries: injection order is irrelevant — event keys
    // are globally unique, so each destination heap reaches the same total
    // order whichever shard's outbox is drained first.
    for (dest, ev) in inbox {
        if let Some(shard) = shards.get_mut(dest) {
            shard.inject(ev);
        }
    }
    // Boot readiness: every scheduled PodReady instant inside its shard's
    // processed horizon has fired. Only the instants before the furthest
    // window end are looked at, so a barrier costs what fired, not what is
    // still pending. Mark in (instant, node) order so boot completion lands
    // on the exact completing instant.
    let horizon = ends.iter().max().copied().unwrap_or(SimTime::ZERO);
    let fired: Vec<(SimTime, NodeRef)> = glob
        .pending_ready
        .iter()
        .take_while(|(eta, _)| *eta < horizon)
        .filter(|(eta, node)| {
            let sid = net.node_shard.get(node.index()).copied().unwrap_or(0);
            *eta < ends.get(sid).copied().unwrap_or(SimTime::ZERO)
        })
        .copied()
        .collect();
    for (eta, node) in fired {
        glob.pending_ready.remove(&(eta, node));
        glob.ready.insert(node);
        if glob.ready.len() == glob.node_total && glob.boot_complete_at.is_none() {
            glob.boot_complete_at = Some(eta);
            fleet.journal.push(
                eta,
                "engine.boot_complete",
                format!("{} pods ready", glob.ready.len()),
            );
            if glob.cfg.inject_after_boot {
                activate_feeds(net, fleet, shards, SimTime(eta.0 + 1_000));
            }
        }
    }
    // Flood completion: the exact instant the last feed drained (clamped
    // to boot completion, which gates activation in the first place).
    let feeds = fleet.externals.len();
    let steady = match glob.boot_complete_at {
        Some(boot_at) if fleet.feeds_done == feeds => Some(boot_at.max(fleet.last_feed_done)),
        _ => None,
    };
    if glob.feeds_done_at.is_none() && feeds > 0 {
        if let Some(at) = steady {
            glob.feeds_done_at = Some(at);
            fleet
                .journal
                .push(at, "engine.flood_complete", "external feeds drained");
        }
    }
    // Steady-state churn gate: the barrier that first knows the steady
    // instant announces it; before that, held change records are dropped.
    fleet.gate_churn(steady);
}

/// Wall-clock phase splits for `run_until_converged`, checked after each
/// barrier (the only reader of the real clock; lands in the quarantined
/// `wall` obs section).
fn mark_wall(glob: &mut Global, wp: &mut WallProgress) {
    if !wp.boot_done && glob.boot_complete_at.is_some() {
        wp.boot_done = true;
        let us = wp.timer.elapsed_micros();
        glob.wall.add_phase("boot", us.saturating_sub(wp.mark));
        wp.mark = us;
    }
    if wp.boot_done && !wp.flood_done && glob.feeds_done_at.is_some() {
        wp.flood_done = true;
        let us = wp.timer.elapsed_micros();
        glob.wall.add_phase("flood", us.saturating_sub(wp.mark));
        wp.mark = us;
    }
}
