//! The virtual router: a vendor OS instance wired from a parsed
//! [`DeviceConfig`], composing the protocol engines into a full control
//! plane with a RIB, FIB, and vendor-specific byte-level behaviour.
//!
//! This is the moral equivalent of the vendor container image in the paper's
//! KNE deployment: the unit the emulator boots per topology node.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use mfv_config::{DeviceConfig, Redistribute};
use mfv_routing::bgp::{BgpEngine, BgpWork, Quirks};
use mfv_routing::isis::{IsisEngine, IsisEngineConfig, IsisIfaceConfig, IsisWork};
use mfv_routing::policy::{eval_route_map, BgpAttrs, PolicyResult};
use mfv_routing::rib::{Fib, GatewayMemo, NextHop, Rib, RibRoute};
use mfv_types::{IfaceId, NodeId, Prefix, RouteProtocol, RouterId, SimTime};
use mfv_wire::bgp::{BgpMsg, PathAttr};
use mfv_wire::isis::{self as isis_wire, net_area_bytes, net_system_id, SystemId};

use crate::profile::VendorProfile;

thread_local! {
    /// The IS-IS route changes of an SPF run on their way into the RIB: one
    /// buffer per thread, kept between runs, rather than one per engine.
    static SPF_CHANGES: Cell<Vec<(Prefix, Option<RibRoute>)>> = const { Cell::new(Vec::new()) };
}

/// Output events produced by [`VirtualRouter::poll`].
#[derive(Clone, Debug)]
pub enum RouterEvent {
    /// A link-local IS-IS PDU to place on the wire cabled to `port`
    /// (see [`VirtualRouter::ports`]).
    IsisFrame { port: usize, payload: Bytes },
    /// A BGP message addressed to a (possibly multi-hop) peer.
    BgpSegment {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    },
    /// The routing process died (vendor bug). The emulator restarts the
    /// router after its profile's restart delay.
    Crashed { reason: String },
}

/// Operational state of the instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouterState {
    Running,
    /// The routing process crashed at the contained time.
    Crashed(SimTime),
}

/// A full virtual router instance.
#[derive(Clone)]
pub struct VirtualRouter {
    pub name: NodeId,
    profile: VendorProfile,
    /// Replaced whole, never edited: a fork shares it.
    config: Arc<DeviceConfig>,
    state: RouterState,
    isis: Option<IsisEngine>,
    /// Boxed: most routers of an IGP-only network run none, and should
    /// not carry an engine's worth of empty tables inline.
    bgp: Option<Box<BgpEngine>>,
    /// Connected, static and IS-IS routes and the IGP view over them.
    /// Persistent: each poll applies only what its sources changed. BGP's
    /// routes are its selection, which the FIB reads in place.
    rib: Rib,
    /// Always `rib.to_fib()` joined with BGP's selection, maintained by
    /// re-resolving the prefixes a poll's changes can have touched.
    fib: Fib,
    /// Which gateway addresses the FIB's resolutions looked up in the IGP
    /// view; an IGP change re-resolves the dependents of those inside it.
    gateways: GatewayIndex,
    /// Prefixes currently originated into BGP.
    originated: BTreeSet<Prefix>,
    /// L3 addresses owned under the current config.
    addresses: BTreeSet<Ipv4Addr>,
    /// The router's ports, by port index; see [`ports`](Self::ports).
    ports: Vec<Port>,
    /// Monotone counter bumped whenever the FIB content changes; the
    /// emulator's convergence detector watches it.
    fib_version: u64,
    /// This instance's number in the process (a clone keeps it).
    incarnation: u64,
    /// Prefixes whose FIB entries changed since the last
    /// [`take_changed_prefixes`](Self::take_changed_prefixes) — the
    /// emulator's convergence watchdog uses these to tell oscillation
    /// (the same prefixes churning) from slow convergence.
    changed_prefixes: BTreeSet<Prefix>,
    pending_crash: Option<String>,
    /// Events queued outside poll (e.g. session teardowns on config push).
    pending_out: Vec<RouterEvent>,
    /// True when connected/static route sources may have changed (link
    /// events, config pushes, restarts); cleared after the RIB resync.
    rib_sources_dirty: bool,
    /// Count of messages that failed vendor decoding (dropped).
    pub decode_errors: u64,
    /// Polls that found a route source (connected/static/IS-IS) flagged
    /// as moved and synced it into the RIB.
    pub rib_resyncs: u64,
    /// Rebuilds of every table from empty state: one per boot, restart
    /// and config push.
    pub full_rebuilds: u64,
    /// Polls that re-resolved at least one FIB prefix.
    pub fib_patches: u64,
    /// IS-IS SPF runs.
    pub spf_runs: u64,
    /// Prefixes whose connected/static/IS-IS route changed, summed over
    /// polls.
    pub igp_delta_prefixes: u64,
    /// FIB prefixes re-resolved, summed over polls.
    pub fib_prefixes_resolved: u64,
    /// Gateways resolved through the IGP view, summed over polls: one per
    /// distinct `Via` gateway of a poll's stale prefixes.
    pub fib_gateway_resolutions: u64,
    /// The BGP engine's work counts (across routing-process restarts),
    /// its outbound messages that failed encoding among them.
    pub bgp_work: BgpWork,
    /// The IS-IS engine's work counts (across routing-process restarts).
    pub isis_work: IsisWork,
    /// Wall time inside the three sections of a poll that can be long,
    /// taken only on the polls where the section has work to do, off the
    /// stopwatch [`poll`](Self::poll) is handed.
    pub wall: PollWall,
}

/// Numbers router instances: see [`VirtualRouter::fib_epoch`].
static INCARNATIONS: AtomicU64 = AtomicU64::new(0);

/// When a router's FIB was read: equal epochs, equal FIBs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FibEpoch {
    pub incarnation: u64,
    pub version: u64,
}

/// One of a router's ports: an interface and its carrier.
#[derive(Clone, Debug)]
struct Port {
    name: IfaceId,
    /// Physical link state (loopbacks are always up).
    up: bool,
    /// The IS-IS adjacency slot that runs on the port, if one does.
    adjacency: Option<usize>,
}

impl Port {
    /// A port with carrier.
    fn new(name: &IfaceId) -> Port {
        Port {
            name: name.clone(),
            up: true,
            adjacency: None,
        }
    }
}

/// Nanoseconds of wall time per timed poll section. Never read by the
/// router itself; exported under the obs dump's quarantined `wall` key.
#[derive(Clone, Copy, Default, Debug)]
pub struct PollWall {
    /// SPF runs and the IS-IS route changes they install.
    pub spf_ns: u64,
    /// BGP polls that had decisions to run or a table to send.
    pub bgp_ns: u64,
    /// FIB resolution of a non-empty stale set.
    pub fib_ns: u64,
    /// Sections timed: what the three sums cost, in stopwatch pairs.
    pub pairs: u64,
}

impl PollWall {
    /// Closes the section that began at `started_ns` on `stopwatch`;
    /// returns how long it took.
    fn close(&mut self, started_ns: u64, stopwatch: Stopwatch) -> u64 {
        self.pairs += 1;
        stopwatch().saturating_sub(started_ns)
    }
}

/// Monotonic wall nanoseconds, as the caller reads them: the router owns no
/// clock (rule D2; the one clock read is `mfv_obs::WallTimer`).
pub type Stopwatch<'a> = &'a dyn Fn() -> u64;

// Every router of every emulation and fork holds one of these inline, BGP
// or not: what a table gains (the FIB's set store) must come out of what is
// boxed, so an IGP-only network never pays for it.
const _: () = assert!(std::mem::size_of::<VirtualRouter>() <= 1016);

/// The addresses the FIB's resolutions looked up in the IGP view, kept
/// small: per prefix only for the RIB's recursive winners (statics, a
/// handful), per gateway for BGP's, whose prefixes the engine's next-hop
/// index names.
#[derive(Clone, Default)]
pub struct GatewayIndex {
    /// RIB winner's prefix → the addresses its resolution looked up.
    by_prefix: BTreeMap<Prefix, Vec<Ipv4Addr>>,
    /// Gateway → the addresses its resolution looked up: every gateway a
    /// batch's memo resolved, a BGP next hop or a static's.
    by_gateway: BTreeMap<Ipv4Addr, Vec<Ipv4Addr>>,
}

impl GatewayIndex {
    /// Replaces the addresses recorded for `prefix`'s RIB winner.
    fn set(&mut self, prefix: Prefix, gateways: &[Ipv4Addr]) {
        if gateways.is_empty() {
            self.by_prefix.remove(&prefix);
        } else if self.by_prefix.get(&prefix).map(Vec::as_slice) != Some(gateways) {
            self.by_prefix.insert(prefix, gateways.to_vec());
        }
    }

    /// Adds to `stale` the prefixes whose resolution the IGP view moving at
    /// `moved` can alter: the RIB winners that looked an address inside it
    /// up, and every prefix `bgp` has a candidate for through a gateway
    /// that did. Those gateways are forgotten; the batch that re-resolves
    /// their prefixes records them afresh.
    fn take_dependents(
        &mut self,
        moved: &BTreeSet<Prefix>,
        bgp: Option<&BgpEngine>,
        stale: &mut BTreeSet<Prefix>,
    ) {
        if moved.is_empty() {
            return;
        }
        let touched =
            |addrs: &Vec<Ipv4Addr>| addrs.iter().any(|a| moved.iter().any(|m| m.contains(*a)));
        let statics = self.by_prefix.iter().filter(|(_, a)| touched(a));
        stale.extend(statics.map(|(prefix, _)| *prefix));
        self.by_gateway.retain(|gateway, addrs| {
            let moved_here = touched(addrs);
            if moved_here {
                stale.extend(bgp.into_iter().flat_map(|bgp| bgp.prefixes_via(*gateway)));
            }
            !moved_here
        });
    }

    /// Entries kept: RIB winners plus gateways.
    pub fn entries(&self) -> usize {
        self.by_prefix.len() + self.by_gateway.len()
    }
}

impl VirtualRouter {
    /// Boots a router from config. The emulator accounts for container boot
    /// *time* separately (pod scheduling); once constructed, the control
    /// plane is live.
    pub fn new(name: NodeId, profile: VendorProfile, config: DeviceConfig) -> VirtualRouter {
        let ports = config
            .interfaces
            .iter()
            .map(|i| Port::new(&i.name))
            .collect();
        let mut router = VirtualRouter {
            name,
            profile,
            config: Arc::new(config),
            state: RouterState::Running,
            isis: None,
            bgp: None,
            rib: Rib::new(),
            fib: Fib::new(),
            gateways: GatewayIndex::default(),
            originated: BTreeSet::new(),
            addresses: BTreeSet::new(),
            ports,
            fib_version: 0,
            incarnation: INCARNATIONS.fetch_add(1, Ordering::SeqCst),
            changed_prefixes: BTreeSet::new(),
            pending_crash: None,
            pending_out: Vec::new(),
            rib_sources_dirty: true,
            decode_errors: 0,
            rib_resyncs: 0,
            full_rebuilds: 0,
            fib_patches: 0,
            spf_runs: 0,
            igp_delta_prefixes: 0,
            fib_prefixes_resolved: 0,
            fib_gateway_resolutions: 0,
            bgp_work: BgpWork::default(),
            isis_work: IsisWork::default(),
            wall: PollWall::default(),
        };
        router.boot();
        router
    }

    /// The router's ports, by port index: its boot config's interfaces in
    /// order, then each interface a later config or link event names
    /// first. A port's index never changes, and carries its frames
    /// ([`RouterEvent::IsisFrame`], [`push_isis`](Self::push_isis)); a name
    /// listed twice is on its first port.
    pub fn ports(&self) -> impl Iterator<Item = &IfaceId> {
        self.ports.iter().map(|p| &p.name)
    }

    /// The port `iface` is on.
    pub fn port(&self, iface: &IfaceId) -> Option<usize> {
        self.ports.iter().position(|p| &p.name == iface)
    }

    /// The port `iface` is on, added, its carrier up, if it is new.
    fn port_or_add(&mut self, iface: &IfaceId) -> &mut Port {
        let at = self.port(iface).unwrap_or(self.ports.len());
        if at == self.ports.len() {
            self.ports.push(Port::new(iface));
        }
        &mut self.ports[at]
    }

    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    pub fn state(&self) -> RouterState {
        self.state
    }

    pub fn is_running(&self) -> bool {
        matches!(self.state, RouterState::Running)
    }

    /// The router's current FIB (empty while crashed).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// Monotone FIB change counter.
    pub fn fib_version(&self) -> u64 {
        self.fib_version
    }

    /// The FIB's change epoch: two reads at one epoch saw the same FIB. Two
    /// instances never share one, whatever their versions; a clone starts
    /// at its original's, so a fork compares with its baseline.
    pub fn fib_epoch(&self) -> FibEpoch {
        FibEpoch {
            incarnation: self.incarnation,
            version: self.fib_version,
        }
    }

    /// Drains the set of prefixes whose FIB entries changed since the last
    /// call. Callers that only watch [`fib_version`](Self::fib_version) can
    /// ignore this; the emulator's watchdog drains it every poll.
    pub fn take_changed_prefixes(&mut self) -> BTreeSet<Prefix> {
        std::mem::take(&mut self.changed_prefixes)
    }

    /// Kills the routing process (fault injection): takes effect on the
    /// next poll, exactly as a vendor-bug crash does — the FIB is flushed
    /// and a [`RouterEvent::Crashed`] is emitted for the watchdog.
    pub fn inject_crash(&mut self, reason: impl Into<String>) {
        if self.is_running() {
            self.pending_crash = Some(reason.into());
        }
    }

    /// All L3 addresses owned by this router.
    pub fn addresses(&self) -> &BTreeSet<Ipv4Addr> {
        &self.addresses
    }

    /// The router's RIB: the connected, static and IS-IS routes as of the
    /// last poll.
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// What the FIB's resolutions looked up in the IGP view, for heap
    /// accounting.
    pub fn gateways(&self) -> &GatewayIndex {
        &self.gateways
    }

    /// A RIB rebuilt from the route sources as they stand now — connected
    /// and static routes, a fresh SPF, the whole BGP selection as eBGP /
    /// iBGP routes — and empty while crashed. After any poll,
    /// [`rib`](Self::rib) must equal its connected, static and IS-IS routes
    /// and [`fib`](Self::fib) must equal its `to_fib()`; tests hold the
    /// per-prefix maintenance to exactly that.
    pub fn reference_rib(&self) -> Rib {
        let mut rib = Rib::new();
        if !self.is_running() {
            return rib;
        }
        rib.set_protocol_routes(RouteProtocol::Connected, self.connected_routes());
        rib.set_protocol_routes(RouteProtocol::Static, self.static_routes());
        if let Some(isis) = &self.isis {
            rib.set_protocol_routes(RouteProtocol::Isis, isis.routes());
        }
        if let Some(bgp) = &self.bgp {
            let (ebgp, ibgp): (Vec<RibRoute>, Vec<RibRoute>) = bgp
                .rib_routes()
                .into_iter()
                .partition(|r| r.proto == RouteProtocol::EbgpLearned);
            rib.set_protocol_routes(RouteProtocol::EbgpLearned, ebgp);
            rib.set_protocol_routes(RouteProtocol::IbgpLearned, ibgp);
        }
        rib
    }

    /// Loopback address (management identity).
    pub fn loopback(&self) -> Option<Ipv4Addr> {
        self.config.loopback_addr()
    }

    /// Applies a new configuration (config push), rebuilding the control
    /// plane — equivalent to a config replace + process restart in the lab.
    pub fn apply_config(&mut self, config: DeviceConfig) {
        // Tear down existing BGP sessions gracefully (Cease/administrative
        // reset) — a real config replace restarts the speaker, and peers see
        // the TCP connection close rather than waiting out their hold timer.
        for (dst, payload) in self.bgp.as_ref().map(|b| b.ceases()).unwrap_or_default() {
            let src = self.session_local_addr_for(dst);
            self.pending_out
                .push(RouterEvent::BgpSegment { src, dst, payload });
        }
        for iface in &config.interfaces {
            self.port_or_add(&iface.name);
        }
        self.config = Arc::new(config);
        self.boot();
    }

    /// Starts the control plane from empty state under the current config:
    /// fresh engines, empty tables. The next poll finds every route source
    /// new, so every prefix is a changed prefix — cold start, restart and
    /// config push are the ordinary delta path with nothing to carry over.
    fn boot(&mut self) {
        self.addresses = self
            .config
            .interfaces
            .iter()
            .filter(|i| i.is_l3())
            .filter_map(|i| i.addr.map(|a| a.addr))
            .collect();
        self.build_engines();
        self.flush_tables();
        self.rib_sources_dirty = true;
        self.full_rebuilds += 1;
    }

    /// Empties the RIB, the FIB and everything indexed over them; the FIB
    /// version moves if the FIB held anything (also outside a poll).
    fn flush_tables(&mut self) {
        if !self.fib.is_empty() {
            self.fib_version += 1;
        }
        self.rib = Rib::new();
        self.fib = Fib::new();
        self.gateways = GatewayIndex::default();
        self.originated.clear();
    }

    /// (Re)constructs protocol engines from the current config.
    fn build_engines(&mut self) {
        // IS-IS.
        self.retire_isis();
        self.isis = self.config.isis.as_ref().and_then(|isis_cfg| {
            if !isis_cfg.af_ipv4 || isis_cfg.net.is_empty() {
                return None;
            }
            let system_id = net_system_id(&isis_cfg.net).unwrap_or_else(|| {
                SystemId::from_ip(self.loopback().unwrap_or(Ipv4Addr::UNSPECIFIED))
            });
            let area = net_area_bytes(&isis_cfg.net)?;
            let mut cfg = IsisEngineConfig::new(system_id, area, &*self.config.hostname);
            for iface in &self.config.interfaces {
                let Some(ii) = &iface.isis else { continue };
                if ii.instance != isis_cfg.instance {
                    continue;
                }
                if !iface.is_l3() {
                    continue;
                }
                let Some(addr) = iface.addr else { continue };
                cfg.ifaces.push(IsisIfaceConfig {
                    iface: iface.name.clone(),
                    addr,
                    metric: ii.metric,
                    passive: ii.passive || iface.name.is_loopback(),
                });
            }
            if cfg.ifaces.is_empty() {
                return None;
            }
            Some(IsisEngine::new(cfg))
        });
        let adjacencies: Vec<IfaceId> = self
            .isis
            .iter()
            .flat_map(|isis| isis.adjacency_ifaces().cloned())
            .collect();
        for port in &mut self.ports {
            port.adjacency = None;
        }
        for (at, iface) in adjacencies.iter().enumerate() {
            self.port_or_add(iface).adjacency = Some(at);
        }

        // BGP.
        self.bgp = self.config.bgp.as_ref().map(|bgp_cfg| {
            let router_id = self
                .config
                .effective_router_id()
                .unwrap_or(RouterId(Ipv4Addr::UNSPECIFIED));
            let mut local_addrs = BTreeMap::new();
            for n in &bgp_cfg.neighbors {
                local_addrs.insert(n.peer, self.session_local_addr(n.peer, &n.update_source));
            }
            Box::new(BgpEngine::new(
                bgp_cfg,
                router_id,
                &local_addrs,
                self.config.route_maps.clone(),
                self.config.prefix_lists.clone(),
                Quirks {
                    ibgp_igp_metric_inverted: self.profile.bugs.ibgp_metric_bug,
                    emit_unusual_attr: self.profile.bugs.emit_unusual_attr,
                },
            ))
        });
    }

    /// Drops the IS-IS engine, keeping the count of the work it did.
    fn retire_isis(&mut self) {
        if let Some(mut isis) = self.isis.take() {
            self.isis_work += isis.take_work();
        }
    }

    /// Our source address for a session to `peer`.
    fn session_local_addr(&self, peer: Ipv4Addr, update_source: &Option<IfaceId>) -> Ipv4Addr {
        if let Some(src) = update_source {
            if let Some(iface) = self.config.interface(src) {
                if let Some(a) = iface.addr {
                    return a.addr;
                }
            }
        }
        // Directly-connected peer: use our address on the shared subnet.
        for iface in &self.config.interfaces {
            if !iface.is_l3() {
                continue;
            }
            if let Some(a) = iface.addr {
                if a.subnet().contains(peer) {
                    return a.addr;
                }
            }
        }
        self.loopback().unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Marks a physical link up/down (failure injection / topology events).
    pub fn set_link(&mut self, iface: &IfaceId, up: bool) {
        self.port_or_add(iface).up = up;
        self.rib_sources_dirty = true;
        if let Some(isis) = &mut self.isis {
            isis.set_link(iface, up);
        }
    }

    /// The cable on `iface` is gone; the port stays configured and up —
    /// what a topology that never had the link looks like from this router.
    /// Unlike carrier loss ([`set_link`](Self::set_link)) the connected
    /// subnet stays in the RIB. The IS-IS adjacency goes down at once:
    /// nothing will answer a hello again, and the hold timer (30 s) outlasts
    /// the emulator's quiet rule. The port keeps sending hellos.
    pub fn remove_wire(&mut self, iface: &IfaceId) {
        if let Some(isis) = &mut self.isis {
            isis.tear_adjacency(iface);
        }
    }

    /// Administratively shuts a BGP session (config-push scenario E1 uses a
    /// config change instead, but tests use this directly).
    pub fn shutdown_bgp_session(&mut self, peer: Ipv4Addr, now: SimTime) {
        if let Some(bgp) = &mut self.bgp {
            bgp.shutdown_session(peer, now);
        }
    }

    /// Ingests an IS-IS frame from the link cabled to `port`. A frame on a
    /// port IS-IS does not run on is decoded, and dropped.
    pub fn push_isis(&mut self, now: SimTime, port: usize, payload: Bytes) {
        let Some(port) = self.ports.get(port).filter(|p| p.up) else {
            return;
        };
        if !self.is_running() {
            return;
        }
        let adjacency = port.adjacency;
        match isis_wire::receive(payload) {
            Ok(pdu) => {
                if let (Some(isis), Some(at)) = (&mut self.isis, adjacency) {
                    isis.push_pdu(now, at, pdu);
                }
            }
            Err(_) => {
                self.decode_errors += 1;
            }
        }
    }

    /// Ingests a BGP segment addressed to one of our session endpoints.
    pub fn push_bgp(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr, payload: Bytes) {
        if !self.is_running() {
            return;
        }
        if !self.addresses.contains(&dst) {
            return; // not ours — emulator misdelivery or stale address
        }
        let mut buf = payload;
        let msg = match BgpMsg::decode(&mut buf) {
            Ok(m) => m,
            Err(_) => {
                self.decode_errors += 1;
                return;
            }
        };
        // VENDOR BUG (paper §2): this OS's parser dies on a particular
        // unusual-but-valid transitive attribute.
        if let Some(fatal_type) = self.profile.bugs.crash_on_unknown_attr {
            if let BgpMsg::Update(u) = &msg {
                let poisoned = u.attrs.iter().any(|a| {
                    matches!(a, PathAttr::Unknown { type_code, .. } if *type_code == fatal_type)
                });
                if poisoned {
                    self.pending_crash = Some(format!(
                        "routing process segfault parsing path attribute {fatal_type}"
                    ));
                    return;
                }
            }
        }
        if let Some(bgp) = &mut self.bgp {
            bgp.push_msg(now, src, msg);
        }
    }

    /// Connected routes from operational L3 interfaces.
    fn connected_routes(&self) -> Vec<RibRoute> {
        self.config
            .interfaces
            .iter()
            .filter(|i| i.is_l3())
            .filter(|i| {
                i.name.is_loopback() || self.port(&i.name).is_some_and(|p| self.ports[p].up)
            })
            .filter_map(|i| {
                let addr = i.addr?;
                Some(RibRoute::new(
                    addr.subnet(),
                    RouteProtocol::Connected,
                    0,
                    NextHop::Connected(i.name.clone()),
                ))
            })
            .collect()
    }

    fn static_routes(&self) -> Vec<RibRoute> {
        self.config
            .static_routes
            .iter()
            .map(|s| {
                let mut r =
                    RibRoute::new(s.prefix, RouteProtocol::Static, 0, NextHop::Via(s.next_hop));
                if let Some(d) = s.distance {
                    r.admin_distance = mfv_types::AdminDistance(d);
                }
                r
            })
            .collect()
    }

    /// Whether this router originates `prefix` into BGP. Reads the IGP
    /// routes only: a BGP-learned route never satisfies a `network`
    /// statement or feeds redistribution, so originations move with the
    /// IGP delta and a selection change cannot flip them back.
    fn originates(&self, prefix: &Prefix) -> bool {
        let Some(bgp_cfg) = &self.config.bgp else {
            return false;
        };
        // `network` statements require the route to exist in the RIB.
        if bgp_cfg.networks.contains(prefix) && self.rib.igp_winner(prefix).is_some() {
            return true;
        }
        bgp_cfg.redistribute.iter().any(|r| {
            let offered = match r.proto {
                Redistribute::Connected => {
                    self.rib.route(RouteProtocol::Connected, prefix).is_some()
                }
                Redistribute::Static => self.rib.route(RouteProtocol::Static, prefix).is_some(),
                Redistribute::Isis => self
                    .rib
                    .igp_winner(prefix)
                    .is_some_and(|w| w.proto == RouteProtocol::Isis),
            };
            offered
                && match &r.route_map {
                    None => true,
                    // A redistribution route-map acts as an origination
                    // filter; set-clauses on origination are not modelled.
                    // Referencing a missing route-map denies everything
                    // (matching the import-path EOS behaviour).
                    Some(name) => self.config.route_maps.get(name).is_some_and(|rm| {
                        let attrs = BgpAttrs::originated(Ipv4Addr::UNSPECIFIED);
                        matches!(
                            eval_route_map(rm, &self.config.prefix_lists, prefix, &attrs),
                            PolicyResult::Permit(_)
                        )
                    }),
                }
        })
    }

    /// Re-evaluates [`originates`](Self::originates) for the prefixes of an
    /// IGP delta; returns whether the originated set moved.
    fn sync_originations(&mut self, igp_delta: &BTreeSet<Prefix>) -> bool {
        let mut moved = false;
        for prefix in igp_delta {
            moved |= match self.originates(prefix) {
                true => self.originated.insert(*prefix),
                false => self.originated.remove(prefix),
            };
        }
        moved
    }

    /// Advances the control plane, appending to `out` the frames and
    /// segments to transmit — the ones queued outside a poll first — or the
    /// crash notification. The wall time of its SPF, BGP and FIB sections is
    /// added to [`wall`](Self::wall): `stopwatch` is read around a section
    /// only on a poll where it has work.
    pub fn poll(&mut self, now: SimTime, stopwatch: Stopwatch, out: &mut Vec<RouterEvent>) {
        if let Some(reason) = self.pending_crash.take() {
            self.state = RouterState::Crashed(now);
            self.retire_isis();
            self.bgp = None;
            let lost: Vec<Prefix> = self.fib.entries().map(|e| e.prefix).collect();
            self.changed_prefixes.extend(lost);
            self.flush_tables();
            out.push(RouterEvent::Crashed { reason });
            return;
        }
        if !self.is_running() {
            return;
        }

        out.append(&mut self.pending_out);

        // 1. IS-IS. The engine hands each PDU out encoded, once, with the
        // adjacency slot it goes out of; every frame of a flood shares the
        // bytes.
        if let Some(isis) = &mut self.isis {
            for (at, payload) in isis.poll(now) {
                let port = self.ports.iter().position(|p| p.adjacency == Some(at));
                if let Some(port) = port.filter(|p| self.ports[*p].up) {
                    out.push(RouterEvent::IsisFrame { port, payload });
                }
            }
            self.isis_work += isis.take_work();
        }

        // 2. Route sources into the RIB — only the ones that moved, and of
        // those only the routes that differ. Connected/static routes move
        // on config or link events (`rib_sources_dirty`); IS-IS routes move
        // when an SPF input changed. `igp_delta` collects every prefix
        // whose connected, static or IS-IS route changed; it is empty on
        // most polls of a converged network, and everything below is then
        // driven by BGP's own changes alone.
        let mut igp_delta: BTreeSet<Prefix> = BTreeSet::new();
        let isis_stale = self.isis.as_ref().is_some_and(|i| i.routes_stale());
        if self.rib_sources_dirty || isis_stale {
            self.rib_resyncs += 1;
        }
        if std::mem::take(&mut self.rib_sources_dirty) {
            let connected = self.connected_routes();
            igp_delta.extend(
                self.rib
                    .set_protocol_routes(RouteProtocol::Connected, connected),
            );
            let statics = self.static_routes();
            igp_delta.extend(self.rib.set_protocol_routes(RouteProtocol::Static, statics));
        }
        if let Some(isis) = self.isis.as_mut().filter(|_| isis_stale) {
            let started = stopwatch();
            self.spf_runs += 1;
            let installed = self.rib.protocol_routes(RouteProtocol::Isis);
            let mut changes = SPF_CHANGES.try_with(Cell::take).unwrap_or_default();
            isis.take_route_changes(installed, &mut changes);
            for (prefix, route) in changes.drain(..) {
                if self.rib.set_route(RouteProtocol::Isis, prefix, route) {
                    igp_delta.insert(prefix);
                }
            }
            let _ = SPF_CHANGES.try_with(|buf| buf.set(changes));
            self.wall.spf_ns += self.wall.close(started, stopwatch);
        }
        self.igp_delta_prefixes += igp_delta.len() as u64;

        // 3. BGP: originations follow the IGP delta, decisions re-run for
        // prefixes with a candidate whose next hop sits inside it, and the
        // FIB follows the selection delta.
        let mut selection_delta = BTreeSet::new();
        let mut frames = Vec::new();
        let originations_moved = self.sync_originations(&igp_delta);
        if let Some(bgp) = &mut self.bgp {
            if originations_moved {
                bgp.set_originated(self.originated.iter().copied());
            }
            bgp.next_hops_moved(&igp_delta);
            let started = bgp.has_pending_work().then(stopwatch);
            frames = bgp.poll(now, &self.rib);
            self.bgp_work += bgp.take_work();
            selection_delta = bgp.take_selection_delta();
            if let Some(started) = started {
                self.wall.bgp_ns += self.wall.close(started, stopwatch);
            }
        }

        // 4. FIB: re-resolve the prefixes whose winner can have changed
        // (both deltas) and the ones resolved through a gateway inside a
        // changed IGP prefix. Nothing else can differ from `rib.to_fib()`
        // joined with the selection.
        let mut stale = selection_delta;
        let bgp = self.bgp.as_deref();
        self.gateways.take_dependents(&igp_delta, bgp, &mut stale);
        stale.extend(igp_delta);
        self.resolve(&stale, stopwatch);

        // The engine hands each BGP message out encoded, once: the members
        // of an export group share one encoding of what they are sent.
        for (dst, payload) in frames {
            // Transport: we must have a route to the peer (or share a
            // subnet) for the segment to leave the box.
            if self.can_reach(dst) {
                let src = self.session_local_addr_for(dst);
                out.push(RouterEvent::BgpSegment { src, dst, payload });
            }
        }
    }

    /// Brings the FIB entries at `prefixes` in line with the RIB and BGP's
    /// selection, recording which ones actually changed.
    fn resolve(&mut self, prefixes: &BTreeSet<Prefix>, stopwatch: Stopwatch) {
        if prefixes.is_empty() {
            return;
        }
        let started = stopwatch();
        self.fib_patches += 1;
        self.fib_prefixes_resolved += prefixes.len() as u64;
        let mut changed = false;
        // The IGP view does not move inside this loop, so what a gateway
        // resolves to is worked out once for all the prefixes behind it.
        let (mut memo, mut gateways) = (GatewayMemo::default(), Vec::new());
        let selection = self.bgp.as_deref().map(BgpEngine::selected);
        for prefix in prefixes {
            gateways.clear();
            let learned = selection.and_then(|s| s.get(prefix));
            if self
                .fib
                .patch(&self.rib, learned, prefix, &mut memo, &mut gateways)
            {
                changed = true;
                self.changed_prefixes.insert(*prefix);
            }
            self.gateways.set(*prefix, &gateways);
        }
        self.fib_gateway_resolutions += memo.resolutions() as u64;
        self.gateways.by_gateway.extend(self.fib.finish(memo));
        if changed {
            self.fib_version += 1;
        }
        self.wall.fib_ns += self.wall.close(started, stopwatch);
    }

    fn session_local_addr_for(&self, peer: Ipv4Addr) -> Ipv4Addr {
        let neighbor = self.config.bgp.as_ref().and_then(|b| b.neighbor(peer));
        self.session_local_addr(peer, neighbor.map_or(&None, |n| &n.update_source))
    }

    fn can_reach(&self, dst: Ipv4Addr) -> bool {
        if self.addresses.contains(&dst) {
            return true;
        }
        self.fib
            .lookup(dst)
            .map(|e| !e.next_hops.is_empty())
            .unwrap_or(false)
    }

    /// Restarts a crashed routing process (watchdog). State comes back
    /// empty, as after a real daemon restart.
    pub fn restart(&mut self, _now: SimTime) {
        self.state = RouterState::Running;
        self.decode_errors = 0;
        self.boot();
    }

    /// Earliest instant the router needs a poll for its timers, or `None`
    /// if nothing is pending — an idle router with no protocol engines (or
    /// a crashed one awaiting its external restart) never needs polling, so
    /// the emulator's demand-driven scheduler can leave it alone entirely
    /// instead of waking it on a fixed interval.
    pub fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        if self.pending_crash.is_some() || !self.pending_out.is_empty() {
            return Some(SimTime(now.0 + 1));
        }
        if !self.is_running() {
            // Restart is driven by the emulator's own timer event.
            return None;
        }
        let mut next: Option<SimTime> = None;
        if let Some(isis) = &self.isis {
            next = Some(isis.next_wakeup(now));
        }
        if let Some(bgp) = &self.bgp {
            let t = bgp.next_wakeup(now);
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next.map(|t| t.max(SimTime(now.0 + 1)))
    }

    /// BGP session FSM transitions since the current routing process
    /// booted (zero while crashed or with no BGP configured).
    pub fn bgp_session_transitions(&self) -> u64 {
        self.bgp.as_ref().map_or(0, |b| b.session_transitions())
    }

    /// IS-IS adjacency state transitions since the current routing process
    /// booted.
    pub fn isis_adjacency_transitions(&self) -> u64 {
        self.isis.as_ref().map_or(0, |i| i.adjacency_transitions())
    }

    /// Introspection used by the CLI and the management interface.
    pub fn isis_engine(&self) -> Option<&IsisEngine> {
        self.isis.as_ref()
    }

    pub fn bgp_engine(&self) -> Option<&BgpEngine> {
        self.bgp.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_config::{IfaceSpec, RouterSpec, Vendor};
    use mfv_types::AsNum;

    fn two_router_setup() -> (VirtualRouter, VirtualRouter) {
        let spec1 = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .ebgp(Ipv4Addr::new(100, 64, 0, 1), AsNum(65002))
            .network("2.2.2.1/32".parse().unwrap());
        let spec2 = RouterSpec::new("r2", AsNum(65002), Ipv4Addr::new(2, 2, 2, 2))
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.1/31".parse().unwrap()).with_isis())
            .ebgp(Ipv4Addr::new(100, 64, 0, 0), AsNum(65001))
            .network("2.2.2.2/32".parse().unwrap());
        let r1 = VirtualRouter::new("r1".into(), VendorProfile::ceos(), spec1.build());
        let r2 = VirtualRouter::new("r2".into(), VendorProfile::ceos(), spec2.build());
        (r1, r2)
    }

    /// One poll's events.
    fn poll(r: &mut VirtualRouter, now: SimTime) -> Vec<RouterEvent> {
        let mut out = Vec::new();
        r.poll(now, &|| 0, &mut out);
        out
    }

    /// Drives two directly-linked routers until quiescent.
    fn settle(r1: &mut VirtualRouter, r2: &mut VirtualRouter, start: SimTime) -> SimTime {
        let mut now = start;
        for _ in 0..300 {
            now = SimTime(now.0 + 200);
            let ev1 = poll(r1, now);
            let ev2 = poll(r2, now);
            if ev1.is_empty() && ev2.is_empty() && now.0 > start.0 + 5_000 {
                break;
            }
            for ev in ev1 {
                deliver(r2, now, ev);
            }
            for ev in ev2 {
                deliver(r1, now, ev);
            }
        }
        now
    }

    fn deliver(to: &mut VirtualRouter, now: SimTime, ev: RouterEvent) {
        match ev {
            RouterEvent::IsisFrame { payload, .. } => {
                let port = to.port(&"Ethernet1".into()).unwrap();
                to.push_isis(now, port, payload);
            }
            RouterEvent::BgpSegment { src, dst, payload } => {
                to.push_bgp(now, src, dst, payload);
            }
            RouterEvent::Crashed { .. } => {}
        }
    }

    #[test]
    fn full_stack_two_routers_converge() {
        let (mut r1, mut r2) = two_router_setup();
        settle(&mut r1, &mut r2, SimTime::ZERO);

        // IS-IS adjacency up, BGP established, loopbacks exchanged.
        let mut adj = r1.isis_engine().unwrap().adjacencies();
        assert!(adj.all(|a| matches!(a.state, mfv_wire::isis::AdjState::Up)));
        assert_eq!(
            r1.bgp_engine()
                .unwrap()
                .session_state(Ipv4Addr::new(100, 64, 0, 1)),
            Some(mfv_routing::SessionState::Established)
        );
        let e = r1
            .fib()
            .lookup(Ipv4Addr::new(2, 2, 2, 2))
            .expect("route to r2 loopback");
        // Both IS-IS and eBGP offer it; eBGP wins on admin distance (20<115).
        assert_eq!(e.proto, RouteProtocol::EbgpLearned);
    }

    #[test]
    fn link_down_withdraws_connected_routes() {
        let (mut r1, mut r2) = two_router_setup();
        let now = settle(&mut r1, &mut r2, SimTime::ZERO);
        assert!(r1.fib().lookup(Ipv4Addr::new(100, 64, 0, 1)).is_some());
        r1.set_link(&"Ethernet1".into(), false);
        poll(&mut r1, SimTime(now.0 + 1000));
        assert!(
            r1.fib().lookup(Ipv4Addr::new(100, 64, 0, 1)).is_none(),
            "connected subnet must leave the FIB when the link is down"
        );
    }

    /// Wire removal is not carrier loss: the cable is gone but both ports
    /// stay up, so each end keeps its connected /31 — as it would had the
    /// topology never had the link — and loses only the adjacency. After
    /// `set_link(false)` the /31 leaves the FIB too (the test above).
    #[test]
    fn wire_removal_keeps_connected_routes_and_drops_the_adjacency() {
        let (mut r1, mut r2) = two_router_setup();
        let now = settle(&mut r1, &mut r2, SimTime::ZERO);
        let link_subnet: Prefix = "100.64.0.0/31".parse().unwrap();
        for r in [&mut r1, &mut r2] {
            r.remove_wire(&"Ethernet1".into());
            poll(r, SimTime(now.0 + 1000));
            let entry = r.fib().get(&link_subnet).expect("connected /31 stays");
            assert_eq!(entry.proto, RouteProtocol::Connected);
            let mut adj = r.isis_engine().unwrap().adjacencies();
            assert!(adj.all(|a| matches!(a.state, mfv_wire::isis::AdjState::Down)));
        }
        // The IS-IS route to the far loopback went with the adjacency.
        assert!(r1
            .rib()
            .route(RouteProtocol::Isis, &"2.2.2.2/32".parse().unwrap())
            .is_none());
    }

    #[test]
    fn crash_on_unknown_attr_kills_process() {
        let spec1 = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new(
                "Ethernet1",
                "100.64.0.0/31".parse().unwrap(),
            ))
            .ebgp(Ipv4Addr::new(100, 64, 0, 1), AsNum(65002))
            .network("2.2.2.1/32".parse().unwrap());
        let spec2 = RouterSpec::new("r2", AsNum(65002), Ipv4Addr::new(2, 2, 2, 2))
            .vendor(Vendor::Vjunos)
            .iface(IfaceSpec::new("ge-0/0/0", "100.64.0.1/31".parse().unwrap()))
            .ebgp(Ipv4Addr::new(100, 64, 0, 0), AsNum(65001))
            .network("2.2.2.2/32".parse().unwrap());

        // r1's parser dies on attribute 213; r2 emits it.
        let p1 = VendorProfile::ceos().with_bugs(crate::profile::VendorBugs {
            crash_on_unknown_attr: Some(213),
            ..Default::default()
        });
        let p2 = VendorProfile::vjunos().with_bugs(crate::profile::VendorBugs {
            emit_unusual_attr: Some(213),
            ..Default::default()
        });
        let mut r1 = VirtualRouter::new("r1".into(), p1, spec1.build());
        let mut r2 = VirtualRouter::new("r2".into(), p2, spec2.build());

        let mut crashed = false;
        let mut now = SimTime::ZERO;
        'outer: for _ in 0..300 {
            now = SimTime(now.0 + 200);
            let ev1 = poll(&mut r1, now);
            for ev in ev1 {
                if matches!(ev, RouterEvent::Crashed { .. }) {
                    crashed = true;
                    break 'outer;
                }
                match ev {
                    RouterEvent::IsisFrame { payload, .. } => {
                        let port = r2.port(&"ge-0/0/0".into()).unwrap();
                        r2.push_isis(now, port, payload)
                    }
                    RouterEvent::BgpSegment { src, dst, payload } => {
                        r2.push_bgp(now, src, dst, payload)
                    }
                    _ => {}
                }
            }
            for ev in poll(&mut r2, now) {
                match ev {
                    RouterEvent::IsisFrame { payload, .. } => {
                        let port = r1.port(&"Ethernet1".into()).unwrap();
                        r1.push_isis(now, port, payload)
                    }
                    RouterEvent::BgpSegment { src, dst, payload } => {
                        r1.push_bgp(now, src, dst, payload)
                    }
                    _ => {}
                }
            }
        }
        assert!(crashed, "r1 must crash parsing the unusual attribute");
        assert!(!r1.is_running());
        assert!(r1.fib().is_empty(), "crashed process loses its FIB");

        // Watchdog restart brings it back (to crash again on the next
        // poisoned update — the crash-loop the paper describes).
        r1.restart(now);
        assert!(r1.is_running());
    }

    #[test]
    fn static_route_installed_with_distance() {
        let mut spec = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1)).iface(
            IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()),
        );
        let mut cfg = spec.build();
        cfg.static_routes.push(mfv_config::StaticRoute {
            prefix: "198.51.100.0/24".parse().unwrap(),
            next_hop: Ipv4Addr::new(100, 64, 0, 1),
            distance: Some(250),
        });
        spec.networks.clear();
        let mut r = VirtualRouter::new("r1".into(), VendorProfile::ceos(), cfg);
        poll(&mut r, SimTime(100));
        let e = r.fib().lookup(Ipv4Addr::new(198, 51, 100, 7)).unwrap();
        assert_eq!(e.proto, RouteProtocol::Static);
        assert_eq!(
            e.next_hops[0],
            mfv_routing::FibNextHop {
                iface: "Ethernet1".into(),
                via: Some(Ipv4Addr::new(100, 64, 0, 1))
            }
        );
    }

    #[test]
    fn config_push_rebuilds_control_plane() {
        let (mut r1, mut r2) = two_router_setup();
        let now = settle(&mut r1, &mut r2, SimTime::ZERO);
        assert!(r1.fib().lookup(Ipv4Addr::new(2, 2, 2, 2)).is_some());

        // Push a config with the BGP neighbor removed.
        let mut cfg = r1.config().clone();
        cfg.bgp.as_mut().unwrap().neighbors.clear();
        r1.apply_config(cfg);
        let now2 = settle(&mut r1, &mut r2, now);
        let _ = now2;
        // Still reachable via IS-IS after re-convergence.
        let e = r1
            .fib()
            .lookup(Ipv4Addr::new(2, 2, 2, 2))
            .expect("isis route");
        assert_eq!(e.proto, RouteProtocol::Isis);
    }

    #[test]
    fn addresses_and_loopback() {
        let (r1, _) = two_router_setup();
        let addrs = r1.addresses();
        assert!(addrs.contains(&Ipv4Addr::new(2, 2, 2, 1)));
        assert!(addrs.contains(&Ipv4Addr::new(100, 64, 0, 0)));
        assert_eq!(r1.loopback(), Some(Ipv4Addr::new(2, 2, 2, 1)));
    }

    #[test]
    fn changed_prefixes_track_fib_churn_and_drain() {
        let (mut r1, mut r2) = two_router_setup();
        let now = settle(&mut r1, &mut r2, SimTime::ZERO);
        let _ = r1.take_changed_prefixes();
        r1.set_link(&"Ethernet1".into(), false);
        poll(&mut r1, SimTime(now.0 + 1000));
        let changed = r1.take_changed_prefixes();
        assert!(
            changed.contains(&"100.64.0.0/31".parse().unwrap()),
            "link subnet must be recorded as changed: {changed:?}"
        );
        assert!(r1.take_changed_prefixes().is_empty(), "take drains the set");
    }

    #[test]
    fn inject_crash_kills_on_next_poll() {
        let (mut r1, mut r2) = two_router_setup();
        let now = settle(&mut r1, &mut r2, SimTime::ZERO);
        let _ = r1.take_changed_prefixes();
        r1.inject_crash("chaos: routing process killed");
        let evs = poll(&mut r1, SimTime(now.0 + 100));
        assert!(matches!(evs[0], RouterEvent::Crashed { .. }));
        assert!(!r1.is_running());
        assert!(
            !r1.take_changed_prefixes().is_empty(),
            "losing the whole FIB counts as churn"
        );
        // Injecting into an already-crashed process is a no-op.
        r1.inject_crash("again");
        assert!(poll(&mut r1, SimTime(now.0 + 200)).is_empty());
    }

    /// A router with neither BGP nor IS-IS has the same connected/static
    /// routes before and after a crash; it must still reinstall them.
    #[test]
    fn restarted_router_reinstalls_its_fib() {
        let mut cfg = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new(
                "Ethernet1",
                "100.64.0.0/31".parse().unwrap(),
            ))
            .build();
        cfg.bgp = None;
        cfg.isis = None;
        cfg.static_routes.push(mfv_config::StaticRoute {
            prefix: "198.51.100.0/24".parse().unwrap(),
            next_hop: Ipv4Addr::new(100, 64, 0, 1),
            distance: None,
        });
        let mut r = VirtualRouter::new("r1".into(), VendorProfile::ceos(), cfg);
        poll(&mut r, SimTime(100));
        let booted: Vec<_> = r.fib().entries().map(|e| e.to_entry()).collect();
        assert!(
            booted.len() >= 3,
            "loopback, link subnet, static: {booted:?}"
        );

        r.inject_crash("chaos: routing process killed");
        poll(&mut r, SimTime(200));
        assert!(r.fib().is_empty(), "crashed process loses its FIB");
        let _ = r.take_changed_prefixes();
        let crashed_at = r.fib_version();

        r.restart(SimTime(300));
        poll(&mut r, SimTime(400));
        let back: Vec<_> = r.fib().entries().map(|e| e.to_entry()).collect();
        assert_eq!(back, booted, "a restarted router must not stay black");
        assert!(r.fib_version() > crashed_at);
        assert_eq!(r.take_changed_prefixes().len(), booted.len());
    }

    #[test]
    fn fib_version_increments_on_change_only() {
        let (mut r1, _) = two_router_setup();
        poll(&mut r1, SimTime(100));
        let v1 = r1.fib_version();
        poll(&mut r1, SimTime(200));
        poll(&mut r1, SimTime(300));
        assert_eq!(r1.fib_version(), v1, "no changes, no version bumps");
        r1.set_link(&"Ethernet1".into(), false);
        poll(&mut r1, SimTime(400));
        assert!(r1.fib_version() > v1);
    }

    #[test]
    fn a_fib_epoch_names_one_instance_and_moves_with_its_fib() {
        let (mut r1, _) = two_router_setup();
        poll(&mut r1, SimTime(100));
        let read = r1.fib_epoch();
        let fork = r1.clone();
        assert_eq!(
            fork.fib_epoch(),
            read,
            "a clone starts at its original's epoch"
        );
        // A second instance of the same router, polled to the same version,
        // is not at the same epoch.
        let (mut again, _) = two_router_setup();
        poll(&mut again, SimTime(100));
        assert_eq!(again.fib_version(), r1.fib_version());
        assert_ne!(again.fib_epoch(), read);
        // A config push empties the FIB at once: the epoch moves before
        // the next poll refills it.
        let config = r1.config().clone();
        r1.apply_config(config);
        assert!(r1.fib().is_empty());
        assert_ne!(r1.fib_epoch(), read);
    }
}
