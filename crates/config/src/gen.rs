//! Configuration generators.
//!
//! Builds realistic device configurations from compact logical specs. Two
//! layers of realism are available:
//!
//! - the bare routing payload (interfaces, IS-IS, BGP) — comparable to the
//!   62–82-line configs of the paper's Fig. 2 network, and
//! - "production complexity": management daemons, APIs, SSL profiles, MPLS
//!   and TE stanzas — the feature surface that real devices carry and network
//!   models cannot parse (experiment E2).

use std::net::Ipv4Addr;

use mfv_types::{AsNum, IfaceAddr, Prefix};

use crate::ir::*;

/// Logical description of one interface.
#[derive(Clone, Debug)]
pub struct IfaceSpec {
    pub name: String,
    pub addr: IfaceAddr,
    /// Enable IS-IS on this interface.
    pub isis: bool,
    pub isis_metric: u32,
    pub description: Option<String>,
}

impl IfaceSpec {
    pub fn new(name: impl Into<String>, addr: IfaceAddr) -> IfaceSpec {
        IfaceSpec {
            name: name.into(),
            addr,
            isis: false,
            isis_metric: 10,
            description: None,
        }
    }

    pub fn with_isis(mut self) -> IfaceSpec {
        self.isis = true;
        self
    }

    pub fn with_metric(mut self, m: u32) -> IfaceSpec {
        self.isis = true;
        self.isis_metric = m;
        self
    }

    pub fn described(mut self, d: impl Into<String>) -> IfaceSpec {
        self.description = Some(d.into());
        self
    }
}

/// Logical description of one router, lowered to a [`DeviceConfig`].
#[derive(Clone, Debug)]
pub struct RouterSpec {
    pub name: String,
    pub vendor: Vendor,
    pub asn: AsNum,
    /// Loopback /32; also the router-id and iBGP source.
    pub loopback: Ipv4Addr,
    pub ifaces: Vec<IfaceSpec>,
    /// eBGP sessions: (local interface address peer, remote AS).
    pub ebgp: Vec<(Ipv4Addr, AsNum)>,
    /// iBGP sessions to peer loopbacks (update-source Loopback0,
    /// next-hop-self).
    pub ibgp: Vec<Ipv4Addr>,
    /// iBGP sessions where the peer is our route-reflector client.
    pub ibgp_rr_clients: Vec<Ipv4Addr>,
    /// Prefixes originated into BGP via `network` statements.
    pub networks: Vec<Prefix>,
    /// Redistribute connected into BGP.
    pub redistribute_connected: bool,
    /// Route-map attached to connected redistribution (None = unfiltered).
    pub redistribute_policy: Option<String>,
    /// Route-map attached to IS-IS → BGP redistribution (the regional-WAN
    /// border pattern: interior reachability exported into eBGP, policed).
    pub redistribute_isis: Option<String>,
    /// Named route-maps to define on the device.
    pub route_maps: Vec<(String, RouteMap)>,
    /// Named prefix-lists to define on the device.
    pub prefix_lists: Vec<(String, PrefixList)>,
    /// IS-IS area (two-digit hex-ish string used in the NET).
    pub isis_area: String,
    /// Add management daemons/APIs and MPLS/TE stanzas.
    pub production_complexity: bool,
}

impl RouterSpec {
    pub fn new(name: impl Into<String>, asn: AsNum, loopback: Ipv4Addr) -> RouterSpec {
        RouterSpec {
            name: name.into(),
            vendor: Vendor::Ceos,
            asn,
            loopback,
            ifaces: Vec::new(),
            ebgp: Vec::new(),
            ibgp: Vec::new(),
            ibgp_rr_clients: Vec::new(),
            networks: Vec::new(),
            redistribute_connected: false,
            redistribute_policy: None,
            redistribute_isis: None,
            route_maps: Vec::new(),
            prefix_lists: Vec::new(),
            isis_area: "49.0001".to_string(),
            production_complexity: false,
        }
    }

    pub fn vendor(mut self, v: Vendor) -> RouterSpec {
        self.vendor = v;
        self
    }

    pub fn iface(mut self, spec: IfaceSpec) -> RouterSpec {
        self.ifaces.push(spec);
        self
    }

    pub fn ebgp(mut self, peer: Ipv4Addr, remote_as: AsNum) -> RouterSpec {
        self.ebgp.push((peer, remote_as));
        self
    }

    pub fn ibgp(mut self, peer_loopback: Ipv4Addr) -> RouterSpec {
        self.ibgp.push(peer_loopback);
        self
    }

    /// An iBGP session where the peer is treated as our route-reflector
    /// client (we reflect routes between clients and non-clients).
    pub fn ibgp_rr_client(mut self, peer_loopback: Ipv4Addr) -> RouterSpec {
        self.ibgp_rr_clients.push(peer_loopback);
        self
    }

    pub fn network(mut self, p: Prefix) -> RouterSpec {
        self.networks.push(p);
        self
    }

    pub fn redistribute_connected(mut self) -> RouterSpec {
        self.redistribute_connected = true;
        self
    }

    /// Redistribute connected into BGP through a named route-map. The map
    /// itself must be supplied via [`RouterSpec::route_map`]; conflint rule
    /// C5 flags a dangling reference, C7 flags the unfiltered form.
    pub fn redistribute_connected_policed(mut self, route_map: impl Into<String>) -> RouterSpec {
        self.redistribute_connected = true;
        self.redistribute_policy = Some(route_map.into());
        self
    }

    /// Redistribute IS-IS into BGP through a named route-map — how a
    /// regional border exports interior reachability to its eBGP peer
    /// without leaking the world back in. The map must be supplied via
    /// [`RouterSpec::route_map`] (conflint C5 flags a dangling reference).
    pub fn redistribute_isis_policed(mut self, route_map: impl Into<String>) -> RouterSpec {
        self.redistribute_isis = Some(route_map.into());
        self
    }

    /// Defines a named route-map on the device.
    pub fn route_map(mut self, name: impl Into<String>, rm: RouteMap) -> RouterSpec {
        self.route_maps.push((name.into(), rm));
        self
    }

    /// Defines a named prefix-list on the device.
    pub fn prefix_list(mut self, name: impl Into<String>, pl: PrefixList) -> RouterSpec {
        self.prefix_lists.push((name.into(), pl));
        self
    }

    /// A single-entry permit-all route-map — the conventional attachment
    /// for redistribution that should carry everything but stay policed.
    pub fn permit_all_route_map() -> RouteMap {
        RouteMap {
            entries: vec![RouteMapEntry {
                seq: 10,
                action: PolicyAction::Permit,
                matches: Vec::new(),
                sets: Vec::new(),
            }],
        }
    }

    pub fn production(mut self) -> RouterSpec {
        self.production_complexity = true;
        self
    }

    /// The NET for this router: area + system-id derived from the loopback.
    fn isis_net(&self) -> String {
        let o = self.loopback.octets();
        format!(
            "{}.{:02}{:02}.{:02}{:02}.{:02}{:02}.00",
            self.isis_area, o[0], o[1], o[1], o[2], o[2], o[3]
        )
    }

    /// Lowers the spec to a full device configuration.
    pub fn build(&self) -> DeviceConfig {
        let mut cfg = DeviceConfig::new(self.name.clone(), self.vendor);

        // Loopback first — mirrors operator convention.
        let lo_name = match self.vendor {
            Vendor::Ceos => "Loopback0",
            Vendor::Vjunos => "lo0",
        };
        let lo = cfg.ensure_interface(lo_name);
        lo.addr = Some(IfaceAddr::new(self.loopback, 32));
        let any_isis = self.ifaces.iter().any(|i| i.isis);
        if any_isis {
            let mut ii = IfaceIsis::new(default_instance(self.vendor));
            ii.passive = true;
            lo.isis = Some(ii);
        }

        for spec in &self.ifaces {
            let iface = cfg.ensure_interface(spec.name.as_str());
            iface.addr = Some(spec.addr);
            iface.routed = true;
            iface.description = spec.description.clone();
            if spec.isis {
                let mut ii = IfaceIsis::new(default_instance(self.vendor));
                ii.metric = spec.isis_metric;
                iface.isis = Some(ii);
            }
        }

        if any_isis {
            let mut isis = IsisConfig::new(default_instance(self.vendor), self.isis_net());
            isis.wide_metrics = true;
            cfg.isis = Some(isis);
        }

        if !self.ebgp.is_empty()
            || !self.ibgp.is_empty()
            || !self.ibgp_rr_clients.is_empty()
            || !self.networks.is_empty()
            || self.redistribute_isis.is_some()
        {
            let mut bgp = BgpConfig::new(self.asn);
            bgp.router_id = Some(mfv_types::RouterId(self.loopback));
            for (peer, ras) in &self.ebgp {
                bgp.neighbors.push(BgpNeighborConfig::new(*peer, *ras));
            }
            for peer in &self.ibgp {
                let mut n = BgpNeighborConfig::new(*peer, self.asn);
                n.update_source = Some(lo_name.into());
                n.next_hop_self = true;
                bgp.neighbors.push(n);
            }
            for peer in &self.ibgp_rr_clients {
                let mut n = BgpNeighborConfig::new(*peer, self.asn);
                n.update_source = Some(lo_name.into());
                n.next_hop_self = true;
                n.rr_client = true;
                bgp.neighbors.push(n);
            }
            bgp.networks = self.networks.clone();
            if self.redistribute_connected {
                bgp.redistribute.push(BgpRedistribute {
                    proto: Redistribute::Connected,
                    route_map: self.redistribute_policy.clone(),
                });
            }
            if let Some(map) = &self.redistribute_isis {
                bgp.redistribute
                    .push(BgpRedistribute::policed(Redistribute::Isis, map));
            }
            cfg.bgp = Some(bgp);
        }

        for (name, rm) in &self.route_maps {
            cfg.route_maps.insert(name.clone(), rm.clone());
        }
        for (name, pl) in &self.prefix_lists {
            cfg.prefix_lists.insert(name.clone(), pl.clone());
        }

        if self.production_complexity {
            add_production_boilerplate(&mut cfg);
        }

        cfg
    }

    /// Renders the built config in its vendor dialect.
    pub fn render(&self) -> String {
        let cfg = self.build();
        match self.vendor {
            Vendor::Ceos => crate::ceos::render(&cfg),
            Vendor::Vjunos => crate::vjunos::render(&cfg),
        }
    }
}

fn default_instance(vendor: Vendor) -> &'static str {
    match vendor {
        Vendor::Ceos => "default",
        Vendor::Vjunos => "master",
    }
}

/// Adds the management-plane and MPLS/TE features that production devices
/// carry. None of these are supported by the model-based baseline; the
/// MPLS/TE portion is *materially relevant* to forwarding, the rest is
/// management-only — the distinction experiment E2 reports on.
pub fn add_production_boilerplate(cfg: &mut DeviceConfig) {
    cfg.mgmt.daemons.extend(
        [
            "TerminAttr",
            "PowerManager",
            "LedPolicy",
            "Thermostat",
            "EventMon",
            "ProcMgr",
            "ConfigAgent",
            "HealthProbe",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    cfg.mgmt
        .apis
        .extend(["gnmi", "grpc", "ssh"].iter().map(|s| s.to_string()));
    cfg.mgmt.ssl_profiles.push("mgmt-tls".to_string());
    cfg.mgmt.ntp_servers.push(Ipv4Addr::new(192, 0, 2, 123));
    cfg.mgmt.ntp_servers.push(Ipv4Addr::new(192, 0, 2, 124));
    cfg.mgmt.logging_hosts.push(Ipv4Addr::new(192, 0, 2, 50));
    // Materially-relevant unmodeled features: label switching + TE.
    cfg.mpls.enabled = true;
    cfg.mpls.te_enabled = true;
    cfg.mpls.rsvp = Some(RsvpConfig::default());
    for iface in &mut cfg.interfaces {
        if iface.routed && !iface.name.is_loopback() {
            iface.mpls = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded misconfiguration injector (conflint cross-validation, E7)
// ---------------------------------------------------------------------------

/// One misconfiguration family the injector can plant — each maps 1:1 onto
/// a `mfv-conflint` rule, and each produces an observable runtime symptom
/// when the corrupted topology is emulated (experiment E7 pairs the two).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeededMisconfig {
    /// C1: an eBGP neighbor statement names the wrong remote AS.
    EbgpAsnMismatch,
    /// C2: the far side's reverse neighbor statement is deleted.
    OneSidedNeighbor,
    /// C3: a router's NET is rewritten into a foreign IS-IS area.
    IsisAreaMismatch,
    /// C4: a router's loopback/router-id/NET are cloned from a sibling.
    DuplicateLoopback,
    /// C5: an import route-map reference points at a map that is never
    /// defined (denies everything while the session stays up).
    UndefinedRouteMap,
    /// C6: one end of a point-to-point link is renumbered off-subnet.
    SubnetMismatch,
    /// C7: `redistribute connected` with no route-map is added on a border.
    UnpolicedRedistribution,
    /// C8: an import prefix-list whose permit entry is dead behind a
    /// broader deny.
    ShadowedPrefixList,
}

impl SeededMisconfig {
    pub const ALL: [SeededMisconfig; 8] = [
        SeededMisconfig::EbgpAsnMismatch,
        SeededMisconfig::OneSidedNeighbor,
        SeededMisconfig::IsisAreaMismatch,
        SeededMisconfig::DuplicateLoopback,
        SeededMisconfig::UndefinedRouteMap,
        SeededMisconfig::SubnetMismatch,
        SeededMisconfig::UnpolicedRedistribution,
        SeededMisconfig::ShadowedPrefixList,
    ];

    /// The conflint rule expected to flag this family.
    fn rule_id(&self) -> &'static str {
        match self {
            SeededMisconfig::EbgpAsnMismatch => "C1",
            SeededMisconfig::OneSidedNeighbor => "C2",
            SeededMisconfig::IsisAreaMismatch => "C3",
            SeededMisconfig::DuplicateLoopback => "C4",
            SeededMisconfig::UndefinedRouteMap => "C5",
            SeededMisconfig::SubnetMismatch => "C6",
            SeededMisconfig::UnpolicedRedistribution => "C7",
            SeededMisconfig::ShadowedPrefixList => "C8",
        }
    }
}

/// What the injector actually changed, in terms the cross-validation
/// harness can assert against: the conflint rule + device expected to be
/// flagged, and the runtime observables the emulator should exhibit.
#[derive(Clone, Debug)]
pub struct InjectionReport {
    pub kind: SeededMisconfig,
    /// Conflint rule id expected to fire (`kind.rule_id()`).
    pub rule: &'static str,
    /// Device the finding should be attached to (the corrupted config —
    /// for `OneSidedNeighbor` the *observing* side, matching conflint).
    pub device: String,
    pub detail: String,
    /// A BGP session `(device, neighbor address)` whose state exhibits the
    /// symptom, if the family has a session-level symptom.
    pub watch_session: Option<(String, Ipv4Addr)>,
    /// `true` if `watch_session` is expected to *reach* Established anyway
    /// (the insidious families: policy silently eats routes).
    pub session_should_establish: bool,
    /// Prefixes expected to vanish from other routers' FIBs.
    pub expect_absent: Vec<Prefix>,
    /// Prefixes expected to *appear* in other routers' FIBs (leaks).
    pub expect_present: Vec<Prefix>,
    /// Devices whose FIBs the absence/presence expectations apply to.
    pub observe_on: Vec<String>,
}

/// The injector found no place to plant the requested family (e.g. no
/// eBGP session in the topology).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InjectError(pub String);

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inject: {}", self.0)
    }
}

impl std::error::Error for InjectError {}

fn owner_of(configs: &[DeviceConfig], addr: Ipv4Addr) -> Option<usize> {
    configs.iter().position(|c| {
        c.interfaces
            .iter()
            .any(|i| i.addr.map(|a| a.addr) == Some(addr))
    })
}

fn device_addrs(cfg: &DeviceConfig) -> Vec<Ipv4Addr> {
    cfg.interfaces
        .iter()
        .filter_map(|i| i.addr.map(|a| a.addr))
        .collect()
}

fn pick<T>(candidates: Vec<T>, seed: u64, what: &str) -> Result<T, InjectError> {
    if candidates.is_empty() {
        return Err(InjectError(format!("no candidate site for {what}")));
    }
    let idx = (seed as usize) % candidates.len();
    candidates
        .into_iter()
        .nth(idx)
        .ok_or_else(|| InjectError(format!("no candidate site for {what}")))
}

/// Sites where a device's neighbor statement points at an interface
/// address of another device: `(device idx, neighbor idx, owner idx)`.
fn session_sites(configs: &[DeviceConfig], ebgp_only: bool) -> Vec<(usize, usize, usize)> {
    let mut sites = Vec::new();
    for (di, cfg) in configs.iter().enumerate() {
        let Some(bgp) = &cfg.bgp else { continue };
        for (ni, n) in bgp.neighbors.iter().enumerate() {
            if n.shutdown || (ebgp_only && n.remote_as == bgp.asn) {
                continue;
            }
            if let Some(oi) = owner_of(configs, n.peer) {
                if oi != di {
                    sites.push((di, ni, oi));
                }
            }
        }
    }
    sites
}

fn hostname(configs: &[DeviceConfig], idx: usize) -> String {
    configs
        .get(idx)
        .map(|c| c.hostname.to_string())
        .unwrap_or_default()
}

fn bgp_networks(configs: &[DeviceConfig], idx: usize) -> Vec<Prefix> {
    configs
        .get(idx)
        .and_then(|c| c.bgp.as_ref())
        .map(|b| b.networks.clone())
        .unwrap_or_default()
}

/// Plants exactly one instance of `kind` into `configs`, choosing the
/// victim deterministically from `seed`. The configs are mutated in place;
/// the report says what to expect from (a) conflint and (b) emulation.
pub fn inject_misconfig(
    kind: SeededMisconfig,
    configs: &mut [DeviceConfig],
    seed: u64,
) -> Result<InjectionReport, InjectError> {
    let rule = kind.rule_id();
    match kind {
        SeededMisconfig::EbgpAsnMismatch => {
            let (di, ni, oi) = pick(session_sites(configs, true), seed, "eBGP ASN mismatch")?;
            let device = hostname(configs, di);
            let peer_name = hostname(configs, oi);
            let expect_absent = bgp_networks(configs, oi);
            let Some(n) = configs
                .get_mut(di)
                .and_then(|c| c.bgp.as_mut())
                .and_then(|b| b.neighbors.get_mut(ni))
            else {
                return Err(InjectError("candidate vanished".into()));
            };
            let wrong = AsNum(n.remote_as.0 + 1000);
            let detail = format!(
                "{device}: neighbor {} remote-as {} -> {wrong} ({peer_name} still runs {})",
                n.peer, n.remote_as, n.remote_as
            );
            let peer = n.peer;
            n.remote_as = wrong;
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail,
                watch_session: Some((device.clone(), peer)),
                session_should_establish: false,
                expect_absent,
                expect_present: Vec::new(),
                observe_on: vec![device],
            })
        }

        SeededMisconfig::OneSidedNeighbor => {
            // eBGP-only: an intra-AS victim would still learn the peer's
            // prefixes through the IGP, muddying the runtime symptom.
            let (di, ni, oi) = pick(session_sites(configs, true), seed, "one-sided neighbor")?;
            let device = hostname(configs, di);
            let other = hostname(configs, oi);
            let expect_absent = bgp_networks(configs, oi);
            let my_addrs = configs.get(di).map(device_addrs).unwrap_or_default();
            let peer = configs
                .get(di)
                .and_then(|c| c.bgp.as_ref())
                .and_then(|b| b.neighbors.get(ni))
                .map(|n| n.peer)
                .ok_or_else(|| InjectError("candidate vanished".into()))?;
            let Some(obgp) = configs.get_mut(oi).and_then(|c| c.bgp.as_mut()) else {
                return Err(InjectError("candidate vanished".into()));
            };
            let before = obgp.neighbors.len();
            obgp.neighbors.retain(|m| !my_addrs.contains(&m.peer));
            if obgp.neighbors.len() == before {
                return Err(InjectError("no reverse statement to delete".into()));
            }
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!(
                    "{other}: deleted neighbor statement(s) back to {device}; \
                     {device}'s session to {peer} is now one-sided"
                ),
                watch_session: Some((device.clone(), peer)),
                session_should_establish: false,
                expect_absent,
                expect_present: Vec::new(),
                observe_on: vec![device],
            })
        }

        SeededMisconfig::IsisAreaMismatch => {
            let sites: Vec<usize> = configs
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.isis.is_some()
                        && c.interfaces
                            .iter()
                            .any(|i| i.isis.as_ref().is_some_and(|ii| !ii.passive))
                })
                .map(|(i, _)| i)
                .collect();
            let di = pick(sites, seed, "IS-IS area mismatch")?;
            let device = hostname(configs, di);
            let lo = configs.get(di).and_then(|c| c.loopback_addr());
            // Observe on the victim's IS-IS partners: the devices sharing a
            // subnet with its adjacency-forming interfaces. (Devices beyond
            // an eBGP boundary may still learn the loopback over BGP.)
            let isis_subnets: Vec<Prefix> = configs
                .get(di)
                .map(|c| {
                    c.interfaces
                        .iter()
                        .filter(|i| i.isis.as_ref().is_some_and(|ii| !ii.passive))
                        .filter_map(|i| i.addr.map(|a| a.subnet()))
                        .collect()
                })
                .unwrap_or_default();
            let partners: Vec<String> = configs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != di)
                .filter(|(_, c)| {
                    c.interfaces
                        .iter()
                        .any(|i| i.addr.is_some_and(|a| isis_subnets.contains(&a.subnet())))
                })
                .map(|(_, c)| c.hostname.to_string())
                .collect();
            if partners.is_empty() {
                return Err(InjectError("victim has no IS-IS partner to observe".into()));
            }
            let Some(isis) = configs.get_mut(di).and_then(|c| c.isis.as_mut()) else {
                return Err(InjectError("candidate vanished".into()));
            };
            let parts: Vec<&str> = isis.net.split('.').collect();
            let tail = parts
                .get(parts.len().saturating_sub(4)..)
                .map(|t| t.join("."))
                .ok_or_else(|| InjectError("unparseable NET".into()))?;
            let old_area = isis.area().unwrap_or_else(|| "?".into());
            let new_area = if old_area == "49.0099" {
                "49.0098"
            } else {
                "49.0099"
            };
            let old_net = isis.net.clone();
            isis.net = format!("{new_area}.{tail}");
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!("{device}: NET {old_net} -> {} (area now foreign)", isis.net),
                watch_session: None,
                session_should_establish: false,
                expect_absent: lo.map(|a| Prefix::new(a, 32)).into_iter().collect(),
                expect_present: Vec::new(),
                observe_on: partners,
            })
        }

        SeededMisconfig::DuplicateLoopback => {
            let with_lo: Vec<usize> = configs
                .iter()
                .enumerate()
                .filter(|(_, c)| c.loopback_addr().is_some())
                .map(|(i, _)| i)
                .collect();
            if with_lo.len() < 2 {
                return Err(InjectError("need two devices with loopbacks".into()));
            }
            // Victim is never the first loopback-bearing device, so the
            // conflint finding (attached to later duplicates) names it.
            let vi = pick(
                with_lo.get(1..).map(|s| s.to_vec()).unwrap_or_default(),
                seed,
                "duplicate loopback",
            )?;
            let si = with_lo
                .iter()
                .copied()
                .find(|i| *i != vi)
                .ok_or_else(|| InjectError("no source device".into()))?;
            let device = hostname(configs, vi);
            let source = hostname(configs, si);
            let src_lo = configs
                .get(si)
                .and_then(|c| c.loopback_addr())
                .ok_or_else(|| InjectError("source lost its loopback".into()))?;
            let src_net = configs
                .get(si)
                .and_then(|c| c.isis.as_ref())
                .map(|i| i.net.clone());
            let old_lo = configs
                .get(vi)
                .and_then(|c| c.loopback_addr())
                .ok_or_else(|| InjectError("victim lost its loopback".into()))?;
            let everyone: Vec<String> = configs.iter().map(|c| c.hostname.to_string()).collect();
            let Some(victim) = configs.get_mut(vi) else {
                return Err(InjectError("candidate vanished".into()));
            };
            for iface in victim.interfaces.iter_mut() {
                if iface.name.is_loopback() {
                    if let Some(a) = iface.addr.as_mut() {
                        a.addr = src_lo;
                    }
                }
            }
            if let Some(bgp) = victim.bgp.as_mut() {
                bgp.router_id = Some(mfv_types::RouterId(src_lo));
            }
            if let (Some(isis), Some(net)) = (victim.isis.as_mut(), src_net) {
                isis.net = net;
            }
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!(
                    "{device}: loopback/router-id/NET cloned from {source} \
                     ({old_lo} -> {src_lo}); {old_lo}/32 is now originated by nobody"
                ),
                watch_session: None,
                session_should_establish: false,
                expect_absent: vec![Prefix::new(old_lo, 32)],
                expect_present: Vec::new(),
                observe_on: everyone,
            })
        }

        SeededMisconfig::UndefinedRouteMap => {
            let (di, ni, oi) = pick(session_sites(configs, true), seed, "undefined route-map")?;
            let device = hostname(configs, di);
            let expect_absent = bgp_networks(configs, oi);
            let Some(n) = configs
                .get_mut(di)
                .and_then(|c| c.bgp.as_mut())
                .and_then(|b| b.neighbors.get_mut(ni))
            else {
                return Err(InjectError("candidate vanished".into()));
            };
            n.route_map_in = Some("PHANTOM-IN".to_string());
            let peer = n.peer;
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!(
                    "{device}: neighbor {peer} route-map PHANTOM-IN in — the map \
                     is never defined, so every inbound route is silently denied"
                ),
                watch_session: Some((device.clone(), peer)),
                session_should_establish: true,
                expect_absent,
                expect_present: Vec::new(),
                observe_on: vec![device],
            })
        }

        SeededMisconfig::SubnetMismatch => {
            // Renumber the interface that carries an eBGP session.
            let mut sites = Vec::new();
            for (di, ni, oi) in session_sites(configs, true) {
                let peer = configs
                    .get(di)
                    .and_then(|c| c.bgp.as_ref())
                    .and_then(|b| b.neighbors.get(ni))
                    .map(|n| n.peer);
                let Some(peer) = peer else { continue };
                let Some(cfg) = configs.get(di) else { continue };
                if let Some(ii) = cfg
                    .interfaces
                    .iter()
                    .position(|i| i.addr.is_some_and(|a| a.subnet().contains(peer)))
                {
                    sites.push((di, ni, oi, ii));
                }
            }
            let (di, ni, oi, ii) = pick(sites, seed, "subnet mismatch")?;
            let device = hostname(configs, di);
            let peer = configs
                .get(di)
                .and_then(|c| c.bgp.as_ref())
                .and_then(|b| b.neighbors.get(ni))
                .map(|n| n.peer)
                .ok_or_else(|| InjectError("candidate vanished".into()))?;
            let expect_absent = bgp_networks(configs, oi);
            let Some(iface) = configs.get_mut(di).and_then(|c| c.interfaces.get_mut(ii)) else {
                return Err(InjectError("candidate vanished".into()));
            };
            let old = iface.addr;
            let fresh = IfaceAddr::new(Ipv4Addr::new(10, 254, (seed % 200) as u8, 1), 31);
            iface.addr = Some(fresh);
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!(
                    "{device}: {} renumbered {} -> {fresh}; neighbor {peer} is no \
                     longer on a connected subnet",
                    iface.name,
                    old.map(|a| a.to_string()).unwrap_or_else(|| "?".into()),
                ),
                watch_session: Some((device.clone(), peer)),
                session_should_establish: false,
                expect_absent,
                expect_present: Vec::new(),
                observe_on: vec![device],
            })
        }

        SeededMisconfig::UnpolicedRedistribution => {
            // Victims with an eBGP session: the leak is observed on the
            // eBGP peer, which would never otherwise carry the victim's
            // infrastructure subnets. Skip sites whose device already
            // redistributes unfiltered (nothing new to plant).
            let mut sites = Vec::new();
            for (di, ni, oi) in session_sites(configs, true) {
                let clean = configs
                    .get(di)
                    .and_then(|c| c.bgp.as_ref())
                    .is_some_and(|b| b.redistribute.iter().all(|r| r.route_map.is_some()));
                if clean {
                    sites.push((di, ni, oi));
                }
            }
            let (di, _ni, oi) = pick(sites, seed, "unpoliced redistribution")?;
            let device = hostname(configs, di);
            let observer = hostname(configs, oi);
            let observer_subnets: Vec<Prefix> = configs
                .get(oi)
                .map(|c| c.connected_subnets().into_iter().map(|(_, p)| p).collect())
                .unwrap_or_default();
            // The subnets that leak *and* are foreign to the observer (a
            // shared link subnet is connected there anyway — no symptom).
            let leak: Vec<Prefix> = configs
                .get(di)
                .map(|c| {
                    c.connected_subnets()
                        .into_iter()
                        .map(|(_, p)| p)
                        .filter(|p| p.len() < 32 && !observer_subnets.contains(p))
                        .collect()
                })
                .unwrap_or_default();
            if leak.is_empty() {
                return Err(InjectError(
                    "victim has no infrastructure subnet foreign to its peer".into(),
                ));
            }
            let Some(bgp) = configs.get_mut(di).and_then(|c| c.bgp.as_mut()) else {
                return Err(InjectError("candidate vanished".into()));
            };
            bgp.redistribute
                .push(BgpRedistribute::unfiltered(Redistribute::Connected));
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!(
                    "{device}: added `redistribute connected` with no route-map; \
                     infrastructure subnets leak to eBGP peer {observer}"
                ),
                watch_session: None,
                session_should_establish: true,
                expect_absent: Vec::new(),
                expect_present: leak,
                observe_on: vec![observer],
            })
        }

        SeededMisconfig::ShadowedPrefixList => {
            let (di, ni, oi) = pick(session_sites(configs, true), seed, "shadowed prefix-list")?;
            let device = hostname(configs, di);
            let expect_absent = bgp_networks(configs, oi);
            // The permit entries the operator *meant* to take effect.
            let permits: Vec<PrefixListEntry> = expect_absent
                .iter()
                .enumerate()
                .map(|(i, p)| PrefixListEntry {
                    seq: 10 + 5 * i as u32,
                    action: PolicyAction::Permit,
                    prefix: *p,
                    ge: None,
                    le: None,
                })
                .collect();
            if permits.is_empty() {
                return Err(InjectError("peer originates nothing to permit".into()));
            }
            let Some(cfg) = configs.get_mut(di) else {
                return Err(InjectError("candidate vanished".into()));
            };
            let mut entries = vec![PrefixListEntry {
                seq: 5,
                action: PolicyAction::Deny,
                prefix: Prefix::DEFAULT,
                ge: None,
                le: Some(32),
            }];
            entries.extend(permits);
            cfg.prefix_lists
                .insert("XVAL-IN".to_string(), PrefixList { entries });
            cfg.route_maps.insert(
                "XVAL-IN-MAP".to_string(),
                RouteMap {
                    entries: vec![RouteMapEntry {
                        seq: 10,
                        action: PolicyAction::Permit,
                        matches: vec![MatchClause::PrefixList("XVAL-IN".to_string())],
                        sets: Vec::new(),
                    }],
                },
            );
            let Some(n) = cfg.bgp.as_mut().and_then(|b| b.neighbors.get_mut(ni)) else {
                return Err(InjectError("candidate vanished".into()));
            };
            n.route_map_in = Some("XVAL-IN-MAP".to_string());
            let peer = n.peer;
            Ok(InjectionReport {
                kind,
                rule,
                device: device.clone(),
                detail: format!(
                    "{device}: neighbor {peer} filtered through prefix-list \
                     XVAL-IN whose permits sit dead behind `deny 0.0.0.0/0 le 32`"
                ),
                watch_session: Some((device.clone(), peer)),
                session_should_establish: true,
                expect_absent,
                expect_present: Vec::new(),
                observe_on: vec![device],
            })
        }
    }
}

/// Classification of a configuration feature for coverage reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FeatureClass {
    /// Changes forwarding behaviour (MPLS, TE, RSVP, routing).
    Material,
    /// Management-plane only (daemons, APIs, NTP, logging, SSL).
    ManagementOnly,
}

/// Classifies a single (EOS-dialect) config line for the E2 report.
pub fn classify_line(line: &str) -> FeatureClass {
    let l = line.trim();
    const MGMT: &[&str] = &[
        "daemon",
        "management",
        "ntp",
        "logging",
        "snmp-server",
        "aaa",
        "username",
        "banner",
        "ssl",
        "transport",
        "idle-timeout",
        "no shutdown",
        "exec",
        "spanning-tree",
        "service routing",
    ];
    if MGMT.iter().any(|kw| l.starts_with(kw)) {
        FeatureClass::ManagementOnly
    } else {
        FeatureClass::Material
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_types::IfaceId;

    fn sample_spec(vendor: Vendor) -> RouterSpec {
        RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .vendor(vendor)
            .iface(
                IfaceSpec::new("Ethernet1", "100.64.0.1/31".parse().unwrap())
                    .with_isis()
                    .described("to r2"),
            )
            .ebgp("100.64.0.0".parse().unwrap(), AsNum(65002))
            .ibgp(Ipv4Addr::new(2, 2, 2, 3))
            .network("2.2.2.1/32".parse().unwrap())
    }

    #[test]
    fn build_wires_up_loopback_isis_bgp() {
        let cfg = sample_spec(Vendor::Ceos).build();
        let lo = cfg.interface(&IfaceId::from("Loopback0")).unwrap();
        assert_eq!(lo.addr.unwrap().addr, Ipv4Addr::new(2, 2, 2, 1));
        assert!(lo.isis.as_ref().unwrap().passive);
        let isis = cfg.isis.as_ref().unwrap();
        assert_eq!(isis.net, "49.0001.0202.0202.0201.00");
        let bgp = cfg.bgp.as_ref().unwrap();
        assert_eq!(bgp.neighbors.len(), 2);
        let ibgp = bgp.neighbor(Ipv4Addr::new(2, 2, 2, 3)).unwrap();
        assert!(ibgp.next_hop_self);
        assert_eq!(ibgp.update_source, Some(IfaceId::from("Loopback0")));
    }

    #[test]
    fn rendered_ceos_config_parses_back() {
        let spec = sample_spec(Vendor::Ceos);
        let text = spec.render();
        let parsed = crate::ceos::parse(&text).unwrap();
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert_eq!(parsed.config, spec.build());
    }

    #[test]
    fn rendered_vjunos_config_parses_back() {
        let spec = sample_spec(Vendor::Vjunos);
        let text = spec.render();
        let parsed = crate::vjunos::parse(&text).unwrap();
        assert!(
            parsed.warnings.is_empty(),
            "{:?}\n{}",
            parsed.warnings,
            text
        );
        let cfg = parsed.config;
        assert_eq!(&*cfg.hostname, "r1");
        let bgp = cfg.bgp.unwrap();
        assert_eq!(bgp.asn, AsNum(65001));
        assert_eq!(bgp.neighbors.len(), 2);
        assert!(cfg.isis.is_some());
    }

    #[test]
    fn fig2_scale_configs_are_realistic_length() {
        // Paper: Fig. 2 configs are 62–82 lines. Our bare spec with
        // production boilerplate should land in a similar band.
        let text = sample_spec(Vendor::Ceos).production().render();
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(
            (50..=110).contains(&lines),
            "unexpected config length {lines}:\n{text}"
        );
    }

    #[test]
    fn production_boilerplate_is_parseable_by_vendor() {
        let spec = sample_spec(Vendor::Ceos).production();
        let text = spec.render();
        let parsed = crate::ceos::parse(&text).unwrap();
        // The *vendor* parser accepts the whole config (this is the point:
        // only the model-based baseline chokes on these features).
        assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        assert!(parsed.config.mpls.enabled && parsed.config.mpls.te_enabled);
        assert_eq!(parsed.config.mgmt.daemons.len(), 8);
    }

    #[test]
    fn classify_lines() {
        assert_eq!(classify_line("   mpls ip"), FeatureClass::Material);
        assert_eq!(
            classify_line("router traffic-engineering"),
            FeatureClass::Material
        );
        assert_eq!(
            classify_line("daemon TerminAttr"),
            FeatureClass::ManagementOnly
        );
        assert_eq!(
            classify_line("management api gnmi"),
            FeatureClass::ManagementOnly
        );
        assert_eq!(
            classify_line("ntp server 1.2.3.4"),
            FeatureClass::ManagementOnly
        );
    }

    fn xval_pair() -> Vec<DeviceConfig> {
        let r1 = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
            .iface(IfaceSpec::new("Ethernet1", "10.0.0.0/31".parse().unwrap()).with_isis())
            .iface(IfaceSpec::new(
                "Ethernet2",
                "192.168.1.1/24".parse().unwrap(),
            ))
            .ebgp(Ipv4Addr::new(10, 0, 0, 1), AsNum(65002))
            .network("2.2.2.1/32".parse().unwrap())
            .build();
        let r2 = RouterSpec::new("r2", AsNum(65002), Ipv4Addr::new(2, 2, 2, 2))
            .iface(IfaceSpec::new("Ethernet1", "10.0.0.1/31".parse().unwrap()).with_isis())
            .iface(IfaceSpec::new(
                "Ethernet2",
                "192.168.2.1/24".parse().unwrap(),
            ))
            .ebgp(Ipv4Addr::new(10, 0, 0, 0), AsNum(65001))
            .network("2.2.2.2/32".parse().unwrap())
            .build();
        vec![r1, r2]
    }

    #[test]
    fn injector_covers_every_family_and_is_deterministic() {
        for kind in SeededMisconfig::ALL {
            let mut mutated = xval_pair();
            let report =
                inject_misconfig(kind, &mut mutated, 7).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(report.rule, kind.rule_id());
            assert!(!report.device.is_empty(), "{kind:?} names no device");
            assert_ne!(mutated, xval_pair(), "{kind:?} left configs untouched");

            // Same seed, same starting configs -> byte-identical outcome.
            let mut again = xval_pair();
            let replay = inject_misconfig(kind, &mut again, 7).unwrap();
            assert_eq!(report.detail, replay.detail);
            assert_eq!(mutated, again, "{kind:?} is not deterministic");
        }
    }

    #[test]
    fn asn_mismatch_report_predicts_session_failure() {
        let mut configs = xval_pair();
        let report = inject_misconfig(SeededMisconfig::EbgpAsnMismatch, &mut configs, 0).unwrap();
        assert!(!report.session_should_establish);
        let (dev, peer) = report.watch_session.expect("session to watch");
        assert_eq!(dev, report.device);
        assert!(configs
            .iter()
            .any(|c| c.bgp.as_ref().is_some_and(|b| b.neighbor(peer).is_some())));
        // The victim's statement now carries an ASN nobody runs.
        let victim = configs
            .iter()
            .find(|c| *c.hostname == *report.device)
            .unwrap();
        let n = victim.bgp.as_ref().unwrap().neighbor(peer).unwrap();
        assert!(configs
            .iter()
            .all(|c| c.bgp.as_ref().is_none_or(|b| b.asn != n.remote_as)));
    }

    #[test]
    fn duplicate_loopback_clones_identity_and_orphans_old_prefix() {
        let mut configs = xval_pair();
        let report = inject_misconfig(SeededMisconfig::DuplicateLoopback, &mut configs, 0).unwrap();
        // The victim is never the first loopback-bearing device.
        assert_eq!(report.device, "r2");
        assert_eq!(report.expect_absent, vec!["2.2.2.2/32".parse().unwrap()]);
        let (r1, r2) = (configs.first().unwrap(), configs.get(1).unwrap());
        assert_eq!(r1.loopback_addr(), r2.loopback_addr());
        assert_eq!(
            r1.isis.as_ref().map(|i| &i.net),
            r2.isis.as_ref().map(|i| &i.net)
        );
    }

    #[test]
    fn shadowed_prefix_list_establishes_but_filters_everything() {
        let mut configs = xval_pair();
        let report =
            inject_misconfig(SeededMisconfig::ShadowedPrefixList, &mut configs, 0).unwrap();
        assert!(report.session_should_establish);
        assert!(!report.expect_absent.is_empty());
        let victim = configs
            .iter()
            .find(|c| *c.hostname == *report.device)
            .unwrap();
        let pl = victim.prefix_lists.get("XVAL-IN").expect("injected list");
        let deny = pl.entries.first().unwrap();
        assert_eq!(deny.action, PolicyAction::Deny);
        assert!(pl
            .entries
            .iter()
            .skip(1)
            .all(|e| deny.prefix.covers(&e.prefix)));
    }

    #[test]
    fn injection_fails_loudly_when_no_candidate_exists() {
        // A lone router has no sessions, links, or duplicate identities.
        let mut solo = vec![RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1)).build()];
        for kind in [
            SeededMisconfig::EbgpAsnMismatch,
            SeededMisconfig::OneSidedNeighbor,
            SeededMisconfig::DuplicateLoopback,
            SeededMisconfig::SubnetMismatch,
        ] {
            assert!(inject_misconfig(kind, &mut solo, 0).is_err(), "{kind:?}");
        }
    }

    #[test]
    fn isis_net_is_unique_per_loopback() {
        let a = RouterSpec::new("a", AsNum(1), Ipv4Addr::new(2, 2, 2, 1)).isis_net();
        let b = RouterSpec::new("b", AsNum(1), Ipv4Addr::new(2, 2, 2, 2)).isis_net();
        assert_ne!(a, b);
        assert!(a.starts_with("49.0001."));
        assert!(a.ends_with(".00"));
    }
}
