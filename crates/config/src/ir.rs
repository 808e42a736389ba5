//! Vendor-neutral device configuration IR.
//!
//! Both vendor dialect parsers ([`crate::ceos`], [`crate::vjunos`]) produce a
//! [`DeviceConfig`]; the vendor router implementations in `mfv-vrouter`
//! consume it. The IR deliberately captures *more* than any network model
//! supports — management daemons, MPLS/TE, SSL profiles — because the paper's
//! E2 experiment is about exactly those unmodeled-but-present features.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use mfv_types::{AsNum, Community, IfaceAddr, IfaceId, Prefix, RouterId};

/// Which vendor dialect a config was written in / should render to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Vendor {
    /// EOS-like industry-standard CLI (sectioned, `!`-separated).
    Ceos,
    /// Junos-like hierarchical curly-brace configuration.
    Vjunos,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::Ceos => f.write_str("ceos"),
            Vendor::Vjunos => f.write_str("vjunos"),
        }
    }
}

/// Per-interface IS-IS settings.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct IfaceIsis {
    /// IS-IS instance this interface participates in.
    pub instance: String,
    /// Interface metric (vendor default 10).
    pub metric: u32,
    /// Passive interfaces are advertised but form no adjacencies.
    pub passive: bool,
}

impl IfaceIsis {
    pub fn new(instance: impl Into<String>) -> IfaceIsis {
        IfaceIsis {
            instance: instance.into(),
            metric: 10,
            passive: false,
        }
    }
}

/// One interface stanza.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct InterfaceConfig {
    pub name: IfaceId,
    pub description: Option<String>,
    /// IPv4 address, if configured.
    pub addr: Option<IfaceAddr>,
    /// `no switchport` on EOS — the interface operates at layer 3. On the
    /// real vendor this is independent of statement order; the model-based
    /// baseline famously assumes otherwise (paper Fig. 3, issue #1).
    pub routed: bool,
    pub isis: Option<IfaceIsis>,
    /// `mpls ip` — label switching enabled on this interface.
    pub mpls: bool,
    pub shutdown: bool,
}

impl InterfaceConfig {
    pub fn new(name: impl Into<IfaceId>) -> InterfaceConfig {
        InterfaceConfig {
            name: name.into(),
            description: None,
            addr: None,
            routed: false,
            isis: None,
            mpls: false,
            shutdown: false,
        }
    }

    /// Is this interface usable for L3 forwarding? Loopbacks are always
    /// routed; physical ports need `no switchport` (EOS) or `family inet`
    /// (Junos, where `routed` is implied by having an address).
    pub fn is_l3(&self) -> bool {
        !self.shutdown && self.addr.is_some() && (self.routed || self.name.is_loopback())
    }
}

/// IS-IS level (we model L2-only and L1L2 as the common WAN cases).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum IsisLevel {
    Level1,
    Level2,
    Level1And2,
}

/// `router isis <instance>` stanza.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct IsisConfig {
    pub instance: String,
    /// ISO Network Entity Title, e.g. `49.0001.1010.1040.1030.00`.
    pub net: String,
    pub level: IsisLevel,
    /// `address-family ipv4 unicast` present.
    pub af_ipv4: bool,
    pub redistribute_connected: bool,
    /// Junos `wide-metrics-only` / EOS `metric-style wide`.
    pub wide_metrics: bool,
}

impl IsisConfig {
    pub fn new(instance: impl Into<String>, net: impl Into<String>) -> IsisConfig {
        IsisConfig {
            instance: instance.into(),
            net: net.into(),
            level: IsisLevel::Level2,
            af_ipv4: true,
            redistribute_connected: false,
            wide_metrics: true,
        }
    }

    /// The system-id portion of the NET (the 6 bytes before the selector).
    pub fn system_id(&self) -> Option<String> {
        let parts: Vec<&str> = self.net.split('.').collect();
        if parts.len() < 4 {
            return None;
        }
        Some(parts[parts.len() - 4..parts.len() - 1].join("."))
    }

    /// The area portion of the NET (everything before the system-id).
    pub fn area(&self) -> Option<String> {
        let parts: Vec<&str> = self.net.split('.').collect();
        let n = parts.len().checked_sub(4)?;
        if n == 0 {
            return None;
        }
        Some(parts.get(..n)?.join("."))
    }
}

/// A BGP neighbor statement.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BgpNeighborConfig {
    pub peer: Ipv4Addr,
    pub remote_as: AsNum,
    pub description: Option<String>,
    /// Source loopback for iBGP sessions.
    pub update_source: Option<IfaceId>,
    pub next_hop_self: bool,
    pub send_community: bool,
    /// Route-map applied to routes received from this peer.
    pub route_map_in: Option<String>,
    /// Route-map applied to routes advertised to this peer.
    pub route_map_out: Option<String>,
    /// Allow eBGP sessions between non-adjacent addresses.
    pub ebgp_multihop: bool,
    /// Route-reflector client (iBGP only).
    pub rr_client: bool,
    pub shutdown: bool,
}

impl BgpNeighborConfig {
    pub fn new(peer: Ipv4Addr, remote_as: AsNum) -> BgpNeighborConfig {
        BgpNeighborConfig {
            peer,
            remote_as,
            description: None,
            update_source: None,
            next_hop_self: false,
            send_community: true,
            route_map_in: None,
            route_map_out: None,
            ebgp_multihop: false,
            rr_client: false,
            shutdown: false,
        }
    }
}

/// Protocols whose routes can be redistributed into BGP.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Redistribute {
    Connected,
    Static,
    Isis,
}

impl Redistribute {
    /// The source keyword, the same in both dialects.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            Redistribute::Connected => "connected",
            Redistribute::Static => "static",
            Redistribute::Isis => "isis",
        }
    }

    pub(crate) fn from_keyword(word: &str) -> Option<Redistribute> {
        [Self::Connected, Self::Static, Self::Isis]
            .into_iter()
            .find(|proto| proto.keyword() == word)
    }
}

/// One `redistribute <proto> [route-map <name>]` statement under
/// `router bgp`. Redistribution without an attached route-map injects the
/// whole source table unfiltered (conflint rule C7 flags that).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BgpRedistribute {
    pub proto: Redistribute,
    pub route_map: Option<String>,
}

impl BgpRedistribute {
    pub fn unfiltered(proto: Redistribute) -> BgpRedistribute {
        BgpRedistribute {
            proto,
            route_map: None,
        }
    }

    pub fn policed(proto: Redistribute, route_map: &str) -> BgpRedistribute {
        BgpRedistribute {
            proto,
            route_map: Some(route_map.to_string()),
        }
    }
}

/// `router bgp <asn>` stanza.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BgpConfig {
    pub asn: AsNum,
    pub router_id: Option<RouterId>,
    pub neighbors: Vec<BgpNeighborConfig>,
    /// `network` statements: prefixes originated by this router.
    pub networks: Vec<Prefix>,
    pub redistribute: Vec<BgpRedistribute>,
    /// ECMP width (`maximum-paths`).
    pub max_paths: u8,
}

impl BgpConfig {
    pub fn new(asn: AsNum) -> BgpConfig {
        BgpConfig {
            asn,
            router_id: None,
            neighbors: Vec::new(),
            networks: Vec::new(),
            redistribute: Vec::new(),
            max_paths: 1,
        }
    }

    pub fn neighbor(&self, peer: Ipv4Addr) -> Option<&BgpNeighborConfig> {
        self.neighbors.iter().find(|n| n.peer == peer)
    }
}

/// A static route.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StaticRoute {
    pub prefix: Prefix,
    pub next_hop: Ipv4Addr,
    /// Administrative distance override (default 1).
    pub distance: Option<u8>,
}

/// Route-map / policy-statement action.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PolicyAction {
    Permit,
    Deny,
}

/// A match clause inside a route-map entry.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MatchClause {
    /// `match ip address prefix-list NAME`
    PrefixList(String),
    /// `match community <community>` (single literal community for
    /// simplicity; community-lists expand to one clause each).
    Community(Community),
    /// `match as-path length <= N` style guard.
    MaxAsPathLen(usize),
}

/// A set clause inside a route-map entry.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SetClause {
    LocalPref(u32),
    Med(u32),
    /// Add communities (additive).
    AddCommunities(Vec<Community>),
    /// Replace communities.
    SetCommunities(Vec<Community>),
    PrependAsPath(Vec<AsNum>),
    NextHop(Ipv4Addr),
}

/// One sequenced entry of a route-map.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RouteMapEntry {
    pub seq: u32,
    pub action: PolicyAction,
    pub matches: Vec<MatchClause>,
    pub sets: Vec<SetClause>,
}

/// A named routing policy (`route-map` / `policy-statement`).
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RouteMap {
    pub entries: Vec<RouteMapEntry>,
}

/// One line of a prefix-list.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PrefixListEntry {
    pub seq: u32,
    pub action: PolicyAction,
    pub prefix: Prefix,
    /// `ge` bound: minimum matched length.
    pub ge: Option<u8>,
    /// `le` bound: maximum matched length.
    pub le: Option<u8>,
}

impl PrefixListEntry {
    /// Does `p` match this entry? Standard semantics: `p` must be covered by
    /// `prefix`, with length within `[ge.unwrap_or(prefix.len), le.unwrap_or
    /// (ge or prefix.len)]`; with neither bound, exact length match.
    pub fn matches(&self, p: &Prefix) -> bool {
        if !self.prefix.covers(p) {
            return false;
        }
        let lo = self.ge.unwrap_or(self.prefix.len());
        let hi = self.le.unwrap_or(if self.ge.is_some() {
            32
        } else {
            self.prefix.len()
        });
        p.len() >= lo && p.len() <= hi
    }
}

/// A named prefix-list.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct PrefixList {
    pub entries: Vec<PrefixListEntry>,
}

impl PrefixList {
    /// First-match evaluation; implicit deny.
    pub fn permits(&self, p: &Prefix) -> bool {
        for e in &self.entries {
            if e.matches(p) {
                return e.action == PolicyAction::Permit;
            }
        }
        false
    }
}

/// MPLS / traffic-engineering configuration. The Batfish-style model has no
/// support for any of this (paper §5, E2): the real vendor accepts it and it
/// materially changes forwarding when TE tunnels are up.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MplsConfig {
    /// Global `mpls ip` toggle.
    pub enabled: bool,
    /// `router traffic-engineering` / `protocols mpls` present.
    pub te_enabled: bool,
    /// RSVP signalling settings (hello interval in ms, refresh in ms).
    pub rsvp: Option<RsvpConfig>,
}

/// RSVP-TE signalling timers; vendors disagree about defaults, which the
/// paper cites as a source of cross-vendor reconvergence bugs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RsvpConfig {
    pub hello_interval_ms: u32,
    pub refresh_ms: u32,
}

impl Default for RsvpConfig {
    fn default() -> Self {
        RsvpConfig {
            hello_interval_ms: 9_000,
            refresh_ms: 30_000,
        }
    }
}

/// Management-plane features: daemons and services that exist on real
/// devices, matter to operations, and are invisible to network models.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MgmtConfig {
    /// Enabled management daemons (PowerManager, LedPolicy, Thermostat, …).
    pub daemons: Vec<String>,
    /// Enabled management APIs (gnmi, grpc, netconf, ssh, …).
    pub apis: Vec<String>,
    /// Named SSL profiles referenced by the APIs.
    pub ssl_profiles: Vec<String>,
    /// NTP servers.
    pub ntp_servers: Vec<Ipv4Addr>,
    /// Syslog hosts.
    pub logging_hosts: Vec<Ipv4Addr>,
}

/// A complete parsed device configuration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct DeviceConfig {
    pub hostname: String,
    pub vendor: Vendor,
    /// `ip routing` — L3 forwarding enabled (EOS default off, we default on).
    pub ip_routing: bool,
    pub interfaces: Vec<InterfaceConfig>,
    pub isis: Option<IsisConfig>,
    pub bgp: Option<BgpConfig>,
    pub static_routes: Vec<StaticRoute>,
    pub mpls: MplsConfig,
    pub mgmt: MgmtConfig,
    pub route_maps: BTreeMap<String, RouteMap>,
    pub prefix_lists: BTreeMap<String, PrefixList>,
}

impl DeviceConfig {
    pub fn new(hostname: impl Into<String>, vendor: Vendor) -> DeviceConfig {
        DeviceConfig {
            hostname: hostname.into(),
            vendor,
            ip_routing: true,
            interfaces: Vec::new(),
            isis: None,
            bgp: None,
            static_routes: Vec::new(),
            mpls: MplsConfig::default(),
            mgmt: MgmtConfig::default(),
            route_maps: BTreeMap::new(),
            prefix_lists: BTreeMap::new(),
        }
    }

    pub fn interface(&self, name: &IfaceId) -> Option<&InterfaceConfig> {
        self.interfaces.iter().find(|i| &i.name == name)
    }

    pub fn interface_mut(&mut self, name: &IfaceId) -> Option<&mut InterfaceConfig> {
        self.interfaces.iter_mut().find(|i| &i.name == name)
    }

    /// Finds (or appends) the interface stanza with `name`.
    pub fn ensure_interface(&mut self, name: impl Into<IfaceId>) -> &mut InterfaceConfig {
        let name = name.into();
        if let Some(pos) = self.interfaces.iter().position(|i| i.name == name) {
            &mut self.interfaces[pos]
        } else {
            self.interfaces.push(InterfaceConfig::new(name));
            self.interfaces.last_mut().unwrap()
        }
    }

    /// The router's loopback /32, used as router-id and BGP update source.
    pub fn loopback_addr(&self) -> Option<Ipv4Addr> {
        self.interfaces
            .iter()
            .find(|i| i.name.is_loopback())
            .and_then(|i| i.addr.map(|a| a.addr))
    }

    /// Effective BGP router-id: explicit, else loopback, else highest
    /// interface address (vendor convention).
    pub fn effective_router_id(&self) -> Option<RouterId> {
        if let Some(bgp) = &self.bgp {
            if let Some(rid) = bgp.router_id {
                return Some(rid);
            }
        }
        if let Some(lo) = self.loopback_addr() {
            return Some(RouterId(lo));
        }
        self.interfaces
            .iter()
            .filter_map(|i| i.addr.map(|a| a.addr))
            .max()
            .map(RouterId)
    }

    /// All connected subnets on operational L3 interfaces.
    pub fn connected_subnets(&self) -> Vec<(IfaceId, Prefix)> {
        self.interfaces
            .iter()
            .filter(|i| i.is_l3())
            .filter_map(|i| i.addr.map(|a| (i.name.clone(), a.subnet())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn iface_l3_requires_routed_or_loopback() {
        let mut i = InterfaceConfig::new("Ethernet1");
        i.addr = Some("10.0.0.1/31".parse().unwrap());
        assert!(!i.is_l3(), "switchport interface is not L3");
        i.routed = true;
        assert!(i.is_l3());
        i.shutdown = true;
        assert!(!i.is_l3());

        let mut lo = InterfaceConfig::new("Loopback0");
        lo.addr = Some("2.2.2.1/32".parse().unwrap());
        assert!(lo.is_l3(), "loopbacks are implicitly routed");
    }

    #[test]
    fn effective_router_id_prefers_explicit_then_loopback() {
        let mut cfg = DeviceConfig::new("r1", Vendor::Ceos);
        let eth = cfg.ensure_interface("Ethernet1");
        eth.addr = Some("10.0.0.9/31".parse().unwrap());
        eth.routed = true;
        assert_eq!(
            cfg.effective_router_id(),
            Some(RouterId(Ipv4Addr::new(10, 0, 0, 9)))
        );

        let lo = cfg.ensure_interface("Loopback0");
        lo.addr = Some("2.2.2.1/32".parse().unwrap());
        assert_eq!(
            cfg.effective_router_id(),
            Some(RouterId(Ipv4Addr::new(2, 2, 2, 1)))
        );

        let mut bgp = BgpConfig::new(AsNum(65000));
        bgp.router_id = Some(RouterId(Ipv4Addr::new(9, 9, 9, 9)));
        cfg.bgp = Some(bgp);
        assert_eq!(
            cfg.effective_router_id(),
            Some(RouterId(Ipv4Addr::new(9, 9, 9, 9)))
        );
    }

    #[test]
    fn connected_subnets_skips_non_l3() {
        let mut cfg = DeviceConfig::new("r1", Vendor::Ceos);
        let e1 = cfg.ensure_interface("Ethernet1");
        e1.addr = Some("10.0.0.1/31".parse().unwrap());
        e1.routed = true;
        let e2 = cfg.ensure_interface("Ethernet2");
        e2.addr = Some("10.0.0.3/31".parse().unwrap());
        // Ethernet2 left as switchport: excluded.
        let subnets = cfg.connected_subnets();
        assert_eq!(subnets.len(), 1);
        assert_eq!(subnets[0].1, pfx("10.0.0.0/31"));
    }

    #[test]
    fn prefix_list_exact_match_semantics() {
        let e = PrefixListEntry {
            seq: 10,
            action: PolicyAction::Permit,
            prefix: pfx("10.0.0.0/8"),
            ge: None,
            le: None,
        };
        assert!(e.matches(&pfx("10.0.0.0/8")));
        assert!(!e.matches(&pfx("10.1.0.0/16")), "no bounds → exact length");
    }

    #[test]
    fn prefix_list_le_ge_bounds() {
        let e = PrefixListEntry {
            seq: 10,
            action: PolicyAction::Permit,
            prefix: pfx("10.0.0.0/8"),
            ge: Some(16),
            le: Some(24),
        };
        assert!(!e.matches(&pfx("10.0.0.0/8")));
        assert!(e.matches(&pfx("10.1.0.0/16")));
        assert!(e.matches(&pfx("10.1.2.0/24")));
        assert!(!e.matches(&pfx("10.1.2.128/25")));
        assert!(!e.matches(&pfx("11.0.0.0/16")), "must be covered");
    }

    #[test]
    fn prefix_list_le_only() {
        let e = PrefixListEntry {
            seq: 10,
            action: PolicyAction::Permit,
            prefix: pfx("0.0.0.0/0"),
            ge: None,
            le: Some(24),
        };
        assert!(e.matches(&pfx("10.0.0.0/8")));
        assert!(e.matches(&pfx("0.0.0.0/0")));
        assert!(!e.matches(&pfx("10.0.0.0/25")));
    }

    #[test]
    fn prefix_list_first_match_wins() {
        let pl = PrefixList {
            entries: vec![
                PrefixListEntry {
                    seq: 5,
                    action: PolicyAction::Deny,
                    prefix: pfx("10.13.0.0/16"),
                    ge: None,
                    le: Some(32),
                },
                PrefixListEntry {
                    seq: 10,
                    action: PolicyAction::Permit,
                    prefix: pfx("10.0.0.0/8"),
                    ge: None,
                    le: Some(32),
                },
            ],
        };
        assert!(!pl.permits(&pfx("10.13.1.0/24")), "deny seq 5 first");
        assert!(pl.permits(&pfx("10.14.1.0/24")));
        assert!(!pl.permits(&pfx("192.168.0.0/16")), "implicit deny");
    }

    #[test]
    fn isis_system_id_extraction() {
        let isis = IsisConfig::new("default", "49.0001.1010.1040.1030.00");
        assert_eq!(isis.system_id().unwrap(), "1010.1040.1030");
    }

    #[test]
    fn ensure_interface_is_idempotent() {
        let mut cfg = DeviceConfig::new("r1", Vendor::Ceos);
        cfg.ensure_interface("Ethernet1").description = Some("first".into());
        cfg.ensure_interface("Ethernet1").mpls = true;
        assert_eq!(cfg.interfaces.len(), 1);
        let i = cfg.interface(&IfaceId::from("Ethernet1")).unwrap();
        assert_eq!(i.description.as_deref(), Some("first"));
        assert!(i.mpls);
    }
}
