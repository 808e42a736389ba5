//! The model's configuration parser — *deliberately partial and
//! assumption-laden*, reproducing the behaviour the paper documents for the
//! Batfish reference model.
//!
//! Where `mfv-config`'s parsers are vendor-faithful, this parser:
//!
//! - supports only the feature subset the model implements (no MPLS/TE, no
//!   management plane, no daemons — every such line is counted as
//!   unrecognised, the paper's E2: "38 to 42 lines in each configuration");
//! - **BUG (Fig. 3 issue #1)**: applies interface statements in order and
//!   assumes an interface can have no IP address unless it was *already*
//!   configured as routed — `ip address` before `no switchport` is silently
//!   ignored;
//! - **BUG (Fig. 3 issue #2)**: flags `isis enable <instance>` as invalid
//!   syntax (while still best-effort enabling IS-IS, as Batfish's recovering
//!   parser does);
//! - supports only the EOS-like dialect — multi-vendor topologies are out of
//!   the model's reach (§2 "single separate implementation").

use mfv_config::ir::*;
use mfv_types::{AsNum, IfaceAddr, Prefix, RouterId};

/// Why a line was not (fully) understood.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnrecognizedKind {
    /// Feature absent from the model (MPLS, daemons, management, …).
    UnsupportedFeature,
    /// Syntax the model's grammar rejects.
    InvalidSyntax,
    /// Statement understood but silently ignored due to a model assumption
    /// (the switchport-ordering bug).
    IgnoredByAssumption,
}

/// One line the model could not handle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnrecognizedLine {
    pub line: usize,
    pub text: String,
    pub kind: UnrecognizedKind,
}

/// Coverage accounting for one config — the E2 measurement unit.
#[derive(Clone, Debug, Default)]
pub struct CoverageReport {
    pub hostname: String,
    pub total_lines: usize,
    pub recognized_lines: usize,
    pub unrecognized: Vec<UnrecognizedLine>,
}

impl CoverageReport {
    pub fn unrecognized_count(&self) -> usize {
        self.unrecognized.len()
    }
}

/// Error for configurations the model cannot ingest at all.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModelParseError(pub String);

impl std::fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model parse error: {}", self.0)
    }
}

impl std::error::Error for ModelParseError {}

/// Parses an (EOS-dialect) configuration with the model's partial grammar.
/// Returns the model's *interpretation* of the config (which may differ from
/// the device's, per the bugs above) plus coverage accounting.
pub fn parse(text: &str) -> Result<(DeviceConfig, CoverageReport), ModelParseError> {
    let mut cfg = DeviceConfig::new("", Vendor::Ceos);
    let mut report = CoverageReport::default();

    // Structure pass: same sectioning as the real dialect (indentation).
    #[derive(Debug)]
    struct L {
        number: usize,
        indented: bool,
        words: Vec<String>,
        raw: String,
    }
    let lines: Vec<L> = text
        .lines()
        .enumerate()
        .filter_map(|(i, raw)| {
            let trimmed = raw.trim_end();
            let body = trimmed.trim_start();
            if body.is_empty() || body.starts_with('!') {
                return None;
            }
            Some(L {
                number: i + 1,
                indented: trimmed.len() != body.len(),
                words: body.split_whitespace().map(|s| s.to_string()).collect(),
                raw: body.to_string(),
            })
        })
        .collect();
    report.total_lines = lines.len();

    let unrec = |report: &mut CoverageReport, l: &L, kind: UnrecognizedKind| {
        report.unrecognized.push(UnrecognizedLine {
            line: l.number,
            text: l.raw.clone(),
            kind,
        });
    };

    let mut i = 0;
    while i < lines.len() {
        let l = &lines[i];
        let w: Vec<&str> = l.words.iter().map(|s| s.as_str()).collect();
        match w.as_slice() {
            ["hostname", name] => {
                cfg.hostname = (*name).into();
                report.recognized_lines += 1;
                i += 1;
            }
            ["ip", "routing"] => {
                cfg.ip_routing = true;
                report.recognized_lines += 1;
                i += 1;
            }
            ["no", "ip", "routing"] => {
                cfg.ip_routing = false;
                report.recognized_lines += 1;
                i += 1;
            }
            ["end"] => {
                report.recognized_lines += 1;
                i += 1;
            }
            ["interface", name] => {
                report.recognized_lines += 1;
                i += 1;
                let name = name.to_string();
                // MODEL BUG (Fig. 3 issue #1): order-sensitive application.
                // The interface starts as a switchport; `ip address` only
                // sticks if `no switchport` was seen EARLIER in the stanza.
                let is_loopback = {
                    let lower = name.to_ascii_lowercase();
                    lower.starts_with("loopback") || lower.starts_with("lo")
                };
                let mut routed_so_far = is_loopback;
                let iface = cfg.ensure_interface(name);
                while i < lines.len() && lines[i].indented {
                    let bl = &lines[i];
                    let bw: Vec<&str> = bl.words.iter().map(|s| s.as_str()).collect();
                    match bw.as_slice() {
                        ["no", "switchport"] => {
                            routed_so_far = true;
                            iface.routed = true;
                            report.recognized_lines += 1;
                        }
                        ["switchport"] => {
                            routed_so_far = false;
                            iface.routed = false;
                            report.recognized_lines += 1;
                        }
                        ["ip", "address", a] => {
                            if routed_so_far {
                                if let Ok(addr) = a.parse::<IfaceAddr>() {
                                    iface.addr = Some(addr);
                                }
                                report.recognized_lines += 1;
                            } else {
                                // Silently dropped: the model assumes no
                                // address can exist on a switchport.
                                unrec(&mut report, bl, UnrecognizedKind::IgnoredByAssumption);
                            }
                        }
                        ["isis", "enable", inst] => {
                            // MODEL BUG (Fig. 3 issue #2): this syntax is
                            // "invalid" to the model's grammar; it recovers
                            // by enabling IS-IS anyway, with a conversion
                            // warning — exactly the
                            // warn-and-best-effort behaviour that makes the
                            // divergence subtle.
                            unrec(&mut report, bl, UnrecognizedKind::InvalidSyntax);
                            match &mut iface.isis {
                                Some(ii) => ii.instance = inst.to_string(),
                                None => iface.isis = Some(IfaceIsis::new(*inst)),
                            }
                        }
                        ["isis", "metric", m] => {
                            if let Ok(m) = m.parse() {
                                iface
                                    .isis
                                    .get_or_insert_with(|| IfaceIsis::new("default"))
                                    .metric = m;
                            }
                            report.recognized_lines += 1;
                        }
                        ["isis", "passive-interface", ..] => {
                            // Not in the model's grammar either; ignored.
                            unrec(&mut report, bl, UnrecognizedKind::InvalidSyntax);
                        }
                        ["description", ..] => {
                            report.recognized_lines += 1;
                        }
                        ["shutdown"] => {
                            iface.shutdown = true;
                            report.recognized_lines += 1;
                        }
                        ["no", "shutdown"] => {
                            iface.shutdown = false;
                            report.recognized_lines += 1;
                        }
                        ["mpls", ..] => {
                            // No MPLS support in the model at all (§5 E2:
                            // "materially relevant to the router behavior").
                            unrec(&mut report, bl, UnrecognizedKind::UnsupportedFeature);
                        }
                        _ => {
                            unrec(&mut report, bl, UnrecognizedKind::UnsupportedFeature);
                        }
                    }
                    i += 1;
                }
            }
            ["router", "isis", instance] => {
                report.recognized_lines += 1;
                i += 1;
                let mut isis = IsisConfig::new(instance.to_string(), "");
                isis.af_ipv4 = false;
                while i < lines.len() && lines[i].indented {
                    let bl = &lines[i];
                    let bw: Vec<&str> = bl.words.iter().map(|s| s.as_str()).collect();
                    match bw.as_slice() {
                        ["net", net] => {
                            isis.net = net.to_string();
                            report.recognized_lines += 1;
                        }
                        ["address-family", "ipv4", "unicast"] => {
                            isis.af_ipv4 = true;
                            report.recognized_lines += 1;
                        }
                        ["is-type", ..] => {
                            report.recognized_lines += 1;
                        }
                        ["redistribute", "connected"] => {
                            isis.redistribute_connected = true;
                            report.recognized_lines += 1;
                        }
                        _ => unrec(&mut report, bl, UnrecognizedKind::UnsupportedFeature),
                    }
                    i += 1;
                }
                cfg.isis = Some(isis);
            }
            ["router", "bgp", asn] => {
                let Ok(asn) = asn.parse::<u32>() else {
                    return Err(ModelParseError(format!("bad AS on line {}", l.number)));
                };
                report.recognized_lines += 1;
                i += 1;
                let mut bgp = BgpConfig::new(AsNum(asn));
                while i < lines.len() && lines[i].indented {
                    let bl = &lines[i];
                    let bw: Vec<&str> = bl.words.iter().map(|s| s.as_str()).collect();
                    match bw.as_slice() {
                        ["router-id", rid] => {
                            if let Ok(ip) = rid.parse() {
                                bgp.router_id = Some(RouterId(ip));
                            }
                            report.recognized_lines += 1;
                        }
                        ["neighbor", peer, "remote-as", ras] => {
                            if let (Ok(peer), Ok(ras)) = (peer.parse(), ras.parse::<u32>()) {
                                bgp.neighbors.push(BgpNeighborConfig::new(peer, AsNum(ras)));
                            }
                            report.recognized_lines += 1;
                        }
                        ["neighbor", peer, "update-source", src] => {
                            if let Ok(peer) = peer.parse::<std::net::Ipv4Addr>() {
                                if let Some(n) = bgp.neighbors.iter_mut().find(|n| n.peer == peer) {
                                    n.update_source = Some(src.to_string().into());
                                }
                            }
                            report.recognized_lines += 1;
                        }
                        ["neighbor", peer, "next-hop-self"] => {
                            if let Ok(peer) = peer.parse::<std::net::Ipv4Addr>() {
                                if let Some(n) = bgp.neighbors.iter_mut().find(|n| n.peer == peer) {
                                    n.next_hop_self = true;
                                }
                            }
                            report.recognized_lines += 1;
                        }
                        ["neighbor", _, "send-community", ..]
                        | ["neighbor", _, "description", ..] => {
                            report.recognized_lines += 1;
                        }
                        ["neighbor", peer, "shutdown"] => {
                            if let Ok(peer) = peer.parse::<std::net::Ipv4Addr>() {
                                if let Some(n) = bgp.neighbors.iter_mut().find(|n| n.peer == peer) {
                                    n.shutdown = true;
                                }
                            }
                            report.recognized_lines += 1;
                        }
                        ["network", p] => {
                            if let Ok(p) = p.parse::<Prefix>() {
                                bgp.networks.push(p);
                            }
                            report.recognized_lines += 1;
                        }
                        // Only the bare form; `redistribute connected
                        // route-map NAME` is unrecognized (the model has no
                        // policy engine to honor it — a fidelity gap E7's
                        // static tier catches).
                        ["redistribute", "connected"] => {
                            bgp.redistribute
                                .push(BgpRedistribute::unfiltered(Redistribute::Connected));
                            report.recognized_lines += 1;
                        }
                        ["maximum-paths", ..] => {
                            report.recognized_lines += 1;
                        }
                        _ => unrec(&mut report, bl, UnrecognizedKind::UnsupportedFeature),
                    }
                    i += 1;
                }
                cfg.bgp = Some(bgp);
            }
            ["ip", "route", p, nh, ..] => {
                if let (Ok(p), Ok(nh)) = (p.parse(), nh.parse()) {
                    cfg.static_routes.push(StaticRoute {
                        prefix: p,
                        next_hop: nh,
                        distance: None,
                    });
                }
                report.recognized_lines += 1;
                i += 1;
            }
            ["ip", "prefix-list", ..] | ["route-map", ..] => {
                // The model supports policy structures (Batfish does), so
                // count them recognised; their effect is approximated by
                // accepting everything — a *fidelity* simplification.
                report.recognized_lines += 1;
                i += 1;
                while i < lines.len() && lines[i].indented {
                    report.recognized_lines += 1;
                    i += 1;
                }
            }
            _ => {
                // Everything else — daemons, management APIs, SSL, NTP,
                // logging, SNMP, AAA, MPLS/TE, spanning-tree, services —
                // is outside the model.
                unrec(&mut report, l, UnrecognizedKind::UnsupportedFeature);
                i += 1;
                while i < lines.len() && lines[i].indented {
                    let bl = &lines[i];
                    unrec(&mut report, bl, UnrecognizedKind::UnsupportedFeature);
                    i += 1;
                }
            }
        }
    }

    report.hostname = cfg.hostname.to_string();
    Ok((cfg, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfv_types::IfaceId;

    /// Fig. 3 snippet — address precedes `no switchport`.
    const FIG3_IFACE: &str = "\
interface Ethernet2
   ip address 100.64.0.1/31
   no switchport
   isis enable default
!
";

    #[test]
    fn switchport_ordering_bug_drops_address() {
        let (cfg, report) = parse(FIG3_IFACE).unwrap();
        let iface = cfg.interface(&IfaceId::from("Ethernet2")).unwrap();
        assert_eq!(iface.addr, None, "model must ignore the early ip address");
        assert!(report
            .unrecognized
            .iter()
            .any(|u| u.kind == UnrecognizedKind::IgnoredByAssumption));
    }

    #[test]
    fn correct_order_keeps_address() {
        let text = "\
interface Ethernet2
   no switchport
   ip address 100.64.0.1/31
!
";
        let (cfg, _) = parse(text).unwrap();
        let iface = cfg.interface(&IfaceId::from("Ethernet2")).unwrap();
        assert_eq!(iface.addr.unwrap().to_string(), "100.64.0.1/31");
        assert!(iface.routed);
    }

    #[test]
    fn vendor_parser_disagrees_with_model_on_fig3() {
        // The heart of E3: same text, two interpretations.
        let faithful = mfv_config::ceos::parse(FIG3_IFACE).unwrap().config;
        let (model_view, _) = parse(FIG3_IFACE).unwrap();
        let f = faithful.interface(&IfaceId::from("Ethernet2")).unwrap();
        let m = model_view.interface(&IfaceId::from("Ethernet2")).unwrap();
        assert!(f.addr.is_some());
        assert!(m.addr.is_none());
    }

    #[test]
    fn isis_enable_flagged_invalid_but_applied() {
        let (cfg, report) = parse(FIG3_IFACE).unwrap();
        let iface = cfg.interface(&IfaceId::from("Ethernet2")).unwrap();
        assert!(
            iface.isis.is_some(),
            "best-effort recovery still enables isis"
        );
        assert!(report
            .unrecognized
            .iter()
            .any(|u| u.kind == UnrecognizedKind::InvalidSyntax && u.text.contains("isis enable")));
    }

    #[test]
    fn loopback_addresses_survive_without_no_switchport() {
        let text = "\
interface Loopback0
   ip address 2.2.2.1/32
!
";
        let (cfg, _) = parse(text).unwrap();
        let lo = cfg.interface(&IfaceId::from("Loopback0")).unwrap();
        assert!(
            lo.addr.is_some(),
            "loopbacks are not switchports in any model"
        );
    }

    #[test]
    fn mpls_and_mgmt_are_unsupported_features() {
        let text = "\
mpls ip
!
router traffic-engineering
   rsvp hello-interval 3000
!
daemon TerminAttr
   no shutdown
!
management api gnmi
   transport grpc default
!
ntp server 192.0.2.1
";
        let (cfg, report) = parse(text).unwrap();
        assert!(!cfg.mpls.enabled, "model has no MPLS notion");
        assert!(cfg.mgmt.daemons.is_empty());
        assert_eq!(report.recognized_lines, 0);
        assert_eq!(report.unrecognized_count(), 8);
        assert!(report
            .unrecognized
            .iter()
            .all(|u| u.kind == UnrecognizedKind::UnsupportedFeature));
    }

    #[test]
    fn supported_subset_parses_cleanly() {
        let text = "\
hostname r1
ip routing
interface Loopback0
   ip address 2.2.2.1/32
!
router bgp 65001
   router-id 2.2.2.1
   neighbor 10.0.0.1 remote-as 65002
   network 2.2.2.1/32
!
ip route 0.0.0.0/0 10.0.0.1
end
";
        let (cfg, report) = parse(text).unwrap();
        assert_eq!(report.unrecognized_count(), 0);
        assert_eq!(report.recognized_lines, report.total_lines);
        assert_eq!(&*cfg.hostname, "r1");
        assert_eq!(cfg.bgp.unwrap().neighbors.len(), 1);
        assert_eq!(cfg.static_routes.len(), 1);
    }

    #[test]
    fn production_config_has_many_unrecognized_lines() {
        // E2 shape check: a production-complexity config leaves the model
        // with tens of unparsed lines.
        use mfv_config::{IfaceSpec, RouterSpec};
        let spec = RouterSpec::new("r1", AsNum(65001), "2.2.2.1".parse().unwrap())
            .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
            .ebgp("100.64.0.1".parse().unwrap(), AsNum(65002))
            .network("2.2.2.1/32".parse().unwrap())
            .production();
        let text = spec.render();
        let (_, report) = parse(&text).unwrap();
        assert!(
            report.unrecognized_count() >= 20,
            "got {} unrecognized:\n{:#?}",
            report.unrecognized_count(),
            report.unrecognized
        );
    }
}

#[cfg(test)]
mod agreement_tests {
    use mfv_config::{ceos, IfaceSpec, RouterSpec};
    use mfv_types::AsNum;

    /// On configs written in conventional order (`no switchport` before
    /// `ip address`), the model's ordering assumption is not triggered, so
    /// its interface addressing must agree with the faithful vendor parser.
    #[test]
    fn model_agrees_with_vendor_on_wellformed_order() {
        for n in 1..6u8 {
            let spec = RouterSpec::new(
                format!("r{n}"),
                AsNum(65000 + n as u32),
                std::net::Ipv4Addr::new(2, 2, 2, n),
            )
            .iface(
                IfaceSpec::new("Ethernet1", format!("10.{n}.0.1/31").parse().unwrap()).with_isis(),
            )
            .production();
            let text = spec.render();
            let vendor_cfg = ceos::parse(&text).unwrap().config;
            let (model_cfg, _) = super::parse(&text).unwrap();
            for iface in &vendor_cfg.interfaces {
                let model_iface = model_cfg.interface(&iface.name).unwrap();
                assert_eq!(iface.addr, model_iface.addr, "iface {}", iface.name);
            }
        }
    }
}
