//! Fixture-topology self-tests: every rule family has a minimal topology
//! that triggers it and a clean counterpart that does not.

use std::net::Ipv4Addr;

use mfv_config::{
    MatchClause, PolicyAction, PrefixList, PrefixListEntry, RouteMap, RouteMapEntry, RouterSpec,
};
use mfv_conflint::{analyze, Report, RuleId, Severity};
use mfv_emulator::{ExternalPeerSpec, NodeSpec, Topology};
use mfv_types::AsNum;

fn lo(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(2, 2, 2, i)
}

/// Two-AS eBGP pair over 10.0.0.0/31, loopbacks originated via `network`.
fn ebgp_pair() -> (RouterSpec, RouterSpec) {
    let r1 = RouterSpec::new("r1", AsNum(65001), lo(1))
        .iface(mfv_config::IfaceSpec::new(
            "Ethernet1",
            "10.0.0.0/31".parse().unwrap(),
        ))
        .ebgp("10.0.0.1".parse().unwrap(), AsNum(65002))
        .network("2.2.2.1/32".parse().unwrap());
    let r2 = RouterSpec::new("r2", AsNum(65002), lo(2))
        .iface(mfv_config::IfaceSpec::new(
            "Ethernet1",
            "10.0.0.1/31".parse().unwrap(),
        ))
        .ebgp("10.0.0.0".parse().unwrap(), AsNum(65001))
        .network("2.2.2.2/32".parse().unwrap());
    (r1, r2)
}

/// Same-AS IS-IS + iBGP pair.
fn ibgp_pair() -> (RouterSpec, RouterSpec) {
    let r1 = RouterSpec::new("r1", AsNum(65001), lo(1))
        .iface(mfv_config::IfaceSpec::new("Ethernet1", "10.0.0.0/31".parse().unwrap()).with_isis())
        .ibgp(lo(2))
        .network("2.2.2.1/32".parse().unwrap());
    let r2 = RouterSpec::new("r2", AsNum(65001), lo(2))
        .iface(mfv_config::IfaceSpec::new("Ethernet1", "10.0.0.1/31".parse().unwrap()).with_isis())
        .ibgp(lo(1))
        .network("2.2.2.2/32".parse().unwrap());
    (r1, r2)
}

fn topo(name: &str, specs: &[&RouterSpec]) -> Topology {
    let mut t = Topology::new(name);
    for s in specs {
        t.add_node(NodeSpec::from_config(s.name.clone(), &s.build()));
    }
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    t.validate()
        .expect("fixture topology is structurally valid");
    t
}

fn run(t: &Topology) -> Report {
    analyze(t).expect("fixture configs parse")
}

fn rules(r: &Report) -> Vec<RuleId> {
    let mut v: Vec<RuleId> = r.findings.iter().map(|f| f.rule).collect();
    v.dedup();
    v
}

#[test]
fn clean_ebgp_pair_has_no_findings() {
    let (r1, r2) = ebgp_pair();
    let report = run(&topo("clean-ebgp", &[&r1, &r2]));
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn clean_ibgp_isis_pair_has_no_findings() {
    let (r1, r2) = ibgp_pair();
    let report = run(&topo("clean-ibgp", &[&r1, &r2]));
    assert!(report.is_clean(), "{}", report.render());
}

// -- C1 ---------------------------------------------------------------------

#[test]
fn c1_wrong_remote_as_is_flagged_on_the_misconfigured_device() {
    let (r1, mut r2) = ebgp_pair();
    r2.ebgp.clear();
    let r2 = r2.ebgp("10.0.0.0".parse().unwrap(), AsNum(65099));
    let report = run(&topo("c1", &[&r1, &r2]));
    assert_eq!(rules(&report), vec![RuleId::C1], "{}", report.render());
    let f = report.by_rule(RuleId::C1);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].device, "r2");
    assert_eq!(f[0].severity, Severity::Error);
    assert!(f[0].message.contains("65099") && f[0].message.contains("65001"));
}

#[test]
fn c1_external_peer_asn_mismatch() {
    let (r1, r2) = ebgp_pair();
    let r1 = r1.ebgp("10.0.0.2".parse().unwrap(), AsNum(64999));
    let mut t = topo("c1-ext", &[&r1, &r2]);
    t.external_peers.push(ExternalPeerSpec {
        addr: "10.0.0.2".parse().unwrap(),
        asn: AsNum(64512),
        attach_to: "r1".into(),
        route_count: 0,
        base_octet: None,
    });
    let report = run(&t);
    let f = report.by_rule(RuleId::C1);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert_eq!(f[0].device, "r1");
}

// -- C2 ---------------------------------------------------------------------

#[test]
fn c2_one_sided_session_is_flagged() {
    let (r1, mut r2) = ebgp_pair();
    r2.ebgp.clear(); // r2 keeps `network` (so it still runs BGP) but drops the session
    let report = run(&topo("c2", &[&r1, &r2]));
    let f = report.by_rule(RuleId::C2);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert_eq!(f[0].device, "r1");
    assert_eq!(f[0].severity, Severity::Error);
    assert!(f[0].message.contains("one-sided"));
}

#[test]
fn c2_unknown_neighbor_address_is_flagged() {
    let (r1, r2) = ebgp_pair();
    let r1 = r1.ebgp("203.0.113.7".parse().unwrap(), AsNum(65077));
    let report = run(&topo("c2-unknown", &[&r1, &r2]));
    let f = report.by_rule(RuleId::C2);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert!(f[0].message.contains("203.0.113.7"));
}

#[test]
fn c2_shutdown_reverse_is_a_warning_not_an_error() {
    let (r1, r2) = ebgp_pair();
    let mut t = Topology::new("c2-shutdown");
    let mut cfg1 = r1.build();
    if let Some(bgp) = cfg1.bgp.as_mut() {
        for n in bgp.neighbors.iter_mut() {
            n.shutdown = true;
        }
    }
    t.add_node(NodeSpec::from_config("r1", &cfg1));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let report = run(&t);
    let f = report.by_rule(RuleId::C2);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert_eq!(f[0].device, "r2");
    assert_eq!(f[0].severity, Severity::Warning);
    assert_eq!(report.errors(), 0);
}

// -- C3 ---------------------------------------------------------------------

#[test]
fn c3_area_mismatch_is_flagged() {
    let (r1, mut r2) = ibgp_pair();
    r2.isis_area = "49.0002".to_string();
    let report = run(&topo("c3", &[&r1, &r2]));
    // One finding per endpoint: either side may hold the typo.
    let f = report.by_rule(RuleId::C3);
    assert_eq!(f.len(), 2, "{}", report.render());
    let devices: Vec<&str> = f.iter().map(|f| f.device.as_str()).collect();
    assert_eq!(devices, ["r1", "r2"]);
    for f in &f {
        assert!(f.message.contains("49.0001") && f.message.contains("49.0002"));
        assert_eq!(f.severity, Severity::Error);
    }
}

#[test]
fn c3_one_sided_isis_is_flagged() {
    let (r1, mut r2) = ibgp_pair();
    if let Some(i) = r2.ifaces.first_mut() {
        i.isis = false;
    }
    let report = run(&topo("c3-oneside", &[&r1, &r2]));
    let f = report.by_rule(RuleId::C3);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert_eq!(f[0].device, "r2");
}

#[test]
fn c3_instance_mismatch_is_flagged() {
    let (r1, r2) = ibgp_pair();
    let mut cfg2 = r2.build();
    for iface in cfg2.interfaces.iter_mut() {
        if let Some(ii) = iface.isis.as_mut() {
            ii.instance = "blue".to_string();
        }
    }
    let mut t = Topology::new("c3-instance");
    t.add_node(NodeSpec::from_config("r1", &r1.build()));
    t.add_node(NodeSpec::from_config("r2", &cfg2));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let report = run(&t);
    assert!(
        report
            .by_rule(RuleId::C3)
            .iter()
            .any(|f| f.device == "r2" && f.message.contains("blue")),
        "{}",
        report.render()
    );
}

// -- C4 ---------------------------------------------------------------------

#[test]
fn c4_duplicate_loopback_flags_router_id_and_loopback_and_system_id() {
    let (r1, mut r2) = ibgp_pair();
    r2.loopback = lo(1); // clone of r1
    let report = run(&topo("c4", &[&r1, &r2]));
    let f = report.by_rule(RuleId::C4);
    // router-id + system-id + loopback address all collide.
    assert_eq!(f.len(), 3, "{}", report.render());
    assert!(f.iter().all(|f| f.device == "r2"));
    assert!(f.iter().any(|f| f.message.contains("router-id")));
    assert!(f.iter().any(|f| f.message.contains("system-id")));
    assert!(f.iter().any(|f| f.message.contains("loopback")));
}

// -- C5 ---------------------------------------------------------------------

#[test]
fn c5_undefined_route_map_is_an_error_unused_is_a_warning() {
    let (r1, r2) = ebgp_pair();
    let mut cfg1 = r1.build();
    if let Some(bgp) = cfg1.bgp.as_mut() {
        if let Some(n) = bgp.neighbors.first_mut() {
            n.route_map_in = Some("NO-SUCH-MAP".to_string());
        }
    }
    cfg1.route_maps.insert(
        "ORPHAN".to_string(),
        RouteMap {
            entries: vec![RouteMapEntry {
                seq: 10,
                action: PolicyAction::Permit,
                matches: Vec::new(),
                sets: Vec::new(),
            }],
        },
    );
    let mut t = Topology::new("c5");
    t.add_node(NodeSpec::from_config("r1", &cfg1));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let report = run(&t);
    let f = report.by_rule(RuleId::C5);
    assert_eq!(f.len(), 2, "{}", report.render());
    assert!(f
        .iter()
        .any(|f| f.severity == Severity::Error && f.message.contains("NO-SUCH-MAP")));
    assert!(f
        .iter()
        .any(|f| f.severity == Severity::Warning && f.message.contains("ORPHAN")));
}

#[test]
fn c5_undefined_prefix_list_behind_a_used_route_map() {
    let (r1, r2) = ebgp_pair();
    let r1 = r1.route_map(
        "IMPORT",
        RouteMap {
            entries: vec![RouteMapEntry {
                seq: 10,
                action: PolicyAction::Permit,
                matches: vec![MatchClause::PrefixList("GHOST".to_string())],
                sets: Vec::new(),
            }],
        },
    );
    let mut cfg1 = r1.build();
    if let Some(bgp) = cfg1.bgp.as_mut() {
        if let Some(n) = bgp.neighbors.first_mut() {
            n.route_map_in = Some("IMPORT".to_string());
        }
    }
    let mut t = Topology::new("c5-pl");
    t.add_node(NodeSpec::from_config("r1", &cfg1));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let report = run(&t);
    let f = report.by_rule(RuleId::C5);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert!(f[0].message.contains("GHOST"));
    assert_eq!(f[0].severity, Severity::Error);
}

// -- C6 ---------------------------------------------------------------------

#[test]
fn c6_subnet_mismatch_is_flagged() {
    let (r1, mut r2) = ebgp_pair();
    if let Some(i) = r2.ifaces.first_mut() {
        i.addr = "10.0.9.1/31".parse().unwrap();
    }
    let report = run(&topo("c6", &[&r1, &r2]));
    // One finding per endpoint: either side may hold the typo.
    let f = report.by_rule(RuleId::C6);
    assert_eq!(f.len(), 2, "{}", report.render());
    let devices: Vec<&str> = f.iter().map(|f| f.device.as_str()).collect();
    assert_eq!(devices, ["r1", "r2"]);
    for f in &f {
        assert_eq!(f.severity, Severity::Error);
        assert!(f.message.contains("10.0.0.0/31") && f.message.contains("10.0.9.1/31"));
    }
}

// -- C7 ---------------------------------------------------------------------

#[test]
fn c7_unpoliced_redistribution_warns_policed_is_clean() {
    let (r1, r2) = ebgp_pair();
    let dirty = r1.clone().redistribute_connected();
    let report = run(&topo("c7", &[&dirty, &r2]));
    let f = report.by_rule(RuleId::C7);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert_eq!(f[0].severity, Severity::Warning);
    assert_eq!(f[0].device, "r1");

    let policed = r1
        .redistribute_connected_policed("CONN-OUT")
        .route_map("CONN-OUT", RouterSpec::permit_all_route_map());
    let report = run(&topo("c7-clean", &[&policed, &r2]));
    assert!(report.is_clean(), "{}", report.render());
}

// -- C8 ---------------------------------------------------------------------

fn ple(
    seq: u32,
    action: PolicyAction,
    prefix: &str,
    ge: Option<u8>,
    le: Option<u8>,
) -> PrefixListEntry {
    PrefixListEntry {
        seq,
        action,
        prefix: prefix.parse().unwrap(),
        ge,
        le,
    }
}

#[test]
fn c8_shadowed_entry_is_flagged() {
    let (r1, r2) = ebgp_pair();
    let r1 = r1
        .prefix_list(
            "LOOPBACKS",
            PrefixList {
                entries: vec![
                    ple(5, PolicyAction::Deny, "0.0.0.0/0", None, Some(32)),
                    ple(10, PolicyAction::Permit, "2.2.2.0/24", Some(32), Some(32)),
                ],
            },
        )
        .route_map(
            "IMPORT",
            RouteMap {
                entries: vec![RouteMapEntry {
                    seq: 10,
                    action: PolicyAction::Permit,
                    matches: vec![MatchClause::PrefixList("LOOPBACKS".to_string())],
                    sets: Vec::new(),
                }],
            },
        );
    let mut cfg1 = r1.build();
    if let Some(bgp) = cfg1.bgp.as_mut() {
        if let Some(n) = bgp.neighbors.first_mut() {
            n.route_map_in = Some("IMPORT".to_string());
        }
    }
    let mut t = Topology::new("c8");
    t.add_node(NodeSpec::from_config("r1", &cfg1));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let report = run(&t);
    let f = report.by_rule(RuleId::C8);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert!(f[0].message.contains("seq 10") && f[0].message.contains("seq 5"));
}

#[test]
fn c8_non_overlapping_entries_are_clean() {
    let (r1, r2) = ebgp_pair();
    let r1 = r1
        .prefix_list(
            "LOOPBACKS",
            PrefixList {
                entries: vec![
                    ple(5, PolicyAction::Deny, "10.0.0.0/8", Some(24), Some(32)),
                    ple(10, PolicyAction::Permit, "2.2.2.0/24", Some(32), Some(32)),
                ],
            },
        )
        .route_map(
            "IMPORT",
            RouteMap {
                entries: vec![RouteMapEntry {
                    seq: 10,
                    action: PolicyAction::Permit,
                    matches: vec![MatchClause::PrefixList("LOOPBACKS".to_string())],
                    sets: Vec::new(),
                }],
            },
        );
    let mut cfg1 = r1.build();
    if let Some(bgp) = cfg1.bgp.as_mut() {
        if let Some(n) = bgp.neighbors.first_mut() {
            n.route_map_in = Some("IMPORT".to_string());
        }
    }
    let mut t = Topology::new("c8-clean");
    t.add_node(NodeSpec::from_config("r1", &cfg1));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let report = run(&t);
    assert!(report.by_rule(RuleId::C8).is_empty(), "{}", report.render());
}

// -- Suppressions -----------------------------------------------------------

#[test]
fn reasoned_allow_suppresses_and_is_inventoried() {
    let (r1, r2) = ebgp_pair();
    let dirty = r1.redistribute_connected();
    let mut t = topo("suppressed", &[&dirty, &r2]);
    if let Some(n) = t.nodes.first_mut() {
        n.config_text
            .push_str("\n! conflint: allow(C7, fabric subnets leak by design)\n");
    }
    let report = run(&t);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, RuleId::C7);
    assert_eq!(report.suppressed[0].device, "r1");
    assert_eq!(report.suppressed[0].count, 1);
}

#[test]
fn reasonless_allow_is_itself_an_error() {
    let (r1, r2) = ebgp_pair();
    let mut t = topo("bad-allow", &[&r1, &r2]);
    if let Some(n) = t.nodes.first_mut() {
        n.config_text.push_str("\n! conflint: allow(C7)\n");
    }
    let report = run(&t);
    let f = report.by_rule(RuleId::C0);
    assert_eq!(f.len(), 1, "{}", report.render());
    assert_eq!(f[0].severity, Severity::Error);
}

// -- Rendering --------------------------------------------------------------

#[test]
fn json_output_is_well_formed() {
    let (r1, mut r2) = ebgp_pair();
    r2.ebgp.clear();
    let r2 = r2.ebgp("10.0.0.0".parse().unwrap(), AsNum(65099));
    let report = run(&topo("json", &[&r1, &r2]));
    let json = report.render_json();
    let v = serde_json::parse(&json).expect("valid JSON");
    assert_eq!(v.get("errors").and_then(|e| e.as_u64()), Some(1));
    let findings = v
        .get("findings")
        .and_then(|f| f.as_array())
        .expect("findings array");
    let first = findings.first().expect("one finding");
    assert_eq!(first.get("rule").and_then(|r| r.as_str()), Some("C1"));
    assert_eq!(first.get("device").and_then(|d| d.as_str()), Some("r2"));
}
