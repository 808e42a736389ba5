//! Property tests: generated router specs must render to vendor config text
//! that parses back to the identical IR (the render→parse fixpoint), in both
//! dialects, and the vendor parsers must never panic on line-mangled input.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use mfv_config::{
    ceos, vjunos, IfaceSpec, MatchClause, PolicyAction, PrefixList, PrefixListEntry, RouteMap,
    RouteMapEntry, RouterSpec, SetClause, Vendor,
};
use mfv_types::{AsNum, Community};

#[derive(Debug, Clone)]
struct SpecShape {
    asn: u32,
    loopback_octet: u8,
    ifaces: Vec<(u8, bool, u32)>, // (addr octet, isis, metric)
    ebgp: Vec<(u8, u32)>,
    ibgp: Vec<u8>,
    rr_clients: Vec<u8>,
    networks: Vec<u8>,
    /// BGP redistribution: none, connected, or connected / IS-IS policed
    /// by a route-map.
    redistribute: u8,
    /// The policing route-map's terms: the steps between their sequence
    /// numbers, and each one's clauses.
    terms: Vec<(u8, TermShape)>,
    production: bool,
    /// Prefix-list entries: (octet, length, deny, ge above the length, le
    /// above ge, step from the last sequence number); a zero bound is
    /// absent.
    filter: Vec<(u8, u8, bool, u8, u8, u8)>,
}

/// Sequence numbers `steps` apart, from 0: any number, not only tens.
fn seqs(steps: impl IntoIterator<Item = u8>) -> impl Iterator<Item = u32> {
    steps.into_iter().scan(0, |seq, step| {
        *seq += u32::from(step);
        Some(*seq)
    })
}

/// A term's community and AS-path clauses: the communities it matches
/// (one run, between prefix-list matches), the longest AS path it matches,
/// the set it adds (`true`) or sets, and what it prepends.
type TermShape = (
    Vec<u32>,
    Option<usize>,
    Option<(bool, Vec<u32>)>,
    Option<Vec<u32>>,
);

fn arb_term() -> impl Strategy<Value = TermShape> {
    let communities = || proptest::collection::vec(any::<u32>(), 0..3);
    (
        communities(),
        proptest::option::of(0usize..40),
        proptest::option::of((any::<bool>(), communities())),
        proptest::option::of(proptest::collection::vec(1u32..4_000_000_000, 0..3)),
    )
}

/// A term with `shape`'s clauses, sequence number `seq`.
fn term(seq: u32, (matched, max_len, community, prepend): &TermShape) -> RouteMapEntry {
    let mut matches = vec![MatchClause::PrefixList("FILTER".into())];
    matches.extend(
        matched
            .iter()
            .map(|c| MatchClause::Community(Community(*c))),
    );
    matches.extend(max_len.map(MatchClause::MaxAsPathLen));
    matches.push(MatchClause::PrefixList("OTHER".into()));
    let mut sets = Vec::new();
    if let Some((add, set)) = community {
        let set = set.iter().copied().map(Community).collect();
        sets.push(match add {
            true => SetClause::AddCommunities(set),
            false => SetClause::SetCommunities(set),
        });
    }
    sets.push(SetClause::LocalPref(200));
    if let Some(asns) = prepend {
        sets.push(SetClause::PrependAsPath(
            asns.iter().copied().map(AsNum).collect(),
        ));
    }
    RouteMapEntry {
        seq,
        action: PolicyAction::Permit,
        matches,
        sets,
    }
}

fn arb_shape() -> impl Strategy<Value = SpecShape> {
    (
        64512u32..65535,
        1u8..250,
        proptest::collection::vec((1u8..120, any::<bool>(), 1u32..1000), 1..5),
        proptest::collection::vec((1u8..120, 64512u32..65534), 0..3),
        proptest::collection::vec(1u8..250, 0..3),
        proptest::collection::vec(1u8..250, 0..3),
        proptest::collection::vec(1u8..250, 0..3),
        (
            0u8..4,
            proptest::collection::vec((1u8..25, arb_term()), 1..4),
            any::<bool>(),
        ),
        proptest::collection::vec(
            (1u8..250, 8u8..=24, any::<bool>(), 0u8..4, 0u8..4, 1u8..25),
            0..4,
        ),
    )
        .prop_map(
            |(
                asn,
                loopback_octet,
                ifaces,
                ebgp,
                ibgp,
                rr_clients,
                networks,
                (redistribute, terms, production),
                filter,
            )| {
                SpecShape {
                    asn,
                    loopback_octet,
                    ifaces,
                    ebgp,
                    ibgp,
                    rr_clients,
                    networks,
                    redistribute,
                    terms,
                    production,
                    filter,
                }
            },
        )
}

fn build_spec(shape: &SpecShape, vendor: Vendor) -> RouterSpec {
    let mut spec = RouterSpec::new(
        "r1",
        AsNum(shape.asn),
        Ipv4Addr::new(2, 2, 2, shape.loopback_octet),
    )
    .vendor(vendor);
    for (i, (octet, isis, metric)) in shape.ifaces.iter().enumerate() {
        let name = match vendor {
            Vendor::Ceos => format!("Ethernet{}", i + 1),
            Vendor::Vjunos => format!("ge-0/0/{i}"),
        };
        let addr = format!("10.{octet}.{i}.1/31").parse().unwrap();
        let mut ifc = IfaceSpec::new(name, addr);
        if *isis {
            ifc = ifc.with_metric(*metric);
        }
        spec = spec.iface(ifc);
    }
    for (i, (octet, ras)) in shape.ebgp.iter().enumerate() {
        spec = spec.ebgp(Ipv4Addr::new(10, *octet, i as u8, 0), AsNum(*ras));
    }
    for octet in &shape.ibgp {
        spec = spec.ibgp(Ipv4Addr::new(2, 2, 3, *octet));
    }
    for octet in &shape.rr_clients {
        spec = spec.ibgp_rr_client(Ipv4Addr::new(2, 2, 4, *octet));
    }
    for octet in &shape.networks {
        spec = spec.network(format!("203.0.{octet}.0/24").parse().unwrap());
    }
    spec = match shape.redistribute {
        1 => spec.redistribute_connected(),
        2 => spec.redistribute_connected_policed("EXPORT"),
        3 => spec.redistribute_isis_policed("EXPORT"),
        _ => spec,
    };
    if shape.redistribute >= 2 {
        let seqs = seqs(shape.terms.iter().map(|(step, _)| *step));
        let entries = seqs
            .zip(&shape.terms)
            .map(|(seq, (_, t))| term(seq, t))
            .collect();
        spec = spec.route_map("EXPORT", RouteMap { entries });
    }
    if !shape.filter.is_empty() {
        let seqs = seqs(shape.filter.iter().map(|f| f.5));
        let entries = shape.filter.iter().zip(seqs);
        let entries = entries.map(|((octet, len, deny, ge, le, _), seq)| {
            let ge = (*ge > 0).then_some(len + ge);
            PrefixListEntry {
                seq,
                action: if *deny {
                    PolicyAction::Deny
                } else {
                    PolicyAction::Permit
                },
                prefix: format!("10.{octet}.0.0/{len}").parse().unwrap(),
                ge,
                le: (*le > 0).then_some(ge.unwrap_or(*len) + le),
            }
        });
        let entries = entries.collect();
        spec = spec.prefix_list("FILTER", PrefixList { entries });
    }
    if shape.production {
        spec = spec.production();
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ceos_render_parse_fixpoint(shape in arb_shape()) {
        let spec = build_spec(&shape, Vendor::Ceos);
        let cfg = spec.build();
        let text = ceos::render(&cfg);
        let parsed = ceos::parse(&text).unwrap();
        prop_assert!(parsed.warnings.is_empty(), "{:?}", parsed.warnings);
        prop_assert_eq!(&parsed.config, &cfg);
        // And rendering the parse is a fixpoint.
        let text2 = ceos::render(&parsed.config);
        prop_assert_eq!(text, text2);
    }

    #[test]
    fn vjunos_render_parse_preserves_routing_payload(shape in arb_shape()) {
        let spec = build_spec(&shape, Vendor::Vjunos);
        let cfg = spec.build();
        let text = vjunos::render(&cfg);
        let parsed = vjunos::parse(&text).unwrap();
        prop_assert!(parsed.warnings.is_empty(), "{:?}\n{}", parsed.warnings, text);
        // Sequence numbers included: a prefix-list entry spells its own
        // where it is not its position's, a term is named for its.
        prop_assert_eq!(&parsed.config, &cfg);
        // And rendering the parse is a fixpoint.
        let text2 = vjunos::render(&parsed.config);
        prop_assert_eq!(text, text2);
    }

    #[test]
    fn ceos_parser_never_panics_on_line_shuffles(
        shape in arb_shape(),
        drop_mask in proptest::collection::vec(any::<bool>(), 0..120),
    ) {
        // Drop arbitrary lines from a valid config; the parser may error or
        // warn, but must not panic and must not mislabel surviving values.
        let spec = build_spec(&shape, Vendor::Ceos);
        let text = spec.render();
        let kept: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|(i, _)| !drop_mask.get(*i).copied().unwrap_or(false))
            .map(|(_, l)| l)
            .collect();
        let _ = ceos::parse(&kept.join("\n"));
    }

    #[test]
    fn vjunos_tree_parser_never_panics(
        text in proptest::collection::vec(
            prop_oneof![
                Just("{".to_string()),
                Just("}".to_string()),
                Just(";".to_string()),
                "[a-z0-9./-]{1,12}",
                Just("\"q\"".to_string()),
            ],
            0..60,
        )
    ) {
        let _ = vjunos::parse_tree(&text.join(" "));
    }
}
