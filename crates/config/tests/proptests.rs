//! Property tests: generated router specs must render to vendor config text
//! that parses back to the identical IR (the render→parse fixpoint), in both
//! dialects, and the vendor parsers must never panic on line-mangled input.

use proptest::prelude::*;
use std::net::Ipv4Addr;

use mfv_config::{ceos, vjunos, IfaceSpec, RouterSpec, Vendor};
use mfv_types::AsNum;

#[derive(Debug, Clone)]
struct SpecShape {
    asn: u32,
    loopback_octet: u8,
    ifaces: Vec<(u8, bool, u32)>, // (addr octet, isis, metric)
    ebgp: Vec<(u8, u32)>,
    ibgp: Vec<u8>,
    networks: Vec<u8>,
    /// BGP redistribution: none, connected, or connected / IS-IS policed
    /// by a route-map.
    redistribute: u8,
    production: bool,
}

fn arb_shape() -> impl Strategy<Value = SpecShape> {
    (
        64512u32..65535,
        1u8..250,
        proptest::collection::vec((1u8..120, any::<bool>(), 1u32..1000), 1..5),
        proptest::collection::vec((1u8..120, 64512u32..65534), 0..3),
        proptest::collection::vec(1u8..250, 0..3),
        proptest::collection::vec(1u8..250, 0..3),
        0u8..4,
        any::<bool>(),
    )
        .prop_map(
            |(asn, loopback_octet, ifaces, ebgp, ibgp, networks, redistribute, production)| {
                SpecShape {
                    asn,
                    loopback_octet,
                    ifaces,
                    ebgp,
                    ibgp,
                    networks,
                    redistribute,
                    production,
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
        spec = spec.route_map("EXPORT", RouterSpec::permit_all_route_map());
    }
    if shape.production && vendor == Vendor::Ceos {
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
        let back = parsed.config;
        prop_assert_eq!(&back.hostname, &cfg.hostname);
        prop_assert_eq!(&back.interfaces, &cfg.interfaces);
        prop_assert_eq!(&back.isis, &cfg.isis);
        prop_assert_eq!(&back.static_routes, &cfg.static_routes);
        match (&back.bgp, &cfg.bgp) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.asn, b.asn);
                prop_assert_eq!(a.networks.clone(), b.networks.clone());
                prop_assert_eq!(a.redistribute.clone(), b.redistribute.clone());
                prop_assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                    prop_assert_eq!(x.peer, y.peer);
                    prop_assert_eq!(x.remote_as, y.remote_as);
                }
            }
            (None, None) => {}
            other => prop_assert!(false, "bgp presence mismatch {:?}", other),
        }
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
