//! End-to-end pipeline tests: the §5 experiments as assertions.

use mfv_core::{
    deliverability_changes, differential_reachability_with, scenarios, unreachable_pairs_with,
    Backend, DiffFinding, EmulationBackend, ForwardingAnalysis, ModelBackend, Snapshot,
};
use mfv_dataplane::Dataplane;
use mfv_types::{IpSet, NodeId};
use mfv_verify::ReachabilityReport;
use mfv_vrouter::{VendorBugs, VendorProfile};

/// All-pairs reachability of a dataplane nothing else is asked of.
fn unreachable_pairs(dp: &Dataplane) -> Vec<ReachabilityReport> {
    unreachable_pairs_with(&ForwardingAnalysis::new(dp))
}

/// Differential reachability of two dataplanes, one analysis each.
fn differential_reachability(
    before: &Dataplane,
    after: &Dataplane,
    scope: Option<&IpSet>,
) -> Vec<DiffFinding> {
    differential_reachability_with(
        &ForwardingAnalysis::new(before),
        &ForwardingAnalysis::new(after),
        scope,
    )
}

/// E1 prerequisite: the six-node Fig. 2 network converges under emulation
/// with full loopback reachability.
#[test]
fn six_node_emulation_full_reachability() {
    let snapshot = scenarios::six_node();
    let result = EmulationBackend::default().compute(&snapshot).unwrap();
    assert!(result.meta.converged);
    assert_eq!(result.meta.crashes, 0);
    let broken = unreachable_pairs(&result.dataplane);
    assert!(
        broken.is_empty(),
        "expected full reachability, found {} broken pairs (first: {} -> {})",
        broken.len(),
        broken[0].src,
        broken[0].dst_node,
    );
}

/// `snapshot` with every router's config parsed and rendered again in the
/// vjunos dialect, under the same interface names.
fn in_vjunos(snapshot: &Snapshot) -> Snapshot {
    let mut topology = snapshot.topology.clone();
    for node in &mut topology.nodes {
        let mut config = node.parse_config().unwrap().config;
        config.vendor = mfv_config::Vendor::Vjunos;
        *node = mfv_emulator::NodeSpec::from_config(node.name.clone(), &config);
    }
    Snapshot::new(format!("{}-vjunos", snapshot.name), topology)
}

/// Both dialects say the same thing: Fig. 2 written in vjunos (BGP
/// redistribution included) converges to the all-ceos dataplane.
#[test]
fn six_node_converges_to_the_same_dataplane_in_either_dialect() {
    let backend = EmulationBackend::default();
    let ceos = backend.compute(&scenarios::six_node()).unwrap().dataplane;
    let swapped = in_vjunos(&scenarios::six_node());
    let vjunos = backend.compute(&swapped).unwrap().dataplane;
    assert_eq!(vjunos.total_entries(), ceos.total_entries());
    assert_eq!(vjunos.digest(), ceos.digest());
}

/// Route reflection survives the dialect: the regional WAN written in
/// vjunos, its reflectors' clients in a `cluster` group, converges to the
/// all-ceos dataplane (it kept 174 of 198 FIB entries when the clients
/// were rendered as plain iBGP peers).
#[test]
fn regional_wan_converges_to_the_same_dataplane_in_either_dialect() {
    let backend = EmulationBackend::default();
    let ceos = backend
        .compute(&scenarios::regional_wan(3, 4))
        .unwrap()
        .dataplane;
    let swapped = in_vjunos(&scenarios::regional_wan(3, 4));
    let vjunos = backend.compute(&swapped).unwrap().dataplane;
    assert_eq!(vjunos.total_entries(), ceos.total_entries());
    assert_eq!(vjunos.digest(), ceos.digest());
}

/// E1: Differential Reachability between the working and broken snapshots
/// discovers the loss of connectivity from AS3 routers to AS2 routers.
#[test]
fn six_node_differential_detects_ebgp_shutdown_impact() {
    let backend = EmulationBackend::default();
    let base = backend.compute(&scenarios::six_node()).unwrap();
    let broken = backend.compute(&scenarios::six_node_broken()).unwrap();

    let findings = differential_reachability(&base.dataplane, &broken.dataplane, None);
    let lost = deliverability_changes(&findings);
    assert!(
        !lost.is_empty(),
        "the session shutdown must surface findings"
    );

    // AS3 (r5, r6) loses reachability to AS2 loopbacks (2.2.2.3, 2.2.2.4).
    for src in ["r5", "r6"] {
        let has = lost.iter().any(|f| {
            f.src == NodeId::from(src)
                && f.before.is_delivered()
                && !f.after.is_delivered()
                && (f.dsts.contains("2.2.2.3".parse().unwrap())
                    || f.dsts.contains("2.2.2.4".parse().unwrap()))
        });
        assert!(
            has,
            "expected AS3 router {src} to lose AS2 reachability: {lost:#?}"
        );
    }

    // AS3's intra-AS connectivity is untouched.
    let intra_as3_broken = lost
        .iter()
        .any(|f| f.src == NodeId::from("r5") && f.dsts.contains("2.2.2.6".parse().unwrap()));
    assert!(
        !intra_as3_broken,
        "intra-AS3 reachability must be unaffected"
    );
}

/// E2: the model-based parser fails to recognise 38–42 lines in each of the
/// six-node production configurations.
#[test]
fn six_node_model_coverage_matches_paper_band() {
    let snapshot = scenarios::six_node();
    let result = ModelBackend.compute(&snapshot).unwrap();
    assert_eq!(result.meta.coverage.len(), 6);
    for report in &result.meta.coverage {
        let n = report.unrecognized_count();
        assert!(
            (30..=50).contains(&n),
            "{}: {} unrecognized lines (paper band is 38–42)",
            report.hostname,
            n
        );
    }
}

/// E3: on the Fig. 3 line topology, emulation shows full pairwise
/// reachability while the model loses R2 → R1 — and differential
/// reachability between the two backends surfaces exactly that.
#[test]
fn fig3_model_vs_emulation_divergence() {
    let snapshot = scenarios::three_node_line_fig3();

    let emu = EmulationBackend::default().compute(&snapshot).unwrap();
    assert!(emu.meta.converged);
    let emu_broken = unreachable_pairs(&emu.dataplane);
    assert!(
        emu_broken.is_empty(),
        "the real device accepts the Fig. 3 config; emulation must have full \
         reachability, got: {:?}",
        emu_broken
            .iter()
            .map(|r| format!("{}->{}", r.src, r.dst_node))
            .collect::<Vec<_>>()
    );

    let model = ModelBackend.compute(&snapshot).unwrap();
    let model_broken = unreachable_pairs(&model.dataplane);
    assert!(
        model_broken
            .iter()
            .any(|r| r.src == NodeId::from("r2") && r.dst_node == NodeId::from("r1")),
        "the model must drop R2 -> R1 (switchport-ordering assumption)"
    );

    // The cross-backend differential query (the paper's §5 experiment).
    let findings = differential_reachability(&model.dataplane, &emu.dataplane, None);
    let gained = findings.iter().any(|f| {
        f.src == NodeId::from("r2")
            && !f.before.is_delivered()
            && f.after.is_delivered()
            && f.dsts.contains("2.2.2.1".parse().unwrap())
    });
    assert!(
        gained,
        "differential must show emulation reaching r1 where the model \
                     did not: {findings:#?}"
    );
}

/// A3: in a multi-vendor chain, one vendor's unusual-but-valid transitive
/// attribute crashes another vendor's parser; verification of the extracted
/// dataplane shows the partial outage. The single-model baseline cannot even
/// ingest the topology.
#[test]
fn interplay_crash_detected_by_verification() {
    let snapshot = scenarios::interplay_chain();

    // Clean run first.
    let clean = EmulationBackend::default().compute(&snapshot).unwrap();
    assert_eq!(clean.meta.crashes, 0);
    assert!(unreachable_pairs(&clean.dataplane).is_empty());

    // Buggy run: emitter attaches attribute 213; victim's parser dies on it.
    let mut backend = EmulationBackend::with_seed(7);
    backend.profiles.insert(
        "victim".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            crash_on_unknown_attr: Some(213),
            ..Default::default()
        }),
    );
    backend.profiles.insert(
        "emitter".into(),
        VendorProfile::vjunos().with_bugs(VendorBugs {
            emit_unusual_attr: Some(213),
            ..Default::default()
        }),
    );
    // Freeze the post-crash state (no watchdog) so the extracted dataplane
    // shows the outage rather than a moment between crash-loop iterations.
    backend.auto_restart = false;
    let buggy = backend.compute(&snapshot).unwrap();
    assert!(buggy.meta.crashes >= 1, "{:?}", buggy.meta);

    let findings = differential_reachability(&clean.dataplane, &buggy.dataplane, None);
    let outage = deliverability_changes(&findings);
    assert!(
        !outage.is_empty(),
        "the crash must manifest as lost reachability in the dataplane"
    );

    // The model-based baseline cannot analyse the multi-vendor snapshot.
    let model = ModelBackend.compute(&snapshot);
    assert!(model.is_err(), "reference model has no vjunos parser");
}

/// Scoped differential queries restrict the search space.
#[test]
fn scoped_differential_on_six_node() {
    let backend = EmulationBackend::default();
    let base = backend.compute(&scenarios::six_node()).unwrap();
    let broken = backend.compute(&scenarios::six_node_broken()).unwrap();

    // Scope to AS3 loopbacks only: findings about AS2 destinations vanish.
    let scope = IpSet::from_prefix(&"2.2.2.5/32".parse().unwrap())
        .union(&IpSet::from_prefix(&"2.2.2.6/32".parse().unwrap()));
    let findings = differential_reachability(&base.dataplane, &broken.dataplane, Some(&scope));
    for f in &findings {
        assert!(
            f.dsts.contains("2.2.2.5".parse().unwrap())
                || f.dsts.contains("2.2.2.6".parse().unwrap()),
            "out-of-scope finding: {f}"
        );
    }
}

/// Seed determinism at the pipeline level: same snapshot + same seed ⇒ same
/// extracted dataplane.
#[test]
fn pipeline_is_deterministic_per_seed() {
    let snapshot = scenarios::three_node_line_fig3();
    let a = EmulationBackend::with_seed(11).compute(&snapshot).unwrap();
    let b = EmulationBackend::with_seed(11).compute(&snapshot).unwrap();
    assert_eq!(a.dataplane.digest(), b.dataplane.digest());
}

/// Route reflection end to end: clients never peer with each other, yet
/// every client reaches every other client's loopback through the RR.
#[test]
fn route_reflector_cluster_full_reachability() {
    let snapshot = scenarios::rr_cluster(4);
    let result = EmulationBackend::default().compute(&snapshot).unwrap();
    assert!(result.meta.converged);
    let fa = ForwardingAnalysis::new(&result.dataplane);
    let broken = unreachable_pairs_with(&fa);
    assert!(
        broken.is_empty(),
        "reflection must spread client routes: {:?}",
        broken
            .iter()
            .map(|r| format!("{}->{}", r.src, r.dst_node))
            .collect::<Vec<_>>()
    );
    // And the best path at a client actually traverses the RR.
    // (10.255.0.3 is c2's loopback.)
    let trace = fa.trace(&NodeId::from("c1"), "10.255.0.3".parse().unwrap());
    assert!(trace.disposition.is_delivered());
    assert!(
        trace.hops.iter().any(|h| h.node == NodeId::from("rr")),
        "{trace:?}"
    );
}

/// Clos fabric: equal-cost spines give consistent ECMP — the multipath
/// consistency query must find no divergent classes, and leaf-to-leaf
/// traffic must fan across all spines.
#[test]
fn clos_ecmp_is_consistent() {
    let snapshot = scenarios::clos(3, 4);
    let result = EmulationBackend::default().compute(&snapshot).unwrap();
    assert!(result.meta.converged);
    let fa = ForwardingAnalysis::new(&result.dataplane);
    assert!(unreachable_pairs_with(&fa).is_empty());

    let divergent = mfv_core::detect_multipath_inconsistency(&fa);
    assert!(divergent.is_empty(), "{divergent:?}");

    // l1 → l2's loopback has one FIB entry with 3 spine next hops.
    let l1 = &result.dataplane.nodes[&NodeId::from("l1")];
    let e = l1
        .fib()
        .lookup("10.255.0.101".parse().unwrap())
        .expect("route to l2 loopback")
        .to_entry();
    assert_eq!(e.next_hops.len(), 3, "{e:?}");
}

/// Loop detection: two static routes pointing at each other create a real
/// forwarding loop that the exhaustive search must find.
#[test]
fn static_route_loop_is_detected() {
    use mfv_config::{IfaceSpec, RouterSpec, StaticRoute};
    use mfv_emulator::{NodeSpec, Topology};
    use mfv_types::AsNum;

    let mut a = RouterSpec::new("a", AsNum(65001), "2.2.2.1".parse().unwrap())
        .iface(IfaceSpec::new("Ethernet1", "10.0.0.0/31".parse().unwrap()))
        .build();
    a.static_routes.push(StaticRoute {
        prefix: "198.18.0.0/15".parse().unwrap(),
        next_hop: "10.0.0.1".parse().unwrap(),
        distance: None,
    });
    let mut b = RouterSpec::new("b", AsNum(65002), "2.2.2.2".parse().unwrap())
        .iface(IfaceSpec::new("Ethernet1", "10.0.0.1/31".parse().unwrap()))
        .build();
    b.static_routes.push(StaticRoute {
        prefix: "198.18.0.0/15".parse().unwrap(),
        next_hop: "10.0.0.0".parse().unwrap(),
        distance: None,
    });
    let mut t = Topology::new("loop-pair");
    t.add_node(NodeSpec::from_config("a", &a));
    t.add_node(NodeSpec::from_config("b", &b));
    t.add_link(("a", "Ethernet1"), ("b", "Ethernet1"));

    let result = EmulationBackend::default()
        .compute(&Snapshot::new("loop-pair", t))
        .unwrap();
    let loops = mfv_core::detect_loops_with(&ForwardingAnalysis::new(&result.dataplane));
    assert!(
        loops
            .iter()
            .any(|l| l.dsts.contains("198.18.5.5".parse().unwrap())),
        "{loops:?}"
    );
}

/// §2's "new software version introduced an incorrect route metric selection
/// in iBGP": the same network converges to a *different dataplane* under the
/// buggy software, and differential reachability localises the change to
/// path selection (not deliverability).
#[test]
fn ibgp_metric_bug_changes_exit_selection() {
    use mfv_config::{IfaceSpec, RouterSpec};
    use mfv_emulator::{NodeSpec, Topology};
    use mfv_types::AsNum;

    // mid has two iBGP exits (near via cheap IS-IS path, far via expensive
    // one) to the same external prefix.
    let asn = AsNum(65000);
    let lo = |n: u8| std::net::Ipv4Addr::new(2, 2, 2, n);
    let near = RouterSpec::new("near", asn, lo(1))
        .iface(IfaceSpec::new("Ethernet1", "10.0.1.0/31".parse().unwrap()).with_metric(10))
        .ibgp(lo(3))
        .network("203.0.113.0/24".parse().unwrap())
        .iface(IfaceSpec::new(
            "Ethernet9",
            "203.0.113.1/24".parse().unwrap(),
        ));
    let far = RouterSpec::new("far", asn, lo(2))
        .iface(IfaceSpec::new("Ethernet1", "10.0.2.0/31".parse().unwrap()).with_metric(100))
        .ibgp(lo(3))
        .network("203.0.113.0/24".parse().unwrap())
        .iface(IfaceSpec::new(
            "Ethernet9",
            "203.0.113.1/24".parse().unwrap(),
        ));
    let mid = RouterSpec::new("mid", asn, lo(3))
        .iface(IfaceSpec::new("Ethernet1", "10.0.1.1/31".parse().unwrap()).with_metric(10))
        .iface(IfaceSpec::new("Ethernet2", "10.0.2.1/31".parse().unwrap()).with_metric(100))
        .ibgp(lo(1))
        .ibgp(lo(2));
    let mut t = Topology::new("metric-bug");
    t.add_node(NodeSpec::from_config("mid", &mid.build()));
    t.add_node(NodeSpec::from_config("near", &near.build()));
    t.add_node(NodeSpec::from_config("far", &far.build()));
    t.add_link(("mid", "Ethernet1"), ("near", "Ethernet1"));
    t.add_link(("mid", "Ethernet2"), ("far", "Ethernet1"));
    let snapshot = Snapshot::new("metric-bug", t);

    let exit_of = |dp: &mfv_dataplane::Dataplane| {
        // .1 is the anycast address owned by both exits; whichever router
        // the trace is delivered at is the selected exit.
        let trace =
            ForwardingAnalysis::new(dp).trace(&NodeId::from("mid"), "203.0.113.1".parse().unwrap());
        assert!(trace.disposition.is_delivered(), "{trace:?}");
        trace.hops.last().unwrap().node.clone()
    };

    let healthy = EmulationBackend::default().compute(&snapshot).unwrap();
    assert_eq!(exit_of(&healthy.dataplane), NodeId::from("near"));

    // "Upgrade" mid to the buggy software version.
    let mut backend = EmulationBackend::default();
    backend.profiles.insert(
        "mid".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            ibgp_metric_bug: true,
            ..Default::default()
        }),
    );
    let buggy = backend.compute(&snapshot).unwrap();
    assert_eq!(
        exit_of(&buggy.dataplane),
        NodeId::from("far"),
        "the buggy decision process must pick the farther exit"
    );

    // Differential: paths changed but nothing became undeliverable.
    let findings = differential_reachability(&healthy.dataplane, &buggy.dataplane, None);
    assert!(!findings.is_empty());
    assert!(deliverability_changes(&findings).is_empty());
}

/// A link flap must reconverge to exactly the pre-flap dataplane.
#[test]
fn link_flap_recovers_original_dataplane() {
    use mfv_types::LinkId;

    let snapshot = scenarios::three_node_line_fig3();
    let backend = EmulationBackend::default();
    let (mut emu, meta) = backend.run(&snapshot).unwrap();
    assert!(meta.converged);
    let before = emu.dataplane();

    let link = LinkId::new(
        ("r1".into(), "Ethernet2".into()),
        ("r2".into(), "Ethernet1".into()),
    );
    emu.set_link(&link, false);
    let down_report = emu.run_until_converged();
    assert!(down_report.converged);
    let during = emu.dataplane();
    assert_ne!(
        before.digest(),
        during.digest(),
        "cut must change the dataplane"
    );

    emu.set_link(&link, true);
    let up_report = emu.run_until_converged();
    assert!(up_report.converged);
    let after = emu.dataplane();
    assert_eq!(
        before.digest(),
        after.digest(),
        "flap recovery must restore the exact dataplane"
    );
}

/// Export route-maps filter advertisements: a deny-all export policy on the
/// eBGP session keeps the peer's table empty while the session stays up.
#[test]
fn export_policy_suppresses_advertisements() {
    use mfv_config::{IfaceSpec, PolicyAction, RouteMap, RouteMapEntry, RouterSpec};
    use mfv_emulator::{NodeSpec, Topology};
    use mfv_types::AsNum;

    let r1 = RouterSpec::new("r1", AsNum(65001), "2.2.2.1".parse().unwrap())
        .iface(IfaceSpec::new("Ethernet1", "10.0.0.0/31".parse().unwrap()))
        .ebgp("10.0.0.1".parse().unwrap(), AsNum(65002))
        .network("2.2.2.1/32".parse().unwrap());
    let mut cfg1 = r1.build();
    cfg1.route_maps.insert(
        "DENY-ALL".to_string(),
        RouteMap {
            entries: vec![RouteMapEntry {
                seq: 10,
                action: PolicyAction::Deny,
                matches: vec![],
                sets: vec![],
            }],
        },
    );
    cfg1.bgp.as_mut().unwrap().neighbors[0].route_map_out = Some("DENY-ALL".into());

    let r2 = RouterSpec::new("r2", AsNum(65002), "2.2.2.2".parse().unwrap())
        .iface(IfaceSpec::new("Ethernet1", "10.0.0.1/31".parse().unwrap()))
        .ebgp("10.0.0.0".parse().unwrap(), AsNum(65001))
        .network("2.2.2.2/32".parse().unwrap());

    let mut t = Topology::new("export-deny");
    t.add_node(NodeSpec::from_config("r1", &cfg1));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));

    let result = EmulationBackend::default()
        .compute(&Snapshot::new("export-deny", t))
        .unwrap();
    // r1 still learns r2's loopback (r2 has no policy)…
    let r1_dp = &result.dataplane.nodes[&NodeId::from("r1")];
    assert!(r1_dp.fib().lookup("2.2.2.2".parse().unwrap()).is_some());
    // …but r2 never hears about r1's (deny-all export).
    let r2_dp = &result.dataplane.nodes[&NodeId::from("r2")];
    assert!(r2_dp.fib().lookup("2.2.2.1".parse().unwrap()).is_none());
}

/// Chaos acceptance: a flap schedule on the two-vendor WAN replica drives
/// the verdict to Oscillating with the churning prefixes named; the same
/// run without the flaps converges. Both outcomes are deterministic.
#[test]
fn chaos_flap_on_two_vendor_wan_oscillates_and_control_converges() {
    use mfv_emulator::{ChaosPlan, ConvergenceVerdict};
    use mfv_types::{LinkId, SimDuration, SimTime};

    let snapshot = scenarios::production_wan(9, 2, true, 50);

    // Fault-free control run; also tells us when boot completes so the
    // flap schedule can be placed in steady state.
    let mut backend = EmulationBackend::with_seed(3);
    let control = backend.compute(&snapshot).unwrap();
    assert!(control.meta.converged);
    assert!(matches!(
        control.meta.verdict,
        Some(ConvergenceVerdict::Converged)
    ));
    let boot_ms = control.meta.boot_time.unwrap().as_millis();

    // Flap the first ring link every 20s (8s down), repeating past the
    // shortened budget: the network can never stay quiet for 12s.
    let l = &snapshot.topology.links[0];
    let link = LinkId::new(
        (l.a_node.clone(), l.a_iface.clone()),
        (l.b_node.clone(), l.b_iface.clone()),
    );
    backend.max_sim_time = SimDuration::from_millis(boot_ms + 400_000);
    backend.chaos = ChaosPlan::new().repeated_link_flap(
        link,
        SimTime(boot_ms + 60_000),
        SimDuration::from_secs(8),
        40,
        SimDuration::from_secs(20),
    );
    let chaotic = backend.compute(&snapshot).unwrap();
    assert!(!chaotic.meta.converged);
    match chaotic.meta.verdict.as_ref().unwrap() {
        ConvergenceVerdict::Oscillating { period, prefixes } => {
            assert!(!prefixes.is_empty());
            assert!(period.as_millis() > 0);
        }
        other => panic!("expected Oscillating, got {other:?}"),
    }

    // Determinism: replaying the chaotic run reproduces the verdict.
    let replay = backend.compute(&snapshot).unwrap();
    assert_eq!(replay.meta.verdict, chaotic.meta.verdict);
    assert_eq!(replay.dataplane.digest(), chaotic.dataplane.digest());
}

/// Degradation acceptance: with one node's gNMI extraction forced to fail
/// past the retry budget, the pipeline still produces a snapshot (coverage
/// < 1.0, node Missing) and reachability queries complete with qualified
/// answers instead of panicking.
#[test]
fn forced_extraction_failure_degrades_gracefully() {
    use mfv_core::{qualified_reachability, qualified_unreachable_pairs, Coverage};
    use mfv_types::ExtractionStatus;

    let snapshot = scenarios::six_node();
    let mut backend = EmulationBackend::default();
    backend.collector.failures.force_fail.insert("r3".into());

    let result = backend.compute(&snapshot).unwrap();
    let coverage_frac = result.meta.extraction_coverage.unwrap();
    assert!(coverage_frac < 1.0, "coverage {coverage_frac}");
    assert!(matches!(
        result.meta.extraction_status[&NodeId::from("r3")],
        ExtractionStatus::Missing(_)
    ));
    // The snapshot covers the other five nodes; r3 and its links are gone.
    assert!(!result.dataplane.nodes.contains_key(&NodeId::from("r3")));
    assert_eq!(result.dataplane.nodes.len(), 5);

    let coverage = Coverage::from_status(&result.meta.extraction_status);
    assert_eq!(coverage.fraction(), coverage_frac);
    let fa = ForwardingAnalysis::new(&result.dataplane);
    let q = qualified_unreachable_pairs(&fa, &coverage);
    assert!(!q.is_unqualified());
    assert!(q.caveats[0].contains("r3"), "{:?}", q.caveats);

    // A query about the missing node completes and is flagged vacuous.
    let qr = qualified_reachability(&fa, &"r1".into(), &"r3".into(), &coverage);
    assert!(
        qr.caveats.iter().any(|c| c.contains("vacuous")),
        "{:?}",
        qr.caveats
    );
}

/// Crash path with the restart watchdog off: by default the dead router is
/// still extracted (present, down, empty FIB); with a fate-shared
/// management plane it becomes a coverage gap the verifier reports.
#[test]
fn crash_without_restart_degrades_dataplane_and_coverage() {
    use mfv_core::Coverage;

    let snapshot = scenarios::interplay_chain();
    let mut backend = EmulationBackend::with_seed(7);
    backend.profiles.insert(
        "victim".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            crash_on_unknown_attr: Some(213),
            ..Default::default()
        }),
    );
    backend.profiles.insert(
        "emitter".into(),
        VendorProfile::vjunos().with_bugs(VendorBugs {
            emit_unusual_attr: Some(213),
            ..Default::default()
        }),
    );
    backend.auto_restart = false;

    // Default collector: gNMI survives the routing-process crash, so the
    // victim is extracted as present-but-down with full coverage.
    let frozen = backend.compute(&snapshot).unwrap();
    assert!(frozen.meta.crashes >= 1);
    assert_eq!(frozen.meta.extraction_coverage, Some(1.0));
    let victim = NodeId::from("victim");
    let node = &frozen.dataplane.nodes[&victim];
    assert!(!node.up, "crashed router must be extracted as down");
    assert!(!unreachable_pairs(&frozen.dataplane).is_empty());

    // Fate-shared management plane: the down device is unreachable over
    // gNMI too — now it is a coverage gap, not a down node.
    backend.collector.failures.down_is_missing = true;
    let degraded = backend.compute(&snapshot).unwrap();
    assert!(degraded.meta.extraction_coverage.unwrap() < 1.0);
    assert!(!degraded.dataplane.nodes.contains_key(&victim));
    let coverage = Coverage::from_status(&degraded.meta.extraction_status);
    assert!(
        coverage.caveats()[0].contains("victim"),
        "{:?}",
        coverage.caveats()
    );
}

/// The verdict on the scale scenario, pinned where it is small enough to
/// read (ROADMAP item 1): `regional_wan(3, 4)` converges to a dataplane
/// whose only unreachable *loopbacks* are the three exit borders', from
/// every source outside the border's region — the scenario's planted
/// redistribution gap (`redistribute isis` cannot export a loopback that
/// is connected, not IS-IS, on the router doing the export). Everything
/// else that fails is an address the design keeps out of BGP on purpose.
#[test]
fn regional_wan_verdict_is_the_planted_redistribution_gap() {
    use mfv_core::Disposition;
    use mfv_verify::{detect_blackholes_with, detect_loops_with};
    use std::collections::BTreeSet;

    let backend = EmulationBackend {
        cluster_machines: 2,
        seed: 2,
        ..Default::default()
    };
    let result = backend.compute(&scenarios::regional_wan(3, 4)).unwrap();
    assert!(result.meta.converged);
    assert_eq!(
        format!("{:016x}", result.dataplane.digest()),
        "217077b89c5abfa8"
    );
    assert_eq!(result.dataplane.total_entries(), 198);

    // One analysis answers all three verdicts.
    let fa = ForwardingAnalysis::new(&result.dataplane);
    let broken = unreachable_pairs_with(&fa);
    let stats = fa.index_stats();
    assert_eq!((stats.atoms, stats.classes), (52, 43));
    assert_eq!(broken.len(), 114, "of 12 × 11 = 132 ordered pairs");
    assert!(detect_loops_with(&fa).is_empty());
    let holes = detect_blackholes_with(&fa);
    let hole_sources: BTreeSet<_> = holes.iter().map(|h| h.src.clone()).collect();
    assert_eq!(
        (holes.len(), hole_sources.len()),
        (12, 12),
        "one per source"
    );

    // Loopback failures: exactly the exit border of each region, from the
    // 8 sources outside it, each dropped for want of a route at the source.
    let loopbacks = IpSet::from_prefix(&"10.255.0.0/16".parse().unwrap());
    let infra = IpSet::from_prefix(&"10.64.0.0/16".parse().unwrap())
        .union(&IpSet::from_prefix(&"172.16.0.0/12".parse().unwrap()));
    let mut gap = BTreeSet::new();
    for report in &broken {
        for (set, fate) in &report.failed {
            let lo = set.intersect(&loopbacks);
            if !lo.is_empty() {
                assert_eq!(
                    fate,
                    &Disposition::NoRoute(report.src.clone()),
                    "{report:?}"
                );
                assert_eq!(lo.count(), 1, "{report:?}");
                gap.insert((
                    report.src.to_string(),
                    report.dst_node.to_string(),
                    lo.to_string(),
                ));
            }
            assert!(
                set.subtract(&loopbacks).subtract(&infra).is_empty(),
                "{report:?}"
            );
        }
    }
    let names: Vec<String> = result
        .dataplane
        .nodes
        .keys()
        .map(|n| n.to_string())
        .collect();
    let mut expected = BTreeSet::new();
    for (region, border_lo) in ["10.255.0.4", "10.255.0.8", "10.255.0.12"]
        .iter()
        .enumerate()
    {
        let border = format!("r{region:02}x03");
        for src in names.iter().filter(|n| !n.starts_with(&border[..3])) {
            expected.insert((src.clone(), border.clone(), format!("{border_lo}/32")));
        }
    }
    assert_eq!(expected.len(), 24);
    assert_eq!(gap, expected);

    // The 18 fully reachable pairs are intra-region ones whose destination
    // has no ring port (the ring /31s are outside the IGP by design).
    let broken_pairs: BTreeSet<_> = broken
        .iter()
        .map(|r| (r.src.to_string(), r.dst_node.to_string()))
        .collect();
    for src in &names {
        for dst in names.iter().filter(|d| *d != src) {
            let ringless = !dst.ends_with("x00") && !dst.ends_with("x03");
            let reachable = src[..3] == dst[..3] && ringless;
            assert_eq!(
                !broken_pairs.contains(&(src.clone(), dst.clone())),
                reachable,
                "{src} -> {dst}"
            );
        }
    }
}
