//! End-to-end emulator tests: boot, converge, inject, fail, replay.

use std::net::Ipv4Addr;

use mfv_config::{IfaceSpec, RouterSpec, Vendor};
use mfv_emulator::{
    outcome_distribution, run_seeds, Cluster, Emulation, EmulationConfig, ExternalPeerSpec,
    NodeSpec, SeedRun, Topology,
};
use mfv_types::{AsNum, LinkId, NodeId, RouteProtocol};
use mfv_vrouter::{VendorBugs, VendorProfile};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// r1 - r2 - r3 line, single AS, IS-IS everywhere + iBGP full mesh over
/// loopbacks with next-hop-self; r1 and r3 originate a "customer" prefix.
fn line3_topology() -> Topology {
    let asn = AsNum(65000);
    let lo = |n: u8| Ipv4Addr::new(2, 2, 2, n);

    let r1 = RouterSpec::new("r1", asn, lo(1))
        .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
        .ibgp(lo(2))
        .ibgp(lo(3))
        .network("203.0.113.0/24".parse().unwrap())
        .network("2.2.2.1/32".parse().unwrap());
    // The customer prefix must exist in the RIB for `network` to fire:
    // model it as a connected stub interface.
    let r1 = r1.iface(IfaceSpec::new(
        "Ethernet9",
        "203.0.113.1/24".parse().unwrap(),
    ));

    let r2 = RouterSpec::new("r2", asn, lo(2))
        .iface(IfaceSpec::new("Ethernet1", "100.64.0.1/31".parse().unwrap()).with_isis())
        .iface(IfaceSpec::new("Ethernet2", "100.64.0.2/31".parse().unwrap()).with_isis())
        .ibgp(lo(1))
        .ibgp(lo(3));

    let r3 = RouterSpec::new("r3", asn, lo(3))
        .iface(IfaceSpec::new("Ethernet1", "100.64.0.3/31".parse().unwrap()).with_isis())
        .ibgp(lo(1))
        .ibgp(lo(2))
        .network("198.51.100.0/24".parse().unwrap())
        .iface(IfaceSpec::new(
            "Ethernet9",
            "198.51.100.1/24".parse().unwrap(),
        ));

    let mut t = Topology::new("line3");
    t.add_node(NodeSpec::from_config("r1", &r1.build()));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_node(NodeSpec::from_config("r3", &r3.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    t.add_link(("r2", "Ethernet2"), ("r3", "Ethernet1"));
    t
}

fn quick_cfg(seed: u64) -> EmulationConfig {
    EmulationConfig {
        seed,
        ..Default::default()
    }
}

#[test]
fn line3_boots_and_converges() {
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(1)).unwrap();
    let report = emu.run_until_converged();
    assert!(report.converged, "{report:?}");
    assert!(report.boot_complete_at.is_some());
    assert!(report.converged_at > report.boot_complete_at.unwrap());
    assert_eq!(report.crashes, 0);

    // r3 reaches r1's customer prefix via iBGP (next-hop-self over IS-IS).
    let r3 = emu.router(&NodeId::from("r3")).unwrap();
    let e = r3.fib().lookup(ip("203.0.113.9")).expect("customer route");
    assert_eq!(e.proto, RouteProtocol::IbgpLearned);

    // And r1 reaches r3's prefix.
    let r1 = emu.router(&NodeId::from("r1")).unwrap();
    assert!(r1.fib().lookup(ip("198.51.100.9")).is_some());

    // Transit r2 has loopback routes from IS-IS.
    let r2 = emu.router(&NodeId::from("r2")).unwrap();
    assert_eq!(
        r2.fib().lookup(ip("2.2.2.1")).unwrap().proto,
        RouteProtocol::Isis
    );
}

#[test]
fn dataplane_snapshot_reflects_fibs() {
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(1)).unwrap();
    emu.run_until_converged();
    let dp = emu.dataplane();
    assert_eq!(dp.nodes.len(), 3);
    assert_eq!(dp.links.len(), 2);
    assert!(dp.total_entries() > 8);
    assert_eq!(dp.owner_of(ip("2.2.2.2")), Some(&NodeId::from("r2")));
}

#[test]
fn link_cut_withdraws_transit_routes() {
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(1)).unwrap();
    emu.run_until_converged();
    let had = emu
        .router(&NodeId::from("r1"))
        .unwrap()
        .fib()
        .lookup(ip("198.51.100.9"))
        .is_some();
    assert!(had);

    emu.set_link(
        &LinkId::new(
            ("r2".into(), "Ethernet2".into()),
            ("r3".into(), "Ethernet1".into()),
        ),
        false,
    );
    let report = emu.run_until_converged();
    assert!(report.converged);
    let r1 = emu.router(&NodeId::from("r1")).unwrap();
    assert!(
        r1.fib().lookup(ip("198.51.100.9")).is_none(),
        "r3's prefix must be gone after the cut"
    );
    assert!(
        r1.fib().lookup(ip("2.2.2.2")).is_some(),
        "r2 still reachable"
    );
}

/// A fork carries every heap, clock and RNG stream: what is done to it
/// never reaches the original, and doing the same to the original replays
/// the fork's run event for event.
#[test]
fn a_fork_replays_the_original_and_leaves_it_untouched() {
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(1)).unwrap();
    emu.run_until_converged();
    let converged = emu.dataplane().digest();
    let cut = LinkId::new(
        ("r2".into(), "Ethernet2".into()),
        ("r3".into(), "Ethernet1".into()),
    );

    let mut fork = emu.clone();
    fork.remove_wire(&cut);
    let forked = fork.run_until_converged();
    assert!(forked.converged);
    assert_eq!(emu.dataplane().digest(), converged);
    assert_eq!(emu.up_links().count(), 2);

    emu.remove_wire(&cut);
    assert_eq!(emu.run_until_converged(), forked);
    assert_eq!(emu.dataplane().digest(), fork.dataplane().digest());

    // The wire is gone and both ports are up: the link has left the
    // dataplane, the connected /31 has not left either end.
    assert_eq!(fork.up_links().count(), 1);
    for (node, far_end) in [("r2", "100.64.0.3"), ("r3", "100.64.0.2")] {
        let router = fork.router(&NodeId::from(node)).unwrap();
        let entry = router.fib().lookup(ip(far_end)).expect("connected /31");
        assert_eq!(entry.proto, RouteProtocol::Connected, "{node}");
    }
}

#[test]
fn same_seed_replays_identically() {
    let digest = |seed: u64| {
        let mut emu =
            Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(seed)).unwrap();
        emu.run_until_converged();
        emu.dataplane().digest()
    };
    assert_eq!(
        digest(42),
        digest(42),
        "same seed, same converged dataplane"
    );
}

#[test]
fn route_injection_scales_fib() {
    // Attach an external feed of 5,000 routes to r1 via a stub subnet.
    let mut topo = line3_topology();
    // Give r1 an interface toward the peer and a neighbor statement.
    let spec = topo
        .nodes
        .iter_mut()
        .find(|n| n.name == NodeId::from("r1"))
        .unwrap();
    let mut parsed = mfv_config::parse(Vendor::Ceos, &spec.config_text)
        .unwrap()
        .config;
    let eth = parsed.ensure_interface("Ethernet5");
    eth.addr = Some("100.64.9.0/31".parse().unwrap());
    eth.routed = true;
    parsed
        .bgp
        .as_mut()
        .unwrap()
        .neighbors
        .push(mfv_config::BgpNeighborConfig::new(
            ip("100.64.9.1"),
            AsNum(64999),
        ));
    spec.config_text = mfv_config::render(&parsed);

    topo.external_peers.push(ExternalPeerSpec {
        addr: ip("100.64.9.1"),
        asn: AsNum(64999),
        attach_to: "r1".into(),
        route_count: 5_000,
        base_octet: Some(20),
    });

    let mut emu = Emulation::new(topo, Cluster::single_node(), quick_cfg(3)).unwrap();
    let report = emu.run_until_converged();
    assert!(report.converged, "{report:?}");

    // r1 holds all injected routes as eBGP.
    let r1 = emu.router(&NodeId::from("r1")).unwrap();
    let e = r1.fib().lookup(ip("20.3.7.1")).expect("injected route");
    assert_eq!(e.proto, RouteProtocol::EbgpLearned);
    assert!(r1.fib().len() >= 5_000);

    // And they propagate over iBGP to r3.
    let r3 = emu.router(&NodeId::from("r3")).unwrap();
    let e3 = r3.fib().lookup(ip("20.3.7.1")).expect("propagated route");
    assert_eq!(e3.proto, RouteProtocol::IbgpLearned);
}

#[test]
fn vendor_interplay_crash_causes_partial_outage() {
    // r1's parser crashes on attribute 213; r3 (the far end) emits it on
    // every update. The poisoned update reaches r1 over iBGP and kills its
    // routing process — the paper's §2 incident.
    let mut cfg = quick_cfg(5);
    cfg.auto_restart_crashed = false;
    cfg.profile_overrides.insert(
        "r1".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            crash_on_unknown_attr: Some(213),
            ..Default::default()
        }),
    );
    cfg.profile_overrides.insert(
        "r3".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            emit_unusual_attr: Some(213),
            ..Default::default()
        }),
    );
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), cfg).unwrap();
    let report = emu.run_until_converged();
    assert!(report.crashes >= 1, "{report:?}");
    let r1 = emu.router(&NodeId::from("r1")).unwrap();
    assert!(!r1.is_running());
    assert!(r1.fib().is_empty(), "crashed router forwards nothing");
    // The dataplane snapshot records the outage.
    let dp = emu.dataplane();
    assert!(!dp.nodes[&NodeId::from("r1")].up);
}

#[test]
fn crash_with_watchdog_restarts_into_crash_loop() {
    let mut cfg = quick_cfg(5);
    cfg.profile_overrides.insert(
        "r1".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            crash_on_unknown_attr: Some(213),
            ..Default::default()
        }),
    );
    cfg.profile_overrides.insert(
        "r3".into(),
        VendorProfile::ceos().with_bugs(VendorBugs {
            emit_unusual_attr: Some(213),
            ..Default::default()
        }),
    );
    // Cap the run: a crash loop never goes quiet.
    cfg.max_sim_time = mfv_types::SimDuration::from_mins(30);
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), cfg).unwrap();
    let report = emu.run_until_converged();
    assert!(
        report.crashes >= 2,
        "restart leads to another crash: {report:?}"
    );
}

#[test]
fn config_push_shutting_session_reconverges() {
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(1)).unwrap();
    emu.run_until_converged();
    assert!(emu
        .router(&NodeId::from("r3"))
        .unwrap()
        .fib()
        .lookup(ip("203.0.113.9"))
        .is_some());

    // Push a config to r1 dropping its iBGP session to r3.
    let spec = emu.topology.node(&NodeId::from("r1")).unwrap().clone();
    let mut parsed = mfv_config::parse(Vendor::Ceos, &spec.config_text)
        .unwrap()
        .config;
    parsed
        .bgp
        .as_mut()
        .unwrap()
        .neighbors
        .retain(|n| n.peer != ip("2.2.2.3"));
    let text = mfv_config::render(&parsed);
    emu.push_config(&NodeId::from("r1"), &text).unwrap();
    let report = emu.run_until_converged();
    assert!(report.converged);
    assert!(
        emu.router(&NodeId::from("r3"))
            .unwrap()
            .fib()
            .lookup(ip("203.0.113.9"))
            .is_none(),
        "customer prefix must vanish at r3 without the session"
    );
}

#[test]
fn cli_works_against_running_emulation() {
    let mut emu = Emulation::new(line3_topology(), Cluster::single_node(), quick_cfg(1)).unwrap();
    emu.run_until_converged();
    let out = emu.cli(&NodeId::from("r2"), "show isis neighbors").unwrap();
    assert!(out.contains("Up"), "{out}");
    let out = emu.cli(&NodeId::from("r1"), "show bgp summary").unwrap();
    assert!(out.contains("Estab"), "{out}");
    assert!(emu.cli(&NodeId::from("ghost"), "show version").is_none());
}

#[test]
fn parallel_seed_runs_produce_consistent_reachability() {
    let topo = line3_topology();
    let runs: Vec<SeedRun> = run_seeds(&topo, Cluster::single_node, &quick_cfg(0), &[1, 2, 3, 4])
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("every seed runs");
    assert_eq!(runs.len(), 4);
    for run in &runs {
        assert!(run.report.converged, "seed {}: {:?}", run.seed, run.report);
        // Reachability-level outcome must agree even if tiebreaks differ.
        let r3 = &run.dataplane.nodes[&NodeId::from("r3")];
        assert!(r3.fib().lookup(ip("203.0.113.9")).is_some());
    }
    let dist = outcome_distribution(&runs);
    let total: usize = dist.values().map(|v| v.len()).sum();
    assert_eq!(total, 4);
}

#[test]
fn seed_runs_replay_identically_and_stay_in_order() {
    let topo = line3_topology();
    let seeds = [5, 6, 7];
    let first = run_seeds(&topo, Cluster::single_node, &quick_cfg(0), &seeds);
    let second = run_seeds(&topo, Cluster::single_node, &quick_cfg(0), &seeds);
    assert_eq!(first.len(), 3);
    for ((a, b), seed) in first.iter().zip(&second).zip(seeds) {
        let a = a.as_ref().expect("seed run succeeds");
        let b = b.as_ref().expect("seed run succeeds");
        assert_eq!((a.seed, b.seed), (seed, seed));
        assert_eq!(a.dataplane.digest(), b.dataplane.digest());
    }
}

#[test]
fn seed_worker_panic_is_confined_to_its_seed() {
    let topo = line3_topology();
    // A cluster factory that panics poisons every run that calls it — but
    // each failure must surface as that seed's error, not tear down the
    // sweep or the test harness.
    let results = run_seeds(
        &topo,
        || panic!("cluster provisioning exploded"),
        &quick_cfg(0),
        &[1, 2],
    );
    assert_eq!(results.len(), 2);
    for (r, seed) in results.iter().zip([1u64, 2]) {
        let err = r.as_ref().expect_err("run must fail");
        assert_eq!(err.seed, seed);
        assert!(
            err.message.contains("cluster provisioning exploded"),
            "{err}"
        );
    }
}

/// Demand-driven polling acceptance: an idle network — routers with only
/// connected interfaces, no IS-IS, no BGP — must never put a poll event on
/// the heap. The only scheduled events are the 60 pod boots; each router is
/// woken exactly once after boot, reports no future work, and is never
/// visited again. Under the old fixed-interval scheduler this run cost
/// O(nodes x sim-time) poll events.
#[test]
fn idle_network_schedules_zero_poll_events() {
    const N: u8 = 60;
    let asn = AsNum(65000);
    let mut t = Topology::new("idle60");
    for i in 1..=N {
        let name = format!("r{i}");
        let spec = RouterSpec::new(&name, asn, Ipv4Addr::new(9, 9, 9, i)).iface(IfaceSpec::new(
            "Ethernet1",
            format!("10.{i}.0.1/24").parse().unwrap(),
        ));
        t.add_node(NodeSpec::from_config(name.as_str(), &spec.build()));
    }
    let mut emu = Emulation::new(t, Cluster::single_node(), quick_cfg(7)).unwrap();
    let report = emu.run_until_converged();
    assert!(report.converged, "{report:?}");
    // Heap traffic: one PodReady per node, nothing else — zero poll events.
    assert_eq!(report.events_scheduled, u64::from(N));
    // Work items: each boot plus exactly one demand-driven wake per router
    // (which finds no engines and requests no further wakeup).
    assert_eq!(report.events_processed, 2 * u64::from(N));
}
