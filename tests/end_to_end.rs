//! Workspace-level integration tests: drive the whole stack through the
//! facade crate, the way a downstream user would.

use std::collections::BTreeMap;

use model_free_verification::config::{IfaceSpec, RouterSpec, Vendor};
use model_free_verification::core::{scenarios, Backend, EmulationBackend, ModelBackend, Snapshot};
use model_free_verification::emulator::{ChaosPlan, NodeSpec, Topology};
use model_free_verification::mgmt::{collect_afts, dataplane_from_afts, Telemetry};
use model_free_verification::types::{AsNum, IpSet, NodeId, SimDuration, SimTime};
use model_free_verification::verify::{self, ForwardingAnalysis};
use model_free_verification::wire::isis::IsisPdu;

fn pair_snapshot() -> Snapshot {
    let r1 = RouterSpec::new("r1", AsNum(65001), "2.2.2.1".parse().unwrap())
        .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
        .ebgp("100.64.0.1".parse().unwrap(), AsNum(65002))
        .network("2.2.2.1/32".parse().unwrap());
    let r2 = RouterSpec::new("r2", AsNum(65002), "2.2.2.2".parse().unwrap())
        .vendor(Vendor::Vjunos)
        .iface(IfaceSpec::new("ge-0/0/0", "100.64.0.1/31".parse().unwrap()).with_isis())
        .ebgp("100.64.0.0".parse().unwrap(), AsNum(65001))
        .network("2.2.2.2/32".parse().unwrap());
    let mut t = Topology::new("facade-pair");
    t.add_node(NodeSpec::from_config("r1", &r1.build()));
    t.add_node(NodeSpec::from_config("r2", &r2.build()));
    t.add_link(("r1", "Ethernet1"), ("r2", "ge-0/0/0"));
    Snapshot::new("facade-pair", t)
}

#[test]
fn multi_vendor_pair_through_facade() {
    let snapshot = pair_snapshot();
    let result = EmulationBackend::default().compute(&snapshot).unwrap();
    assert!(result.meta.converged);
    // Cross-vendor eBGP + IS-IS interop: full reachability.
    let fa = ForwardingAnalysis::new(&result.dataplane);
    assert!(verify::unreachable_pairs_with(&fa).is_empty());
    // The vjunos side's route is present on the ceos side.
    let trace = fa.trace(&NodeId::from("r1"), "2.2.2.2".parse().unwrap());
    assert!(trace.disposition.is_delivered());
}

#[test]
fn gnmi_extraction_path_is_equivalent_to_direct_state() {
    // Run an emulation, extract AFTs through the management plane, and
    // verify the rebuilt dataplane answers queries identically.
    let snapshot = scenarios::three_node_line_fig3();
    let backend = EmulationBackend::default();
    let (emu, meta) = backend.run(&snapshot).unwrap();
    assert!(meta.converged);

    let mut telemetry = BTreeMap::new();
    for node in &emu.topology.nodes {
        telemetry.insert(
            node.name.clone(),
            Telemetry::from_router(emu.router(&node.name).unwrap()).unwrap(),
        );
    }
    let afts = collect_afts(&telemetry);
    let direct = emu.dataplane();
    let extracted = dataplane_from_afts(&afts, &direct);
    assert_eq!(extracted.digest(), direct.digest());

    let scope = IpSet::from_prefix(&"2.2.2.0/24".parse().unwrap());
    let a = verify::disposition_summary(&ForwardingAnalysis::new(&direct), &scope);
    let b = verify::disposition_summary(&ForwardingAnalysis::new(&extracted), &scope);
    assert_eq!(a, b);
}

#[test]
fn config_push_what_if_before_deployment() {
    // The paper's workflow: propose a config change, verify the what-if
    // snapshot BEFORE deploying.
    let base = pair_snapshot();
    let backend = EmulationBackend::default();
    let before = backend.compute(&base).unwrap();

    // Proposed change: r1 shuts down its BGP neighbor.
    let mut cfg = base
        .topology
        .node(&"r1".into())
        .unwrap()
        .parse_config()
        .unwrap()
        .config;
    cfg.bgp.as_mut().unwrap().neighbors[0].shutdown = true;
    let proposed = base.with_config(&"r1".into(), model_free_verification::config::render(&cfg));

    let after = backend.compute(&proposed).unwrap();
    let fa_before = ForwardingAnalysis::new(&before.dataplane);
    let fa_after = ForwardingAnalysis::new(&after.dataplane);
    let findings = verify::differential_reachability_with(&fa_before, &fa_after, None);
    // IS-IS still provides loopback reachability; only eBGP-only prefixes
    // change. The query must pinpoint exactly the changed classes.
    for f in &findings {
        assert!(f.before != f.after, "spurious finding: {f}");
    }
    // And the baseline compares clean against itself.
    assert!(verify::differential_reachability_with(&fa_before, &fa_before, None).is_empty());
}

#[test]
fn model_backend_rejects_multi_vendor() {
    let snapshot = pair_snapshot();
    let err = ModelBackend.compute(&snapshot).unwrap_err();
    assert!(err.0.contains("vjunos"), "{err}");
}

#[test]
fn topology_file_roundtrip_runs() {
    // Serialise the topology to its JSON file format and run from the
    // parsed copy — the on-disk workflow.
    let snapshot = pair_snapshot();
    let json = snapshot.topology.to_json();
    let topo = Topology::from_json(&json).unwrap();
    let result = EmulationBackend::default()
        .compute(&Snapshot::new("from-disk", topo))
        .unwrap();
    assert!(result.meta.converged);
    assert_eq!(result.dataplane.nodes.len(), 2);
}

#[test]
fn operator_cli_during_what_if() {
    let snapshot = scenarios::six_node();
    let backend = EmulationBackend::default();
    let (emu, _) = backend.run(&snapshot).unwrap();
    let out = emu.cli(&NodeId::from("r2"), "show bgp summary").unwrap();
    assert!(out.contains("Estab"), "{out}");
    let out = emu.cli(&NodeId::from("r2"), "show isis neighbors").unwrap();
    assert!(out.contains("Up"), "{out}");
    let out = emu.cli(&NodeId::from("r2"), "show version").unwrap();
    assert!(out.contains("4.34.0F"), "{out}");
}

#[test]
fn a_converged_grid_floods_each_lsp_as_its_encoding() {
    // Every router floods an LSP on as the bytes it received; those are
    // exactly what encoding the decoded PDU afresh writes.
    let snapshot = scenarios::isis_grid(3, 2);
    let (emu, meta) = EmulationBackend::with_seed(1).run(&snapshot).unwrap();
    assert!(meta.converged);
    let mut lsps = 0;
    for node in &snapshot.topology.nodes {
        let isis = emu.router(&node.name).unwrap().isis_engine().unwrap();
        for lsp in isis.lsdb() {
            let decoded = IsisPdu::decode(&mut lsp.bytes().clone()).unwrap();
            assert!(matches!(decoded, IsisPdu::Lsp(_)), "{decoded:?}");
            assert_eq!(&decoded.encode(), lsp.bytes(), "{:?}", lsp.entry());
            lsps += 1;
        }
    }
    assert_eq!(lsps, 6 * 6, "six routers, each holding all six LSPs");
}

#[test]
fn a_feed_replays_its_table_to_a_router_that_comes_back() {
    // Nine routers on two machines; r1 and r5 are each fed 50 routes by an
    // external peer. A killed routing process and a failed machine bring
    // fed routers back with empty tables, opening a new session to their
    // feed. A feed that announced its table once, and answered that OPEN
    // with a bare KEEPALIVE, left 632 and 182 of the 1,082 FIB entries.
    let snapshot = scenarios::production_wan(9, 2, true, 50);
    let backend = EmulationBackend {
        cluster_machines: 2,
        ..EmulationBackend::with_seed(1)
    };
    let (converged, meta) = backend.run(&snapshot).expect("wan boots");
    assert!(meta.converged);
    let clean = converged.dataplane();
    assert_eq!(clean.total_entries(), 1_082);
    let after = converged.now() + SimDuration::from_secs(60) - SimTime::ZERO;
    let faults = [
        ChaosPlan::new().kill_routing("r1", SimTime::ZERO),
        ChaosPlan::new().fail_machine("node-0", SimTime::ZERO),
    ];
    for fault in faults {
        let mut emu = converged.clone();
        emu.schedule_chaos(&fault.shifted(after));
        assert!(emu.run_until_converged().converged, "{fault:?}");
        let healed = emu.dataplane();
        assert_eq!(healed.total_entries(), 1_082, "{fault:?}");
        assert_eq!(healed.digest(), clean.digest(), "{fault:?}");
    }
}
