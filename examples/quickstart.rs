//! Quickstart: verify a two-router network, model-free.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds two router configs, wires them into a topology, runs the
//! model-free pipeline (emulate → extract AFTs → verify), and asks a few
//! questions of the converged dataplane.

use std::net::Ipv4Addr;

use mfv_config::{IfaceSpec, RouterSpec};
use mfv_core::{unreachable_pairs_with, Backend, EmulationBackend, ForwardingAnalysis, Snapshot};
use mfv_emulator::{NodeSpec, Topology};
use mfv_types::AsNum;

fn main() {
    // 1. Describe two routers: an eBGP pair exchanging their loopbacks,
    //    with IS-IS on the link for good measure.
    let r1 = RouterSpec::new("r1", AsNum(65001), Ipv4Addr::new(2, 2, 2, 1))
        .iface(IfaceSpec::new("Ethernet1", "100.64.0.0/31".parse().unwrap()).with_isis())
        .ebgp("100.64.0.1".parse().unwrap(), AsNum(65002))
        .network("2.2.2.1/32".parse().unwrap());
    let r2 = RouterSpec::new("r2", AsNum(65002), Ipv4Addr::new(2, 2, 2, 2))
        .iface(IfaceSpec::new("Ethernet1", "100.64.0.1/31".parse().unwrap()).with_isis())
        .ebgp("100.64.0.0".parse().unwrap(), AsNum(65001))
        .network("2.2.2.2/32".parse().unwrap());

    // 2. The topology file: nodes (with rendered vendor configs) + a link.
    let mut topo = Topology::new("quickstart");
    topo.add_node(NodeSpec::from_config("r1", &r1.build()));
    topo.add_node(NodeSpec::from_config("r2", &r2.build()));
    topo.add_link(("r1", "Ethernet1"), ("r2", "Ethernet1"));
    let snapshot = Snapshot::new("quickstart", topo);

    // 3. Model-free verification: emulate the control planes, wait for the
    //    dataplane to go quiet, extract AFTs, build the dataplane model.
    let backend = EmulationBackend::default();
    let result = backend.compute(&snapshot).expect("pipeline runs");
    println!("backend:          {}", backend.name());
    println!("converged:        {}", result.meta.converged);
    println!(
        "boot time:        {}",
        result
            .meta
            .boot_time
            .map(|d| d.to_string())
            .unwrap_or_default()
    );
    println!(
        "convergence time: {}",
        result
            .meta
            .convergence_time
            .map(|d| d.to_string())
            .unwrap_or_default()
    );
    println!("fib entries:      {}", result.dataplane.total_entries());

    // 4. Ask questions — one analysis of the dataplane answers all of them.
    let fa = ForwardingAnalysis::new(&result.dataplane);
    let trace = fa.trace(&"r1".into(), Ipv4Addr::new(2, 2, 2, 2));
    println!("\ntraceroute r1 → 2.2.2.2:\n{trace}");

    let broken = unreachable_pairs_with(&fa);
    println!(
        "\nreachability: {}",
        if broken.is_empty() {
            "full mesh ✓"
        } else {
            "BROKEN"
        }
    );
    for report in broken {
        println!("  {} cannot fully reach {}", report.src, report.dst_node);
    }
}
